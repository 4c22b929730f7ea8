"""Command-line front end.

Subcommands: ``decompose`` (JSON problem in, JSON result out), ``lattice``
(catalog/preset queries), ``table`` (the four-family discriminant table,
recomputed and checked against the stored published columns), ``bounds``
(the full bound report for a preset) and ``fuzz`` (seeded property runs).

Exit codes, stable and documented:

* 0 — success
* 1 — unreadable input: JSON/schema/grammar/flag errors
* 2 — the Gram matrix is not an intersection product (or the decomposition
  detected inconsistent input)
* 3 — engine and brute-force oracle disagreed
* 4 — a verified property failed (fuzz run, table cross-check)

Values are checked once, by the library: rationals (problem entries,
``--volume``) follow the one grammar of :func:`zarlat.linalg.as_rational`,
and preset aliases and block names are those of :mod:`zarlat.lattice`.
Floating-point JSON literals are rejected at parse time.  Identical input
and flags produce byte-identical output: dictionaries are built in a fixed
key order and all randomness flows from explicit seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources
from math import lcm
from typing import Optional, Sequence

import jsonschema

from . import bounds as bounds_mod
from . import lattice as lattice_mod
from . import zariski
from .errors import (
    AxiomViolationError,
    DomainError,
    InconsistencyError,
    OracleMismatchError,
    ZarlatError,
)
from .linalg import signature

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_AXIOM = 2
EXIT_ORACLE = 3
EXIT_PROPERTY = 4

# Every ZarlatError reaching ``main`` is printed as one ``error:`` line and
# exits with the code of the first class it is an instance of.
_EXIT_CODES = (
    (AxiomViolationError, EXIT_AXIOM),
    (OracleMismatchError, EXIT_ORACLE),
    (ZarlatError, EXIT_INPUT),
)


class InputError(ZarlatError):
    """Bad problem file, expression or flag value (exit code 1)."""


def _nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise InputError(f"{flag} must be a nonnegative integer, got {value}")
    return value


def _reject_float(text: str):
    raise InputError(
        f"floating-point literal {text!r} rejected; exact rationals only (integers or 'p/q' strings)"
    )


def _schema(name: str) -> dict:
    data = resources.files("zarlat").joinpath(f"schemas/{name}").read_text(encoding="utf-8")
    return json.loads(data)


def load_problem(path: str):
    """Parse and validate a problem file; returns (form, divisor, options).

    The schema checks types and grammar, the library constructors shape,
    symmetry and nonnegativity; every failure is an InputError naming ``path``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, parse_float=_reject_float, parse_constant=_reject_float)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        jsonschema.validate(raw, _schema("problem.schema.json"))
    except jsonschema.ValidationError as exc:
        raise InputError(f"{path}: schema violation at {exc.json_path}: {exc.message}") from exc
    try:
        form = zariski.IntersectionForm.from_rows(raw["labels"], raw["gram"])
        divisor = zariski.as_divisor(raw["divisor"], form.size)
    except ZarlatError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return form, divisor, raw.get("options", {})


def _emit(payload: dict, output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    sys.stdout.write(text)


def _result_payload(form, dec, checks) -> dict:
    status = "ok" if all(checks.values()) else "fail"
    return {
        "positive": [str(x) for x in dec.positive],
        "negative": [str(x) for x in dec.negative],
        "negative_support": [form.labels[i] for i in dec.negative_support],
        "checks": checks,
        "gram_s_det": str(dec.negative_gram_det),
        "rounds": dec.rounds,
        "status": status,
    }


def cmd_decompose(args) -> int:
    form, divisor, options = load_problem(args.problem)
    verify = args.verify_oracle or options.get("verify_oracle", False)
    oracle_limit = options.get("oracle_limit", 12)
    if args.oracle_limit is not None:
        oracle_limit = _nonnegative(args.oracle_limit, "--oracle-limit")
    try:
        dec = zariski.decompose(form, divisor)
    except InconsistencyError as exc:
        print(f"error: inconsistent input: {exc}", file=sys.stderr)
        return EXIT_AXIOM
    checks = zariski.decomposition_checks(form, divisor, dec)
    if verify and len(zariski.support_of(divisor)) <= oracle_limit:
        oracle = zariski.decompose_bruteforce(form, divisor, limit=oracle_limit)
        match = (oracle.positive, oracle.negative) == (dec.positive, dec.negative)
        checks = dict(checks, oracle_match=match)
    payload = _result_payload(form, dec, checks)
    _emit(payload, args.output)
    if not checks.get("oracle_match", True):
        print("error: engine and oracle disagree", file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK if payload["status"] == "ok" else EXIT_PROPERTY


def _int_param(param: str, kind: str) -> Optional[int]:
    if not param:
        return None
    try:
        return int(param)
    except ValueError:
        raise InputError(f"{kind} parameter {param!r} is not an integer") from None


def parse_lattice_expr(text: str):
    """``K3n:3`` / ``OG10`` style presets or ``U+U+rank1:-6`` block sums.

    A head that :func:`zarlat.lattice.normalize_tag` accepts names a preset;
    anything else is a ``+``-separated sum of :func:`zarlat.lattice.block`
    names, each with an optional ``:k`` parameter.
    """
    name, _, param = text.strip().partition(":")
    try:
        lattice_mod.normalize_tag(name)
    except DomainError:
        parts = []
        for token in text.split("+"):
            name, _, param = token.strip().partition(":")
            parts.append(lattice_mod.block(name.strip(), _int_param(param, "block")))
        return lattice_mod.direct_sum(parts)
    return lattice_mod.preset(name, _int_param(param, "preset"))


def _lattice_payload(lat: "lattice_mod.IntegralLattice", preset=None) -> dict:
    group = lattice_mod.discriminant_group(lat)
    sig = signature(lat.gram)
    payload = {
        "name": lat.name,
        "rank": lat.rank,
        "gram": [[int(x) for x in row] for row in lat.gram.entries],
        "signature": [sig.n_plus, sig.n_minus, sig.n_zero],
        "elementary_divisors": list(group.elementary_divisors),
        "group": group.describe(),
        "cardinality": group.cardinality,
        "exponent": group.exponent,
        "negativity_bound_general": 4 * group.cardinality,
        "negativity_bound_refined": 4 * group.exponent,
    }
    if preset is not None:
        payload["preset"] = {
            "type": preset.display_name,
            "b2": preset.b2,
            "h11": preset.h11,
            "published_group": preset.published_group_name(),
            "published_exponent": preset.published_exponent,
            "published_max_square": preset.published_max_square,
        }
    return payload


def cmd_lattice(args) -> int:
    parsed = parse_lattice_expr(args.expression)
    if isinstance(parsed, lattice_mod.DeformationPreset):
        payload = _lattice_payload(parsed.lattice, preset=parsed)
    else:
        payload = _lattice_payload(parsed)
    _emit(payload, args.output)
    return EXIT_OK


def _table_rows(n: int) -> list[dict]:
    presets = [
        lattice_mod.preset("K3n", n),
        lattice_mod.preset("Kummer", n),
        lattice_mod.preset("OG6"),
        lattice_mod.preset("OG10"),
    ]
    rows = []
    for p in presets:
        group = lattice_mod.discriminant_group(p.lattice)
        rows.append(
            {
                "type": p.display_name,
                "group": group.describe(),
                "published_group": p.published_group_name(),
                "order_d": group.exponent,
                "published_d": p.published_exponent,
                "bound_general": 4 * group.cardinality,
                "bound_refined": 4 * group.exponent,
                "published_square": p.published_max_square,
                "group_match": group.elementary_divisors == p.published_group,
            }
        )
    return rows


def cmd_table(args) -> int:
    rows = _table_rows(args.n)
    ok = all(r["group_match"] and r["order_d"] == r["published_d"] for r in rows)
    if args.json:
        _emit({"n": args.n, "rows": rows, "status": "ok" if ok else "fail"}, args.output)
    else:
        header = (
            f"{'Deformation type':<18} {'A_X':<12} {'Order d':>7} {'4*Card':>7} "
            f"{'4*exp':>6} {'Published square':>17} {'Check':>6}"
        )
        print(header)
        print("-" * len(header))
        for r in rows:
            print(
                f"{r['type']:<18} {r['group']:<12} {r['order_d']:>7} {r['bound_general']:>7} "
                f"{r['bound_refined']:>6} {r['published_square']:>17} "
                f"{'ok' if r['group_match'] else 'MISMATCH':>6}"
            )
    return EXIT_OK if ok else EXIT_PROPERTY


def _bound_value_json(value):
    if isinstance(value, (bounds_mod.DeferredFactorial, bounds_mod.DeferredReverse,
                          bounds_mod.DeferredPower)):
        return value.to_json_dict()
    if isinstance(value, Fraction):
        return str(value)
    return str(int(value))


def _bound_set_json(bound_set) -> dict:
    return {
        "rho": bound_set.rho,
        "denominator_bound": _bound_value_json(bound_set.denominator_bound),
        "reverse_negativity_bound": _bound_value_json(bound_set.reverse_negativity_bound),
        "birationality_m0": _bound_value_json(bound_set.birationality_multiple),
        "chow_degree": _bound_value_json(bound_set.chow_degree),
    }


def cmd_bounds(args) -> int:
    parsed = parse_lattice_expr(args.preset)
    if not isinstance(parsed, lattice_mod.DeformationPreset):
        raise InputError(f"bounds needs a deformation preset, got block expression {args.preset!r}")
    report = bounds_mod.full_report(parsed, rho=args.rho, volume=args.volume)
    payload = {
        "preset": report.name,
        "half_dimension": report.half_dim,
        "cardinality": report.cardinality,
        "negativity_bound_general": report.negativity_bound,
        "negativity_bound_refined": report.negativity_bound_refined,
        "published_max_square": report.published_max_square,
        "volume": str(report.volume),
        "rho_specific": _bound_set_json(report.at_rho),
        "uniform": _bound_set_json(report.uniform),
    }
    _emit(payload, args.output)
    return EXIT_OK


def _fuzz_instance(form, divisor, oracle_limit: int, rng) -> list[str]:
    """All per-instance property checks; returns the names that failed."""
    failures = []
    dec = zariski.decompose(form, divisor)
    checks = zariski.decomposition_checks(form, divisor, dec)
    failures.extend(name for name, ok in checks.items() if not ok)
    if len(zariski.support_of(divisor)) <= oracle_limit:
        oracle = zariski.decompose_bruteforce(form, divisor, limit=oracle_limit)
        if (oracle.positive, oracle.negative) != (dec.positive, dec.negative):
            failures.append("oracle_match")
    support = dec.negative_support
    if support:
        # Cramer divisibility on the cleared-denominator divisor.
        scale = lcm(*(x.denominator for x in divisor))
        scaled = [x * scale for x in divisor]
        # Scaling D by a positive integer scales P and N, so by uniqueness
        # the negative support of the scaled divisor is ``support``.
        analysis = bounds_mod.cramer_analysis(form, scaled, support)
        if any(c.denominator and analysis.common_denominator % c.denominator != 0
               for c in analysis.coefficients):
            failures.append("cramer_divisibility")
        diag = [-int(form.gram[i, i]) for i in support]
        if not bounds_mod.det_trace_bound_holds(form, support, max(diag)):
            failures.append("det_trace_bound")
        # One random nonzero nonnegative combination on the support must
        # pair negatively with some component and have negative square.
        c = [Fraction(0)] * form.size
        while all(x == 0 for x in c):
            for i in support:
                c[i] = Fraction(rng.randint(0, 5))
        gc = form.gram.matvec(c)
        if not any(gc[j] < 0 for j in support):
            failures.append("negative_pairing_exists")
        if sum((x * y for x, y in zip(c, gc)), Fraction(0)) >= 0:
            failures.append("negative_square")
        cert = zariski.exceptional_certificate(form, support)
        if not cert.accepted:
            failures.append("certificate_positive")
    return failures


def cmd_fuzz(args) -> int:
    count = _nonnegative(args.count, "--count")
    oracle_limit = _nonnegative(args.oracle_limit, "--oracle-limit")
    passed = 0
    first_failure = None
    for i in range(count):
        seed = (args.seed + i) & zariski.MASK64
        spec = zariski.InstanceSpec.standard(seed=seed, m=args.m)
        form, divisor = zariski.random_instance(spec)
        rng = zariski.SplitMix64(seed ^ 0xD1F7)
        failures = _fuzz_instance(form, divisor, oracle_limit, rng)
        if failures:
            if first_failure is None:
                first_failure = (seed, failures)
        else:
            passed += 1
    print(f"fuzz: {passed} passed, {count - passed} failed out of {count}")
    if first_failure is not None:
        print(f"first failing seed: {first_failure[0]} ({', '.join(first_failure[1])})")
        return EXIT_PROPERTY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zarlat",
        description="Exact Zariski decompositions, lattice discriminants and bound reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a JSON problem file")
    p.add_argument("problem", help="path to a problem JSON file")
    p.add_argument("--verify-oracle", action="store_true",
                   help="cross-check against brute-force enumeration")
    p.add_argument("--oracle-limit", type=int, default=None,
                   help="max support size for the oracle (default 12)")
    p.add_argument("-o", "--output", default=None, help="also write the result JSON here")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("lattice", help="catalog/preset lattice report")
    p.add_argument("expression", help='e.g. "K3n:3", "OG10" or "U+U+rank1:-6"')
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("table", help="recompute the four-family discriminant table")
    p.add_argument("--n", type=int, default=2, help="parameter for the K3/Kummer rows (default 2)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("bounds", help="full bound report for a preset")
    p.add_argument("preset", help='e.g. "K3n:2" or "OG10"')
    p.add_argument("--rho", type=int, required=True, help="Picard number, in [1, h11]")
    p.add_argument("--volume", default="1", help="volume bound C (exact rational, default 1)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fuzz", help="seeded property run over random instances")
    p.add_argument("--seed", type=int, required=True, help="base seed; instance i uses seed+i")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--m", type=int, default=4, help="components per instance")
    p.add_argument("--oracle-limit", type=int, default=8)
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Materialized bounds are exact big integers by design (a factorial just
    # under the guard has ~half a million digits); lift CPython's int-to-str
    # conversion limit so serializing them cannot fail.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ZarlatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())
