"""Command-line front end.

Subcommands: ``decompose`` (JSON problem in, JSON result out), ``lattice``
(catalog/preset queries), ``table`` (the four-family discriminant table,
recomputed and checked against the stored published columns), ``bounds``
(the full bound report for a preset) and ``fuzz`` (seeded runs of
:func:`zarlat.bounds.instance_failures`).  Output goes to ``-o``, then stdout.

Exit codes, stable and documented:

* 0 — success
* 1 — unreadable input or unwritable ``-o``/stdout: file/JSON/schema/grammar/flag errors
* 2 — the Gram matrix is not an intersection product (or the decomposition
  detected inconsistent input)
* 3 — engine and brute-force oracle disagreed
* 4 — a verified property failed or raised (fuzz run, table cross-check)

A problem file is checked against the structure of
``schemas/problem.schema.json`` by a hand-written check that accepts and
rejects the same documents as a JSON Schema validator, so no validator is
imported at run time.  Values are checked once, by the library: rationals
(problem entries, ``--volume``) follow the one grammar of
:func:`zarlat.linalg.as_rational`, and preset aliases and block names are
those of :mod:`zarlat.lattice`.  Floating-point JSON literals are rejected at
parse time.  Identical input and flags produce byte-identical output:
dictionaries are built in a fixed key order and all randomness flows from
explicit seeds.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

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
from .linalg import _RATIONAL, signature

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


def _nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise DomainError(f"{flag} must be a nonnegative integer, got {value}")
    return value


# A type error's message embeds the repr of the offending value, which can be
# as large as the file; the error line keeps this many characters of it.
_SCHEMA_MESSAGE_LIMIT = 200

# The ``rational`` pattern of problem.schema.json: the library's grammar,
# anchored and matched with ``re.search`` as JSON Schema does, so ``"3\n"``
# passes here and fails in the library.
_RATIONAL_PATTERN = f"^{_RATIONAL.pattern}$"
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "integer": int}


class _SchemaViolation(Exception):
    """A problem document breaks problem.schema.json at ``where``."""

    def __init__(self, where: str, message: str):
        super().__init__(message)
        self.where = where


def _typed(value, kind: str, where: str):
    if not isinstance(value, _JSON_TYPES[kind]) or (kind == "integer" and isinstance(value, bool)):
        raise _SchemaViolation(where, f"{value!r} is not of type {kind!r}")
    return value


def _nonempty(value, kind: str, where: str):
    if not _typed(value, kind, where):
        raise _SchemaViolation(where, f"{value!r} should be non-empty")
    return value


def _object(value, where: str, names: tuple, required: tuple = ()) -> dict:
    _typed(value, "object", where)
    for name in required:
        if name not in value:
            raise _SchemaViolation(where, f"{name!r} is a required property")
    extra = [name for name in value if name not in names]
    if extra:
        verb = "was" if len(extra) == 1 else "were"
        listed = ", ".join(map(repr, extra))
        raise _SchemaViolation(where, f"Additional properties are not allowed ({listed} {verb} unexpected)")
    return value


def _rationals(values, where: str) -> None:
    for i, value in enumerate(_nonempty(values, "array", where)):
        if isinstance(value, str):
            if not re.search(_RATIONAL_PATTERN, value):
                raise _SchemaViolation(f"{where}[{i}]", f"{value!r} does not match {_RATIONAL_PATTERN!r}")
        elif not isinstance(value, int) or isinstance(value, bool):
            raise _SchemaViolation(f"{where}[{i}]", f"{value!r} is not valid under any of the given schemas")


def _check_problem(raw) -> None:
    """Raise :class:`_SchemaViolation` where ``raw`` breaks problem.schema.json.

    ``raw`` comes from ``json.load`` with floats rejected, so a JSON integer
    is exactly an ``int`` that is not a ``bool``.
    """
    _object(raw, "$", ("labels", "gram", "divisor", "options"), ("labels", "gram", "divisor"))
    for i, label in enumerate(_nonempty(raw["labels"], "array", "$.labels")):
        _nonempty(label, "string", f"$.labels[{i}]")
    for i, row in enumerate(_nonempty(raw["gram"], "array", "$.gram")):
        _rationals(row, f"$.gram[{i}]")
    _rationals(raw["divisor"], "$.divisor")
    options = _object(raw.get("options", {}), "$.options", ("verify_oracle", "oracle_limit"))
    _typed(options.get("verify_oracle", False), "boolean", "$.options.verify_oracle")
    limit = options.get("oracle_limit", 1)
    if _typed(limit, "integer", "$.options.oracle_limit") < 1:
        raise _SchemaViolation("$.options.oracle_limit", f"{limit!r} is less than the minimum of 1")


def _reject_float(text: str):
    raise DomainError(
        f"floating-point literal {text!r} rejected; exact rationals only (integers or 'p/q' strings)"
    )


@contextmanager
def _int_str_unlimited():
    """Lift CPython's int/str conversion limit inside the block and give the
    caller back the limit it had."""
    previous = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def load_problem(path: str):
    """Parse and check a problem file; returns (form, divisor, options).

    :func:`_check_problem` checks types and grammar, the library
    constructors shape, symmetry and nonnegativity; every failure is a
    DomainError naming ``path``.  Integer literals and ``p/q`` strings of
    any length parse, whatever the caller's int/str conversion limit.
    """
    with _int_str_unlimited():
        return _load_problem(path)


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, parse_float=_reject_float, parse_constant=_reject_float)
        _check_problem(raw)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except _SchemaViolation as exc:
        message = str(exc)
        if len(message) > _SCHEMA_MESSAGE_LIMIT:
            message = message[:_SCHEMA_MESSAGE_LIMIT] + "..."
        raise DomainError(f"{path}: schema violation at {exc.where}: {message}") from exc
    except RecursionError:
        # json.load, and the repr in a schema message, recurse once per nesting level.
        raise DomainError(f"{path}: JSON nested too deeply") from None
    try:
        form = zariski.IntersectionForm.from_rows(raw["labels"], raw["gram"])
        divisor = zariski.as_divisor(raw["divisor"], form.size)
    except ZarlatError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    return form, divisor, raw.get("options", {})


def _emit(content, output: Optional[str]) -> None:
    """Write a JSON payload or ready text to ``output`` first, then stdout."""
    text = content if isinstance(content, str) else json.dumps(content, indent=2) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {output}: {exc}") from exc
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise DomainError(f"cannot write stdout: {exc}") from exc


def _result_payload(form, dec, checks) -> dict:
    return {
        "positive": [str(x) for x in dec.positive],
        "negative": [str(x) for x in dec.negative],
        "negative_support": [form.labels[i] for i in dec.negative_support],
        "checks": checks,
        "gram_s_det": str(dec.negative_gram_det),
        "rounds": dec.rounds,
        "status": "ok" if all(checks.values()) else "fail",
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
        raise OracleMismatchError("engine and oracle disagree")
    return EXIT_OK if payload["status"] == "ok" else EXIT_PROPERTY


# The one grammar of integers on the command line, for flags and lattice
# parameters alike: int() would also read ' 1_0 ', '+7' and non-ASCII digits.
_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(text: str) -> int:
    """argparse ``type`` of the integer flags: refused spellings get
    argparse's ``invalid int value`` line and exit 1, as ``abc`` does."""
    if _DECIMAL.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _int_param(param: str, kind: str) -> int:
    """The ``k`` after a ``:`` in a lattice expression; an empty one is
    refused like any other non-decimal spelling."""
    if _DECIMAL.fullmatch(param) is None:
        raise DomainError(f"{kind} parameter {param!r} is not an integer")
    return int(param)


def parse_lattice_expr(text: str):
    """``K3n:3`` / ``OG10`` style presets or ``U+U+rank1:-6`` block sums.

    A head that :func:`zarlat.lattice.normalize_tag` accepts names a preset;
    anything else is a ``+``-separated sum of :func:`zarlat.lattice.block`
    names, each with an optional ``:k`` parameter.  Without a ``:`` the
    parameter is ``None``; with one, ``k`` must be an integer.
    """
    name, colon, param = text.strip().partition(":")
    try:
        lattice_mod.normalize_tag(name)
    except DomainError:
        parts = []
        for token in text.split("+"):
            name, colon, param = token.strip().partition(":")
            k = _int_param(param, "block") if colon else None
            parts.append(lattice_mod.block(name.strip(), k))
        return lattice_mod.direct_sum(parts)
    return lattice_mod.preset(name, _int_param(param, "preset") if colon else None)


def _lattice_payload(lat: "lattice_mod.IntegralLattice", preset=None) -> dict:
    group = lattice_mod.discriminant_group(lat)
    sig = signature(lat.gram)
    payload = {
        "name": lat.name,
        "rank": lat.rank,
        "gram": lat.gram.int_rows(),
        "signature": [sig.n_plus, sig.n_minus, sig.n_zero],
        "elementary_divisors": list(group.elementary_divisors),
        "group": group.describe(),
        "cardinality": group.cardinality,
        "exponent": group.exponent,
        "negativity_bound_general": group.negativity_bound,
        "negativity_bound_refined": group.negativity_bound_refined,
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
    preset = parsed if isinstance(parsed, lattice_mod.DeformationPreset) else None
    _emit(_lattice_payload(parsed if preset is None else parsed.lattice, preset), args.output)
    return EXIT_OK


def _table_rows(n: int) -> list[dict]:
    rows = []
    for p in lattice_mod.presets(n):
        group = lattice_mod.discriminant_group(p.lattice)
        rows.append(
            {
                "type": p.display_name,
                "group": group.describe(),
                "published_group": p.published_group_name(),
                "order_d": group.exponent,
                "published_d": p.published_exponent,
                "bound_general": group.negativity_bound,
                "bound_refined": group.negativity_bound_refined,
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
        lines = [header, "-" * len(header)] + [
            f"{r['type']:<18} {r['group']:<12} {r['order_d']:>7} {r['bound_general']:>7} "
            f"{r['bound_refined']:>6} {r['published_square']:>17} "
            f"{'ok' if r['group_match'] else 'MISMATCH':>6}"
            for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_PROPERTY


def _bound_value_json(value):
    """A deferred bound as its descriptor, an exact number as its string."""
    return value.to_json_dict() if hasattr(value, "to_json_dict") else str(value)


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
        raise DomainError(f"bounds needs a deformation preset, got block expression {args.preset!r}")
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


def cmd_fuzz(args) -> int:
    count = _nonnegative(args.count, "--count")
    oracle_limit = _nonnegative(args.oracle_limit, "--oracle-limit")
    passed = 0
    first_failure = ""
    for i in range(count):
        seed = (args.seed + i) & zariski.MASK64
        form, divisor = zariski.random_instance(zariski.InstanceSpec.standard(seed=seed, m=args.m))
        failures = bounds_mod.instance_failures(form, divisor, oracle_limit, seed)
        if not failures:
            passed += 1
        elif not first_failure:
            first_failure = f"first failing seed: {seed} ({', '.join(failures)})\n"
    _emit(f"fuzz: {passed} passed, {count - passed} failed out of {count}\n" + first_failure, None)
    return EXIT_PROPERTY if first_failure else EXIT_OK


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
    p.add_argument("--oracle-limit", type=_decimal, default=None,
                   help="max support size for the oracle (default 12)")
    p.add_argument("-o", "--output", default=None, help="also write the result JSON here")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("lattice", help="catalog/preset lattice report")
    p.add_argument("expression", help='e.g. "K3n:3", "OG10" or "U+U+rank1:-6"')
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("table", help="recompute the four-family discriminant table")
    p.add_argument("--n", type=_decimal, default=2,
                   help="parameter for the K3/Kummer rows (default 2)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("bounds", help="full bound report for a preset")
    p.add_argument("preset", help='e.g. "K3n:2" or "OG10"')
    p.add_argument("--rho", type=_decimal, required=True, help="Picard number, in [1, h11]")
    p.add_argument("--volume", default="1", help="volume bound C (exact rational, default 1)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fuzz", help="seeded property run over random instances")
    p.add_argument("--seed", type=_decimal, required=True, help="base seed; instance i uses seed+i")
    p.add_argument("--count", type=_decimal, default=100)
    p.add_argument("--m", type=_decimal, default=4, help="components per instance")
    p.add_argument("--oracle-limit", type=_decimal, default=8)
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Flags, problem files and decompose results may hold integers longer
    # than CPython's int/str conversion limit.  Bound values render through
    # bounds.decimal_string, which needs no lift.
    with _int_str_unlimited():
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit as exc:  # from argparse: usage errors and --help
            return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
        except ZarlatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())
