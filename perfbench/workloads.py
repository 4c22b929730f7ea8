"""The three benchmark workloads: seeded decks of items, how one item runs,
and how its result is checked.

Every input comes from the workload seed through SplitMix64, so the same
seed gives the same deck.  Each workload is a closed loop with one caller:
the next item starts when the previous one has finished.

* ``fuzz-small``: acceptance-corpus-shaped instances (m cycling 1..6,
  denominators <= 4) through the per-instance calls of ``zarlat fuzz`` plus
  nef-region queries.  Thousands of tiny matrices: per-call overhead,
  oracle enumeration and nef queries dominate.
* ``support-growth``: ``decompose`` plus ``decomposition_checks`` on large
  negative-heavy and mixed instances, m in {12, 24, 36, 48}.  Exact
  elimination in ``linalg`` dominates.
* ``cli-cold``: a fixed mix of fresh ``python -m zarlat`` processes.
  Interpreter start and ``import zarlat.cli`` set the median.

Decks hold distinct inputs, enough that a run seldom repeats one, so a
run's figures average over many instances of the seed.  The traced run
makes one pass over the first ``trace_size`` entries of the deck.

A workload object has ``build(seed, size)`` returning the deck,
``run(entry)`` doing the timed calls of one item, and ``check(position,
entry, result)`` returning the item's digest, or ``None`` when a check
failed.  Checks run outside the timed calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from zarlat import bounds as B
from zarlat import linalg as L
from zarlat import zariski as Z

FUZZ_ORACLE_LIMIT = 8
NEF_SCALED = 4
NEF_RANDOM = 4
GROWTH_SIZES = (12, 24, 36, 48)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _fmt(values) -> str:
    return ",".join(str(x) for x in values)


def decomposition_digest(dec) -> str:
    return "P" + _fmt(dec.positive) + ";N" + _fmt(dec.negative) + ";S" + \
        _fmt(dec.negative_support) + ";D" + str(dec.negative_gram_det)


# --------------------------------------------------------------- fuzz-small

@dataclass(frozen=True)
class FuzzEntry:
    form: Z.IntersectionForm
    divisor: tuple
    scales: tuple           # t values for the scaled positive-part queries
    candidates: tuple       # random sub-divisor candidates


class FuzzSmall:
    name = "fuzz-small"
    full_size = 2400
    trace_size = 600

    def build(self, seed: int, size: int):
        rng = Z.SplitMix64(seed)
        deck = []
        for i in range(size):
            spec = Z.InstanceSpec.standard(seed=rng.next_u64(), m=1 + i % 6, denominator_max=4)
            form, divisor = Z.random_instance(spec)
            q = Z.SplitMix64(spec.seed ^ 0xACCE55)
            scales = tuple(Fraction(q.randint(0, 16), 16) for _ in range(NEF_SCALED))
            candidates = tuple(
                tuple(Fraction(q.randint(0, 8 * x.numerator), 8 * x.denominator) if x > 0
                      else Fraction(0) for x in divisor)
                for _ in range(NEF_RANDOM)
            )
            deck.append(FuzzEntry(form, divisor, scales, candidates))
        return deck

    def run(self, entry: FuzzEntry):
        """The per-instance calls of ``zarlat fuzz``, then nef-region queries
        shaped like acceptance criterion 3 (scaled positive parts, random
        candidates, joins of consecutive members)."""
        form, a = entry.form, entry.divisor
        dec = Z.decompose(form, a)
        checks = Z.decomposition_checks(form, a, dec)
        oracle = Z.decompose_bruteforce(form, a, limit=FUZZ_ORACLE_LIMIT)
        extra = None
        support = dec.negative_support
        if support:
            scale = lcm(*(x.denominator for x in a))
            scaled = [x * scale for x in a]
            scaled_dec = Z.decompose(form, scaled)
            analysis = B.cramer_analysis(form, scaled, Z.support_of(scaled_dec.negative))
            b = max(-int(form.gram[i, i]) for i in support)
            extra = (analysis, B.det_trace_bound_holds(form, support, b),
                     Z.exceptional_certificate(form, support))
        members = [tuple(t * x for x in dec.positive) for t in entry.scales]
        member_ok = [Z.in_nef_region(form, a, v) for v in members]
        candidate_ok = [Z.in_nef_region(form, a, v) for v in entry.candidates]
        pool = members + [v for v, ok in zip(entry.candidates, candidate_ok) if ok]
        joins = [tuple(max(x, y) for x, y in zip(pool[k], pool[(k + 1) % len(pool)]))
                 for k in range(NEF_SCALED)]
        join_ok = [Z.in_nef_region(form, a, v) for v in joins]
        return dec, checks, oracle, extra, member_ok, candidate_ok, join_ok

    def check(self, position: int, entry: FuzzEntry, result) -> Optional[str]:
        dec, checks, oracle, extra, member_ok, candidate_ok, join_ok = result
        if (oracle.positive, oracle.negative) != (dec.positive, dec.negative):
            return None
        if not all(checks.values()):
            return None
        tail = ""
        if extra is not None:
            analysis, det_trace_ok, certificate = extra
            if any(c.denominator and analysis.common_denominator % c.denominator
                   for c in analysis.coefficients):
                return None
            if not (det_trace_ok and certificate.accepted):
                return None
            tail = ";C" + str(analysis.common_denominator)
        if not (all(member_ok) and all(join_ok)):
            return None
        for v, ok in zip(entry.candidates, candidate_ok):
            if ok and any(x > p for x, p in zip(v, dec.positive)):
                return None  # a nef-region member above the maximal one
        bits = "".join("1" if ok else "0" for ok in candidate_ok)
        return digest(decomposition_digest(dec) + tail + ";Q" + bits)


# ----------------------------------------------------------- support-growth

def growth_spec(seed: int, m: int, family: str) -> Z.InstanceSpec:
    if family == "negative-heavy":
        return Z.InstanceSpec(seed=seed, m=m, diagonal_range=(-3 * m, -2 * m),
                              offdiagonal_range=(0, 2), coefficient_range=(1, 9))
    return Z.InstanceSpec(seed=seed, m=m, diagonal_range=(-30, 4),
                          offdiagonal_range=(0, 1), coefficient_range=(1, 9))


@dataclass(frozen=True)
class GrowthEntry:
    family: str
    form: Z.IntersectionForm
    divisor: tuple


class SupportGrowth:
    """Deck order is round-robin over (m, family), so any prefix of the deck
    holds every size and family in near-equal shares."""

    name = "support-growth"
    full_size = 16 * len(GROWTH_SIZES) * 2
    trace_size = 4 * len(GROWTH_SIZES) * 2

    def __init__(self):
        self._definite: dict[tuple, bool] = {}

    def build(self, seed: int, size: int):
        rng = Z.SplitMix64(seed)
        deck = []
        while len(deck) < size:
            for m in GROWTH_SIZES:
                for family in ("negative-heavy", "mixed"):
                    if len(deck) < size:
                        form, divisor = Z.random_instance(growth_spec(rng.next_u64(), m, family))
                        deck.append(GrowthEntry(family, form, divisor))
        return deck

    def run(self, entry: GrowthEntry):
        dec = Z.decompose(entry.form, entry.divisor)
        return dec, Z.decomposition_checks(entry.form, entry.divisor, dec)

    def check(self, position: int, entry: GrowthEntry, result) -> Optional[str]:
        dec, checks = result
        if not all(checks.values()):
            return None
        # Independent definiteness check: inertia (0, k, 0) on the support.
        # Its verdict is kept per deck position and support, as it costs
        # about as much as the decomposition itself.
        support = dec.negative_support
        key = (position, support)
        if key not in self._definite:
            k = len(support)
            self._definite[key] = not k or \
                L.signature(entry.form.gram.submatrix(support)) == L.Inertia(0, k, 0)
        if not self._definite[key]:
            return None
        return digest(decomposition_digest(dec))


# ------------------------------------------------------------------ cli-cold

@dataclass(frozen=True)
class CliEntry:
    label: str
    argv: tuple
    seeded: bool


def problem_json(form: Z.IntersectionForm, divisor) -> str:
    return json.dumps({
        "labels": list(form.labels),
        "gram": [[int(x) for x in row] for row in form.gram.entries],
        "divisor": [str(x) for x in divisor],
    }, indent=2) + "\n"


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


class CliCold:
    """One fresh ``python -m zarlat`` process per item, one at a time."""

    name = "cli-cold"
    full_size = 6
    trace_size = 6

    def __init__(self, src: str, work_dir: str):
        self.src = src
        self.work_dir = os.path.abspath(work_dir)

    def build(self, seed: int, size: int):
        rng = Z.SplitMix64(seed)
        spec = Z.InstanceSpec.standard(seed=rng.next_u64(), m=5)
        form, divisor = Z.random_instance(spec)
        problem = os.path.join(self.work_dir, "problem.json")
        with open(problem, "w", encoding="utf-8") as handle:
            handle.write(problem_json(form, divisor))
        fuzz_seed = str(rng.next_u64() % 10**9)
        deck = [
            CliEntry("decompose", ("decompose", problem, "--verify-oracle"), True),
            CliEntry("lattice K3n:3", ("lattice", "K3n:3"), False),
            CliEntry("table --n 5", ("table", "--n", "5"), False),
            CliEntry("bounds K3n:2 --rho 2", ("bounds", "K3n:2", "--rho", "2"), False),
            CliEntry("bounds OG10 --rho 3", ("bounds", "OG10", "--rho", "3"), False),
            CliEntry("fuzz", ("fuzz", "--seed", fuzz_seed, "--count", "40", "--m", "4"), True),
        ]
        return deck[:size]

    def run(self, entry: CliEntry):
        proc = subprocess.run([sys.executable, "-m", "zarlat", *entry.argv],
                              capture_output=True, env=cli_env(self.src), cwd=self.work_dir)
        return proc.returncode, proc.stdout.decode("utf-8")

    def run_in_process(self, entry: CliEntry):
        """The same command through ``cli.main`` in this process."""
        from zarlat import cli  # only this workload pays for importing the CLI

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(entry.argv))
        return code, out.getvalue()

    def check(self, position: int, entry: CliEntry, result) -> Optional[str]:
        code, stdout = result
        if code != 0 or not self._valid_output(entry, stdout):
            return None
        return digest(stdout)

    @staticmethod
    def _valid_output(entry: CliEntry, stdout: str) -> bool:
        """Content checks for the seeded commands; the others are checked
        against reference digests for every seed."""
        if entry.label == "decompose":
            payload = json.loads(stdout)
            return payload["status"] == "ok" and payload["checks"].get("oracle_match") is True
        if entry.label == "fuzz":
            count = entry.argv[entry.argv.index("--count") + 1]
            return stdout.startswith(f"fuzz: {count} passed, 0 failed")
        return True


def make(name: str, src: str, work_dir: str):
    if name == FuzzSmall.name:
        return FuzzSmall()
    if name == SupportGrowth.name:
        return SupportGrowth()
    if name == CliCold.name:
        return CliCold(src, work_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (FuzzSmall.name, SupportGrowth.name, CliCold.name)
