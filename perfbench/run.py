#!/usr/bin/env python3
"""Layered benchmark for zarlat.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fuzz-small --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` is a separate run on the same seed and inputs: each of the
first ``trace_size`` deck entries runs untraced and then traced, back to
back, giving the per-layer metrics (exact call counts, self time, failed
calls) and the tracing overhead.

Item and set-up times are reference-speed times: the raw wall time scaled
by ``nominal / c``, where ``c`` is the time of a fixed piece of work that
runs no zarlat code, measured next to it (:class:`Calibrator`): a
pure-Python ``Fraction`` loop for work done in this process, a bare
``python -c pass`` for ``cli-cold``'s fresh processes.  On a shared machine
whose speed drifts by more than half over tens of seconds, this keeps runs
comparable; a slower zarlat still reads slower.  The summary lines print
the raw figures too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  The package is imported from ``src/`` of the
checkout; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from time import perf_counter
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
REPEATS = 5
CAL_WINDOW = 10

# Nearest-rank tail percentile per workload.  Each keeps far more than ten
# samples beyond it in a 25-second run; perfbench/README.md gives why none
# is higher.
TAIL_PERCENTILE = {"fuzz-small": 95, "support-growth": 80, "cli-cold": 75}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
w = workloads.make({workload!r}, {src!r}, {work_dir!r})
w.build({seed!r}, {size!r})
elapsed = time.perf_counter() - t0
import run
print(elapsed, run.fraction_loop_seconds())
"""


def fraction_loop_seconds() -> float:
    """Time of a fixed ``Fraction`` workload, about 2 ms on an idle core:
    the fastest of three back-to-back runs, so that a cold cache or a wake-up
    after waiting on a child process does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = Fraction(0)
        for k in range(1, 300):
            acc += Fraction(k, k + 1) * Fraction(k + 2, k + 3)
        best = min(best, perf_counter() - t0)
    return best


def per_layer_units() -> dict[str, str]:
    from spans import TRACED

    units = {}
    for _, _, name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.failed"] = "count"
    units["zariski.decompose.rounds"] = "count"
    units["zariski.decompose.support_size"] = "count"
    units["zariski.decompose.calls_per_item"] = "ratio"
    units["cli.interpreter_s"] = "s"
    units["cli.import_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


def fresh_process_seconds(args: list[str]) -> float:
    """Raw wall time of one fresh interpreter running ``args``."""
    from workloads import cli_env

    t0 = perf_counter()
    subprocess.run([sys.executable, *args], check=True, env=cli_env(SRC), stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def interpreter_and_import_seconds(repeats: int) -> tuple[float, float]:
    """Medians over back-to-back pairs of fresh processes: a bare
    ``python -c pass``, and ``import zarlat.cli`` minus that floor."""
    floors, imports = [], []
    for _ in range(repeats):
        floor = fresh_process_seconds(["-c", "pass"])
        floors.append(floor)
        imports.append(fresh_process_seconds(["-c", "import zarlat.cli"]) - floor)
    return statistics.median(floors), statistics.median(imports)


@dataclass(frozen=True)
class Calibrator:
    """Fixed work that runs no zarlat code, timed between items: its time
    ``measure()`` is ``nominal_s`` on the recording machine at full speed,
    and it runs at most every ``every_s`` seconds."""

    measure: Callable[[], float]
    nominal_s: float
    every_s: float


# A parent-side loop tracks in-process work well but not fresh processes,
# which it mis-scaled by up to a third; a bare interpreter start tracks them.
IN_PROCESS = Calibrator(fraction_loop_seconds, 0.002, 0.1)
FRESH_PROCESS = Calibrator(lambda: fresh_process_seconds(["-c", "pass"]), 0.07, 0.25)


def setup_seconds(workload: str, seed: int, size: int, work_dir: str, repeats: int) -> float:
    """Median, over fresh processes, of importing the package and building
    the deck, timed inside the child so interpreter start is excluded."""
    from workloads import cli_env

    code = SETUP_PROBE.format(src=SRC, here=HERE, workload=workload,
                              work_dir=work_dir, seed=seed, size=size)
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], check=True, env=cli_env(SRC),
                             capture_output=True, text=True).stdout
        elapsed, cal = (float(x) for x in out.split())
        times.append(elapsed * IN_PROCESS.nominal_s / cal)
    return statistics.median(times)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(p / 100 * len(ordered)) - 1)]


class Verifier:
    """Per-item correctness: the workload's own checks, then the digest must
    equal the reference digest (recorded for the default seed, and for
    seed-independent CLI commands) or else the first digest seen at that
    deck position."""

    def __init__(self, workload, deck, seed: int, reference: list[str]):
        self.workload = workload
        self.expected: dict[int, str] = {}
        for position, entry in enumerate(deck):
            if position < len(reference) and (seed == DEFAULT_SEED or not getattr(entry, "seeded", True)):
                self.expected[position] = reference[position]
        self.reported = False

    def ok(self, position: int, entry, result) -> bool:
        got = self.workload.check(position, entry, result)
        if got is not None and got == self.expected.setdefault(position, got):
            return True
        self.report(f"item at deck position {position} failed its checks")
        return False

    def report(self, message: str) -> None:
        if not self.reported:
            print(f"first failure: {message}", file=sys.stderr)
            self.reported = True


@dataclass
class Pass:
    """Items run in one loop: raw and reference-speed times, failures, and
    the calibration times taken between items."""

    raw: list[float]
    times: list[float]
    failed: int
    calibrations: list[float]


def run_items(runner, deck, verifier, stop, calibrator: Calibrator, tracer=None) -> Pass:
    """Closed loop over the deck until ``stop(items_done, timed_seconds)``.

    Only the calls are timed; checks and calibrations run between items.  A
    calibration runs at the start, after any item that ends at least
    ``calibrator.every_s`` after the previous calibration, and at the end; each
    item's time is scaled by the mean of the calibrations on either side,
    each taken as the median of it and its ``CAL_WINDOW`` neighbours on
    each side.
    """
    raw, segment, failed, total = [], [], 0, 0.0
    calibrations = [calibrator.measure()]
    next_cal = perf_counter() + calibrator.every_s
    while True:
        i = len(raw)
        position = i % len(deck)
        entry = deck[position]
        if tracer is not None:
            tracer.item_id = i
        t0 = perf_counter()
        try:
            result = runner(entry)
        except Exception:
            elapsed = perf_counter() - t0
            verifier.report(traceback.format_exc())
            ok = False
        else:
            elapsed = perf_counter() - t0
            ok = verifier.ok(position, entry, result)
        raw.append(elapsed)
        segment.append(len(calibrations) - 1)
        total += elapsed
        failed += not ok
        if stop(i + 1, total):
            break
        if perf_counter() >= next_cal:
            calibrations.append(calibrator.measure())
            next_cal = perf_counter() + calibrator.every_s
    calibrations.append(calibrator.measure())
    # One calibration is noisy; the machine's speed drifts over seconds.
    smooth = [statistics.median(calibrations[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
              for k in range(len(calibrations))]
    nominal = calibrator.nominal_s
    times = [t * 2 * nominal / (smooth[s] + smooth[s + 1]) for t, s in zip(raw, segment)]
    return Pass(raw, times, failed, calibrations)


def load_reference(workload: str) -> list[str]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: int | None = None, repeats: int = REPEATS) -> tuple[dict, list[str]]:
    """One benchmark run: the result object printed as JSON, and notes for
    the readable summary."""
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        wl = workloads.make(workload, SRC, work_dir)
        size = wl.full_size if size is None else size
        setup_s = setup_seconds(workload, seed, size, work_dir, repeats)
        deck = wl.build(seed, size)
        verifier = Verifier(wl, deck, seed, load_reference(workload))
        if trace:
            return traced(wl, deck, verifier, seed, repeats)
        calibrator = FRESH_PROCESS if workload == "cli-cold" else IN_PROCESS
        done = run_items(wl.run, deck, verifier, lambda i, timed: timed >= seconds, calibrator)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": setup_s,
        "items_per_s": len(done.times) / sum(done.times),
        "item_p50_ms": statistics.median(done.times) * 1000,
        "item_tail_ms": percentile(done.times, tail) * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    beyond = len(done.times) - ceil(tail / 100 * len(done.times))
    notes = [
        f"item_tail_ms is p{tail:g}, with {beyond} of {len(done.times)} samples beyond it",
        f"raw wall time: items_per_s {len(done.raw) / sum(done.raw):.6g}, item_p50_ms "
        f"{statistics.median(done.raw) * 1000:.6g}; calibration median "
        f"{statistics.median(done.calibrations) * 1000:.4g} ms, nominal {calibrator.nominal_s * 1000:g} ms",
    ]
    return result_object(len(done.times), done.failed, metrics, END_TO_END_UNITS), notes


def traced(wl, deck, verifier, seed: int, repeats: int) -> tuple[dict, list[str]]:
    from spans import DECOMPOSE, Tracer

    runner = getattr(wl, "run_in_process", wl.run)
    deck = deck[:wl.trace_size]
    tracer = Tracer()
    plain_s, traced_s = [], []

    def untraced_then_traced(entry):
        # Back to back, so that machine drift cancels in the overhead ratio;
        # the traced result is the one checked.
        t0 = perf_counter()
        runner(entry)
        plain_s.append(perf_counter() - t0)
        with tracer:
            t0 = perf_counter()
            result = runner(entry)
            traced_s.append(perf_counter() - t0)
        return result

    runner(deck[0])  # first-call imports and caches, outside the timed pass
    done = run_items(untraced_then_traced, deck, verifier, lambda i, timed: i >= len(deck),
                     IN_PROCESS, tracer)
    spans_path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.jsonl.gz")
    tracer.write(spans_path)
    scale = sum(done.times) / sum(done.raw)
    summary = tracer.summary()
    metrics = {}
    for name, entry in summary.items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"] * scale
        metrics[f"{name}.failed"] = entry["failed"]
    metrics["zariski.decompose.rounds"] = tracer.rounds
    metrics["zariski.decompose.support_size"] = tracer.support_size
    metrics["zariski.decompose.calls_per_item"] = metrics[f"{DECOMPOSE}.calls"] / len(deck)
    metrics["cli.interpreter_s"], metrics["cli.import_s"] = interpreter_and_import_seconds(repeats)
    metrics["trace.overhead_frac"] = sum(traced_s) / sum(plain_s) - 1
    item_s = sum(traced_s) * scale
    shares = {}
    for name, entry in summary.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + metrics[f"{name}.self_s"] / item_s
    notes = [f"traced pass of {len(deck)} items, {item_s:.4g} s; "
             f"spans written to {os.path.relpath(spans_path, ROOT)}",
             "self-time share of traced item time: " + ", ".join(
                 f"{layer} {share:.1%}" for layer, share in shares.items())
             + f", outside traced calls {1 - sum(shares.values()):.1%}"]
    return result_object(len(done.times), done.failed, metrics, per_layer_units()), notes


def result_object(attempted: int, failed: int, values: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def summary_lines(workload: str, seed: int, result: dict, notes: list[str]) -> list[str]:
    lines = [f"{workload} seed={seed}: attempted {result['attempted']}, failed {result['failed']}, "
             f"failed_frac {result['failed'] / result['attempted']:.4g}"]
    zero = 0
    for name, metric in result["metrics"].items():
        if metric["value"] == 0:
            zero += 1
            continue
        lines.append(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if zero:
        lines.append(f"  ({zero} metrics are 0 and not shown)")
    lines.extend(f"  ({note})" for note in notes)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fuzz-small", "support-growth", "cli-cold"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zarlat", "__init__.py")):
        print(f"error: no zarlat sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary_lines(args.workload, args.seed, result, notes)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
