"""Span tracing around the public functions of the five zarlat layers.

Nothing here is imported by the package itself: :class:`Tracer.install`
rebinds each traced public name, in every loaded ``zarlat`` module namespace
that holds it, to a wrapper that records a span, and :meth:`Tracer.uninstall`
puts the originals back.  Rebinding in every namespace (not only the defining
module) catches calls from one layer into another, such as ``zariski``
calling ``linalg.solve`` or ``bounds`` calling ``zariski.decompose``.

A span is ``(name, start, end, parent span, item id, failed)``.  Spans stay
in memory until :meth:`Tracer.write` is called at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from time import perf_counter

# (module, attribute path, metric name) for every traced public function.
TRACED = (
    ("linalg", "RationalMatrix.submatrix", "linalg.RationalMatrix.submatrix"),
    ("linalg", "RationalMatrix.matvec", "linalg.RationalMatrix.matvec"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "is_negative_definite", "linalg.is_negative_definite"),
    ("linalg", "leading_principal_minors", "linalg.leading_principal_minors"),
    ("linalg", "signature", "linalg.signature"),
    ("linalg", "smith_normal_form", "linalg.smith_normal_form"),
    ("zariski", "random_instance", "zariski.random_instance"),
    ("zariski", "decompose", "zariski.decompose"),
    ("zariski", "decompose_bruteforce", "zariski.decompose_bruteforce"),
    ("zariski", "decomposition_checks", "zariski.decomposition_checks"),
    ("zariski", "in_nef_region", "zariski.in_nef_region"),
    ("zariski", "is_exceptional", "zariski.is_exceptional"),
    ("zariski", "exceptional_certificate", "zariski.exceptional_certificate"),
    ("bounds", "cramer_analysis", "bounds.cramer_analysis"),
    ("bounds", "det_trace_bound_holds", "bounds.det_trace_bound_holds"),
    ("bounds", "full_report", "bounds.full_report"),
    ("lattice", "preset", "lattice.preset"),
    ("lattice", "discriminant_group", "lattice.discriminant_group"),
    ("cli", "load_problem", "cli.load_problem"),
    ("cli", "cmd_decompose", "cli.main.decompose"),
    ("cli", "cmd_lattice", "cli.main.lattice"),
    ("cli", "cmd_table", "cli.main.table"),
    ("cli", "cmd_bounds", "cli.main.bounds"),
    ("cli", "cmd_fuzz", "cli.main.fuzz"),
)

DECOMPOSE = "zariski.decompose"


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` the
    index of the parent span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = [name for _, _, name in TRACED]
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self.item = []
        self.failed = []
        self.item_id = -1
        self.rounds = 0
        self.support_size = 0
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name_id: int, fn):
        tracer = self
        observe = self.names[name_id] == DECOMPOSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.item.append(tracer.item_id)
            tracer.failed.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(index)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[index] = 1
                raise
            finally:
                tracer.end[index] = perf_counter()
                tracer._stack.pop()
            if observe:
                tracer.rounds += result.rounds
                tracer.support_size += len(result.negative_support)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced name in every loaded ``zarlat`` module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "zarlat" or n.startswith("zarlat."))]
        for name_id, (module_name, path, _) in enumerate(TRACED):
            home = importlib.import_module(f"zarlat.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name_id, original))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, failed calls and total self time."""
        selfs = self_times(list(zip(self.start, self.end, self.parent)))
        out = {name: {"calls": 0, "failed": 0, "self_s": 0.0} for name in self.names}
        for name_id, failed, self_s in zip(self.name_of, self.failed, selfs):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["failed"] += failed
            entry["self_s"] += self_s
        return out

    def write(self, path: str) -> None:
        """Write every span as gzipped JSON lines, after a header of names."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps({"names": self.names,
                                     "fields": ["name", "start", "end", "parent", "item", "failed"]}))
            handle.write("\n")
            for row in zip(self.name_of, self.start, self.end, self.parent, self.item, self.failed):
                handle.write(json.dumps(row))
                handle.write("\n")
