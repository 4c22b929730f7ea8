#!/usr/bin/env python3
"""Record the reference digests that every benchmark run checks against.

    python3 perfbench/record_reference.py

Runs each item of each full deck once for the default seed, applies the
workload's checks, and writes the digests to ``perfbench/reference.json``.
Re-record only when an output is meant to change; a run whose digests
differ from the recorded ones counts every differing item as failed.
"""

import json
import os
import shutil
import sys
import tempfile

import run

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=run.OUT_DIR)
    reference = {}
    for name in workloads.NAMES:
        wl = workloads.make(name, run.SRC, work_dir)
        deck = wl.build(run.DEFAULT_SEED, wl.full_size)
        digests = [wl.check(i, entry, wl.run(entry)) for i, entry in enumerate(deck)]
        if None in digests:
            print(f"{name}: item {digests.index(None)} failed its checks", file=sys.stderr)
            return 1
        reference[name] = digests
    shutil.rmtree(work_dir)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(digests)}"
                                         for name, digests in reference.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
