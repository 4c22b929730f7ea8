"""Checks on the test configuration itself."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    # Under the suite's warning filters, a failing @given test must be
    # reported as one failure, and the session must go on to run the rest:
    # printing the failure's patch imports code that warns, and an error
    # there used to end the session with INTERNALERROR (exit 3).
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_given.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in output and "INTERNALERROR" not in output, output


def test_cli_import_loads_no_dataclass_machinery():
    # Every CLI use is a fresh process.  Results are NamedTuples because
    # dataclasses, with the inspect it imports, cost about 15 ms of
    # ``import zarlat.cli``, with or without .pyc files.
    script = ("import sys, zarlat.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
