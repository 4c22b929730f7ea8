"""README.md's examples, run as written."""

import doctest
import json
import shlex

import pytest

from zarlat import cli
from conftest import DEFAULT_STR_DIGITS, int_str_limit, readme_blocks, readme_example


def test_library_example():
    # Under the interpreter's default int/str limit, as a user runs it.
    report = []
    runner = doctest.DocTestRunner()
    with int_str_limit(DEFAULT_STR_DIGITS):
        result = runner.run(readme_example(), out=report.append)
    assert result.attempted and not result.failed, "".join(report)


def _dollar_lines():
    """Every ``$ zarlat …`` line of the README, its whitespace runs made single spaces."""
    return [" ".join(line.split()) for block in readme_blocks("sh")
            for line in block.splitlines() if line.startswith("$ ")]


def _table_row(out, name):
    return next(line.split() for line in out.splitlines() if line.startswith(name + " "))


# Each ``$`` line of the README, as written: the exit code it gives, and a
# reader of its stdout giving the values its comment claims.
CLAIMS = {
    '$ zarlat decompose problem.json --verify-oracle # positive ["1","1/2"], negative ["0","1/2"]':
        (0, lambda out: (json.loads(out)["positive"], json.loads(out)["negative"]),
         (["1", "1/2"], ["0", "1/2"])),
    "$ zarlat table --n 5 # K3^[5] row: Z/8, square 32":
        (0, lambda out: (_table_row(out, "K3^[5]")[1], _table_row(out, "K3^[5]")[5]),
         ("Z/8", "32")),
    "$ zarlat bounds K3n:2 --rho 2 # d(X) = 40320, m0 = 846720":
        (0, lambda out: (json.loads(out)["rho_specific"]["denominator_bound"],
                         json.loads(out)["rho_specific"]["birationality_m0"]),
         ("40320", "846720")),
    "$ zarlat fuzz --seed 1 --count 1000 --m 5 # fuzz: 1000 passed, 0 failed out of 1000":
        (0, str.strip, "fuzz: 1000 passed, 0 failed out of 1000"),
}


def test_claims_are_the_readme_lines():
    # A line edited in the README, its comment included, or a claim left
    # behind here fails, so the two cannot drift apart.
    assert sorted(_dollar_lines()) == sorted(CLAIMS)


@pytest.mark.parametrize("line", _dollar_lines())
def test_command_line_example(tmp_path, monkeypatch, capsys, line):
    (problem,) = readme_blocks("json")
    (tmp_path / "problem.json").write_text(problem, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    command, _, _ = line.partition(" # ")
    prompt, program, *argv = shlex.split(command)
    assert (prompt, program) == ("$", "zarlat")
    code, read, claimed = CLAIMS[line]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert read(out) == claimed, out
