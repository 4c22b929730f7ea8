import functools
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from zarlat import bounds, cli
from zarlat import linalg, zariski
from zarlat.errors import InconsistencyError, SingularMatrixError

from conftest import DEFAULT_STR_DIGITS, int_str_limit, problem_payload


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error(code, out, err, expected_code=1):
    assert code == expected_code and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def packaged_schema(name):
    import importlib.resources as resources

    return json.loads(resources.files("zarlat").joinpath(f"schemas/{name}").read_text())


def result_schema():
    return packaged_schema("result.schema.json")


class TestDecompose:
    def test_single_exceptional(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"labels": ["E"], "gram": [[-2]], "divisor": ["1"]})
        code, out, _ = run_cli(capsys, "decompose", path)
        assert code == 0
        result = json.loads(out)
        assert result["negative"] == ["1"] and result["positive"] == ["0"]
        assert result["negative_support"] == ["E"]
        assert result["status"] == "ok"
        jsonschema.validate(result, result_schema())

    def test_axiom_violation_exit_2(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, {"labels": ["E1", "E2"], "gram": [[2, -1], [-1, 2]], "divisor": ["1", "1"]}
        )
        code, _, err = run_cli(capsys, "decompose", path)
        assert code == 2
        assert "E1" in err and "E2" in err

    def test_inconsistent_input_exit_2(self, tmp_path, capsys, monkeypatch):
        # An elimination that refuses a support the axioms allow is the one
        # way the decomposition itself detects inconsistent input.
        path = write_problem(
            tmp_path, {"labels": ["A", "B"], "gram": [[-2, 1], [1, -2]], "divisor": [1, 1]}
        )
        monkeypatch.setattr(zariski.BorderedElimination, "extend", lambda self, system: False)
        code, out, err = run_cli(capsys, "decompose", path)
        assert (code, out) == (2, "")
        assert err == ("error: inconsistent input: Gram submatrix on {A, B} is not negative "
                       "definite; the input does not admit a decomposition\n")

    def test_worked_example(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {
                "labels": ["E1", "E2"],
                "gram": [[2, 1], [1, -2]],
                "divisor": ["1", "1"],
                "options": {"verify_oracle": True},
            },
        )
        code, out, _ = run_cli(capsys, "decompose", path)
        assert code == 0
        result = json.loads(out)
        assert result["positive"] == ["1", "1/2"]
        assert result["negative"] == ["0", "1/2"]
        assert result["gram_s_det"] == "-2"
        assert result["checks"]["oracle_match"] is True

    def test_oracle_limit_zero_skips_oracle(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"labels": ["E"], "gram": [[-2]], "divisor": ["1"]})
        code, out, _ = run_cli(capsys, "decompose", path, "--verify-oracle", "--oracle-limit", "0")
        assert code == 0
        result = json.loads(out)
        assert result["negative_support"] == ["E"]
        assert "oracle_match" not in result["checks"]
        code, out, _ = run_cli(capsys, "decompose", path, "--verify-oracle", "--oracle-limit", "1")
        assert json.loads(out)["checks"]["oracle_match"] is True

    def test_float_literal_rejected_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"labels": ["E"], "gram": [[-2.0]], "divisor": ["1"]}')
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert "floating-point" in err

    def test_float_string_rejected_exit_1(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"labels": ["E"], "gram": [["1.5"]], "divisor": ["1"]})
        code, _, _ = run_cli(capsys, "decompose", str(path))
        assert code == 1

    def test_asymmetric_gram_exit_1(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, {"labels": ["a", "b"], "gram": [[1, 2], [3, 1]], "divisor": ["1", "1"]}
        )
        code, _, err = run_cli(capsys, "decompose", path)
        assert code == 1 and "symmetric" in err

    def test_first_asymmetric_entry_named(self, tmp_path, capsys):
        # Three asymmetric pairs, fractional entries: the first pair above
        # the diagonal in row-major order is named, in lowest terms.
        path = write_problem(tmp_path, {
            "labels": ["a", "b", "c"],
            "gram": [["-2", "1/2", "1"], ["2/6", "-2", "2"], ["3", "1", "-2"]],
            "divisor": ["1", "1", "1"],
        })
        code, out, err = run_cli(capsys, "decompose", path)
        assert (code, out, err) == (1, "", f"error: {path}: asymmetric entry at (0, 1): 1/2 != 1/3\n")

    @pytest.mark.parametrize(
        "gram, divisor",
        [
            ([[1, 2], [2]], ["1", "1"]),  # ragged gram
            ([[1, 2], [2, 1]], ["1"]),  # short divisor
            ([[1, 2], [2, 1]], ["1", "-1/2"]),  # negative coefficient
        ],
        ids=["ragged", "short_divisor", "negative"],
    )
    def test_bad_shape_or_sign_exit_1_names_file(self, tmp_path, capsys, gram, divisor):
        path = write_problem(tmp_path, {"labels": ["a", "b"], "gram": gram, "divisor": divisor})
        code, out, err = run_cli(capsys, "decompose", path)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_duplicate_labels_exit_1_names_file_and_label(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, {"labels": ["E", "E"], "gram": [[-2, 0], [0, -2]], "divisor": ["1", "1"]}
        )
        code, out, err = run_cli(capsys, "decompose", path)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ") and "'E'" in err

    def test_negative_oracle_limit_exit_1(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"labels": ["E"], "gram": [[-2]], "divisor": ["1"]})
        code, out, err = run_cli(capsys, "decompose", path, "--verify-oracle", "--oracle-limit", "-1")
        assert code == 1 and out == ""
        assert err == "error: --oracle-limit must be a nonnegative integer, got -1\n"

    def test_missing_file_exit_1(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        code, out, err = run_cli(capsys, "decompose", path)
        assert_one_error(code, out, err)
        assert err.startswith(f"error: cannot read {path}: ")

    def test_invalid_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"labels": ["E"],\n "gram": [[-2]')
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert_one_error(code, out, err)
        assert err.startswith(f"error: {path}: invalid JSON at line 2, column ")

    def test_missing_field_exit_1(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"labels": ["E"], "gram": [[-2]]})
        code, _, err = run_cli(capsys, "decompose", path)
        assert code == 1 and "schema" in err

    def test_schema_message_capped(self, tmp_path, capsys):
        # The type error's message carries the repr of the whole 200000-element label
        path = write_problem(
            tmp_path, {"labels": [list(range(200_000))], "gram": [[-2]], "divisor": ["1"]}
        )
        code, out, err = run_cli(capsys, "decompose", path)
        assert_one_error(code, out, err)
        assert err.startswith(f"error: {path}: schema violation at $.labels[0]: [0, 1, 2, ")
        assert err.endswith("...\n") and len(err) < 400 + len(path)

    def test_oracle_mismatch_exit_3(self, tmp_path, capsys, monkeypatch):
        # negative test of the harness: corrupt the oracle and expect exit 3
        path = write_problem(
            tmp_path,
            {"labels": ["E"], "gram": [[-2]], "divisor": ["1"], "options": {"verify_oracle": True}},
        )
        real = zariski.decompose_bruteforce

        def corrupted(form, divisor, limit=12):
            dec = real(form, divisor, limit)
            return zariski.Decomposition(
                positive=dec.negative,
                negative=dec.positive,
                negative_support=dec.negative_support,
                rounds=dec.rounds,
                negative_gram_det=dec.negative_gram_det,
            )

        monkeypatch.setattr(zariski, "decompose_bruteforce", corrupted)
        code, _, err = run_cli(capsys, "decompose", path)
        assert code == 3
        assert "disagree" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {"labels": ["E1", "E2"], "gram": [[2, 1], [1, -2]], "divisor": ["3/2", "1"]},
        )
        _, out1, _ = run_cli(capsys, "decompose", path, "--verify-oracle")
        _, out2, _ = run_cli(capsys, "decompose", path, "--verify-oracle")
        assert out1 == out2

    def test_output_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"labels": ["E"], "gram": [[2]], "divisor": ["2"]})
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "decompose", path, "-o", str(out_path))
        assert code == 0
        assert out_path.read_text() == out

    def test_round_trip_exactness(self, tmp_path, capsys):
        divisor = ["7/3", "5/4", "0"]
        path = write_problem(
            tmp_path,
            {
                "labels": ["a", "b", "c"],
                "gram": [[2, 1, 0], [1, -2, 1], [0, 1, -4]],
                "divisor": divisor,
            },
        )
        code, out, _ = run_cli(capsys, "decompose", path)
        assert code == 0
        result = json.loads(out)
        p = [Fraction(x) for x in result["positive"]]
        n = [Fraction(x) for x in result["negative"]]
        assert [a + b for a, b in zip(p, n)] == [Fraction(x) for x in divisor]


class TestLattice:
    def test_og10(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "OG10")
        assert code == 0
        report = json.loads(out)
        assert report["elementary_divisors"] == [3]
        assert report["cardinality"] == 3
        assert report["preset"]["published_max_square"] == 6

    def test_u_block(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "U")
        report = json.loads(out)
        assert code == 0 and report["cardinality"] == 1

    def test_kummer_3(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "Kummer:3")
        report = json.loads(out)
        assert report["cardinality"] == 8
        assert report["preset"]["published_max_square"] == 32

    def test_block_sum(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "U+U+rank1:-6")
        report = json.loads(out)
        assert report["rank"] == 5
        assert report["elementary_divisors"] == [6]
        assert report["signature"] == [2, 3, 0]

    def test_grammar_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "lattice", "Q8+foo")
        assert code == 1 and "unknown block" in err

    @pytest.mark.parametrize("expression, kind", [("rank1:x", "block"), ("U+rank1:1.5", "block"),
                                                  ("K3n:x", "preset"), ("rank1:\u0662", "block"),
                                                  ("K3n:+2", "preset"), ("K3n: 1_0 ", "preset"),
                                                  ("K3n:\u0663", "preset"), ("OG6:", "preset"),
                                                  ("U:", "block"), ("U+rank1:", "block")])
    def test_non_integer_parameter_exit_1(self, capsys, expression, kind):
        code, out, err = run_cli(capsys, "lattice", expression)
        assert_one_error(code, out, err)
        assert f"{kind} parameter" in err and "is not an integer" in err

    @pytest.mark.parametrize("expression, name", [("U:5", "U"), ("E8_minus:-3", "E8_minus"),
                                                  ("A2_minus:0+U", "A2_minus")])
    def test_unused_parameter_exit_1(self, capsys, expression, name):
        # A parameter no block reads is refused rather than ignored.
        code, out, err = run_cli(capsys, "lattice", expression)
        assert_one_error(code, out, err)
        assert f"{name} block takes no parameter" in err

    def test_odd_rank1_rejected(self, capsys):
        code, _, err = run_cli(capsys, "lattice", "rank1:3")
        assert code == 1 and "allow_odd" not in err

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("k3-n:2", "K3n:2"),
            ("K3_N:2", "K3n:2"),
            ("k3:2", "K3n:2"),
            ("kummern:2", "Kummer:2"),
            ("og6", "OG6"),
            ("OG-10", "OG10"),
            ("U + U", "U+U"),
        ],
    )
    def test_alias_spellings_match_canonical(self, capsys, alias, canonical):
        code, out, _ = run_cli(capsys, "lattice", alias)
        assert code == 0
        assert out == run_cli(capsys, "lattice", canonical)[1]


class TestTable:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert "K3^[2]" in out and "OG10" in out and "MISMATCH" not in out

    def test_n5_k3_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "5", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        k3 = rows[0]
        assert k3["type"] == "K3^[5]" and k3["group"] == "Z/8"
        assert k3["published_square"] == 32 and k3["bound_general"] == 32

    def test_json_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "--json")
        _, out2, _ = run_cli(capsys, "table", "--json")
        assert out1 == out2

    def test_text_output_file_is_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "table.txt"
        code, out, _ = run_cli(capsys, "table", "--n", "2", "-o", str(out_path))
        assert code == 0 and "K3^[2]" in out
        assert out_path.read_text(encoding="utf-8") == out

    def test_og10_displays_published_beside_general(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--json")
        rows = json.loads(out)["rows"]
        og10 = next(r for r in rows if r["type"] == "OG10")
        assert og10["bound_general"] == 12 and og10["published_square"] == 6


class TestBounds:
    def test_k3_square(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "K3n:2", "--rho", "2")
        assert code == 0
        report = json.loads(out)
        assert report["rho_specific"]["denominator_bound"] == "40320"
        assert report["rho_specific"]["birationality_m0"] == "846720"

    def test_guard_descriptor(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "K3n:2", "--rho", "21")
        report = json.loads(out)
        assert report["rho_specific"]["denominator_bound"] == {
            "factorial_of": "1152921504606846976",
            "times": "1",
        }

    def test_og6(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "OG6", "--rho", "2")
        report = json.loads(out)
        assert report["negativity_bound_general"] == 16
        assert report["negativity_bound_refined"] == 8
        assert report["published_max_square"] == 8

    def test_block_expression_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "U+U", "--rho", "1")
        assert_one_error(code, out, err)
        assert err == "error: bounds needs a deformation preset, got block expression 'U+U'\n"

    def test_rho_out_of_range_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "K3n:2", "--rho", "25")
        assert code == 1 and "rho" in err

    def test_volume_rational(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "K3n:2", "--rho", "1", "--volume", "1/2")
        report = json.loads(out)
        assert report["rho_specific"]["chow_degree"] == str(Fraction(21**4, 2))

    @pytest.mark.parametrize("volume", ["1.5", "1e3", " 3", "0"])
    def test_volume_rejected_exit_1(self, capsys, volume):
        code, out, err = run_cli(capsys, "bounds", "K3n:2", "--rho", "1", "--volume", volume)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["abc", "-1", "2.5", " 1_0 ", "\u0663"])
    def test_bad_guard_env_exit_1(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BBF_FACTORIAL_GUARD", value)
        code, out, err = run_cli(capsys, "bounds", "K3n:2", "--rho", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: BBF_FACTORIAL_GUARD=") and err.count("\n") == 1


class TestFuzz:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--seed", "1", "--count", "40", "--m", "4")
        assert code == 0
        assert "40 passed, 0 failed" in out

    def test_count_zero_vacuous(self, capsys):
        code, out, _ = run_cli(capsys, "fuzz", "--seed", "1", "--count", "0")
        assert code == 0
        assert "0 passed, 0 failed" in out

    @pytest.mark.parametrize("flag", ["--count", "--oracle-limit"])
    def test_negative_flag_exit_1(self, capsys, flag):
        code, out, err = run_cli(capsys, "fuzz", "--seed", "1", flag, "-1")
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be a nonnegative integer, got -1\n"

    def test_injected_bug_exit_4(self, capsys, monkeypatch):
        real = zariski.decomposition_checks

        def corrupted(form, divisor, dec):
            checks = dict(real(form, divisor, dec))
            checks["parts_sum"] = False
            return checks

        monkeypatch.setattr(zariski, "decomposition_checks", corrupted)
        code, out, _ = run_cli(capsys, "fuzz", "--seed", "7", "--count", "3", "--m", "3")
        assert code == 4
        assert "first failing seed: 7" in out

    @pytest.mark.parametrize(
        "module, attribute, error, name",
        [
            (bounds, "cramer_analysis", InconsistencyError, "cramer_divisibility"),
            (zariski, "exceptional_certificate", SingularMatrixError, "certificate_positive"),
        ],
    )
    def test_raising_check_exit_4(self, capsys, monkeypatch, module, attribute, error, name):
        def raising(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(module, attribute, raising)
        code, out, err = run_cli(capsys, "fuzz", "--seed", "1", "--count", "20", "--m", "4")
        assert code == 4 and err == ""
        assert "first failing seed: " in out and f"({name})" in out


# Bad invocations that must end in exit 1, empty stdout and one ``error:``
# line; ``{dir}`` is a scratch directory, ``{missing}`` a path below a
# directory that does not exist.
NO_TRACEBACK_CASES = {
    "decompose -o missing dir": ["decompose", "{dir}/problem.json", "-o", "{missing}"],
    "lattice -o missing dir": ["lattice", "OG10", "-o", "{missing}"],
    "table text -o missing dir": ["table", "-o", "{missing}"],
    "table json -o missing dir": ["table", "--json", "-o", "{missing}"],
    "bounds -o missing dir": ["bounds", "K3n:2", "--rho", "1", "-o", "{missing}"],
    "lattice -o directory": ["lattice", "U", "-o", "{dir}"],
    "decompose non-UTF-8 file": ["decompose", "{dir}/latin1.json"],
    "decompose directory": ["decompose", "{dir}"],
    "decompose deeply nested file": ["decompose", "{dir}/deep.json"],
}


class TestNoTraceback:
    @pytest.mark.parametrize("case", list(NO_TRACEBACK_CASES))
    def test_one_error_line_exit_1(self, tmp_path, capsys, case):
        write_problem(tmp_path, {"labels": ["E"], "gram": [[-2]], "divisor": ["1"]})
        text = '{"labels": ["\u00c9"], "gram": [[-2]], "divisor": ["1"]}'
        (tmp_path / "latin1.json").write_bytes(text.encode("latin-1"))
        nested = "[" * 100_000 + "]" * 100_000
        (tmp_path / "deep.json").write_text(f'{{"labels": {nested}, "gram": [[-2]], "divisor": ["1"]}}')
        paths = {"dir": str(tmp_path), "missing": str(tmp_path / "no-such-dir" / "out")}
        argv = [arg.format(**paths) for arg in NO_TRACEBACK_CASES[case]]
        code, out, err = run_cli(capsys, *argv)
        assert_one_error(code, out, err)

    def test_nesting_near_recursion_limit(self, tmp_path, capsys):
        # Depths the parser accepts but the schema validator, or the repr in
        # its message, may not: where that happens depends on the stack depth.
        path = tmp_path / "nested.json"
        limit = sys.getrecursionlimit()
        for depth in range(limit - 300, limit + 50, 3):
            nested = "[" * depth + '"1"' + "]" * depth
            path.write_text(f'{{"labels": ["E"], "gram": [[-2]], "divisor": [{nested}]}}')
            code, out, err = run_cli(capsys, "decompose", str(path))
            assert_one_error(code, out, err)
            assert err.startswith(f"error: {path}: ")


INTEGER_FLAGS = {
    "--oracle-limit (decompose)": ["decompose", "problem.json", "--oracle-limit"],
    "--n": ["table", "--n"],
    "--rho": ["bounds", "K3n:2", "--rho"],
    "--seed": ["fuzz", "--seed"],
    "--count": ["fuzz", "--seed", "1", "--count"],
    "--m": ["fuzz", "--seed", "1", "--m"],
    "--oracle-limit (fuzz)": ["fuzz", "--seed", "1", "--oracle-limit"],
}


class TestIntegerFlags:
    """Integer flags read ``^-?[0-9]+$``, the grammar of lattice parameters;
    ``int()`` would also read these spellings."""

    @pytest.mark.parametrize("value", [" 1_0 ", "1_0", "+7", "\u0663"])
    @pytest.mark.parametrize("flag", list(INTEGER_FLAGS))
    def test_refused_exit_1(self, capsys, flag, value):
        argv = INTEGER_FLAGS[flag] + [value]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("invalid int value") == 1
        assert err.endswith(f"zarlat {argv[0]}: error: argument {argv[-2]}: "
                            f"invalid int value: {value!r}\n")


class FailingStream:
    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


# Each writes stdout through ``cli._emit``, help included; ``bounds`` writes
# more than one buffer's worth.
STDOUT_COMMANDS = [
    ["table", "--n", "2"],
    ["fuzz", "--seed", "1", "--count", "3"],
    ["lattice", "OG6"],
    ["bounds", "K3n:2", "--rho", "2"],
    ["--help"],
    ["decompose", "--help"],
]

AXIOM_PROBLEM = {"labels": ["E1", "E2"], "gram": [[2, -1], [-1, 2]], "divisor": ["1", "1"]}

needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")


def run_fresh(argv, redirect, unbuffered=False):
    """``python -m zarlat argv`` in a fresh process, its streams redirected by
    ``sh -c`` (``>&-`` closes stdout).  The environment is the whole of it,
    not the caller's: the package on the path, and ``PYTHONUNBUFFERED`` only
    when asked.  ``-B`` keeps the child from writing bytecode into the
    checkout."""
    env = {"PATH": os.defpath, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(["sh", "-c", f'"$0" -B -m zarlat "$@" {redirect}', sys.executable, *argv],
                          env=env, capture_output=True, text=True)


class TestUnwritableStdout:
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_in_process(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", FailingStream())
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: cannot write stdout: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_in_process_closed(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", None)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: cannot write stdout: [Errno 9] Bad file descriptor\n"

    @needs_dev_full
    @pytest.mark.parametrize("argv, unbuffered", [(argv, False) for argv in STDOUT_COMMANDS]
                             + [(STDOUT_COMMANDS[0], True)])
    def test_fresh_process_dev_full(self, argv, unbuffered):
        # Exactly one stderr line: no "Exception ignored" from the
        # interpreter's own flush of stdout at exit, buffered or not.
        proc = run_fresh(argv, ">/dev/full", unbuffered)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write stdout: [Errno 28] ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [["table", "--n", "2"], ["--help"]])
    def test_fresh_process_closed(self, argv):
        proc = run_fresh(argv, ">&-")
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write stdout: [Errno 9] Bad file descriptor\n"


class TestUnwritableStderr:
    """An error line or usage text that cannot be written is lost, never
    sent to stdout, and the exit code is the one it would have reported."""

    @pytest.mark.parametrize("closed", [False, True], ids=["full", "closed"])
    @pytest.mark.parametrize("case, expected", [
        ("ok", 0), ("lattice", 1), ("usage", 1), ("axiom", 2), ("inconsistent", 2), ("oracle", 3),
        ("property", 4),
    ])
    def test_in_process(self, tmp_path, capsys, monkeypatch, case, expected, closed):
        axiom = write_problem(tmp_path, AXIOM_PROBLEM, "axiom.json")
        ok = write_problem(tmp_path, OK_PROBLEM)
        argv = {"lattice": ["lattice", "Q8"], "usage": ["table", "--n", "x"], "axiom": ["decompose", axiom],
                "oracle": ["decompose", ok, "--verify-oracle"]}.get(case, ["decompose", ok])
        if case == "inconsistent":
            monkeypatch.setattr(zariski.BorderedElimination, "extend", lambda self, system: False)
        if case == "oracle":
            monkeypatch.setattr(zariski, "decompose_bruteforce",
                                lambda form, divisor, limit: zariski.decompose(form, [0]))
        if case == "property":
            monkeypatch.setattr(zariski, "decomposition_checks", lambda form, divisor, dec: {"parts_sum": False})
        monkeypatch.setattr(sys, "stderr", None if closed else FailingStream())
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == expected
        # No error line falls back to stdout; a decompose that gets to its
        # result prints it.
        assert "error" not in out and (out == "") == (expected in (1, 2))

    @pytest.mark.parametrize("redirect", ["2>&-", pytest.param("2>/dev/full", marks=needs_dev_full)])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("case, expected", [("axiom", 2), ("lattice", 1), ("usage", 1)])
    def test_fresh_process(self, tmp_path, case, expected, unbuffered, redirect):
        argv = {"axiom": ["decompose", write_problem(tmp_path, AXIOM_PROBLEM)], "lattice": ["lattice", "Q8"],
                "usage": ["decompose"]}[case]
        proc = run_fresh(argv, redirect, unbuffered)
        assert (proc.returncode, proc.stdout) == (expected, "")


class TestSubprocessEntry:
    def test_console_invocation(self, tmp_path):
        path = write_problem(tmp_path, {"labels": ["E"], "gram": [[-2]], "divisor": ["1"]})
        proc = subprocess.run(
            [sys.executable, "-m", "zarlat", "decompose", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["negative"] == ["1"]

    def test_usage_error_exit_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zarlat", "decompose"], capture_output=True, text=True
        )
        assert proc.returncode == 1


class TestSchemas:
    def test_problem_rational_pattern_is_the_library_grammar(self):
        # The hand check matches the schema's pattern, which is the
        # anchored grammar of zarlat.linalg.as_rational.
        rational = packaged_schema("problem.schema.json")["$defs"]["rational"]["oneOf"][1]
        assert rational["pattern"] == cli._RATIONAL_PATTERN == f"^{linalg._RATIONAL.pattern}$"

    def test_result_schema_accepts_all_outputs(self, tmp_path, capsys):
        schema = result_schema()
        for seed in range(5):
            spec = zariski.InstanceSpec.standard(seed=seed, m=3)
            form, divisor = zariski.random_instance(spec)
            path = write_problem(tmp_path, problem_payload(form, divisor), name=f"p{seed}.json")
            code, out, _ = run_cli(capsys, "decompose", path)
            assert code == 0
            jsonschema.validate(json.loads(out), schema)


OK_PROBLEM = {"labels": ["E"], "gram": [[-2]], "divisor": ["1"]}

# Problem documents that the hand check and the schema must judge alike.
PROBLEM_CORPUS = {
    "ok": OK_PROBLEM,
    "all options": dict(OK_PROBLEM, options={"verify_oracle": False, "oracle_limit": 1}),
    "empty options": dict(OK_PROBLEM, options={}),
    "rational forms": dict(OK_PROBLEM, gram=[[0, "-5/7", "12"]], divisor=["0/1", -3, "3\n"]),
    "root list": [OK_PROBLEM],
    "root string": "problem",
    "root null": None,
    "empty object": {},
    "missing divisor": {"labels": ["E"], "gram": [[-2]]},
    "missing labels": {"gram": [[-2]], "divisor": ["1"]},
    "extra key": dict(OK_PROBLEM, extra=1),
    "two extra keys": dict(OK_PROBLEM, extra=1, more=[]),
    "labels not array": dict(OK_PROBLEM, labels="E"),
    "labels empty": dict(OK_PROBLEM, labels=[]),
    "label empty": dict(OK_PROBLEM, labels=["E", ""]),
    "label integer": dict(OK_PROBLEM, labels=[3]),
    "label boolean": dict(OK_PROBLEM, labels=[True]),
    "gram empty": dict(OK_PROBLEM, gram=[]),
    "gram row empty": dict(OK_PROBLEM, gram=[[]]),
    "gram row not array": dict(OK_PROBLEM, gram=[-2]),
    "ragged gram": dict(OK_PROBLEM, gram=[[1, 2], [2]]),
    "boolean entry": dict(OK_PROBLEM, gram=[[True]]),
    "null entry": dict(OK_PROBLEM, gram=[[None]]),
    "object entry": dict(OK_PROBLEM, divisor=[{}]),
    "list entry": dict(OK_PROBLEM, divisor=[["1"]]),
    "trailing newline": dict(OK_PROBLEM, divisor=["3\n"]),
    "leading newline": dict(OK_PROBLEM, divisor=["\n3"]),
    "plus sign": dict(OK_PROBLEM, divisor=["+3"]),
    "zero denominator": dict(OK_PROBLEM, divisor=["3/0"]),
    "negative denominator": dict(OK_PROBLEM, divisor=["3/-4"]),
    "decimal string": dict(OK_PROBLEM, gram=[["1.5"]]),
    "exponent string": dict(OK_PROBLEM, gram=[["1e3"]]),
    "leading space": dict(OK_PROBLEM, gram=[[" 3"]]),
    "empty string": dict(OK_PROBLEM, divisor=[""]),
    "divisor empty": dict(OK_PROBLEM, divisor=[]),
    "divisor not array": dict(OK_PROBLEM, divisor="1"),
    "options not object": dict(OK_PROBLEM, options=[]),
    "options extra key": dict(OK_PROBLEM, options={"verify": True}),
    "verify_oracle integer": dict(OK_PROBLEM, options={"verify_oracle": 1}),
    "verify_oracle string": dict(OK_PROBLEM, options={"verify_oracle": "true"}),
    "oracle_limit zero": dict(OK_PROBLEM, options={"oracle_limit": 0}),
    "oracle_limit negative": dict(OK_PROBLEM, options={"oracle_limit": -4}),
    "oracle_limit boolean": dict(OK_PROBLEM, options={"oracle_limit": True}),
    "oracle_limit string": dict(OK_PROBLEM, options={"oracle_limit": "3"}),
    "oracle_limit null": dict(OK_PROBLEM, options={"oracle_limit": None}),
}


def hand_verdict(document):
    """``None`` when the hand check accepts, else its (path, message)."""
    try:
        cli._check_problem(document)
    except cli._SchemaViolation as exc:
        return exc.where, str(exc)
    return None


@functools.lru_cache(maxsize=None)
def problem_validator():
    return jsonschema.Draft202012Validator(packaged_schema("problem.schema.json"))


def schema_errors(document):
    return list(problem_validator().iter_errors(document))


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text("-0123/a \n", max_size=4))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=2)
                           | st.dictionaries(st.sampled_from(["a", "oracle_limit"]), inner, max_size=2),
                           max_leaves=4)
GOOD_RATIONALS = st.one_of(st.integers(-3, 3), st.sampled_from(["3", "-5/7", "0/1", "-0", "3\n"]))
BAD_VALUES = st.one_of(JSON_VALUES, st.text("-+0123/ \n.e", max_size=5),
                       st.sampled_from(["", "+3", "3/0", "1.5", "\n3", [], {}, True, 0, -1]))
VALID_PROBLEMS = st.fixed_dictionaries(
    {
        "labels": st.lists(st.text("Ea", min_size=1, max_size=2), min_size=1, max_size=3),
        "gram": st.lists(st.lists(GOOD_RATIONALS, min_size=1, max_size=3), min_size=1, max_size=3),
        "divisor": st.lists(GOOD_RATIONALS, min_size=1, max_size=3),
    },
    optional={"options": st.fixed_dictionaries(
        {}, optional={"verify_oracle": st.booleans(), "oracle_limit": st.integers(1, 3)})},
)


@st.composite
def problem_documents(draw):
    """A valid problem document, left whole or broken at one drawn place."""
    doc = draw(VALID_PROBLEMS)
    place = draw(st.sampled_from(["none", "root", "drop", "extra", "field", "label", "row",
                                  "gram entry", "divisor entry", "option"]))
    bad = draw(BAD_VALUES)
    if place == "root":
        return bad
    if place == "drop":
        del doc[draw(st.sampled_from(["labels", "gram", "divisor"]))]
    elif place == "extra":
        doc[draw(st.sampled_from(["extra", "Labels", "oracle_limit"]))] = bad
    elif place == "field":
        doc[draw(st.sampled_from(["labels", "gram", "divisor", "options"]))] = bad
    elif place == "label":
        doc["labels"][draw(st.integers(0, len(doc["labels"]) - 1))] = bad
    elif place == "row":
        doc["gram"][draw(st.integers(0, len(doc["gram"]) - 1))] = bad
    elif place == "gram entry":
        row = doc["gram"][draw(st.integers(0, len(doc["gram"]) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = bad
    elif place == "divisor entry":
        doc["divisor"][draw(st.integers(0, len(doc["divisor"]) - 1))] = bad
    elif place == "option":
        doc.setdefault("options", {})[draw(st.sampled_from(["verify_oracle", "oracle_limit", "other"]))] = bad
    return doc


class TestProblemCheck:
    """The hand check in ``load_problem`` against ``problem.schema.json``."""

    @pytest.mark.parametrize("name", list(PROBLEM_CORPUS))
    def test_agrees_with_schema(self, name):
        document = PROBLEM_CORPUS[name]
        errors = schema_errors(document)
        verdict = hand_verdict(document)
        assert (verdict is None) == (not errors)
        if len(errors) == 1:
            # What ``jsonschema.validate`` reports; with several violations
            # the two may name different ones.
            best = jsonschema.exceptions.best_match(errors)
            assert verdict == (best.json_path, best.message)

    def test_corpus_has_both_verdicts(self):
        accepted = [name for name, doc in PROBLEM_CORPUS.items() if hand_verdict(doc) is None]
        assert accepted == ["ok", "all options", "empty options", "rational forms", "ragged gram",
                            "trailing newline"]

    @settings(max_examples=400, deadline=None)
    @given(problem_documents())
    def test_agrees_with_schema_on_generated_documents(self, document):
        assert (hand_verdict(document) is None) == (not schema_errors(document))

    @pytest.mark.parametrize("name", ["trailing newline", "rational forms"])
    def test_schema_accepted_library_rejects(self, tmp_path, capsys, name):
        # "3\n" passes the schema pattern (search semantics) but not the
        # library grammar, so it is the library's error that names the file.
        path = write_problem(tmp_path, PROBLEM_CORPUS[name])
        code, out, err = run_cli(capsys, "decompose", path)
        assert_one_error(code, out, err)
        assert err.startswith(f"error: {path}: ") and "schema violation" not in err


# A 5000-digit Gram entry and a 5000-digit divisor numerator: parsing them and
# printing the result both need more than CPython's default 4300 digits.
BIG_PROBLEM = ('{"labels": ["E1", "E2"], "gram": [[%s, 1], [1, -2]], "divisor": ["%s/3", "1"]}'
               % ("7" * 5000, "9" * 5000))
BIG_PROBLEM_DIGEST = "e35d0c3557853991fb3ffa0019c2ab85418d16ee2429c9994b169ea454a7ca57"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str conversion limit")
class TestIntStrLimit:
    def test_big_problem_in_process(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(BIG_PROBLEM)
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == BIG_PROBLEM_DIGEST

    def test_big_problem_fresh_process(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(BIG_PROBLEM)
        proc = subprocess.run([sys.executable, "-m", "zarlat", "decompose", str(path)], capture_output=True)
        assert proc.returncode == 0 and proc.stderr == b""
        assert hashlib.sha256(proc.stdout).hexdigest() == BIG_PROBLEM_DIGEST

    def test_load_problem_under_default_limit(self, tmp_path):
        # A library caller, not cli.main, reads the same problem and keeps its limit.
        path = tmp_path / "big.json"
        path.write_text(BIG_PROBLEM)
        with int_str_limit(DEFAULT_STR_DIGITS):
            form, divisor, options = cli.load_problem(str(path))
            assert sys.get_int_max_str_digits() == DEFAULT_STR_DIGITS
        repunit = (10**5000 - 1) // 9  # the 5000-digit 11...1, built without str()
        assert form.gram[0, 0] == 7 * repunit and form.gram[0, 1] == 1
        assert divisor == (Fraction(9 * repunit, 3), Fraction(1)) and options == {}

    @pytest.mark.parametrize("argv", [["table"], ["lattice", "K3n:3x"], ["bounds", "K3n:2", "--rho", "2"],
                                      ["decompose"]])
    @pytest.mark.parametrize("limit", [4300, 5000])
    def test_main_restores_limit(self, capsys, argv, limit):
        with int_str_limit(limit):
            cli.main(argv)
            assert sys.get_int_max_str_digits() == limit
        capsys.readouterr()


class TestImports:
    @pytest.mark.parametrize("code", [
        "import zarlat.cli",
        "from zarlat import cli; cli.main(['decompose', PATH, '--verify-oracle'])",
    ], ids=["import", "decompose"])
    def test_no_jsonschema_at_run_time(self, tmp_path, code):
        path = write_problem(tmp_path, dict(OK_PROBLEM, options={"oracle_limit": 2}))
        script = f"import sys\nPATH = {path!r}\n{code}\nprint('jsonschema' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
