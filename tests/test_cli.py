import json
import os
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from zarlat import bounds, cli
from zarlat import zariski
from zarlat.errors import InconsistencyError, SingularMatrixError


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


SCHEMA_DIR = None


def result_schema():
    import importlib.resources as resources

    return json.loads(
        resources.files("zarlat").joinpath("schemas/result.schema.json").read_text()
    )


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
        # jsonschema's message carries the repr of the whole 200000-element label
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
                                                  ("K3n:x", "preset")])
    def test_non_integer_parameter_exit_1(self, capsys, expression, kind):
        code, out, err = run_cli(capsys, "lattice", expression)
        assert_one_error(code, out, err)
        assert f"{kind} parameter" in err and "is not an integer" in err

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

    @pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
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


class FailingStdout:
    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


# Each writes stdout through ``cli._emit``; the last one writes more than
# one buffer's worth.
STDOUT_COMMANDS = [
    ["table", "--n", "2"],
    ["fuzz", "--seed", "1", "--count", "3"],
    ["lattice", "OG6"],
    ["bounds", "K3n:2", "--rho", "2"],
]


class TestUnwritableStdout:
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_in_process(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", FailingStdout())
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: cannot write stdout: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS)
    def test_fresh_process_dev_full(self, argv):
        # Exactly one stderr line: no "Exception ignored" from the
        # interpreter's own flush of stdout at exit.
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "zarlat", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1


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
    def test_result_schema_accepts_all_outputs(self, tmp_path, capsys):
        schema = result_schema()
        for seed in range(5):
            spec = zariski.InstanceSpec.standard(seed=seed, m=3)
            form, divisor = zariski.random_instance(spec)
            payload = {
                "labels": list(form.labels),
                "gram": [[str(x) for x in row] for row in form.gram.entries],
                "divisor": [str(x) for x in divisor],
            }
            path = write_problem(tmp_path, payload, name=f"p{seed}.json")
            code, out, _ = run_cli(capsys, "decompose", path)
            assert code == 0
            jsonschema.validate(json.loads(out), schema)
