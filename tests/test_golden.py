"""Exit codes and stdout digests of fixed CLI commands.

Each command runs in process through ``cli.main``; the test compares its exit
code and the sha256 of its stdout with the values recorded in ``GOLDEN``.  A
change that keeps behaviour leaves every entry as it is.  ``{dir}`` in an
argument is the directory holding the seeded problem files ``p<seed>.json``.
"""

import hashlib
import json

import pytest

from zarlat import cli, zariski

# (seed, m) of each seeded decompose problem: an empty negative support, one
# component, and two or three components reached in one or two rounds.
PROBLEMS = ((3, 3), (22, 5), (32, 3), (61, 4), (73, 5), (129, 4), (375, 6), (620, 3))

COMMANDS = {
    **{
        f"fuzz seed {seed} m {m}": ["fuzz", "--seed", str(seed), "--count", "25", "--m", str(m)]
        for seed in (1, 7, 99)
        for m in (4, 6)
    },
    "fuzz oracle limit 2": ["fuzz", "--seed", "5", "--count", "25", "--m", "6", "--oracle-limit", "2"],
    "table n 2": ["table", "--n", "2"],
    "table n 5": ["table", "--n", "5"],
    "table n 2 json": ["table", "--n", "2", "--json"],
    "table n 5 json": ["table", "--n", "5", "--json"],
    "lattice K3n:3": ["lattice", "K3n:3"],
    "lattice Kummer:2": ["lattice", "Kummer:2"],
    "lattice OG6": ["lattice", "OG6"],
    "lattice OG10": ["lattice", "OG10"],
    "lattice block sum": ["lattice", "U+E8_minus+rank1:-6"],
    "bounds K3n:2 rho 1": ["bounds", "K3n:2", "--rho", "1"],
    "bounds OG6 rho 2": ["bounds", "OG6", "--rho", "2"],
    "bounds OG10 rho 3 volume": ["bounds", "OG10", "--rho", "3", "--volume", "5/2"],
    "bounds K3n:2 rho 21 deferred": ["bounds", "K3n:2", "--rho", "21"],
    # A 168,192-digit reverse bound; then a deferred descriptor whose
    # argument has 13,020 digits beside a 52,084-digit Chow degree.
    "bounds K3n:2 rho 2 big value": ["bounds", "K3n:2", "--rho", "2"],
    "bounds K3n:2 rho 5 big deferred": ["bounds", "K3n:2", "--rho", "5"],
    **{
        f"decompose seed {seed}": ["decompose", f"{{dir}}/p{seed}.json", "--verify-oracle"]
        for seed, _ in PROBLEMS
    },
}

GOLDEN = {
    "fuzz seed 1 m 4": (
        0, "8df2123b4fc4b0d03d1a11dd5fecea8bd48979e302d52236f8f174d71261a13a"
    ),
    "fuzz seed 1 m 6": (
        0, "8df2123b4fc4b0d03d1a11dd5fecea8bd48979e302d52236f8f174d71261a13a"
    ),
    "fuzz seed 7 m 4": (
        0, "8df2123b4fc4b0d03d1a11dd5fecea8bd48979e302d52236f8f174d71261a13a"
    ),
    "fuzz seed 7 m 6": (
        0, "8df2123b4fc4b0d03d1a11dd5fecea8bd48979e302d52236f8f174d71261a13a"
    ),
    "fuzz seed 99 m 4": (
        0, "8df2123b4fc4b0d03d1a11dd5fecea8bd48979e302d52236f8f174d71261a13a"
    ),
    "fuzz seed 99 m 6": (
        0, "8df2123b4fc4b0d03d1a11dd5fecea8bd48979e302d52236f8f174d71261a13a"
    ),
    "fuzz oracle limit 2": (
        0, "8df2123b4fc4b0d03d1a11dd5fecea8bd48979e302d52236f8f174d71261a13a"
    ),
    "table n 2": (
        0, "6779cd01f655fd6713ee1e4cc55da4e3b07aba556113b1813ae847db128ad819"
    ),
    "table n 5": (
        0, "ac93ff0b78338d103565c9681c4a28cda946f5b9a0fcbd9458f8f24fd977eae8"
    ),
    "table n 2 json": (
        0, "b033057b8f3137e2dd2d6d8502a2a96035b39e109d9518ca49b9919f4a124868"
    ),
    "table n 5 json": (
        0, "50d3e411f12549e946a4d93638cc91886b4b251dbd8013b2a751982e11910b52"
    ),
    "lattice K3n:3": (
        0, "08b21887886a381e0cbb4ae1232d7357cffaff4bd8d9fafaecce59cbd9347e55"
    ),
    "lattice Kummer:2": (
        0, "382d1043648889a1d611230102ff1b17382c66bd549549e28634097f0536c210"
    ),
    "lattice OG6": (
        0, "68467b108321aa39814cdffc3e53cd5a411f889371f98c57bac7d560d1ab36f1"
    ),
    "lattice OG10": (
        0, "25d89d2b51c3c484ef442ed3a051731199491b38ae2392eef0f489e3765a0bd8"
    ),
    "lattice block sum": (
        0, "0475ae425dd8e7f7699b183c1253da98611c441ef868b9eac6ed160e226a5841"
    ),
    "bounds K3n:2 rho 1": (
        0, "87827c49e917f30d50c027c977a7079064d07e932c5e2cc0a7439026a7829634"
    ),
    "bounds OG6 rho 2": (
        0, "74c77d378b0365da6de65489bca120e7edfa2591017c501508e5aa340188d5ca"
    ),
    "bounds OG10 rho 3 volume": (
        0, "36600c6ab2dabb785bf9e8ff142def1e2b7077fb4efbdc52d97eb4b4c052be62"
    ),
    "bounds K3n:2 rho 21 deferred": (
        0, "55b5ba3d86fa4b49c0c301942ca83e52b25a0606180a056154e1919d77ac230e"
    ),
    "bounds K3n:2 rho 2 big value": (
        0, "0df4327d909fed7adf0a776a65f74ad7af8e3077aa7570b71a5ab36a426afde0"
    ),
    "bounds K3n:2 rho 5 big deferred": (
        0, "820863d6548409f945c8ecd5e8d3907bc6b52b6ce519fd9a12f8e38f7408b264"
    ),
    "decompose seed 3": (
        0, "2eb1cd2fd2e51d42afa3131377e2160f64b2fe96464d8730315d6475ed48dc0b"
    ),
    "decompose seed 22": (
        0, "e18e0060889e73f88b802c5739b24bcc02b8af0e94430e0462b9d616917df928"
    ),
    "decompose seed 32": (
        0, "a9ed37634fe7e2e86d188c92541a55fe6f0e7895579e99a0615ef9d4a090e3fc"
    ),
    "decompose seed 61": (
        0, "98d69114750290e31f0061056a197ab04d5dfcfe6ea0eb4b0098b465bb4e27e9"
    ),
    "decompose seed 73": (
        0, "8e067dd275a4d4175f3f7f16af2ba63d4fbaf783e0cb3072c15394b4b1a0a528"
    ),
    "decompose seed 129": (
        0, "f95537d2c0d299a75734371c6da687e8b9c1f8a7e044607210e67ccbdce050ed"
    ),
    "decompose seed 375": (
        0, "b08d181f0d4a9d8739de95c4c96ff66384d9ffdd552414bc4133221c9fa6eb3f"
    ),
    "decompose seed 620": (
        0, "9394e9ab4bff3e622e4ed6131ac22d5842ece023df120b43d7ecf13ec5e63dc1"
    ),
}


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for seed, m in PROBLEMS:
        form, divisor = zariski.random_instance(zariski.InstanceSpec.standard(seed=seed, m=m))
        payload = {
            "labels": list(form.labels),
            "gram": [[str(x) for x in row] for row in form.gram.entries],
            "divisor": [str(x) for x in divisor],
        }
        (directory / f"p{seed}.json").write_text(json.dumps(payload))
    return directory


def run_command(name, directory, capsys):
    argv = [arg.format(dir=directory) for arg in COMMANDS[name]]
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_every_command_has_a_digest():
    assert sorted(GOLDEN) == sorted(COMMANDS)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_unchanged(name, problem_dir, capsys):
    assert run_command(name, problem_dir, capsys) == GOLDEN[name]
