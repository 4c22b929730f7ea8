import doctest
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import strategies as st

from zarlat import zariski
from zarlat.errors import SingularMatrixError
from zarlat.linalg import BorderedElimination, solve
from zarlat.zariski import (
    InstanceSpec,
    IntersectionForm,
    SplitMix64,
    decompose,
    random_instance,
    witness_certifies,
)


def form_of(rows, labels=None):
    """An intersection form on ``rows``, its components labelled E1, E2, ...
    unless ``labels`` are given."""
    labels = labels or [f"E{i + 1}" for i in range(len(rows))]
    return IntersectionForm.from_rows(labels, rows)


def reader_callers(monkeypatch):
    """A list that gets, for each later call of the one reader through
    ``zariski.scaled_rationals``, the name of the function that made it: a
    read of a divisor is a call from ``_scaled_divisor``."""
    callers = []
    read = zariski.scaled_rationals

    def counted(values):
        callers.append(sys._getframe(1).f_code.co_name)
        return read(values)

    monkeypatch.setattr(zariski, "scaled_rationals", counted)
    return callers


def build_corpus(count, m_max=6, denominator_max=4, seed_base=0):
    """Seeded instances cycling over component counts 1..m_max."""
    instances = []
    for i in range(count):
        spec = InstanceSpec.standard(seed=seed_base + i, m=1 + i % m_max, denominator_max=denominator_max)
        instances.append(random_instance(spec))
    return instances


# Elementary row operations ``(kind, i, j, k)`` for ``reference.unimodular``.
UNIMODULAR_OPS = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3),
                                    st.integers(-2, 2)), max_size=6)


def congruent(a, rows):
    """``A^T M A`` for the square integer matrices ``a`` and ``rows``."""
    n = len(a)
    return [[sum(a[k][i] * rows[k][l] * a[l][j] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


def seeded_gram(rng, diagonal, offdiagonal):
    """Symmetric integer rows on 1-5 components drawn from the SplitMix64
    ``rng``: the size, then row by row the diagonal entry from the range
    ``diagonal`` and the entries right of it from ``offdiagonal``."""
    k = rng.randint(1, 5)
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = rng.randint(*diagonal)
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = rng.randint(*offdiagonal)
    return rows


def problem_payload(form, divisor):
    """The problem file that ``zarlat decompose`` reads for ``form`` and ``divisor``."""
    return {"labels": list(form.labels), "gram": [[str(x) for x in row] for row in form.gram.entries],
            "divisor": [str(x) for x in divisor]}


def rational_gram_corpus(count, m_max):
    """``build_corpus(count, m_max)`` with each Gram entry divided by a
    draw from 1..6 of a stream seeded by the instance's seed: the engine then
    scales by the lcm of the denominators before eliminating."""
    instances = []
    for seed, (form, divisor) in enumerate(build_corpus(count, m_max)):
        rng = SplitMix64(seed ^ 0x5CA1E)
        m = form.size
        rows = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                rows[i][j] = rows[j][i] = form.gram[i, j] / rng.randint(1, 6)
        instances.append((form_of(rows), divisor))
    return instances


@pytest.fixture(scope="session")
def corpus_1000():
    """The shared acceptance corpus: 1000 instances, m <= 6, denominators <= 4."""
    return build_corpus(1000)


@pytest.fixture(scope="session")
def corpus_250():
    """250 instances from seed 1000, m <= 5, denominators <= 4."""
    return build_corpus(250, m_max=5, seed_base=1000)


@pytest.fixture(scope="session")
def rational_corpus_1000():
    """:func:`rational_gram_corpus` of 1000 instances, m <= 6."""
    return rational_gram_corpus(1000, m_max=6)


@pytest.fixture(scope="session")
def negative_instances():
    """``(seed, form, divisor)`` of the first five standard instances on four
    components, by seed from 0, whose negative support is not empty."""
    found, seed = [], 0
    while len(found) < 5:
        form, divisor = random_instance(InstanceSpec.standard(seed=seed, m=4))
        if decompose(form, divisor).negative_support:
            found.append((seed, form, divisor))
        seed += 1
    return found


@pytest.fixture(scope="session")
def growth_instances():
    """Instances shaped like the benchmark's ``support-growth`` deck: large
    negative-heavy and mixed forms whose negative support grows over rounds."""
    return [random_instance(InstanceSpec(seed=seed, m=m, diagonal_range=diagonal,
                                         offdiagonal_range=offdiagonal, coefficient_range=(1, 9)))
            for m in (12, 24, 36, 48)
            for seed in range(m * 100, m * 100 + 3)
            for diagonal, offdiagonal in (((-3 * m, -2 * m), (0, 2)), ((-30, 4), (0, 1)))]


# The interpreter's default limit on int-to-str conversion, in digits.
DEFAULT_STR_DIGITS = 4300


@contextmanager
def int_str_limit(digits):
    """Set the interpreter's int/str conversion limit to ``digits`` (0 lifts
    it) inside the block, and restore the limit it had."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def witness_verdict(form) -> bool:
    """Negative definiteness of the whole Gram matrix by
    :func:`zarlat.zariski.witness_certifies`, the check
    :func:`decomposition_checks` and :func:`exceptional_certificate` run.
    The witness is the solution of the ``(-1, ..., -1)`` column that one
    :class:`BorderedElimination` carries, with the sign of ``det`` removed;
    where the elimination refuses, it is the lcm-scaled ``solve`` of
    ``Gram x = -1`` (empty when singular), which the check must then refuse
    on its own."""
    k = form.size
    rows, _ = form.gram.scaled_rows
    elimination = BorderedElimination()
    if elimination.extend([[*row, -1] for row in rows]):
        d = elimination.det
        witness = tuple(v if d > 0 else -v for v in elimination.solution(0))
    else:
        try:
            x = solve(form.gram, [-1] * k)
        except SingularMatrixError:
            x = ()
        s = lcm(*(v.denominator for v in x))
        witness = tuple(v.numerator * (s // v.denominator) for v in x)
    return witness_certifies(form.gram.scaled_rows[0], range(k), witness)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(info):
    """The bodies of README.md's fenced code blocks opened by ```` ```info ````, in order."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"(?ms)^```{re.escape(info)}\n(.*?)^```$", text)


def readme_example():
    """The README's one ``python`` block as a doctest, its line numbers those of README.md."""
    text = README.read_text(encoding="utf-8")
    (block,) = readme_blocks("python")
    lineno = text[:text.index(block)].count("\n")
    return doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), lineno)
