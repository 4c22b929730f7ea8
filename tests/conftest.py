import sys
from math import lcm

import pytest

from zarlat import zariski
from zarlat.errors import SingularMatrixError
from zarlat.linalg import solve, sylvester_pass
from zarlat.zariski import InstanceSpec, IntersectionForm, random_instance, witness_certifies


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


def cofactor_det(rows):
    """Independent determinant oracle: textbook recursive cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def build_corpus(count, m_max=6, denominator_max=4, seed_base=0):
    """Seeded instances cycling over component counts 1..m_max."""
    instances = []
    for i in range(count):
        spec = InstanceSpec.standard(seed=seed_base + i, m=1 + i % m_max, denominator_max=denominator_max)
        instances.append(random_instance(spec))
    return instances


@pytest.fixture(scope="session")
def corpus_1000():
    """The shared acceptance corpus: 1000 instances, m <= 6, denominators <= 4."""
    return build_corpus(1000)


def witness_verdict(form) -> bool:
    """Negative definiteness of the whole Gram matrix by
    :func:`zarlat.zariski.witness_certifies`, the check
    :func:`decomposition_checks` and :func:`exceptional_certificate` run.
    The witness is the pass's ``(-1, ..., -1)`` column with the sign of
    ``det`` removed; where the pass refuses, it is the lcm-scaled ``solve``
    of ``Gram x = -1`` (empty when singular), which the check must then
    refuse on its own."""
    k = form.size
    rows, _ = form.gram.scaled_rows
    outcome = sylvester_pass([[*row, -1] for row in rows])
    if outcome is not None:
        d, (column,) = outcome
        witness = tuple(v if d > 0 else -v for v in column)
    else:
        try:
            x = solve(form.gram, [-1] * k)
        except SingularMatrixError:
            x = ()
        s = lcm(*(v.denominator for v in x))
        witness = tuple(v.numerator * (s // v.denominator) for v in x)
    return witness_certifies(form.gram.scaled_rows[0], range(k), witness)
