from fractions import Fraction
from math import lcm

import pytest

from zarlat.errors import SingularMatrixError
from zarlat.linalg import scaled_int_rows, solve, sylvester_pass
from zarlat.zariski import (
    Decomposition,
    InstanceSpec,
    decomposition_checks,
    random_instance,
)


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
    """Negative definiteness of the whole Gram matrix by the witness check of
    :func:`decomposition_checks`, on a decomposition whose negative part is
    every component.  The witness is the pass's ``(-1, ..., -1)`` column with
    the sign of ``det`` removed; where the pass refuses, it is the lcm-scaled
    ``solve`` of ``Gram x = -1`` (empty when singular), which the check must
    then refuse on its own."""
    k = form.size
    rows, _ = scaled_int_rows(form.gram.entries)
    outcome = sylvester_pass([row + [-1] for row in rows])
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
    ones = (Fraction(1),) * k
    dec = Decomposition(positive=(Fraction(0),) * k, negative=ones,
                        negative_support=tuple(range(k)), rounds=1,
                        negative_gram_det=Fraction(1), witness=witness)
    return decomposition_checks(form, ones, dec)["negative_exceptional"]
