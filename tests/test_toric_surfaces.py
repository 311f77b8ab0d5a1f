"""Integrals over the Hilbert schemes of two compact toric surfaces.

``verify`` reads the fixed-point weights only at the twist gamma = 2 of
the surfaces over the projective line, where they collapse to hook
lengths and so read only the even part of log f.  Here the same
per-diagram exponential, ``localisation._power_sum_exp`` on the scaled
weights of ``localisation._class_log``, runs at generic torus weights on
the Hilbert schemes S^[n] of P^2 and of P^1 x P^1, whose fixed points
are r-tuples of partitions, one for each chart of S.  The sum over the
fixed points is a number, so it must not depend on the torus weights
chosen; and for the Todd class it is chi(O) of S^[n], which is 1 for a
rational surface.
"""

import itertools
import math
from fractions import Fraction as Fr

import pytest

from hilbfock.closedform import preset_class
from hilbfock.localisation import _class_log, _power_sum_exp
from hilbfock.partitions import enumerate_partitions, weight_multiset
from hilbfock.series import Series1

# the rays of each fan, in counterclockwise order
SURFACES = {
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
}
TORUS_WEIGHTS = ((7, 1000), (3, 101))


def chart_weights(rays, torus):
    """The torus weights (t1, t2) of the coordinates of each chart: at
    the cone of v_i = (a, b) and v_(i+1) = (c, d), the characters dual
    to the two rays are (d, -c) and (-b, a)."""
    return [
        (d * torus[0] - c * torus[1], -b * torus[0] + a * torus[1])
        for (a, b), (c, d) in zip(rays, rays[1:] + rays[:1])
    ]


def hilbert_scheme_integral(f: Series1, rays, torus, n: int) -> Fr:
    """The integral of the class of f over S^[n], summed over the fixed
    points: [u^(2n)] of the product of f(w u) over the 2n tangent
    weights w, over the product of the weights."""
    c, w, _ = _class_log(f, 2 * n)
    charts = chart_weights(rays, torus)
    total = Fr(0)
    for sizes in itertools.product(range(n + 1), repeat=len(charts)):
        if sum(sizes) != n:
            continue
        for diagrams in itertools.product(*map(enumerate_partitions, sizes)):
            row, weight_product = [1] + [0] * (2 * n), 1
            for (t1, t2), diagram in zip(charts, diagrams):
                weights = weight_multiset(diagram, t1, -t2)
                weight_product *= math.prod(weights)
                e = _power_sum_exp(w, weights)
                row = [sum(math.comb(m, i) * row[i] * e[m - i] for i in range(m + 1)) for m in range(2 * n + 1)]
            total += Fr(row[2 * n], math.factorial(2 * n) * c ** (2 * n) * weight_product)
    return total


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("torus", TORUS_WEIGHTS)
def test_the_todd_class_integrates_to_one(surface, torus):
    todd = preset_class("todd", 8)
    for n in range(1, 5):
        assert hilbert_scheme_integral(todd, SURFACES[surface], torus, n) == 1, n


@pytest.mark.parametrize("surface", SURFACES)
def test_a_class_with_an_odd_log_integrates_to_the_same_number_at_both_torus_weights(surface):
    f = Series1((Fr(1), Fr(2, 3), Fr(-4, 9), Fr(-1, 7)), 8)
    for n in range(1, 5):
        first, second = (hilbert_scheme_integral(f, SURFACES[surface], torus, n) for torus in TORUS_WEIGHTS)
        assert first == second, n
