"""Integrals over the Hilbert schemes of seven compact toric surfaces.

``verify`` reads the fixed-point weights only at the twist gamma = 2 of
the surfaces over the projective line, where they collapse to hook
lengths and so read only the even part of log f.  Here the same
per-diagram exponential, ``localisation._power_sum_exp`` on the scaled
weights of ``localisation._class_log``, runs at generic torus weights on
the Hilbert schemes S^[n] of P^2, P^1 x P^1, the pentagon, the hexagon
and the Hirzebruch surfaces F_1, F_2 and F_3, whose fixed points are
r-tuples of partitions, one for each chart of S.  The sum over the fixed
points is a number, so it must not depend on the torus weights chosen,
and classical results fix it:

- for f = 1 + x it is the Euler number of S^[n], and the generating
  series is prod over k of (1 - q^k)^(-e(S)) (Goettsche 1990), with
  e(S) the number of rays;
- for the Todd class it is chi(O) of S^[n], which is 1 for a rational
  surface;
- for the chi_y class f_y(x) = x (1 + y e^(-x)) / ((1 - e^(-x)) (1 + y)),
  (1 + y)^(2n) times it is the chi_y genus of S^[n], and the generating
  series of chi_(-u)(S^[n]) is exp(sum over m >= 1 of (q^m / m)
  chi_(-u^m)(S) / (1 - (u q)^m)), with chi_(-u)(S) = 1 + (e - 2) u + u^2
  (Ellingsrud-Goettsche-Lehn 2001);
- sum over n of q^n times the integral is A(q)^e(S) B(q)^(K_S^2)
  (Ellingsrud-Goettsche-Lehn 2001), with K^2 = 12 - e(S) for a toric
  surface.  So its log L_r is affine in the number r of rays, F_gamma
  (e = 4, K^2 = 8) gives the integrals of P^1 x P^1, and P^2 and
  P^1 x P^1 give log A = (9 L_4 - 8 L_3) / 12 and
  log B = (4 L_3 - 3 L_4) / 12, which are closed forms for the Chern,
  Todd and A-hat classes.  With a multiplicative class g of the
  tautological bundle O^[n] in the integrand as well, the generating
  series is again A(q)^e(S) B(q)^(K_S^2), for other A and B, so the same
  checks hold; they read the characters of O^[n] at the fixed points.

The two faults these checks exist for: w_3 += c^3 in ``_class_log``
amounts to another class, so the universality checks pass it, but the
Euler numbers fail from n = 2, and so do the Todd and chi_y classes;
swapping alpha and beta in the second weight of ``weight_multiset``
keeps the Euler numbers, but fails the Todd class at n = 1 and the
universality checks from q^2.  Exchanging the rows and columns of a
diagram in the characters of O^[n] fails both checks of the
tautological integrals.
"""

import itertools
import math
from fractions import Fraction as Fr
from functools import cache

import pytest

from exp_oracle import series_exp
from fraction_kernels import series_log
from hilbfock.closedform import preset_class
from hilbfock.localisation import _class_log, _power_sum_exp
from hilbfock.partitions import enumerate_partitions, weight_multiset
from hilbfock.series import Series1

# the rays of each fan, in counterclockwise order
SURFACES = {
    "P2": ((1, 0), (0, 1), (-1, -1)),
    "P1xP1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "pentagon": ((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)),
    "hexagon": ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    **{f"F{gamma}": ((1, 0), (0, 1), (-1, gamma), (0, -1)) for gamma in (1, 2, 3)},
}
# the surfaces with 3, 4, 5 and 6 rays
BY_RAYS = ("P2", "P1xP1", "pentagon", "hexagon")
TORUS_WEIGHTS = ((7, 1000), (3, 101))
TOP = 4  # the largest n

CHI_Y = (Fr(2), Fr(-1, 3), Fr(5, 7))


def chi_y_class(y: Fr) -> Series1:
    """f_y(x) = x (1 + y e^(-x)) / ((1 - e^(-x)) (1 + y)), to degree 2 TOP:
    the Todd class times (1 + y e^(-x)) / (1 + y)."""
    twist = [Fr(1)] + [y * (-1) ** k / (math.factorial(k) * (1 + y)) for k in range(1, 2 * TOP + 1)]
    return preset_class("todd", 2 * TOP) * Series1(tuple(twist), 2 * TOP)


CLASSES = {
    **{name: preset_class(name, 2 * TOP) for name in ("trivial", "chern-total", "todd", "a-hat", "l-genus")},
    "2/3,-4/9,-1/7": Series1((Fr(1), Fr(2, 3), Fr(-4, 9), Fr(-1, 7)), 2 * TOP),
    "1,3,-2,5": Series1((Fr(1), Fr(1), Fr(3), Fr(-2), Fr(5)), 2 * TOP),
    **{f"chi_y at {y}": chi_y_class(y) for y in CHI_Y},
}
# (f, g) for the integrals of g(O^[n]) f(T)
TAUTOLOGICAL = (("todd", "1,3,-2,5"), ("2/3,-4/9,-1/7", "todd"), ("trivial", "2/3,-4/9,-1/7"))


def chart_weights(rays, torus):
    """The torus weights (t1, t2) of the coordinates of each chart: at
    the cone of v_i = (a, b) and v_(i+1) = (c, d), the characters dual
    to the two rays are (d, -c) and (-b, a)."""
    return [
        (d * torus[0] - c * torus[1], -b * torus[0] + a * torus[1])
        for (a, b), (c, d) in zip(rays, rays[1:] + rays[:1])
    ]


def binomial_product(a: list, b: list) -> list:
    """The row of E_a E_b to the length of a, for rows with
    E_m = e_m / (m! c^m) at one scale c."""
    return [sum(math.comb(m, i) * a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


def rescaled(e: list, k: int) -> list:
    """A row at the scale c moved to the scale k c."""
    return [v * k**m for m, v in enumerate(e)]


@cache
def integrals(name: str, surface: str, torus=TORUS_WEIGHTS[0], tautological=None) -> tuple:
    """1 and the integrals of the class over S^[n] for 1 <= n <= TOP,
    summed over the fixed points: [u^(2n)] of the product of f(w u) over
    the 2n tangent weights w, over the product of the weights.  Each
    diagram of each chart gets its row and weight product once.

    With ``tautological`` = (g, s) the integrand is g(O^[n]) f(T): at a
    chart with coordinate weights (t1, t2), the cell in 0-based row i and
    column j of a diagram is a character s (i t1 + j t2) of O^[n], and
    the row of g on those characters joins the row of f, both moved to
    one scale."""
    c, w, _, _ = _class_log(CLASSES[name], 2 * TOP)
    scale = c
    if tautological:
        g, sign = tautological
        c_g, w_g, _, _ = _class_log(CLASSES[g], 2 * TOP)
        scale = math.lcm(c, c_g)
    charts = []
    for t1, t2 in chart_weights(SURFACES[surface], torus):
        rows = {}
        for size in range(TOP + 1):
            for diagram in enumerate_partitions(size):
                weights = weight_multiset(diagram, t1, -t2)
                row = _power_sum_exp(w, weights)
                if tautological:
                    parts = enumerate(diagram.parts)
                    characters = [sign * (i * t1 + j * t2) for i, part in parts for j in range(part)]
                    row = binomial_product(
                        rescaled(row, scale // c), rescaled(_power_sum_exp(w_g, characters), scale // c_g)
                    )
                rows[diagram] = row, math.prod(weights)
        charts.append(rows)
    totals = []
    for n in range(TOP + 1):
        total = Fr(0)
        for sizes in itertools.product(range(n + 1), repeat=len(charts)):
            if sum(sizes) != n:
                continue
            for diagrams in itertools.product(*map(enumerate_partitions, sizes)):
                row, weight_product = [1] + [0] * (2 * n), 1
                for chart, diagram in zip(charts, diagrams):
                    # an empty diagram's row is 1 and its weight product 1
                    if diagram.parts:
                        e, product = chart[diagram]
                        weight_product *= product
                        row = binomial_product(row, e)
                total += Fr(row[2 * n], math.factorial(2 * n) * scale ** (2 * n) * weight_product)
        totals.append(total)
    return tuple(totals)


def log_integrals(name: str, surface: str, tautological=None) -> list:
    """The coefficients of q^1..q^TOP of L = log of the sum over n of q^n
    times the integral over S^[n]."""
    return list(series_log(Series1(integrals(name, surface, tautological=tautological), TOP)).coefficients[1:])


def goettsche(e: int) -> list:
    """The coefficients of q^0..q^TOP of prod over k of (1 - q^k)^(-e),
    each factor 1 / (1 - q^k) taken as a running sum with step k."""
    series = [1] + [0] * TOP
    for k in range(1, TOP + 1):
        for _ in range(e):
            for i in range(k, TOP + 1):
                series[i] += series[i - k]
    return series


def chi_y_genera(e: int, y: Fr) -> list:
    """chi_y(S^[n]) for n <= TOP on a toric surface with e rays, from the
    closed form at u = -y: the q^(m (k + 1)) term of the log is
    chi_(-u^m)(S) u^(m k) / m."""
    u = -y
    log = [Fr(0)] * (TOP + 1)
    for m in range(1, TOP + 1):
        chi = 1 + (e - 2) * u**m + u ** (2 * m)
        for k in range(TOP // m):
            log[m * (k + 1)] += chi * u ** (m * k) / m
    return list(series_exp(Series1(tuple(log), TOP)).coefficients)


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("torus", TORUS_WEIGHTS)
def test_the_todd_class_integrates_to_one(surface, torus):
    assert integrals("todd", surface, torus)[1:] == (1,) * TOP


@pytest.mark.parametrize("surface", SURFACES)
def test_a_class_with_an_odd_log_integrates_to_the_same_number_at_both_torus_weights(surface):
    first, second = (integrals("2/3,-4/9,-1/7", surface, torus) for torus in TORUS_WEIGHTS)
    for n in range(1, TOP + 1):
        assert first[n] == second[n], n


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("torus", TORUS_WEIGHTS)
def test_the_total_chern_class_gives_goettsches_euler_numbers(surface, torus):
    assert list(integrals("chern-total", surface, torus)) == goettsche(len(SURFACES[surface]))


def test_goettsches_product_gives_the_known_euler_numbers():
    assert {e: goettsche(e)[1:] for e in (3, 4, 5, 6)} == {
        3: [3, 9, 22, 51],
        4: [4, 14, 40, 105],
        5: [5, 20, 65, 190],
        6: [6, 27, 98, 315],
    }


@pytest.mark.parametrize("surface", ("P2", "P1xP1", "pentagon", "hexagon", "F1"))
@pytest.mark.parametrize("y", CHI_Y, ids=str)
def test_the_chi_y_class_gives_the_chi_y_genera(surface, y):
    integral = integrals(f"chi_y at {y}", surface)
    assert [(1 + y) ** (2 * n) * v for n, v in enumerate(integral)] == chi_y_genera(len(SURFACES[surface]), y)


def test_the_chi_y_closed_form_gives_the_known_genera():
    """chi_y(S) = 1 - (e - 2) y + y^2, and S^[2] of P^2 has the Hodge
    numbers 1, 2, 3, 2, 1 on the diagonal."""
    assert {e: chi_y_genera(e, Fr(2))[:3] for e in (3, 4, 5, 6)} == {
        3: [1, 3, 9],
        4: [1, 1, 11],
        5: [1, -1, 17],
        6: [1, -3, 27],
    }
    assert chi_y_genera(3, Fr(-1, 3))[:3] == [1, Fr(13, 9), Fr(169, 81)]


@pytest.mark.parametrize("surface", ("P1xP1", "F1", "F2", "F3"))
@pytest.mark.parametrize("torus", TORUS_WEIGHTS)
def test_every_hirzebruch_surface_gives_the_integrals_of_P1xP1(surface, torus):
    """e = 4 and K^2 = 8 on F_gamma as on P^1 x P^1."""
    expected = (Fr(16, 9), Fr(5944, 567), Fr(93152, 1701), Fr(13279232, 45927))
    assert integrals("2/3,-4/9,-1/7", surface, torus)[1:] == expected


@pytest.mark.parametrize("name", ("2/3,-4/9,-1/7", "a-hat", "l-genus", "1,3,-2,5"))
def test_the_log_of_the_integrals_is_affine_in_the_number_of_rays(name):
    """Both second differences of L_3, ..., L_6 vanish, coefficient by
    coefficient in q."""
    L = [log_integrals(name, surface) for surface in BY_RAYS]
    for first, middle, last in zip(L, L[1:], L[2:]):
        assert [a - 2 * b + c for a, b, c in zip(first, middle, last)] == [0] * TOP


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("f, g", TAUTOLOGICAL)
def test_a_tautological_class_integrates_to_the_same_number_at_both_torus_weights(f, g, sign):
    for surface in BY_RAYS:
        first, second = (integrals(f, surface, torus, (g, sign)) for torus in TORUS_WEIGHTS)
        assert first == second, surface


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("f, g", TAUTOLOGICAL)
def test_the_log_of_the_tautological_integrals_is_affine_in_the_number_of_rays(f, g, sign):
    """Both second differences of L_3, ..., L_6 vanish for g(O^[n]) f(T)."""
    L = [log_integrals(f, surface, (g, sign)) for surface in BY_RAYS]
    for first, middle, last in zip(L, L[1:], L[2:]):
        assert [a - 2 * b + c for a, b, c in zip(first, middle, last)] == [0] * TOP


@pytest.mark.parametrize(
    "name, log_a, log_b",
    [
        # A = prod over k of (1 - q^k)^(-1), so [q^n] log A = sigma(n) / n; B = 1
        (
            "chern-total",
            [Fr(sum(d for d in range(1, n + 1) if n % d == 0), n) for n in range(1, TOP + 1)],
            [0] * TOP,
        ),
        # A = B = (1 - q)^(-1/12), from chi(O) = 1 and Noether's formula
        ("todd", [Fr(1, 12 * n) for n in range(1, TOP + 1)], [Fr(1, 12 * n) for n in range(1, TOP + 1)]),
        # A = (1 - q)^(-1/12) and B = (1 - q)^(1/24)
        ("a-hat", [Fr(1, 12 * n) for n in range(1, TOP + 1)], [Fr(-1, 24 * n) for n in range(1, TOP + 1)]),
    ],
)
def test_P2_and_P1xP1_give_the_closed_forms_of_the_universal_series(name, log_a, log_b):
    L3, L4 = log_integrals(name, "P2"), log_integrals(name, "P1xP1")
    assert [(9 * b - 8 * a) / 12 for a, b in zip(L3, L4)] == log_a
    assert [(4 * a - 3 * b) / 12 for a, b in zip(L3, L4)] == log_b
