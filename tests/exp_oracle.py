"""The one-variable exponential, kept as a test oracle.

The package no longer exponentiates a series: its fixed-point sums run
the division-free integer recurrence in ``localisation``.  The plain
rational recurrence lives here, next to the tests that check that
recurrence and the logarithm against it.
"""

from __future__ import annotations

from hilbfock.series import Series1, SeriesError


def series_exp(series: Series1) -> Series1:
    """Exponential of a one-variable series with zero constant term.

    E = exp(g) solves E' = g' E, so its coefficients follow
    m E_m = sum over 1 <= k <= m of k g_k E_(m-k), which costs O(N^2)
    coefficient operations.
    """
    ring = series.ring
    if series.constant_term != ring.zero:
        raise SeriesError("exp requires zero constant term")
    n = series.order
    weighted = [ring.coerce(k) * c for k, c in enumerate(series.coefficients)]
    out = [ring.one] + [ring.zero] * n
    for m in range(1, n + 1):
        acc = ring.zero
        for k in range(1, m + 1):
            s = weighted[k]
            if s:
                acc = acc + s * out[m - k]
        out[m] = acc / ring.coerce(m)
    return Series1(tuple(out), n, ring)
