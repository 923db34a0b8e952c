"""Generators of the arc ideal of the double point.

Expanding each coordinate as a series x_i(t) = sum_j x_i^(j) t^j, the products
x_i(t) * x_j(t) generate the ideal; the coefficient of t^l is

    sum_{s=0}^{l} x_i^(s) * x_j^(l-s).

Generators are kept as these raw series coefficients (e.g. 2*x*x' rather than
x*x'), since scaling changes neither the ideal nor any kernel.  Every one is a
quadratic form in the differential variables, which the minor-side
annihilation check in ``reports`` relies on.
"""

from __future__ import annotations

from collections import Counter

from .ring import Monomial, Polynomial, x


def arc_generators_up_to(n: int, max_order: int) -> list[Polynomial]:
    """The coefficients of t^order in x_i(t) * x_j(t) for 1 <= i <= j <= n
    and order <= max_order, ordered by (order, i, j)."""
    if n < 1 or max_order < 0:
        raise ValueError("arc generators need n >= 1 and max_order >= 0")
    return [
        Polynomial(Counter(
            Monomial.of(x(i, s)).mul(Monomial.of(x(j, order - s))) for s in range(order + 1)
        ))
        for order in range(max_order + 1)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    ]
