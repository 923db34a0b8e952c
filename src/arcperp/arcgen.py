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


# The most products x_i^(s) * x_j^(order-s) one listing builds.  It admits
# ``gens --n 1 --max-order 445`` (99,681 products) and ``gens --n 446
# --max-order 0`` (99,681), which took 1.0 and 1.6 s of CPU in one run each on
# Python 3.11; ``gens --n 1 --max-order 2000`` would build 2,003,001.
PRODUCT_LIMIT = 100_000


def check_product_count(n: int, max_order: int) -> None:
    """Refuse with ``ValueError`` a listing ``arc_generators_up_to(n,
    max_order)`` whose n(n+1)/2 * (max_order+1)(max_order+2)/2 products
    exceed ``PRODUCT_LIMIT``."""
    if n * (n + 1) // 2 * ((max_order + 1) * (max_order + 2) // 2) > PRODUCT_LIMIT:
        raise ValueError(
            f"arc generators of n={n} up to t^{max_order} exceed the limit of"
            f" {PRODUCT_LIMIT:,} products per listing"
        )


def arc_generators_up_to(n: int, max_order: int) -> list[Polynomial]:
    """The coefficients of t^order in x_i(t) * x_j(t) for 1 <= i <= j <= n
    and order <= max_order, ordered by (order, i, j).
    Raises ``ValueError`` before building any past ``check_product_count``."""
    if n < 1 or max_order < 0:
        raise ValueError("arc generators need n >= 1 and max_order >= 0")
    check_product_count(n, max_order)
    return [
        Polynomial(Counter(
            Monomial.of(x(i, s)).mul(Monomial.of(x(j, order - s))) for s in range(order + 1)
        ))
        for order in range(max_order + 1)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    ]
