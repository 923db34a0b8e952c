"""Generators of the arc ideal of the double point.

Expanding each coordinate as a series x_i(t) = sum_j x_i^(j) t^j, the products
x_i(t) * x_j(t) generate the ideal; the coefficient of t^l is

    sum_{s=0}^{l} x_i^(s) * x_j^(l-s).

Generators are kept as these raw series coefficients (e.g. 2*x*x' rather than
x*x'), since scaling changes neither the ideal nor any kernel.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .ring import Monomial, Polynomial, x


class ArcGeneratorKey(NamedTuple):
    """The coefficient of t^order in x_i(t) * x_j(t), with i <= j."""

    i: int
    j: int
    order: int

    def validate(self, n: int) -> None:
        if not (1 <= self.i <= self.j <= n):
            raise ValueError(f"family indices ({self.i}, {self.j}) out of range for n={n}")
        if self.order < 0:
            raise ValueError(f"negative t-power {self.order}")


def arc_generator(n: int, key: ArcGeneratorKey) -> Polynomial:
    """The generator indexed by (i, j, order) for the n-coordinate double point."""
    key.validate(n)
    return Polynomial(Counter(
        Monomial.of(x(key.i, s)).mul(Monomial.of(x(key.j, key.order - s)))
        for s in range(key.order + 1)
    ))


def arc_generators_up_to(n: int, max_order: int) -> list[Polynomial]:
    """All generators with t-power <= max_order, ordered by (order, i, j)."""
    if n < 1 or max_order < 0:
        raise ValueError("arc generators need n >= 1 and max_order >= 0")
    out = []
    for order in range(max_order + 1):
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                out.append(arc_generator(n, ArcGeneratorKey(i, j, order)))
    return out
