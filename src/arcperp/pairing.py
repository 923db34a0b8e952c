"""The apolarity pairing and the exponential-direction derivative.

``apply_pairing(f, P)`` applies f as a constant-coefficient differential
operator to P: on monomials, x^b acts on x^a as a!/(a-b)! * x^(a-b) when
b <= a componentwise, and as zero otherwise.  Auxiliary symbols are treated
as transcendental constants; they multiply through and are never
differentiated.

``directional_derivative(P)`` is the operator

    sum_j sum_{i <= H} al_{1,j} * xi_1^i * d/dx_j^(i)

truncated at H = the largest derivative order present in P.  The truncation
is exact: higher-order summands differentiate with respect to variables that
do not occur, so they act as zero.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import Monomial, Polynomial, al, xi


def _monomial_pairing(beta: Monomial, alpha: Monomial) -> tuple[int, Monomial] | None:
    """Pair two monomials; returns (scale, quotient monomial) or None.

    Only differential variables of ``beta`` differentiate; its auxiliary part
    is carried over multiplicatively into the quotient.
    """
    scale = 1
    remaining = dict(alpha.pairs)
    for v, b in beta.pairs:
        if v.kind != "x":
            remaining[v] = remaining.get(v, 0) + b
            continue
        a = remaining.get(v, 0)
        if b > a:
            return None
        for k in range(a, a - b, -1):  # falling factorial a!/(a-b)!
            scale *= k
        if a == b:
            del remaining[v]
        else:
            remaining[v] = a - b
    return scale, Monomial(remaining.items())


def apply_pairing(f: Polynomial, p: Polynomial) -> Polynomial:
    """Bilinear extension of the monomial pairing rule."""
    acc: dict[Monomial, int | Fraction] = {}
    for beta, cf in f.terms.items():
        for alpha, cp in p.terms.items():
            hit = _monomial_pairing(beta, alpha)
            if hit is None:
                continue
            scale, quotient = hit
            acc[quotient] = acc.get(quotient, 0) + cf * cp * scale
    return Polynomial(acc)


def directional_derivative(p: Polynomial) -> Polynomial:
    """Derivative of p in the direction of a one-exponential perturbation.

    Returns sum_j sum_i al_{1,j} xi_1^i dp/dx_j^(i), a polynomial in the
    original variables and the auxiliaries xi_1, al_{1,j}.
    """
    acc: dict[Monomial, int | Fraction] = {}
    for m, c in p.terms.items():
        for idx, (v, e) in enumerate(m.pairs):
            if v.kind != "x":
                continue
            rest_pairs = list(m.pairs)
            if e == 1:
                del rest_pairs[idx]
            else:
                rest_pairs[idx] = (v, e - 1)
            marker = Monomial(rest_pairs).mul(
                Monomial(((al(1, v.i), 1), (xi(1), v.j)))
            )
            acc[marker] = acc.get(marker, 0) + c * e
    return Polynomial(acc)


def double_derivative_vanishes(p: Polynomial) -> bool:
    """True iff applying :func:`directional_derivative` twice yields zero.

    The second application still differentiates only with respect to the
    differential variables; the auxiliaries introduced by the first pass
    ride along as constants.

    It is also the test of linearity under the exponential shift x_i^(j) ->
    x_i^(j) + al_{1,i} xi_1^j E: by Taylor, p(x + E*v) = sum_k E^k/k! D_v^k p
    with D_v the derivative above, which is linear in E iff D_v^2 p = 0.
    """
    return directional_derivative(directional_derivative(p)).is_zero
