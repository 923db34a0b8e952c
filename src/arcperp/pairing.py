"""The apolarity pairing and the exponential-direction derivative.

``apply_pairing(f, P)`` applies f as a constant-coefficient differential
operator to P: on monomials, x^b acts on x^a as a!/(a-b)! * x^(a-b) when
b <= a componentwise, and as zero otherwise.  Auxiliary symbols are treated
as transcendental constants; they multiply through and are never
differentiated.

``directional_derivative(P)`` applies the operator sum_j sum_i al_{1,j} *
xi_1^i * d/dx_j^(i), the derivation x_j^(i) -> al_{1,j} * xi_1^i.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import Monomial, Polynomial, Variable, al, xi


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
        unit = cf == 1
        for alpha, cp in p.terms.items():
            hit = _monomial_pairing(beta, alpha)
            if hit is None:
                continue
            scale, quotient = hit
            c = cp if unit else cf * cp
            if scale != 1:
                c *= scale
            old = acc.get(quotient)
            acc[quotient] = c if old is None else old + c
    return Polynomial(acc)


def directional_derivative(p: Polynomial) -> Polynomial:
    """Derivative of p in the direction of a one-exponential perturbation,
    sum_j sum_i al_{1,j} xi_1^i dp/dx_j^(i): ``Polynomial.derive`` with the
    rule :func:`_marker_rule`."""
    return p.derive(_marker_rule)


def _marker_rule(v: Variable) -> list:
    """x_i^(j) -> al_{1,i} * xi_1^j; every other variable is a constant."""
    if v.kind != "x":
        return []
    marker = ((xi(1), v.j), (al(1, v.i), 1)) if v.j else ((al(1, v.i), 1),)
    return [(1, marker)]


def double_derivative_vanishes(p: Polynomial) -> bool:
    """True iff applying :func:`directional_derivative` twice yields zero.

    It is also the test of linearity under the exponential shift x_i^(j) ->
    x_i^(j) + al_{1,i} xi_1^j E: by Taylor, p(x + E*v) = sum_k E^k/k! D_v^k p
    with D_v the derivative above, which is linear in E iff D_v^2 p = 0.
    """
    return directional_derivative(directional_derivative(p)).is_zero
