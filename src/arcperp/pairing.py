"""The apolarity pairing and the pointwise derivations.

``apply_pairing(f, P)`` applies f as a constant-coefficient differential
operator to P: on monomials, x^b acts on x^a as a!/(a-b)! * x^(a-b) when
b <= a componentwise, and as zero otherwise.  Auxiliary symbols are treated
as transcendental constants; they multiply through and are never
differentiated.

``directional_derivative(P)`` applies the operator sum_j sum_i al_{1,j} *
xi_1^i * d/dx_j^(i), the derivation x_j^(i) -> al_{1,j} * xi_1^i.
``is_differentially_homogeneous(P, d)`` tests the Leibniz scaling x -> y*x
by the derivation of ``_scaling_rule``: with the double derivative, it is
one of the battery's pointwise tests of single polynomials.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .ring import Monomial, Polynomial, Variable, al, x, xi, y


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
        scale *= math.perm(a, b)  # the falling factorial a!/(a-b)!
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


def is_differentially_homogeneous(p: Polynomial, d: int) -> bool:
    """Does replacing x by y*x under Leibniz multiply p by y^d?

    The substitution is x_i^(j) -> sum_k C(j, k) y^(k) x_i^(j-k), the other
    variables staying fixed, and it is tested in its infinitesimal form:
    every term of p has x-degree d, and D_k p = 0 for 1 <= k <= N, N the
    largest order in p, where

        D_k = sum_{i, j >= k} C(j, k) x_i^(j-k) d/dx_i^(j).

    Proof of the equivalence.  Put x_i(t) = sum_j x_i^(j) t^j/j! and y(t)
    likewise in A = C[t]/t^(N+1); by Leibniz the substitution is x_i(t) ->
    y(t) x_i(t), so p(y x) = y_0^d p(x) says that p is a semi-invariant of
    weight y -> y_0^d under the group of units of A (the units, y_0 != 0,
    are dense, so the identity on them is the identity of polynomials in
    y_0, ..., y_N; orders above N do not occur).  (=>) Apply d/dy_k at
    y = 1, i.e. y_0 = 1 and y_k = 0 for k >= 1: the left side gives
    sum C(j, k) x_i^(j-k) dp/dx_i^(j) = D_k p and the right side gives
    d*p for k = 0 (the Euler operator D_0 = sum x d/dx, so each term has
    x-degree d) and 0 for k >= 1.  (<=) The units are C* x (1 + tA), y =
    y_0 * (y/y_0).  C* acts by x -> c*x, which multiplies each term by c to
    its x-degree, here c^d.  The factor 1 + tA is commutative and
    unipotent, the exponential of its Lie algebra tA, which is spanned by
    t^k/k!, 1 <= k <= N; the element t^k/k! acts on p as D_k, since
    t^k/k! * x_i(t) has x_i^(j-k) C(j, k) at t^j/j!.  Along the
    one-parameter group exp(s t^k/k!) the derivative of p(exp(s t^k/k!) x)
    is (D_k p)(exp(s t^k/k!) x) = 0, so p is invariant under each of them
    and hence under their product, which is all of 1 + tA.

    The y^(k) must be new to p: a p that involves y already raises
    ``ValueError``, since substituting the y it holds conflates its
    coefficients with the scaling.  So sum_k y^(k) D_k p, one derivation of
    p, is zero exactly when every D_k p is.
    """
    if any(m.pairs and m.pairs[-1][0].kind == "y" for m in p.terms):
        raise ValueError("is_differentially_homogeneous needs p free of y")
    if any(sum(e for v, e in m.pairs if v.kind == "x") != d for m in p.terms):
        return False
    # The test is linear in p, so it runs on the integral multiple scale*p.
    scale = math.lcm(*(c.denominator for c in p.terms.values()))
    integral = Polynomial({m: c.numerator * (scale // c.denominator) for m, c in p.terms.items()})
    return integral.derive(_scaling_rule).is_zero


@functools.cache
def _scaling_rule(v: Variable) -> list:
    """x_i^(j) -> sum_{1 <= k <= j} C(j, k) y_k x_i^(j-k); every other variable
    is a constant.  Cached: building the j image terms costs more than one use."""
    if v.kind != "x":
        return []
    return [(math.comb(v.j, k), ((x(v.i, v.j - k), 1), (y(k), 1))) for k in range(1, v.j + 1)]
