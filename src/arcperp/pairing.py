"""The apolarity pairing and the pointwise derivations.

``apply_pairing(f, P)`` applies f as a constant-coefficient differential
operator to P: on monomials, x^b acts on x^a as a!/(a-b)! * x^(a-b) when
b <= a componentwise, and as zero otherwise.  Auxiliary symbols are treated
as transcendental constants; they multiply through and are never
differentiated.  ``check_pairing_size`` bounds a pairing's work before the
``pair`` command runs it.

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


# The most variables one pairing visits: a term pair (beta, alpha) copies the
# |alpha| variables of alpha and scans the |beta| of beta.  It admits ``pair``
# of the 1,000 terms x3_0 + ... + x3_999 against the product of x3_0, ...,
# x3_998, where every pair builds a 998-variable quotient (1.4-1.8 s of CPU
# and 6.9 MB of output in single runs on Python 3.11), and 700 x 700 terms in
# distinct variables (0.25-0.34 s).
VISIT_LIMIT = 1_000_000

# The most bits the coefficients of one pairing may reach: the bound
# bits(c_f) + bits(c_P) + sum_v b_v * a_v.bit_length() on the product of two
# terms' coefficients and their monomial pairing's a!/(a-b)! (< a^b), summed
# over the term pairs; bits(c) counts numerator and denominator.  It admits
# ``pair x1_0^222222 x1_0^222222`` (4,000,000 bits), 1.1-1.4 s of CPU in
# single runs on Python 3.11; ``pair x1_0^1000000 x1_0^1000000`` took 12.0 s.
COEFFICIENT_BITS = 4_000_000


def check_pairing_size(f: Polynomial, p: Polynomial) -> None:
    """Refuse with ``ValueError`` an ``apply_pairing(f, p)`` past ``VISIT_LIMIT``
    variable visits or ``COEFFICIENT_BITS`` bits, both summed over every term
    pair in integers before any product: |f| * (the widths of p's monomials)
    + |p| * (those of f's), and |f| * bits(p) + |p| * bits(f) + sum_v (the sum
    of b_v over f) * (the sum of a_v.bit_length() over p), v over the
    differential variables."""
    column: dict[Variable, int] = {}
    p_width = p_bits = 0
    for alpha, c in p.terms.items():
        p_width += len(alpha.pairs)
        p_bits += _bits(c)
        for v, a in alpha.pairs:
            column[v] = column.get(v, 0) + a.bit_length()
    visits = len(f.terms) * p_width + len(p.terms) * sum(len(beta.pairs) for beta in f.terms)
    if visits > VISIT_LIMIT:
        raise ValueError(
            f"{visits:,} variable visits exceed the limit of {VISIT_LIMIT:,} variable visits"
            " per pairing"
        )
    bits = len(f.terms) * p_bits + len(p.terms) * sum(_bits(c) for c in f.terms.values())
    bits += sum(b * column.get(v, 0) for beta in f.terms for v, b in beta.pairs if v.kind == "x")
    if bits > COEFFICIENT_BITS:
        raise ValueError(
            f"a coefficient bound of {bits:,} bits exceeds the limit of"
            f" {COEFFICIENT_BITS:,} bits per pairing"
        )


def _bits(c: int | Fraction) -> int:
    """The bits of a coefficient's numerator and denominator."""
    return c.numerator.bit_length() + c.denominator.bit_length()


def _monomial_pairing(beta: Monomial, alpha: Monomial) -> tuple[int, Monomial] | None:
    """Pair two monomials; returns (scale, quotient monomial) or None.

    Only differential variables of ``beta`` differentiate; its auxiliary part
    is carried over multiplicatively into the quotient.  Whether beta's
    differential part divides alpha is decided before any falling factorial
    is computed, so a zero pairing computes none.
    """
    remaining = dict(alpha.pairs)
    if any(b > remaining.get(v, 0) for v, b in beta.pairs if v.kind == "x"):
        return None
    scale = 1
    for v, b in beta.pairs:
        if v.kind != "x":
            remaining[v] = remaining.get(v, 0) + b
            continue
        a = remaining[v]
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
