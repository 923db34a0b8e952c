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

import bisect
from fractions import Fraction

from .ring import Monomial, Polynomial, _sorted_monomial, al, xi


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
    """Derivative of p in the direction of a one-exponential perturbation.

    Returns sum_j sum_i al_{1,j} xi_1^i dp/dx_j^(i), a polynomial in the
    original variables and the auxiliaries xi_1, al_{1,j}.

    Each image monomial is the sorted pair tuple of m edited, as in
    ``Polynomial.derivative``: the differential pairs sort first, so the
    lowered exponent stays among them and the marker al_{1,j} xi_1^i merges
    into the auxiliary tail.
    """
    acc: dict[Monomial, int | Fraction] = {}
    for m, c in p.terms.items():
        pairs = m.pairs
        split = next((k for k, (v, _) in enumerate(pairs) if v.kind != "x"), len(pairs))
        tail = pairs[split:]
        for idx in range(split):
            v, e = pairs[idx]
            head = pairs[:idx] + ((v, e - 1),) if e > 1 else pairs[:idx]
            key = _sorted_monomial(
                head + pairs[idx + 1:split] + _with_marker(tail, v.i, v.j), m.degree + v.j
            )
            t = c if e == 1 else c * e
            old = acc.get(key)
            acc[key] = t if old is None else old + t
    return Polynomial(acc)


_XI1 = xi(1)


def _with_marker(tail: tuple, i: int, j: int) -> tuple:
    """The sorted auxiliary pairs ``tail`` times al_{1,i} * xi_1^j.  xi_1 is
    the least auxiliary variable, so it can only be the first pair."""
    out = list(tail)
    if j:
        if out and out[0][0] == _XI1:
            out[0] = (_XI1, out[0][1] + j)
        else:
            out.insert(0, (_XI1, j))
    a = al(1, i)
    pos = bisect.bisect_left(out, (a,))
    if pos < len(out) and out[pos][0] == a:
        out[pos] = (a, out[pos][1] + 1)
    else:
        out.insert(pos, (a, 1))
    return tuple(out)


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
