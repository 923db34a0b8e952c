"""Graded inverse systems of the arc ideal, truncations, and cross-checks.

``perp_graded_basis`` computes, by exact kernel extraction, the space of
degree-d polynomials in derivative orders <= H annihilated by every arc
generator.  Annihilation by the degree-2 generators alone characterizes the
space: a monomial multiple m*g acts as m acting after g, so the generator
constraints propagate to the whole ideal.  Every generator is
weight-homogeneous, so the kernel side enumerates the monomials of each
(degree, weight) block itself, at most ``MONOMIAL_LIMIT`` of them, and solves
the blocks one at a time.  It keeps each monomial as its key in one
``MonomialIndex``, from the enumeration through the constraint rows, whose
quotients are key differences, to the kernel span, and decodes a key only
when a basis is read or a restriction drops high orders.  A minor span is
keyed by its packed matrix's index; spans compare by their basis
polynomials, so the keys never need to agree.

The other entry points build what ``reports.run_verification`` compares
with it on concrete instances: the independently computed Hankel-minor
spans, the restrictions of high orders to zero that realize the truncated
inverse systems, and the differential homogeneity of single polynomials.
The triangular/scaled dimension chain, which the ``dims-chain`` command
prints, reads only the minor side: nothing here reaches the pairing.  The
truncated dimension series lives in ``hankel``, so the ``series`` command
compiles none of this module.  Every check on the kernel basis elements
themselves is in ``reports``, built on the pairing's double derivative.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .hankel import (
    GradedSpan,
    hankel_matrix,
    minor_span,
    scaled_augmented_matrix,
    scaled_matrix,
)
from .linalg import MonomialIndex, Span, nullspace, span_witness
from .ring import (
    Monomial, Polynomial, Variable, differential_variables, format_polynomial, x, y,
)


def perp_graded_basis(n: int, degree: int, max_order: int) -> Span:
    """Basis of the degree-d, order <= H part of the inverse system.

    Solves, per weight class, the linear system "g applied to P vanishes"
    over every arc generator, applied from its structure by
    ``_generator_images``; generators with t-power above 2*max_order act as
    zero on the ambient space and never occur there.  The span is keyed by
    the enumeration's ``MonomialIndex(differential_variables(n, H), d + 1)``.
    """
    if degree < 0 or max_order < 0 or n < 1:
        raise ValueError("perp_graded_basis needs n >= 1, degree >= 0, max_order >= 0")
    return Span.from_rows(*_kernel_up_to_weight(n, degree, max_order, degree * max_order))


def _kernel_up_to_weight(n: int, degree: int, max_order: int, max_weight: int) -> tuple:
    """The enumeration's index and the kernel vectors, over its keys, of each
    weight block of weight <= max_weight among the degree-d monomials of orders
    <= max_order.  Weight classes never interact: a weight-l generator maps
    weight-w candidates into weight-(w-l) monomials, so each is solved alone."""
    index, found = _monomials_up_to_weight(n, degree, max_order, max_weight)
    by_weight: dict[int, list[tuple]] = {}
    for w, pairs, key in found:
        by_weight.setdefault(w, []).append((pairs, key))
    return index, [v for _, b in sorted(by_weight.items()) for v in _weight_block_kernel(index, b)]


# The most monomials one kernel enumeration admits.  It admits ``perp --n 4
# --degree 5 --order 5``, whose 98,280 monomials took 6.2 s of CPU and 60 MiB
# of peak RSS in one run on Python 3.11; ``perp --n 3 --degree 7 --order 7``
# would enumerate 2,035,800.
MONOMIAL_LIMIT = 100_000


def _monomials_up_to_weight(n: int, degree: int, max_order: int, max_weight: int) -> tuple:
    """The index ``MonomialIndex(differential_variables(n, H), d + 1)`` and
    (weight, pairs, key) for each degree-d monomial of orders <= H and weight
    <= max_weight, in ``combinations_with_replacement`` order: a walk that
    enters the variables in turn, each exponent from the largest the degree
    and weight left allow down to 1, until the lightest variable left
    outweighs them.  It recurses once per entered variable, at most d deep.
    Raises ``ValueError`` on the monomial past ``MONOMIAL_LIMIT``, and before
    listing any variable when d >= 1 and n*(min(H, max_weight)+1) exceeds
    it: each x_i^(j)*(x_1^(0))^(d-1), j <= min(H, max_weight), is one."""
    too_many = ValueError(
        f"over {MONOMIAL_LIMIT:,} monomials of degree {degree}, orders <= {max_order} and"
        f" weight <= {max_weight} exceed the limit of {MONOMIAL_LIMIT:,} monomials per enumeration"
    )
    if degree and n * (min(max_order, max_weight) + 1) > MONOMIAL_LIMIT:
        raise too_many
    index = MonomialIndex(differential_variables(n, max_order), degree + 1)
    variables, place, found = index.variables, index._place, []
    lightest = list(accumulate((v.j for v in reversed(variables)), min))[::-1]

    def walk(start: int, left: int, budget: int, pairs: tuple, key: int) -> None:
        if not left:
            if len(found) == MONOMIAL_LIMIT:
                raise too_many
            found.append((max_weight - budget, pairs, key))
            return
        for k in range(start, len(variables)):
            if left * lightest[k] > budget:
                break
            v = variables[k]
            for e in range(min(left, budget // v.j) if v.j else left, 0, -1):
                walk(k + 1, left - e, budget - e * v.j, (*pairs, (v, e)), key + e * place[v])

    walk(0, degree, max_weight, (), degree * index.top)
    return index, found


def _weight_block_kernel(index: MonomialIndex, block: list[tuple]) -> list[dict]:
    """A basis, over the keys of one weight block of (pairs, key), of the
    vectors annihilated by every arc generator.  Row ((i, j), l, q) holds, in
    column c, the integer coefficient of the quotient key q in g_{ij,l}
    applied to the c-th monomial; the rows go to ``nullspace`` as they are."""
    rows: dict[tuple, dict[int, int]] = {}
    for c, (pairs, key) in enumerate(block):
        for family, order, quotient, coeff in _generator_images(index, pairs, key):
            rows.setdefault((family, order, quotient), {})[c] = coeff
    return [{block[c][1]: e for c, e in v.items()} for v in nullspace(rows.values(), len(block))]


def _generator_images(index: MonomialIndex, pairs: tuple, key: int):
    """The nonzero terms of every arc generator applied to the monomial m of
    these (variable, exponent) pairs and this key in ``index``.

    g_{ij,l} = sum_s x_i^(s) x_j^(l-s) acts as a sum of second partials, so
    only pairs of variables of m contribute.  Yields ((i, j), l, quotient
    key, coefficient): for u = x_i^(s) and v = x_j^(t) with exponents a, b,
    the pair u != v gives a*b on m/(u*v), doubled when i = j because the sum
    then holds both x_i^(s) x_i^(t) and x_i^(t) x_i^(s); a square u = v gives
    a(a-1) on m/u^2.  Keys add under products, so a quotient's key is m's
    minus 2*top + place[u] + place[v].  Each (generator, quotient) comes from
    one pair.
    """
    top2, place = 2 * index.top, index._place
    for p, (u, a) in enumerate(pairs):
        low = key - top2 - place[u]
        if a >= 2:
            yield (u.i, u.i), 2 * u.j, low - place[u], a * (a - 1)
        for v, b in pairs[p + 1:]:
            coeff = 2 * a * b if u.i == v.i else a * b
            yield (u.i, v.i), u.j + v.j, low - place[v], coeff


class ChainDims(NamedTuple):
    """Dimensions of the three independently enumerated minor spaces."""

    triangular: int
    scaled: int
    scaled_augmented: int
    equal: bool
    bijection_lands_in_scaled: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        return {
            "triangular": self.triangular,
            "scaled": self.scaled,
            "scaled_augmented": self.scaled_augmented,
            "equal": self.equal,
            "bijection_lands_in_scaled": self.bijection_lands_in_scaled,
        }


def dimension_chain(n: int, h: int, tri: GradedSpan) -> ChainDims:
    """Compare the triangular, scaled, and augmented-maximal minor dimensions.

    ``tri`` is the triangular minor span ``hankel.truncated_perp_basis(n, h)``.
    ``equal`` records whether all three match (n+1)^(h+1).  The explicit
    substitution x^(i) -> x^(h-i)/(h-i)! is also applied to every triangular
    basis element and checked to land in the scaled span of its degree: the
    map keeps degree and the degree pieces share no monomials, so that is
    landing in the whole scaled span.  On failure the witness is the first
    triangular basis element whose image lands outside, or else the first
    family whose dimension is off.
    """
    closed = (n + 1) ** (h + 1)
    sca = minor_span(scaled_matrix(n, h), range(h + 2))
    aug = minor_span(scaled_augmented_matrix(n, h), [h + 1])
    dims = (tri.total_dimension, sca.total_dimension, aug.total_dimension)
    outside = next(
        (p for d, span in tri.spans.items() for p in span.basis_polynomials()
         if not sca.span(d).contains(scaled_of_triangular_map(p, h))),
        None,
    )
    off = [
        f"{family}: {d} != {closed}"
        for family, d in zip(("triangular", "scaled", "scaled_augmented"), dims)
        if d != closed
    ]
    witness = off[0] if off else None
    if outside is not None:
        witness = f"image outside the scaled span: {format_polynomial(outside)}"
    return ChainDims(*dims, equal=not off, bijection_lands_in_scaled=outside is None,
                     witness=witness)


def restriction_span(n: int, h: int, degree: int) -> Span:
    """Span of the order->h restrictions of the degree-d inverse system.

    Exact, with no order bound to choose.  Every arc generator is
    weight-homogeneous, so the inverse system is the sum of its weight
    blocks, and the degree-d, weight-w block uses only orders <= w: the
    blocks of weight w <= H are the same at every order bound H >= w.  A
    degree-d monomial with all orders <= h has weight <= d*h, so only the
    blocks of weight <= d*h restrict to nonzero polynomials.  Those are
    solved once, at order d*h, enumerating only the monomials of weight <= d*h,
    and each kernel vector drops the keys whose monomial has an order above h.
    """
    if degree < 0 or h < 0 or n < 1:
        raise ValueError("restriction_span needs n >= 1, h >= 0, degree >= 0")
    index, kernel = _kernel_up_to_weight(n, degree, degree * h, degree * h)
    decode = index._monomial
    low = [{k: c for k, c in v.items() if not decode(k).has_order_above(h)} for v in kernel]
    return Span.from_rows(index, low)


# -- span equality of the kernel and minor descriptions -----------------------


def hankel_minor_intersection_span(n: int, degree: int, max_order: int) -> Span:
    """Span of the Wronskians of d distinct derivative variables of orders
    <= H-d+1, the degree-d part of the inverse system cut to orders <= H.

    The Wronskian of d distinct variables is the maximal minor of the d-row
    Hankel block picking those columns, so the span is that of the maximal
    minors of ``hankel_matrix(n, d, H-d+1)``, every entry of which has order
    <= H; it has dimension C(n(H-d+2), d) and is empty when d > H+1.  At
    degree 0 the block has no rows and its one minor, of size 0, is 1.

    Compared with the kernel, this certifies on each instance that the
    kernel cut to orders <= H is the span of these low Wronskians.  That it
    is also the span of all Wronskians cut to orders <= H was measured
    (n <= 3, d <= 5, d*H <= 20), not proven.
    """
    if degree > max_order + 1:
        return Span.from_polynomials(())
    return minor_span(hankel_matrix(n, degree, max_order - degree + 1), [degree]).span(degree)


# -- elimination / truncation certificate -------------------------------------


def restriction_mismatch(n: int, h: int, truncated: GradedSpan) -> tuple[int, Polynomial] | None:
    """The first degree d <= h+1 at which the exact restriction span
    (``restriction_span``) and ``truncated``, the triangular minor span
    ``hankel.truncated_perp_basis(n, h)``, differ, with a basis polynomial of one
    side missing from the other; None when all agree.  Degrees above h+1
    cannot occur: the triangular family has h+1 rows, which bounds minor
    size."""
    for degree in range(h + 2):
        witness = span_witness(restriction_span(n, h, degree), truncated.span(degree))
        if witness is not None:
            return degree, witness
    return None


# -- pointwise certificates on single polynomials ------------------------------


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


def scaled_of_triangular_map(p: Polynomial, h: int) -> Polynomial:
    """The substitution x^(i) -> x^(h-i)/(h-i)! that carries the triangular
    minor space onto the scaled one.

    It is a renaming: each x_i^(j) becomes x_i^(h-j), and a term's coefficient
    is divided by the product of ((h-j)!)^e over its x-factors.  The renaming
    is a bijection on variables, so no two terms merge.
    """
    out = {}
    for m, c in p.terms.items():
        pairs = []
        scale = 1
        for v, e in m.pairs:
            if v.kind == "x":
                if v.j > h:
                    raise ValueError(f"variable {v.token()} has order above h={h}")
                scale *= math.factorial(h - v.j) ** e
                v = x(v.i, h - v.j)
            pairs.append((v, e))
        out[Monomial(pairs)] = c if scale == 1 else Fraction(c, scale)
    return Polynomial(out)
