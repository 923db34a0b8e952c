"""Graded inverse systems of the arc ideal and their truncations: the kernel side.

``perp_graded_basis`` computes, by exact kernel extraction, the space of
degree-d polynomials in derivative orders <= H annihilated by every arc
generator.  Annihilation by the degree-2 generators alone characterizes the
space: a monomial multiple m*g acts as m acting after g, so the generator
constraints propagate to the whole ideal.  Every generator is
weight-homogeneous, so the kernel side lists the monomials of each (degree,
weight) block itself, once ``check_monomial_count`` has counted them exactly
to at most ``MONOMIAL_LIMIT``, and solves the blocks one at a time.  It keeps each monomial as its key in one
``MonomialIndex``, from the enumeration through the constraint rows, whose
quotients are key differences, to the kernel span, and decodes a key only
when a basis is read or a restriction drops high orders.  A minor span is
keyed by its packed matrix's index; spans compare by containment of basis
polynomials, each keyed in the other's index, so the keys never need to
agree.

``restriction_span`` restricts high orders to zero, realizing the truncated
inverse systems, and ``restriction_mismatch`` compares it with a
``hankel.GradedSpan``, the triangular minor span.  The kernel side imports
only ``linalg`` and ``ring``: the Wronskian span, the dimension chain and
the series live in ``hankel``, the homogeneity test in ``pairing``, so the
two descriptions that ``reports`` compares share only the linear-algebra
core, and ``series`` and ``dims-chain`` compile none of this module.
"""

from __future__ import annotations

from itertools import accumulate

from .linalg import MonomialIndex, Span, nullspace, span_witness
from .ring import Polynomial, differential_variables


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


def check_monomial_count(n: int, degree: int, max_order: int, max_weight: int) -> None:
    """Refuse an enumeration of ``_monomials_up_to_weight`` past
    ``MONOMIAL_LIMIT`` with a ``ValueError``, counted exactly without listing
    a variable.  A monomial of degree >= 1 has orders <= H' = min(H, W).  If
    d*H' <= W the weight cannot bind and the count is C(n(H'+1)+d-1, d);
    otherwise each x_i^(j) in turn adds to the counts by (degree, weight)
    those of one degree less, shifted by j.  Both stop once past the limit."""
    top = min(max_order, max_weight)
    size, count = n * (top + 1), 1
    if degree * top <= max_weight:
        for k in range(min(degree, size - 1)):  # C(size+d-1, k) rises with k
            count = count * (size + degree - 1 - k) // (k + 1)
            if count > MONOMIAL_LIMIT:
                break
    else:
        # counts[e][w]: the monomials of degree e and weight w in the variables so far.
        counts = [[1] + [0] * max_weight] + [[0] * (max_weight + 1) for _ in range(degree)]
        for j in (j for j in range(top + 1) for _ in range(n)):
            for e in range(1, degree + 1):  # ascending, so x_i^(j) may repeat
                shifted = [0] * j + counts[e - 1][: max_weight + 1 - j]
                counts[e] = [a + b for a, b in zip(counts[e], shifted)]
            count = sum(counts[degree])
            if count > MONOMIAL_LIMIT:
                break
    if count > MONOMIAL_LIMIT:
        raise ValueError(
            f"over {MONOMIAL_LIMIT:,} monomials of degree {degree}, orders <= {max_order} and"
            f" weight <= {max_weight} exceed the limit of {MONOMIAL_LIMIT:,} monomials per enumeration"
        )


def _monomials_up_to_weight(n: int, degree: int, max_order: int, max_weight: int) -> tuple:
    """The index ``MonomialIndex(differential_variables(n, H), d + 1)`` and
    (weight, pairs, key) for each degree-d monomial of orders <= H and weight
    <= max_weight, in ``combinations_with_replacement`` order: a walk that
    enters the variables in turn, each exponent from the largest the degree
    and weight left allow down to 1, until the lightest variable left
    outweighs them.  The last variable takes exactly the degree left, as no
    variable follows to take the rest, so no call ends with degree left over
    and nowhere to put it.  It recurses once per entered variable, at most d
    deep.  ``check_monomial_count`` refuses an enumeration past
    ``MONOMIAL_LIMIT`` first, before any variable is listed."""
    check_monomial_count(n, degree, max_order, max_weight)
    index = MonomialIndex(differential_variables(n, max_order), degree + 1)
    variables, place, found = index.variables, index._place, []
    lightest = list(accumulate((v.j for v in reversed(variables)), min))[::-1]
    last = len(variables) - 1

    def walk(start: int, left: int, budget: int, pairs: tuple, key: int) -> None:
        if not left:
            found.append((max_weight - budget, pairs, key))
            return
        for k in range(start, len(variables)):
            if left * lightest[k] > budget:
                break
            v = variables[k]
            top = min(left, budget // v.j) if v.j else left
            for e in range(top, 0 if k < last else left - 1, -1):
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


# -- elimination / truncation certificate -------------------------------------


def restriction_mismatch(n: int, h: int, truncated) -> tuple[int, Polynomial] | None:
    """The first degree d <= h+1 at which the exact restriction span
    (``restriction_span``) and ``truncated``, the ``hankel.GradedSpan`` of the
    triangular minors ``hankel.truncated_perp_basis(n, h)``, differ, with a basis polynomial of one
    side missing from the other; None when all agree.  Degrees above h+1
    cannot occur: the triangular family has h+1 rows, which bounds minor
    size."""
    for degree in range(h + 2):
        witness = span_witness(restriction_span(n, h, degree), truncated.span(degree))
        if witness is not None:
            return degree, witness
    return None
