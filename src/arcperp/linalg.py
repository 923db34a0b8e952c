"""Exact rational linear algebra over monomial-keyed sparse rows.

All elimination runs on one sparse, fraction-free core.  Rows are ``{key:
value}`` maps of their nonzero entries over ``int``, eliminated by integer
combinations; keys a row never mentions are never touched.  There is no
dense matrix: the kernel side hands ``nullspace`` its pairing rows, and the
minor side hands ``forward_echelon`` its packed minors, as sparse rows.
``forward_echelon`` gives each row a lead, its least key, and reduces each
new row by its lead until it is zero or its lead is new, which certifies the
rank.  ``back_substitute`` reduces those rows against each other, still over
``int``: a row divided by its pivot entry, its first nonzero column, is a
row of the unique reduced row-echelon form over the rationals, and
``nullspace`` reads one integer vector per free column off them.  A
``Fraction`` is built only where a reduced form is read, for an entry its
pivot does not divide, and a rational row is cleared of denominators where
it enters.

A monomial becomes a row key in one format, that of ``MonomialIndex``: one
integer whose order is the graded-lex monomial order and whose sum is the
key of the product.  Kernel vectors and packed minors alike arrive as rows
over those keys, and every ``Span`` keeps their forward echelon, so each
lead is a lowest monomial.  A span answers ``contains`` by the forward
echelon's own step, ``_reduce``, and two spans are equal when one contains
the basis of the other and their dimensions agree; a span builds its reduced
form, on the negated keys, and decodes them only when a basis is read.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .ring import Monomial, Polynomial, Variable, _sorted_monomial


def forward_echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Integer rows in echelon form by least key, as ``{lead: row}``.

    Each row in turn is eliminated by its least key against the row kept
    with that lead (``_reduce``), until it is zero or its least key is a new
    lead; then it is kept as it stands.  Kept rows are never reduced against
    each other, so this is the rank, with no back-substitution.  A row kept without any
    elimination is the caller's own dict, so the caller must not mutate it;
    a row that was eliminated is a copy, divided by its content.
    """
    kept: dict[int, dict[int, int]] = {}
    for row in rows:
        if not row:
            continue
        lead = min(row)
        if lead not in kept:
            kept[lead] = row
            continue
        work = dict(row)
        lead = _reduce(work, kept)
        if lead is not None:
            _divide_content(work, lead)
            kept[lead] = work
    return kept


def _reduce(work: dict[int, int], kept: Mapping[int, dict[int, int]]) -> int | None:
    """Eliminate ``work`` in place by its least key while that key leads a
    kept row; return the least key it stops at, a new lead, or None when
    it vanishes."""
    while work:
        lead = min(work)
        if lead not in kept:
            return lead
        _eliminate(work, kept[lead], lead)
    return None


def back_substitute(
    kept: Mapping[int, dict[int, int]],
) -> tuple[list[dict[int, int]], list[int]]:
    """The reduced row-echelon form of ``forward_echelon``'s rows, over ``int``.

    Returns the reduced rows, sorted by pivot (their leads), and the pivots;
    a row divided by its pivot entry is a row of the unique reduced form
    over the rationals.  Rows are reduced from the highest lead down, each
    against the reduced rows below it, and divided by their content if
    changed; ``kept`` is left unchanged.
    """
    pivots = sorted(kept)
    done: dict[int, dict[int, int]] = {}
    for p in reversed(pivots):
        row = kept[p]
        below = [c for c in row if c != p and c in done]
        if below:
            row = dict(row)
            for c in below:
                _eliminate(row, done[c], c)
            _divide_content(row, p)
        done[p] = row
    return [done[p] for p in pivots], pivots


def _over_pivot(row: Mapping[int, int], pivot: int) -> dict[int, int | Fraction]:
    """A row divided by its entry at ``pivot``: an ``int`` where that entry
    divides, a ``Fraction`` elsewhere."""
    d = row[pivot]
    return {c: Fraction(e, d) if e % d else e // d for c, e in row.items()}


def _cleared(row: Mapping[int, int | Fraction]) -> dict[int, int]:
    """A rational row's nonzero entries times the lcm of its denominators."""
    scale = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (scale // v.denominator) for c, v in row.items() if v}


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> None:
    """Clear ``col`` from ``row`` in place by an integer combination with
    ``pivot_row``."""
    v = row.pop(col)
    p = pivot_row[col]
    g = gcd(p, v)
    a, b = p // g, v // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, e in pivot_row.items():
        if k != col:
            t = row.get(k, 0) - b * e
            if t:
                row[k] = t
            else:
                del row[k]


def _divide_content(row: dict[int, int], lead: int) -> None:
    """Divide by the gcd of the entries, signed to make the ``lead`` entry positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def nullspace(rows: Iterable[dict[int, int]], cols: int) -> list[dict[int, int]]:
    """A basis of the right nullspace of integer rows with ``cols`` columns.

    One integer vector per free column f, in column order.  Over the reduced
    rows with an entry e at f, with L the lcm of their pivot entries d, it is
    L at f and -e*L/d at each such row's pivot: L times the rational vector
    with 1 at f.  Rows are eliminated sparsest first, which keeps fill-in low.
    """
    reduced, pivots = back_substitute(forward_echelon(sorted(rows, key=len)))
    pivot_set = set(pivots)
    met: dict[int, list] = {f: [] for f in range(cols) if f not in pivot_set}
    for row, p in zip(reduced, pivots):
        d = row[p]
        for c, e in row.items():
            if c != p:
                met[c].append((p, e, d))
    basis = []
    for f, entries in met.items():
        scale = lcm(*(d for _, _, d in entries))
        basis.append({f: scale} | {p: -e * (scale // d) for p, e, d in entries})
    return basis


# The widest key one index admits, in bits: a key of L variables in base b is
# about L*log2(b) bits, and the index holds the L powers of b, about L^2/2 bits
# when b is 2.  It admits ``perp --n 1 --degree 1 --order 16382`` (16,384-bit
# keys), which took 5.6 s of CPU and 89 MiB of peak RSS in one run on Python
# 3.11, and ``minors --family H --n 1 --h 1 --k 16382``, 5.1 s and 133 MiB.
KEY_BIT_LIMIT = 16_384


class MonomialIndex:
    """The one monomial key format: a monomial as one integer, and back.

    The L ``variables`` are numbered in variable order, and a monomial of
    degree d with exponent e_k at the k-th of them, every e_k below ``base``,
    is the key d*top + sum(e_k * base**(L-1-k)), top = base**L: the degree is
    the leading digit (``key // top``) and the earliest variable the next.
    Comparing keys as integers compares the degrees, then the exponents at the
    first variable where two monomials differ, so integer order is the
    graded-lex order of ``Monomial.order_key``.  No digit carries while every
    exponent stays below the base, so the key of a product is the sum of the
    keys.  A monomial with a variable outside the index, or an exponent of
    ``base`` or more, has no key.  Each key is decoded once per index.  An
    index whose ``top`` is wider than ``KEY_BIT_LIMIT`` bits raises
    ``ValueError`` before it lists any power of the base.
    """

    def __init__(self, variables: Iterable[Variable], base: int):
        self.variables = sorted(set(variables))
        self.base = base
        size = len(self.variables)
        self.top = base**size
        bits = self.top.bit_length()
        if bits > KEY_BIT_LIMIT:
            raise ValueError(
                f"monomial keys of {bits:,} bits over {size:,} variables"
                f" exceed the limit of {KEY_BIT_LIMIT:,} bits per key"
            )
        self._powers = [base**p for p in range(size)]  # the place of variable size-1-p
        self._place = {v: self._powers[size - 1 - k] for k, v in enumerate(self.variables)}
        self._decoded: dict[int, Monomial] = {}

    def _key(self, m: Monomial) -> int | None:
        """The key of m, None for a monomial the index cannot hold."""
        key = m.degree * self.top
        for v, e in m.pairs:
            place = self._place.get(v)
            if place is None or e >= self.base:
                return None
            key += e * place
        return key

    def _monomial(self, key: int) -> Monomial:
        """The monomial of a key, decoded once; the last variable is the lowest
        digit.  Each nonzero digit, highest first, is found by bisecting the
        powers of the base: at most d divisions for a key of degree d."""
        got = self._decoded.get(key)
        if got is None:
            degree, rest = divmod(key, self.top)
            powers, last, pairs = self._powers, len(self._powers) - 1, []
            while rest:
                p = bisect_right(powers, rest) - 1
                e, rest = divmod(rest, powers[p])
                pairs.append((self.variables[last - p], e))
            got = self._decoded[key] = _sorted_monomial(tuple(pairs), degree)
        return got


# Empty: ``perfbench/tracer.py`` looks this class up by name (``getattr`` over
# ``TRACED_CLASSES``), so it stays until the next change to the benchmark.
class RationalMatrix:
    pass


class Span:
    """A finite-dimensional subspace of polynomials, held as its kept rows.

    ``kept`` is what ``forward_echelon`` returns: integer rows ``{key:
    value}`` over the keys of ``index``, one per dimension, with distinct
    least keys, their leads; the least key is the lowest monomial.
    ``dimension`` and ``contains`` read the kept rows alone.  The first read
    of the basis polynomials reduces the kept rows with every key negated,
    so a reduced row's pivot, its least negated key, is its highest monomial;
    the rows divided by their pivot entries, decoded, are the basis, the
    unique reduced row-echelon form, built once and shared by every later
    reader.  Two spans, over any indexes, are equal exactly when
    ``span_witness`` finds no basis polynomial of one outside the other.
    """

    def __init__(self, index: MonomialIndex, kept: dict[int, dict[int, int]]):
        self.index = index
        self.kept = kept
        self._polynomials = None

    @property
    def dimension(self) -> int:
        return len(self.kept)

    def basis_polynomials(self) -> tuple[Polynomial, ...]:
        if self._polynomials is None:
            reduced, pivots = back_substitute(
                forward_echelon({-k: v for k, v in row.items()} for row in self.kept.values())
            )
            monomial = self.index._monomial
            self._polynomials = tuple(
                Polynomial({monomial(-c): e for c, e in _over_pivot(row, p).items()})
                for row, p in zip(reduced, pivots)
            )
        return self._polynomials

    def contains(self, p: Polynomial) -> bool:
        """Is p in the span?  The forward echelon's own step: p's terms form
        one integer row over the index's keys, and it is eliminated by its
        least key while that key is a lead.  A nonzero combination of kept
        rows has a lead as its least key, so p is in the span exactly when
        the row vanishes.  A term with no key (a variable outside the index,
        or an exponent of its base or more) is in no span over the index."""
        row = {self.index._key(m): c for m, c in p.terms.items()}
        if None in row:
            return False
        return _reduce(_cleared(row), self.kept) is None


def span_witness(a: Span, b: Span) -> Polynomial | None:
    """The first basis polynomial of ``a`` that ``b`` does not contain;
    failing that, None when the dimensions agree, and otherwise the first
    basis polynomial of ``b`` that ``a`` does not contain.  None exactly when
    the spans are equal: a subspace of the same dimension is the whole."""
    for p in a.basis_polynomials():
        if not b.contains(p):
            return p
    if a.dimension == b.dimension:
        return None
    return next(p for p in b.basis_polynomials() if not a.contains(p))
