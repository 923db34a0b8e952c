"""Exact rational linear algebra over monomial-indexed coefficient matrices.

All elimination runs on one sparse, fraction-free core, ``reduced_echelon``.
Rows are ``{column: value}`` maps of their nonzero entries, cleared of
denominators and eliminated over the integers, sparsest first, each row kept
divided by its content; the result is the unique reduced row-echelon form
over the rationals.  Columns a row never mentions are never touched.  The
pivot of a row is its first nonzero column, so every result is
deterministic.  Results keep integral values as ``int``: a ``Fraction`` is
built only for an entry its pivot does not divide.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .ring import Monomial, Polynomial

def reduced_echelon(
    rows: Iterable[Mapping[int, int | Fraction]],
) -> tuple[list[dict[int, int | Fraction]], list[int]]:
    """The unique reduced row-echelon form of sparse rational rows.

    Returns the nonzero reduced rows, sorted by pivot column, and their pivot
    columns; rank is the number of rows.  The rows are eliminated in
    ascending order of their nonzero count, which keeps fill-in low; the
    result does not depend on that order.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        scale = lcm(*(v.denominator for v in row.values()))
        work = {c: v.numerator * (scale // v.denominator) for c, v in row.items() if v}
        for c in [c for c in work if c in pivot_rows]:
            _eliminate(work, pivot_rows[c], c)
        if not work:
            continue
        lead = min(work)
        _divide_content(work, lead)
        for other in pivot_rows.values():
            if lead in other:
                _eliminate(other, work, lead)
                _divide_content(other, None)
        pivot_rows[lead] = work
    pivots = sorted(pivot_rows)
    reduced = []
    for p in pivots:
        row = pivot_rows[p]
        d = row[p]
        if d != 1:
            row = {c: Fraction(e, d) if e % d else e // d for c, e in row.items()}
        reduced.append(row)
    return reduced, pivots


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> None:
    """Clear ``col`` from ``row`` in place by an integer combination with ``pivot_row``.

    The pivot entry is positive, so the multiplier of ``row`` is too and the
    signs of its other entries are kept.
    """
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


def _divide_content(row: dict[int, int], lead: int | None) -> None:
    """Divide by the gcd of the entries; with ``lead``, also make that entry positive."""
    g = gcd(*row.values())
    if lead is not None and row[lead] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def nullspace(
    rows: Iterable[Mapping[int, int | Fraction]], cols: int
) -> list[dict[int, int | Fraction]]:
    """A basis of the right nullspace of sparse rows with ``cols`` columns.

    One vector per free column f, in column order: 1 at f, and minus the
    reduced rows' entries in column f at their pivots.
    """
    reduced, pivots = reduced_echelon(rows)
    pivot_set = set(pivots)
    basis = {f: {f: 1} for f in range(cols) if f not in pivot_set}
    for row, p in zip(reduced, pivots):
        for c, e in row.items():
            if c != p:
                basis[c][p] = -e
    return list(basis.values())


def _dense(row: Mapping[int, int | Fraction], cols: int) -> list[Fraction]:
    out = [Fraction(0)] * cols
    for c, e in row.items():
        out[c] = e
    return out


class MonomialIndex:
    """An ordered ambient basis of monomials with a position lookup.

    Monomials are kept in descending monomial order (the global graded-lex
    order), so coefficient matrices built against the index are reproducible.
    """

    def __init__(self, monomials: Iterable[Monomial]):
        ordered = sorted(set(monomials), key=Monomial.order_key, reverse=True)
        self.monomials: tuple[Monomial, ...] = tuple(ordered)
        self.position: dict[Monomial, int] = {m: i for i, m in enumerate(ordered)}

    @classmethod
    def spanning(cls, polys: Iterable[Polynomial]) -> "MonomialIndex":
        """The union of the supports of the given polynomials."""
        seen = set()
        for p in polys:
            seen.update(p.terms)
        return cls(seen)

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)


class RationalMatrix:
    """A dense matrix of exact rationals; it reduces on the sparse core."""

    def __init__(self, entries: Sequence[Sequence[Fraction]], cols: int | None = None):
        self.entries: list[list[Fraction]] = [
            [Fraction(e) for e in row] for row in entries
        ]
        self.rows = len(self.entries)
        if self.rows:
            self.cols = len(self.entries[0])
            if any(len(row) != self.cols for row in self.entries):
                raise ValueError("ragged matrix")
            if cols is not None and cols != self.cols:
                raise ValueError("explicit column count disagrees with rows")
        else:
            self.cols = cols or 0

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def multiply_vector(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum((row[j] * v[j] for j in range(self.cols)), Fraction(0)) for row in self.entries]

    def _sparse_rows(self) -> list[dict[int, Fraction]]:
        return [{j: e for j, e in enumerate(row) if e} for row in self.entries]

    def rank(self) -> int:
        return len(reduced_echelon(self._sparse_rows())[1])

    def row_reduce(self) -> "RationalMatrix":
        """The unique reduced row-echelon form, zero rows dropped."""
        reduced, _ = reduced_echelon(self._sparse_rows())
        return RationalMatrix([_dense(row, self.cols) for row in reduced], cols=self.cols)

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """A basis of the right nullspace, one vector per free column."""
        return [tuple(_dense(v, self.cols)) for v in nullspace(self._sparse_rows(), self.cols)]


def _coefficient_row(p: Polynomial, index: MonomialIndex) -> dict[int, int | Fraction]:
    row = {}
    for m, c in p.terms.items():
        pos = index.position.get(m)
        if pos is None:
            raise ValueError(f"monomial {m} outside the ambient index")
        row[pos] = c
    return row


class Span:
    """A finite-dimensional subspace of polynomials in reduced echelon form.

    ``rows`` are the unique RREF of the input coefficient rows against the
    ambient index, sparse as ``reduced_echelon`` returns them, with their
    ``pivots``; two spans over compatible indexes are equal exactly when
    their basis polynomials coincide.  Those are built once, on first use,
    and shared by every later query, so they must not be mutated.
    """

    def __init__(
        self, index: MonomialIndex, rows: list[dict[int, int | Fraction]], pivots: list[int]
    ):
        self.index = index
        self.rows = rows
        self.pivots = pivots
        self._polynomials = self._by_pivot = None

    @classmethod
    def from_polynomials(
        cls, polys: Iterable[Polynomial], index: MonomialIndex | None = None
    ) -> "Span":
        polys = [p for p in polys if not p.is_zero]
        if index is None:
            index = MonomialIndex.spanning(polys)
        return cls(index, *reduced_echelon(_coefficient_row(p, index) for p in polys))

    @property
    def dimension(self) -> int:
        return len(self.pivots)

    def basis_polynomials(self) -> tuple[Polynomial, ...]:
        if self._polynomials is None:
            monomials = self.index.monomials
            polys = [Polynomial({monomials[c]: e for c, e in row.items()}) for row in self.rows]
            self._by_pivot = {monomials[c]: b.terms.items() for c, b in zip(self.pivots, polys)}
            self._polynomials = tuple(polys)
        return self._polynomials

    def reduce(self, p: Polynomial) -> Polynomial:
        """The remainder of p after elimination against the basis rows: as the
        rows are reduced, p minus p's coefficient at each pivot times its row."""
        self.basis_polynomials()  # builds the pivot map on first use
        remainder = dict(p.terms)
        for m, c in p.terms.items():
            for k, e in self._by_pivot.get(m, ()):
                t = c if e == 1 else c * e
                old = remainder.get(k)
                remainder[k] = -t if old is None else old - t
        return Polynomial(remainder)

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Span) and self.basis_polynomials() == other.basis_polynomials()


def span_witness(a: Span, b: Span) -> Polynomial | None:
    """None when the spans are equal; otherwise the first basis polynomial of
    ``a`` that ``b`` does not contain, or failing that, of ``b`` not in ``a``."""
    if a == b:
        return None
    for this, other in ((a, b), (b, a)):
        for p in this.basis_polynomials():
            if not other.contains(p):
                return p
    return None
