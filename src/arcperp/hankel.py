"""Structured symbolic matrices, Wronskians, minor spans: the minor side.

Four matrix families are built here:

* ``hankel_matrix(n, h, k)`` -- h rows, n(k+1) columns; the entry in row r of
  the offset-c block is x_j^(r+c) for each family j;
* ``triangular_matrix(n, h)`` -- horizontal concatenation over families of the
  order-(h+1) upper triangle with x^(h-i) on the i-th superdiagonal;
* ``scaled_matrix(n, h)`` -- same shape with x^(i)/i! on the i-th
  superdiagonal (x on the main diagonal);
* ``scaled_augmented_matrix(n, h)`` -- scaled_matrix(n, h) with an identity
  block appended, realizing the substitution of 1 for an extra family.

``matrix_shape`` reads a family's shape without building it, and from it
``check_span_count`` counts the minors ``minor_span`` would expand, so each
command refuses more than ``MINOR_LIMIT`` minors before it builds a matrix.

Every determinant and minor runs on one kernel, ``PackedMatrix``: the matrix
is packed once per enumeration, each monomial its key in a
``linalg.MonomialIndex`` (so that a monomial product is one addition, and
integer order is monomial order) and each row cleared of denominators, and
expanded over ``int`` along the last chosen row with a memo on (row, column)
subsets, so the exponentially many minors of one matrix share their
subproblems.  Every enumeration of minors is one walk, ``_walk``: it clips
the sizes, chooses the row sets, counts them against ``MINOR_LIMIT`` and
packs the matrix, once.  Its two readers are ``iter_minors`` (every row set,
the ``minors`` command's listing), which reads values as ``Polynomial``, and
``minor_span``, the one minor span that this module and ``reports`` read.
The span's row sets are chosen from the matrix: in T, S and S1 each row is
the block shift of the one above, so only the top-row minors, whose
subproblems are the top-row minors one size down, are expanded (the proof
is in its docstring); any other matrix below its row count has every row
set expanded.  The span certifies each degree's dimension by a forward
echelon of the packed values, led by their lowest monomials, with no
``Polynomial`` per minor: each degree is a plain ``Span`` over the matrix's
index, which decodes keys and builds the reduced row-echelon form only when
a basis is read.  ``truncated_perp_basis`` is the minor span of T(n, h);
``dimension_series`` compares its total dimensions with (n+1)^(h+1),
``dimension_chain`` with those of S and S1 (and checks that one substitution
carries T to S entry by entry, hence each minor of T to S's), and
``hankel_minor_intersection_span`` is the Wronskian span that the kernel is
compared with.  Like the kernel side, ``perp``, this module imports only
``linalg`` and ``ring``, so ``series`` and ``dims-chain`` load nothing else.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .linalg import MonomialIndex, Span, forward_echelon
from .ring import ONE, ZERO, Monomial, Polynomial, x


class SymbolicMatrix(NamedTuple):
    """A rectangular array of polynomials and its column count, which a
    matrix with no rows cannot show."""

    entries: tuple[tuple[Polynomial, ...], ...]
    cols: int

    @property
    def rows(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "SymbolicMatrix":
        """The matrix of these rows, ``cols`` wide: by default as wide as its
        first row, and 0x0 with no rows."""
        entries = tuple(tuple(row) for row in rows)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        return cls(entries, cols)


def hankel_matrix(n: int, h: int, k: int) -> SymbolicMatrix:
    """The h x n(k+1) block of shifted derivatives: entry (r, c*n+j-1) = x_j^(r+c)."""
    _, cols = matrix_shape("H", n, h, k)
    rows = []
    for r in range(h):
        row = []
        for c in range(k + 1):
            for j in range(1, n + 1):
                row.append(Polynomial.from_variable(x(j, r + c)))
        rows.append(row)
    return SymbolicMatrix.from_rows(rows, cols)


def _triangles(n: int, h: int, entry) -> SymbolicMatrix:
    """n upper-triangular (h+1)-square blocks side by side, one per family,
    emitted row by row across the families: row r of family j's block is r
    zeros, then entry(j, 0), ..., entry(j, h - r), so entry(j, i) fills its
    i-th superdiagonal."""
    return SymbolicMatrix.from_rows(
        [entry(j, c - r) if c >= r else ZERO for j in range(1, n + 1) for c in range(h + 1)]
        for r in range(h + 1)
    )


def triangular_matrix(n: int, h: int) -> SymbolicMatrix:
    """Concatenated upper triangles with x_j^(h-i) on the i-th superdiagonal."""
    matrix_shape("T", n, h)
    return _triangles(n, h, lambda j, i: Polynomial.from_variable(x(j, h - i)))


def scaled_matrix(n: int, h: int) -> SymbolicMatrix:
    """Concatenated upper triangles with x_j^(i)/i! on the i-th superdiagonal."""
    matrix_shape("S", n, h)
    return _triangles(
        n, h, lambda j, i: Polynomial({Monomial.of(x(j, i)): Fraction(1, math.factorial(i))})
    )


def scaled_augmented_matrix(n: int, h: int) -> SymbolicMatrix:
    """scaled_matrix(n, h) with the (h+1)-dimensional identity block appended."""
    return SymbolicMatrix.from_rows(
        row + tuple(ONE if c == r else ZERO for c in range(h + 1))
        for r, row in enumerate(scaled_matrix(n, h).entries)
    )


MATRIX_FAMILIES = {
    "T": triangular_matrix,
    "S": scaled_matrix,
    "S1": scaled_augmented_matrix,
}


def matrix_shape(family: str, n: int, h: int, k: int | None = None) -> tuple[int, int]:
    """The (rows, cols) of ``build_matrix(family, n, h, k)``, read without
    building it, and the ``ValueError`` of every bad argument: H is
    h x n(k+1), T and S are (h+1) x n(h+1), S1 is (h+1) x (n+1)(h+1)."""
    if family == "H":
        if k is None:
            raise ValueError("the H family needs the offset bound k")
        if n < 1 or h < 0 or k < 0:
            raise ValueError("hankel_matrix needs n >= 1, h >= 0, k >= 0")
        return h, n * (k + 1)
    if family not in MATRIX_FAMILIES:
        raise ValueError(f"unknown matrix family {family!r}")
    if k is not None:
        raise ValueError(f"the {family} family takes no offset bound k")
    if n < 1 or h < 0:
        builder = "triangular_matrix" if family == "T" else "scaled_matrix"
        raise ValueError(f"{builder} needs n >= 1, h >= 0")
    return h + 1, (n + 1 if family == "S1" else n) * (h + 1)


def build_matrix(family: str, n: int, h: int, k: int | None = None) -> SymbolicMatrix:
    """Build a structured matrix by family tag: H, T, S, or S1."""
    matrix_shape(family, n, h, k)
    return hankel_matrix(n, h, k) if family == "H" else MATRIX_FAMILIES[family](n, h)


# -- determinants and minors --------------------------------------------------

class PackedMatrix:
    """A matrix packed for exact determinant expansion: the one minor kernel.

    Each monomial of an entry is its key in ``index``, a ``MonomialIndex`` of
    the entries' variables.  Every minor is a sum of products of at most
    min(rows, cols) entries, so neither its exponents nor its degrees exceed
    that count times the largest entry degree, which is below the index's
    base: no digit carries, a monomial product is one integer addition, and
    integer order of keys is monomial order, so the largest key of a minor
    has its largest degree.

    Each row is multiplied by ``scales[r]``, the lcm of its denominators (the
    1/i! of the scaled families), so ``det`` expands over ``int`` alone.  A
    determinant is multilinear in its rows, so ``value`` divides each term
    once by the product of the chosen rows' scales.
    """

    def __init__(self, m: SymbolicMatrix):
        monomials = {mono for row in m.entries for p in row for mono in p.terms}
        degree = max((mono.degree for mono in monomials), default=0)
        self.index = index = MonomialIndex(
            (v for mono in monomials for v in mono.variables()), degree * min(m.rows, m.cols) + 1
        )
        key = {mono: index._key(mono) for mono in monomials}
        self.scales = [
            math.lcm(*(c.denominator for p in row for c in p.terms.values())) for row in m.entries
        ]
        self.entries = [
            [
                {key[mono]: c.numerator * (s // c.denominator) for mono, c in p.terms.items()}
                for p in row
            ]
            for row, s in zip(m.entries, self.scales)
        ]
        self.memo: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {
            ((), ()): {0: 1}
        }

    def det(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> dict[int, int]:
        """The minor of the scaled rows, packed key -> nonzero ``int``: cofactor
        expansion along the last chosen row, memoized on (rows, cols); terms
        that cancel are dropped as soon as they do.  The subproblems of a minor
        on rows 0..s-1 are the minors on rows 0..s-2."""
        memo = self.memo
        got = memo.get((rows, cols))
        if got is not None:
            return got
        last = self.entries[rows[-1]]
        rest = rows[:-1]
        odd = len(rest) % 2  # the cofactor sign is (-1)**(len(rest) + pos)
        acc: dict[int, int] = {}
        for pos, c in enumerate(cols):
            entry = last[c]
            if not entry:
                continue
            sub_cols = cols[:pos] + cols[pos + 1 :]
            sub = memo.get((rest, sub_cols))
            if sub is None:
                sub = self.det(rest, sub_cols)
            for ka, ca in entry.items():
                if pos % 2 != odd:
                    ca = -ca
                for kb, cb in sub.items():
                    k = ka + kb
                    v = acc.pop(k, 0) + ca * cb
                    if v:
                        acc[k] = v
        memo[(rows, cols)] = acc
        return acc

    def value(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        """The minor on (rows, cols) as a ``Polynomial``, each term divided by
        the rows' scales; a ``Fraction`` only where that is not integral."""
        det = self.det(rows, cols)
        if not det:
            return ZERO
        scale = math.prod(self.scales[r] for r in rows)
        return Polynomial(
            {
                self.index._monomial(k): Fraction(c, scale) if c % scale else c // scale
                for k, c in det.items()
            }
        )


# The most minors one enumeration expands.  It bounds the count, not memory: it
# admits the 155,382 top-row minors of ``series --n 2 --h-max 8``, whose peak RSS
# is 945 MiB, about 810 MiB of it the determinant memo of T(2, 8) (8.5 million
# packed terms, every top-row minor); a larger request would exhaust memory.
MINOR_LIMIT = 200_000

# A refusal writes its count out below this bound, and names a larger count by
# the bound: Python converts an int of at most 4,300 digits to text by default.
# Counting stops at the bound, so a count of any shape takes milliseconds.
COUNT_BOUND = 10**4300


def _binomial(c: int, s: int, walk: list[int]) -> int:
    """C(c, s) for 0 <= s <= c, or ``COUNT_BOUND`` where it is at least that.
    ``walk`` holds C(c, 0), C(c, 1), ... as far as asked, starting from [1]:
    C(c, s) = C(c, min(s, c-s)), and C(c, i) grows with i up to c/2, so the
    walk stops at the first past the bound."""
    i = min(s, c - s)
    while len(walk) <= i and walk[-1] < COUNT_BOUND:
        j = len(walk) - 1
        walk.append(walk[j] * (c - j) // (j + 1))
    return min(walk[min(i, len(walk) - 1)], COUNT_BOUND)


def check_minor_count(rows: int, cols: int, sizes, top: bool) -> None:
    """Refuse with ``ValueError`` more than ``MINOR_LIMIT`` minors of the given
    sizes of a rows x cols matrix: those on the top rows alone when ``top``,
    on every row set otherwise.  It reads the shape alone, so each command
    counts before it builds a matrix."""
    most, col_walk, row_walk, count = min(rows, cols), [1], [1], 0
    for s in sizes:
        if 0 <= s <= most:
            count += _binomial(cols, s, col_walk) * (1 if top else _binomial(rows, s, row_walk))
            if count >= COUNT_BOUND:
                break
    if count > MINOR_LIMIT:
        named = f"{count:,}" if count < COUNT_BOUND else "at least 10^4300"
        limit = f"exceed the limit of {MINOR_LIMIT:,} minors per enumeration"
        raise ValueError(f"{named} minors of a {rows}x{cols} matrix {limit}")


def check_span_count(family: str, n: int, h: int, k: int | None = None, sizes=None) -> None:
    """Refuse, before it is built, a ``minor_span`` of ``build_matrix(family,
    n, h, k)`` over ``sizes`` (every size when None) past ``MINOR_LIMIT``, with
    ``_walk``'s error: T, S and S1 count their top rows alone, being
    shift-structured, and a Hankel block every row set (alike for one row)."""
    rows, cols = matrix_shape(family, n, h, k)
    sizes = range(min(rows, cols) + 1) if sizes is None else sizes
    check_minor_count(rows, cols, sizes, top=family != "H")


def _walk(m: SymbolicMatrix, sizes, every_row: bool):
    """The packed matrix, and the (size, rows, cols) of the minors of the given
    sizes by size, then lexicographic (rows, cols), counted against
    ``MINOR_LIMIT`` on the call.  Each size s takes every row s-subset, or,
    unless ``every_row``, rows 0..s-1 alone where ``minor_span`` shows that
    this suffices."""
    sizes = [s for s in sorted(sizes) if 0 <= s <= min(m.rows, m.cols)]
    e = m.entries
    top = not every_row and all(
        e[r][c] == (e[r - 1][c - 1] if c % m.rows else ZERO)
        for r in range(1, m.rows) for c in range(m.cols)
    )
    check_minor_count(m.rows, m.cols, sizes, top)
    walk = (
        (s, rows, cols)
        for s in sizes
        for rows in ([tuple(range(s))] if top else itertools.combinations(range(m.rows), s))
        for cols in itertools.combinations(range(m.cols), s)
    )
    return PackedMatrix(m), walk


def iter_minors(m: SymbolicMatrix, sizes):
    """An iterator of (size, rows, cols, value) by size, then lexicographic (rows,
    cols); raises ``ValueError`` on the call past ``MINOR_LIMIT`` minors."""
    packed, walk = _walk(m, sizes, every_row=True)
    return ((size, rows, cols, packed.value(rows, cols)) for size, rows, cols in walk)


# The zero span, for a degree with no minor.
EMPTY_SPAN = Span(MonomialIndex((), 1), {})


class GradedSpan:
    """A degree-indexed family of spans, and the count of nonzero minors spanned."""

    def __init__(self, spans: dict[int, Span], nonzero_minors: int):
        self.spans = dict(sorted(spans.items()))
        self.nonzero_minors = nonzero_minors

    def span(self, degree: int) -> Span:
        return self.spans.get(degree, EMPTY_SPAN)

    @property
    def graded_dimensions(self) -> dict[int, int]:
        return {d: s.dimension for d, s in self.spans.items()}

    @property
    def total_dimension(self) -> int:
        return sum(s.dimension for s in self.spans.values())


def minor_span(m: SymbolicMatrix, sizes) -> GradedSpan:
    """Reduced span of the minors of the given sizes, grouped by degree.

    The row sets are chosen from the matrix.  When m is shift-structured,
    each size s is expanded on rows 0..s-1 alone, over every column
    s-subset; otherwise on every row s-subset, at the row count just rows
    0..s-1.  m is shift-structured when row r is vS^r, v = row 0, for the
    constant shift S: e_c -> e_(c+1) inside each block of ``rows`` columns,
    a block's last column going to 0.  The minors on rows r_1 < ... < r_s are
    then the Pluecker coordinates of vS^(r_1) ^ ... ^ vS^(r_s), which is
    1/s! times the alternant a_(lambda+delta)(S_1, ..., S_s), lambda+delta =
    (r_s, ..., r_1), applied to v (x) ... (x) v, with S_i acting on the i-th
    factor.  As a_(lambda+delta) = s_lambda * a_delta (Macdonald, Symmetric
    Functions and Hall Polynomials, I.3), that is s_lambda(S_1, ..., S_s), a
    constant matrix on the s-th exterior power, applied to +-(v ^ vS ^ ... ^
    vS^(s-1)): every size-s minor is a constant combination of those on rows
    0..s-1.  T, S and S1 are shift-structured (block size h+1 = rows); a
    Hankel block is not.  Size 0 gives the constant 1; zero minors are
    dropped, and ``nonzero_minors`` counts the others.  Past ``MINOR_LIMIT``
    selected minors it raises ``ValueError`` before any expansion.

    The spans are built from the packed values, with no ``Polynomial`` per
    minor: the minors are grouped by degree (that of their highest term, the
    leading digit of their largest key), and ``forward_echelon`` runs on each
    degree's raw packed rows, in enumeration order.  Its least key is the
    lowest monomial; the minors of T, S and S1 have (n+1)^(h+1) distinct
    lowest monomials, so most rows are kept as they stand and the rest are
    reduced to zero in a few steps (cf. Sturmfels-Zelevinsky, Maximal minors
    and their leading terms, 1993).  The kept rows, one per dimension,
    certify the dimension whether or not that holds; each degree's are a
    ``Span`` over the packed matrix's index, which builds its reduced
    row-echelon form only when a basis is read.  A row is a minor times its
    rows' scales, which leaves that form as it is.
    """
    packed, walk = _walk(m, sizes, every_row=False)
    by_degree: dict[int, list[dict[int, int]]] = {}
    for _, rows, cols in walk:
        det = packed.det(rows, cols)
        if det:
            by_degree.setdefault(max(det) // packed.index.top, []).append(det)
    spans = {d: Span(packed.index, forward_echelon(dets)) for d, dets in by_degree.items()}
    return GradedSpan(spans, sum(map(len, by_degree.values())))


def truncated_perp_basis(n: int, h: int) -> GradedSpan:
    """Graded span of all minors of the triangular family, sizes 0..h+1,
    counted before T(n, h) is built."""
    check_span_count("T", n, h)
    return minor_span(triangular_matrix(n, h), range(h + 2))


class SeriesRow(NamedTuple):
    h: int
    dimension: int
    closed_form: int
    match: bool


def dimension_series(n: int, truncated) -> list[SeriesRow]:
    """Dimensions of ``truncated_perp_basis(n, h)``, drawn for h = 0, 1, ... from
    ``truncated``, against (n+1)^(h+1); no span is held while the next is built."""
    rows = []
    for h, dim in enumerate(map(attrgetter("total_dimension"), truncated)):
        closed = (n + 1) ** (h + 1)
        rows.append(SeriesRow(h, dim, closed, dim == closed))
    return rows


class ChainDims(NamedTuple):
    """Dimensions of the three independently enumerated minor spaces, and
    whether x^(i) -> x^(h-i)/(h-i)! carries T to S entry by entry."""

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

    ``tri`` is the triangular minor span ``truncated_perp_basis(n, h)``.
    ``equal`` records whether all three match (n+1)^(h+1).  The substitution
    phi: x_j^(k) -> x_j^(h-k)/(h-k)! is a ring homomorphism that sends
    x_j^(h-i), on the i-th superdiagonal of T(n, h), to x_j^(i)/i!, there in
    S(n, h), and zero to zero.  So phi(T) = S entrywise, phi sends each minor
    of T to the minor of S on the same rows and columns, and span(T) onto
    span(S), degree by degree.  ``bijection_lands_in_scaled`` checks phi(T) =
    S entry by entry.  On failure the witness is the first (row, column)
    where they differ, or else the first family whose dimension is off.
    """
    closed = (n + 1) ** (h + 1)
    t, s = triangular_matrix(n, h), scaled_matrix(n, h)
    sca = minor_span(s, range(h + 2))
    aug = minor_span(scaled_augmented_matrix(n, h), [h + 1])
    dims = (tri.total_dimension, sca.total_dimension, aug.total_dimension)

    def phi(p: Polynomial) -> Polynomial:  # a renaming: no two terms merge
        return Polynomial({
            Monomial((x(v.i, h - v.j), e) for v, e in m.pairs):
                Fraction(c, math.prod(math.factorial(h - v.j) ** e for v, e in m.pairs))
            for m, c in p.terms.items()
        })

    differ = next(((r, c) for r in range(t.rows) for c in range(t.cols)
                   if phi(t.entries[r][c]) != s.entries[r][c]), None)
    off = [
        f"{family}: {d} != {closed}"
        for family, d in zip(("triangular", "scaled", "scaled_augmented"), dims)
        if d != closed
    ]
    witness = off[0] if off else None
    if differ is not None:
        r, c = differ
        witness = f"entry ({r}, {c}): phi(T) = {phi(t.entries[r][c])} != S = {s.entries[r][c]}"
    return ChainDims(*dims, equal=not off, bijection_lands_in_scaled=differ is None,
                     witness=witness)


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
        return EMPTY_SPAN
    return minor_span(hankel_matrix(n, degree, max_order - degree + 1), [degree]).span(degree)
