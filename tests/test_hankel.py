import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arcperp import hankel, linalg
from arcperp.arcgen import arc_generators_up_to
from arcperp.hankel import (
    GradedSpan,
    PackedMatrix,
    SymbolicMatrix,
    build_matrix,
    check_minor_count,
    check_span_count,
    hankel_matrix,
    iter_minors,
    minor_span,
    scaled_augmented_matrix,
    scaled_matrix,
    triangular_matrix,
)
from arcperp.linalg import span_witness
from arcperp.pairing import double_derivative_vanishes
from arcperp.ring import E, Monomial, Polynomial, al, parse, x, xi, y

from oracles import (
    annihilates,
    coefficient_types,
    derivative_oracle,
    lead_set,
    naive_basis,
    naive_determinant,
    polynomial_from_terms,
    span_of,
    spans_by_degree,
    substitute_oracle,
    top_degree,
    wronskian,
)

P = parse


def one_minor(m: SymbolicMatrix, rows, cols) -> Polynomial:
    """The minor on (rows, cols), from the packed kernel."""
    return PackedMatrix(m).value(tuple(rows), tuple(cols))


def full_determinant(m: SymbolicMatrix) -> Polynomial:
    return one_minor(m, range(m.rows), range(m.cols))


def graded_basis(gs: GradedSpan) -> list[str]:
    """The basis polynomials of every degree, degrees ascending."""
    return [str(p) for span in gs.spans.values() for p in span.basis_polynomials()]


def all_integral_are_int(coefficients) -> bool:
    return all(type(c) is int for c in coefficients if c.denominator == 1)


def with_entry(m: SymbolicMatrix, r: int, c: int, entry: Polynomial) -> SymbolicMatrix:
    """m with entry (r, c) replaced."""
    rows = [list(row) for row in m.entries]
    rows[r][c] = entry
    return SymbolicMatrix.from_rows(rows)


def shift_structured(first_row: list[Polynomial], rows: int) -> SymbolicMatrix:
    """The matrix whose row r is row r-1 shifted one column to the right
    inside each block of ``rows`` columns, the block's first column 0."""
    return SymbolicMatrix.from_rows(
        [
            [first_row[c - r] if c % rows >= r else Polynomial.zero() for c in range(len(first_row))]
            for r in range(rows)
        ]
    )


def grid(m: SymbolicMatrix) -> list[list[str]]:
    return [[str(e) for e in row] for row in m.entries]


class TestBuilders:
    def test_triangular_1_1(self):
        assert grid(triangular_matrix(1, 1)) == [["x1_1", "x1_0"], ["0", "x1_1"]]

    def test_hankel_1_2_2(self):
        assert grid(hankel_matrix(1, 2, 2)) == [
            ["x1_0", "x1_1", "x1_2"],
            ["x1_1", "x1_2", "x1_3"],
        ]

    def test_hankel_column_blocks_interleave_families(self):
        m = hankel_matrix(2, 1, 1)
        assert grid(m) == [["x1_0", "x2_0", "x1_1", "x2_1"]]

    def test_scaled_1_2(self):
        assert grid(scaled_matrix(1, 2)) == [
            ["x1_0", "x1_1", "1/2*x1_2"],
            ["0", "x1_0", "x1_1"],
            ["0", "0", "x1_0"],
        ]

    def test_augmented_appends_identity(self):
        assert grid(scaled_augmented_matrix(1, 1)) == [
            ["x1_0", "x1_1", "1", "0"],
            ["0", "x1_0", "0", "1"],
        ]

    def test_triangular_shape(self):
        m = triangular_matrix(2, 2)
        assert (m.rows, m.cols) == (3, 6)

    @pytest.mark.parametrize("n, h", [(n, h) for n in range(1, 4) for h in range(4)])
    def test_every_entry_matches_its_formula(self, n, h):
        """Column (j-1)(h+1) + c is column c of family j's block; entry (r, c)
        of a block lies on superdiagonal c - r."""
        t, s, s1 = triangular_matrix(n, h), scaled_matrix(n, h), scaled_augmented_matrix(n, h)
        assert (t.rows, t.cols) == (s.rows, s.cols) == (h + 1, n * (h + 1))
        assert (s1.rows, s1.cols) == (h + 1, (n + 1) * (h + 1))
        for r in range(h + 1):
            for col in range(n * (h + 1)):
                j, i = col // (h + 1) + 1, col % (h + 1) - r
                if i < 0:
                    assert t.entries[r][col].is_zero and s.entries[r][col].is_zero
                else:
                    assert t.entries[r][col] == Polynomial.from_variable(x(j, h - i))
                    scaled = Fraction(1, math.factorial(i)) * Polynomial.from_variable(x(j, i))
                    assert s.entries[r][col] == scaled
            identity = tuple(Polynomial({Monomial(()): int(c == r)}) for c in range(h + 1))
            assert s1.entries[r] == s.entries[r] + identity

    def test_build_matrix_dispatch(self):
        assert grid(build_matrix("T", 1, 1)) == grid(triangular_matrix(1, 1))
        assert grid(build_matrix("H", 1, 2, 2)) == grid(hankel_matrix(1, 2, 2))
        with pytest.raises(ValueError):
            build_matrix("H", 1, 2)  # k required
        with pytest.raises(ValueError):
            build_matrix("Q", 1, 1)
        with pytest.raises(ValueError):
            build_matrix("T", 1, 1, 2)  # k belongs to H alone


class TestWronskian:
    def test_two_variables(self):
        assert wronskian([P("x1_0"), P("x1_1")]) == P("x1_0*x1_2 - x1_1^2")

    def test_single(self):
        assert wronskian([P("x1_0")]) == P("x1_0")

    def test_repeated_entry_vanishes(self):
        assert wronskian([P("x1_0"), P("x1_0")]).is_zero

    def test_empty_list(self):
        assert wronskian([]) == Polynomial({Monomial(()): 1})

    def test_transposition_flips_sign(self):
        fs = [P("x1_0"), P("x1_1"), P("x2_0")]
        swapped = [fs[1], fs[0], fs[2]]
        assert (wronskian(fs) + wronskian(swapped)).is_zero

    def test_general_entries_match_oracle(self):
        fs = [P("x1_0 + x1_1"), P("x1_0^2")]
        rows = [fs, [derivative_oracle(f) for f in fs]]
        assert wronskian(fs) == naive_determinant(rows)


class TestMinorsAndDeterminant:
    def test_triangular_full_minor(self):
        assert one_minor(triangular_matrix(1, 1), (0, 1), (0, 1)) == P("x1_1^2")

    def test_hankel_minor(self):
        assert one_minor(hankel_matrix(1, 2, 2), (0, 1), (0, 2)) == P(
            "x1_0*x1_3 - x1_1*x1_2"
        )

    def test_hankel_minor_is_wronskian(self):
        assert one_minor(hankel_matrix(1, 2, 2), (0, 1), (0, 2)) == wronskian(
            [P("x1_0"), P("x1_2")]
        )

    def test_size_zero(self):
        assert one_minor(hankel_matrix(1, 2, 2), (), ()) == Polynomial({Monomial(()): 1})

    def test_determinant_identity(self):
        ident = SymbolicMatrix.from_rows(
            [[Polynomial({Monomial(()): 1 if i == j else 0}) for j in range(3)] for i in range(3)]
        )
        assert full_determinant(ident) == Polynomial({Monomial(()): 1})

    def test_determinant_single_entry(self):
        m = SymbolicMatrix.from_rows([[P("x1_0 + 2")]])
        assert full_determinant(m) == P("x1_0 + 2")

    def test_determinant_2x2(self):
        m = SymbolicMatrix.from_rows([[P("x1_0"), P("x1_1")], [P("x1_1"), P("x1_2")]])
        assert full_determinant(m) == P("x1_0*x1_2 - x1_1^2")

    def test_determinant_matches_oracle(self):
        m = hankel_matrix(2, 3, 1)
        rows = [list(r) for r in m.entries[:3]]
        square = [row[:3] for row in rows]
        assert full_determinant(SymbolicMatrix.from_rows(square)) == naive_determinant(square)


_ORACLE_VARIABLES = [x(1, 0), x(1, 1), x(2, 0), y(0), E(1), xi(1), al(1, 1)]
_coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
_monomials = st.dictionaries(
    st.sampled_from(_ORACLE_VARIABLES), st.integers(1, 3), max_size=2
).map(lambda exps: Monomial(exps.items()))
_entries = st.one_of(
    st.just(Polynomial.zero()),
    _coefficients.map(lambda c: Polynomial({Monomial(()): c})),
    st.lists(st.tuples(_monomials, _coefficients), max_size=3).map(polynomial_from_terms),
)


@st.composite
def square_matrices(draw):
    size = draw(st.integers(0, 4))
    return [[draw(_entries) for _ in range(size)] for _ in range(size)]


@st.composite
def rectangular_matrices(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return [[draw(_entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def permuted_minors(draw):
    """A matrix, a set of its rows and as many of its columns, in any order."""
    rows = draw(rectangular_matrices())
    size = draw(st.integers(1, min(len(rows), len(rows[0]))))
    row_set = tuple(sorted(draw(st.permutations(range(len(rows))))[:size]))
    cols = tuple(draw(st.permutations(range(len(rows[0]))))[:size])
    return rows, row_set, cols


def _minor_alternates(rows, row_set, cols) -> bool:
    """Is the packed minor on the columns ``cols``, in their given order, the
    sign of their permutation times the minor on the sorted columns, and is
    each the oracle's permutation expansion?"""
    packed = PackedMatrix(SymbolicMatrix.from_rows(rows))
    ordered = tuple(sorted(cols))
    sign = (-1) ** sum(a > b for a, b in itertools.combinations(cols, 2))
    permuted, minor = packed.value(row_set, cols), packed.value(row_set, ordered)
    return (
        permuted == sign * minor
        and permuted == naive_determinant([[rows[r][c] for c in cols] for r in row_set])
        and minor == naive_determinant([[rows[r][c] for c in ordered] for r in row_set])
    )


# A 2x2 Hankel block read on its columns swapped.
_SWAPPED = ([[P("x1_0"), P("x1_1")], [P("x1_1"), P("x1_2")]], (0, 1), (1, 0))


class TestDeterminantAlternation:
    """Swapping two columns negates a minor: the Wronskian's alternation.
    Every caller in the package passes sorted columns, so tier-1 checks it."""

    @settings(max_examples=200, deadline=None)
    @given(permuted_minors())
    @example(_SWAPPED)
    # Rows (0, 2) of three, columns reversed, with row scales 2 and 12.
    @example(
        (
            [
                [P("1/2*x1_0"), P("x1_1"), P("E1")],
                [P("x1_1"), P("3"), P("x2_0^2")],
                [P("1/3*xi1"), P("1/4*x1_0"), P("x1_0*x1_1")],
            ],
            (0, 2),
            (2, 0),
        )
    )
    def test_permuted_columns_give_the_sign_times_the_sorted_minor(self, case):
        assert _minor_alternates(*case)

    def test_a_determinant_that_sorts_its_columns_fails(self, monkeypatch):
        # Symmetric, not alternating: every sorted-column caller reads the same.
        real = hankel.PackedMatrix.det

        def symmetric(self, rows, cols):
            return real(self, rows, tuple(sorted(cols)))

        assert _minor_alternates(*_SWAPPED)
        monkeypatch.setattr(hankel.PackedMatrix, "det", symmetric)
        assert not _minor_alternates(*_SWAPPED)


class TestKernelAgainstOracle:
    """The packed-key kernel against the permutation expansion of the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    @example([[P("x1_0^3")]])
    @example([[P("x1_0^2*y_0"), P("E1^3 + xi1")], [P("al1_1^3"), P("x1_0*x1_1^3")]])
    @example([[P("x1_0 + 1/2*E1"), P("x1_0")], [P("x1_0 + 1/2*E1"), P("x1_0")]])
    # Row scales 6 and 4 whose product the determinant's terms absorb: x1_0^2 - x1_1^2.
    @example([[P("1/2*x1_0"), P("1/3*x1_1")], [P("3/4*x1_1"), P("1/2*x1_0")]])
    # Row scales 2 and 3 that stay in the value: 1/2*x1_0^2 - 1/3*x1_1^2.
    @example([[P("1/2*x1_0"), P("x1_1")], [P("1/3*x1_1"), P("x1_0")]])
    def test_determinant_matches_naive_expansion(self, rows):
        matrix = SymbolicMatrix.from_rows(rows)
        expected = naive_determinant(rows)
        value = full_determinant(matrix)
        assert value == expected
        assert all_integral_are_int(value.terms.values())
        # Terms that cancel are dropped, not stored with coefficient zero.
        full = tuple(range(len(rows)))
        assert len(PackedMatrix(matrix).det(full, full)) == len(expected.terms)

    @settings(max_examples=200, deadline=None)
    @given(rectangular_matrices())
    # Row scales 2, 1 and 12 on every row set: rows (0, 2), (1, 2) are not top rows.
    @example(
        [
            [P("1/2*x1_0"), P("x1_1"), P("E1")],
            [P("x1_1"), P("3"), P("x2_0^2")],
            [P("1/3*xi1"), P("1/4*x1_0"), P("x1_0*x1_1")],
        ]
    )
    def test_every_minor_on_any_rows_matches_naive_expansion(self, rows):
        # The cofactor sign of the last chosen row depends on the number of
        # chosen rows, not on that row's index in the matrix.
        matrix = SymbolicMatrix.from_rows(rows)
        for _, r, c, value in iter_minors(matrix, range(min(matrix.rows, matrix.cols) + 1)):
            assert value == naive_determinant([[rows[i][j] for j in c] for i in r]), (r, c)

    @pytest.mark.parametrize(
        "family,n,h,k",
        [
            ("T", 1, 2, None),
            ("S", 2, 1, None),
            ("S1", 1, 2, None),
            ("H", 2, 2, 1),
            ("S", 1, 3, None),  # row scales 6, 2, 1, 1
        ],
    )
    def test_every_minor_of_each_family(self, family, n, h, k):
        m = build_matrix(family, n, h, k)
        sizes = range(min(m.rows, m.cols) + 1)
        listing = list(iter_minors(m, sizes))
        assert len(listing) == sum(math.comb(m.rows, s) * math.comb(m.cols, s) for s in sizes)
        packed = PackedMatrix(m)
        for _, rows, cols, value in listing:
            assert value == naive_determinant([[m.entries[r][c] for c in cols] for r in rows])
            assert packed.value(rows, cols) == value
            # Rows are cleared of denominators at packing; a minor holds a
            # Fraction only for a term that is not integral.
            assert all_integral_are_int(value.terms.values())
        if family in ("S", "S1") and h >= 2:  # x1_2/2 on the second superdiagonal
            assert any(c.denominator > 1 for _, _, _, v in listing for c in v.terms.values())


class TestMinorSpan:
    def test_triangular_1_1(self):
        gs = minor_span(triangular_matrix(1, 1), {0, 1, 2})
        assert gs.total_dimension == 4
        assert graded_basis(gs) == [
            "1",
            "x1_0",
            "x1_1",
            "x1_1^2",
        ]

    def test_triangular_1_2_graded(self):
        gs = minor_span(triangular_matrix(1, 2), {0, 1, 2, 3})
        assert gs.graded_dimensions == {0: 1, 1: 3, 2: 3, 3: 1}
        assert gs.total_dimension == 8

    def test_triangular_2_0(self):
        gs = minor_span(triangular_matrix(2, 0), {0, 1})
        assert gs.total_dimension == 3
        assert graded_basis(gs) == ["1", "x1_0", "x2_0"]

    def test_degree_filter(self):
        span = minor_span(triangular_matrix(1, 2), range(4)).span(2)
        assert span.dimension == 3
        assert all({m.degree for m in p.terms} == {2} for p in span.basis_polynomials())

    # The span minor_span expands against the span of every minor, degree by
    # degree.  T, S and S1 are shift-structured: only their top-row minors
    # are expanded.  The maximal minors of a Hankel block are all on its top
    # rows (h = 0 gives the constant 1, k+1 < h nothing).  A Hankel block
    # read below its row count, or with more rows than columns, and matrices
    # one entry off the shift structure have every row set expanded.
    @pytest.mark.parametrize(
        "m,sizes,top_rows",
        [
            pytest.param(build_matrix(family, n, h), range(h + 2), True, id=f"{family}-{n}-{h}")
            for family, n, h in
            [("T", n, h) for n, h in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]]
            + [("S", n, h) for n, h in [(1, 4), (1, 5), (2, 3), (2, 4), (3, 3)]]
        ]
        + [
            pytest.param(scaled_augmented_matrix(n, h), [h + 1], True, id=f"S1-{n}-{h}")
            for n, h in [(1, 3), (2, 2)]
        ]
        + [
            pytest.param(hankel_matrix(n, h, k), [h], True, id=f"H-{n}-{h}-{k}")
            for n, h, k in [(1, 2, 3), (1, 3, 1), (2, 2, 2), (2, 3, 1), (3, 3, 1), (2, 0, 2), (1, 3, 0)]
        ]
        + [
            pytest.param(hankel_matrix(n, h, k), range(h + 1), False, id=f"H-{n}-{h}-{k}-all")
            for n, h, k in [(2, 2, 1), (1, 3, 3), (2, 3, 1), (2, 3, 0), (1, 4, 0)]
        ]
        + [
            pytest.param(
                with_entry(triangular_matrix(1, 2), 1, 2, P("x1_1 + x1_0")), range(4), False,
                id="T-1-2-one-entry-added",
            ),
            # the first column of the second block
            pytest.param(
                with_entry(triangular_matrix(2, 1), 1, 2, P("x2_1")), range(3), False,
                id="T-2-1-block-start-filled",
            ),
        ],
    )
    def test_top_rows_span_every_minor(self, m, sizes, top_rows):
        listing = list(iter_minors(m, sizes))
        full = spans_by_degree(value for _, _, _, value in listing)
        got = minor_span(m, sizes)
        assert got.graded_dimensions == {d: span.dimension for d, span in full.items()}
        for d, span in full.items():
            # Equal spans with the same support reduce to the same basis.
            assert got.span(d).basis_polynomials() == span.basis_polynomials(), d
        expanded = [v for size, rows, _, v in listing if not top_rows or rows == tuple(range(size))]
        assert got.nonzero_minors == sum(not v.is_zero for v in expanded)

    @pytest.mark.parametrize(
        "m,sizes",
        [
            pytest.param(build_matrix(family, n, h), sizes, id=f"{family}-{n}-{h}-{sizes}")
            for family, n, h, sizes in [
                ("T", 1, 3, "all"),
                ("T", 2, 2, "all"),
                ("S", 1, 3, "all"),
                ("S", 2, 2, "all"),
                ("S1", 1, 2, "all"),
                ("S1", 2, 1, "all"),
                ("S1", 2, 2, "maximal"),
            ]
        ]
        # Minors with terms of several degrees, grouped by the highest.
        + [
            pytest.param(
                shift_structured(
                    [P("x1_0 + 1"), P("1/2*x1_1^2 + x1_0"), P("3"), P("E1"), P("x1_1 - 1/3"), P("x1_0*E1")],
                    3,
                ),
                "all",
                id="inhomogeneous",
            )
        ],
    )
    def test_packed_rows_match_the_polynomial_construction(self, m, sizes):
        # The spans built from packed values against those of the decoded
        # minors, and both against the textbook RREF of the decoded minors of
        # each degree: the same basis, coefficient types included (S(2, 2)
        # has 1/2 in its degree-2 basis).
        sizes = range(m.rows + 1) if sizes == "all" else [m.rows]
        packed = PackedMatrix(m)
        values = [
            packed.value(tuple(range(s)), cols)
            for s in sizes
            for cols in itertools.combinations(range(m.cols), s)
        ]
        expected = spans_by_degree(values)
        got = minor_span(m, sizes)
        assert list(got.spans) == list(expected)
        for d, want in expected.items():
            oracle = naive_basis([v for v in values if v.terms and top_degree(v) == d])
            basis = got.spans[d].basis_polynomials()
            assert basis == want.basis_polynomials() == tuple(oracle), d
            assert coefficient_types(basis) == coefficient_types(oracle), d
            assert coefficient_types(want.basis_polynomials()) == coefficient_types(oracle), d

    @pytest.mark.parametrize("n,h,entries", [(1, 7, 256), (2, 3, 163)])
    def test_only_top_row_minors_are_expanded(self, monkeypatch, n, h, entries):
        # Expanded along its last row, a top-row minor needs only the top-row
        # minors one size down, so the memo holds the minors enumerated.
        built = []

        class Capturing(hankel.PackedMatrix):
            def __init__(self, m):
                super().__init__(m)
                built.append(self)

        monkeypatch.setattr(hankel, "PackedMatrix", Capturing)
        m = triangular_matrix(n, h)
        minor_span(m, range(h + 2))
        (packed,) = built
        top_row_minors = {
            (tuple(range(s)), cols)
            for s in range(h + 2)
            for cols in itertools.combinations(range(m.cols), s)
        }
        assert len(top_row_minors) == entries
        assert len(packed.memo) == entries
        assert set(packed.memo) == top_row_minors

    def test_enumeration_order(self):
        listing = list(iter_minors(triangular_matrix(1, 1), range(3)))
        keys = [(size, rows, cols) for size, rows, cols, _ in listing]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n,h", [(1, 7), (2, 2)])
    def test_dimensions_decode_no_key(self, monkeypatch, n, h):
        # Reading dimensions decodes nothing; reading the bases decodes each
        # distinct key of the kept rows once, however many entries hold it.
        decoded = []
        real = linalg._sorted_monomial

        def counting(pairs, degree):
            decoded.append(real(pairs, degree))
            return decoded[-1]

        monkeypatch.setattr(linalg, "_sorted_monomial", counting)
        graded = minor_span(triangular_matrix(n, h), range(h + 2))
        assert graded.total_dimension == (n + 1) ** (h + 1)
        assert decoded == []
        keys = [k for span in graded.spans.values() for k in set().union(*span.kept.values())]
        monomials = {
            m for span in graded.spans.values() for p in span.basis_polynomials() for m in p.terms
        }
        assert len(set(keys)) == len(keys)
        assert sorted(decoded, key=Monomial.order_key) == sorted(monomials, key=Monomial.order_key)
        assert len(monomials) == len(keys)


class TestKeptMinors:
    """``minor_span`` keeps one forward-echelon row per dimension, led by its
    lowest monomial, and builds the reduced row-echelon form only when a
    basis is read."""

    @pytest.mark.parametrize(
        "family,n,h,sizes",
        [("T", 1, h, "all") for h in range(7)]
        + [("T", 2, h, "all") for h in range(5)]
        + [("S", 2, 3, "all"), ("S1", 1, 3, "maximal"), ("S1", 2, 2, "maximal")],
    )
    def test_kept_rows_have_distinct_lowest_monomials(self, family, n, h, sizes):
        m = build_matrix(family, n, h)
        graded = minor_span(m, range(m.rows + 1) if sizes == "all" else [m.rows])
        for d, span in graded.spans.items():
            # the lowest monomial of each kept row, found by Monomial.order_key
            # on the decoded monomials, not by the packed key order
            lowest = [
                min((span.index._monomial(k) for k in row), key=Monomial.order_key)
                for row in span.kept.values()
            ]
            assert lowest == [span.index._monomial(lead) for lead in span.kept], d
            assert len(set(lowest)) == len(lowest) == span.dimension, d
            assert len(span.basis_polynomials()) == span.dimension, d  # the RREF, built now
        assert graded.total_dimension == (n + 1) ** (h + 1)

    def test_dimensions_and_containment_build_no_rref(self, monkeypatch):
        tri = minor_span(triangular_matrix(2, 2), range(4))
        bases = {d: span.basis_polynomials() for d, span in tri.spans.items()}
        monkeypatch.setattr(linalg, "back_substitute", None)  # a call would raise
        sca = minor_span(scaled_matrix(2, 2), range(4))
        assert sca.total_dimension == 27
        stray = [Polynomial.from_variable(x(3, 0)), P("x1_0^9"), P("x1_2^2 + x2_0*x2_1")]
        phi = {  # x_i^(j) -> x_i^(2-j)/(2-j)!, which carries T(2, 2) to S(2, 2)
            x(i, j): Polynomial({Monomial.of(x(i, 2 - j)): Fraction(1, math.factorial(2 - j))})
            for i in (1, 2) for j in range(3)
        }
        for d, basis in bases.items():
            span = sca.span(d)
            # the same span, keyed by an index of its own variables
            by_columns = span_of(
                Polynomial({span.index._monomial(k): c for k, c in row.items()})
                for row in span.kept.values()
            )
            for p in basis:
                image = substitute_oracle(p, phi)
                assert span.contains(image)
                for q in stray:
                    assert span.contains(image + q) == by_columns.contains(image + q)
                    assert span.contains(image + q) == span.contains(q)
        assert sca.span(2)._polynomials is None


class TestLeadSet:
    """The leads that ``minor_span`` keeps for T and S form a set in closed
    form, ``oracles.lead_set``.  It is the set of least keys of the span's
    nonzero elements, so it does not depend on enumeration order."""

    @staticmethod
    def kept_leads(m: SymbolicMatrix) -> set:
        graded = minor_span(m, range(m.rows + 1))
        return {span.index._monomial(k) for span in graded.spans.values() for k in span.kept}

    @pytest.mark.parametrize(
        "n,h", [(1, 3), (1, 6), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]
    )
    def test_triangular(self, n, h):
        leads = lead_set(n, h)
        assert len(leads) == (n + 1) ** (h + 1)
        assert self.kept_leads(triangular_matrix(n, h)) == leads

    @pytest.mark.parametrize("n,h", [(1, 4), (2, 3), (3, 3), (2, 4)])
    def test_scaled_is_the_triangular_set_reversed(self, n, h):
        def reverse(m: Monomial) -> Monomial:  # x_i^(j) -> x_(n+1-i)^(h-j)
            return Monomial((x(n + 1 - v.i, h - v.j), e) for v, e in m.pairs)

        assert self.kept_leads(scaled_matrix(n, h)) == {reverse(m) for m in lead_set(n, h)}

    def test_orders_from_s_i_are_not_the_leads(self):
        assert self.kept_leads(triangular_matrix(2, 3)) != lead_set(2, 3, lowest=lambda s: s)


class TestMinorLimit:
    """Each enumeration counts its minors before it expands one, and refuses
    a count above ``MINOR_LIMIT``."""

    def test_iter_minors_refuses_on_the_call(self, monkeypatch):
        m = triangular_matrix(1, 1)  # 1 + 2*2 + 1 minors
        monkeypatch.setattr(hankel, "MINOR_LIMIT", 6)
        assert len(list(iter_minors(m, range(3)))) == 6
        monkeypatch.setattr(hankel, "MINOR_LIMIT", 5)
        monkeypatch.setattr(hankel, "PackedMatrix", None)  # nothing may be packed
        with pytest.raises(ValueError, match="^6 minors of a 2x2 matrix exceed the limit of 5 "):
            iter_minors(m, range(3))

    def test_minor_span_counts_the_minors_it_selects(self, monkeypatch):
        m = triangular_matrix(1, 3)  # sum_s C(4, s) = 16 top-row minors
        monkeypatch.setattr(hankel, "MINOR_LIMIT", 16)
        assert minor_span(m, range(5)).total_dimension == 16
        monkeypatch.setattr(hankel, "MINOR_LIMIT", 15)
        with pytest.raises(ValueError, match="^16 minors of a 4x4 matrix exceed the limit of 15 "):
            minor_span(m, range(5))
        monkeypatch.setattr(hankel, "PackedMatrix", None)  # nothing may be packed
        # not shift-structured: sum_s C(4, s)^2 minors on every row set
        with pytest.raises(ValueError, match="^70 minors of a 4x4 matrix exceed the limit of 15 "):
            minor_span(hankel_matrix(1, 4, 3), range(5))

    @pytest.mark.parametrize("c", [0, 1, 7, 40, 14_280, 14_300, 20_000])
    def test_binomials_against_math_comb(self, c):
        sizes = sorted({s for s in (0, 1, 2, c // 3, c // 2, c - 1, c) if 0 <= s <= c})
        walk = [1]
        for s in sizes:
            assert hankel._binomial(c, s, walk) == min(math.comb(c, s), hankel.COUNT_BOUND)

    def test_a_count_is_written_out_below_the_bound(self):
        cols = hankel.COUNT_BOUND - 2  # 1 + cols minors of sizes 0 and 1
        with pytest.raises(ValueError) as below:
            check_minor_count(1, cols, [0, 1], top=True)
        assert str(below.value).startswith(f"{cols + 1:,} minors of a 1x")
        with pytest.raises(ValueError, match="^at least 10\\^4300 minors of a 1x"):
            check_minor_count(1, cols + 1, [0, 1], top=True)

    def test_the_maximal_minors_of_s_10_9_are_refused(self):
        with pytest.raises(ValueError, match="^17,310,309,456,440 minors of a 10x100 matrix"):
            iter_minors(scaled_matrix(10, 9), [10])
        with pytest.raises(ValueError, match="^17,310,309,456,440 minors of a 10x100 matrix"):
            minor_span(scaled_augmented_matrix(9, 9), [10])


class TestSpanCount:
    """``check_span_count`` counts, from the shape alone, the minors that
    ``_walk`` selects for ``minor_span``: it admits exactly that many."""

    @staticmethod
    def refused_at_walked_count(monkeypatch, family, n, h, k, sizes) -> tuple[bool, bool]:
        """Whether ``check_span_count`` refuses with ``MINOR_LIMIT`` set to the
        walk's count of minors, and one below it."""
        rows, cols = hankel.matrix_shape(family, n, h, k)
        monkeypatch.setattr(hankel, "MINOR_LIMIT", hankel.COUNT_BOUND)
        every = range(rows + cols + 1)  # the walk drops the sizes with no minor
        walk = hankel._walk(build_matrix(family, n, h, k), every if sizes is None else sizes,
                            every_row=False)
        walked = sum(1 for _ in walk[1])
        refused = []
        for limit in (walked, walked - 1):
            monkeypatch.setattr(hankel, "MINOR_LIMIT", limit)
            try:
                check_span_count(family, n, h, k, sizes)
                refused.append(False)
            except ValueError as exc:
                assert str(exc).startswith(f"{walked:,} minors of a {rows}x{cols} matrix")
                refused.append(True)
        return tuple(refused)

    @pytest.mark.parametrize("family", ["T", "S", "S1"])
    @pytest.mark.parametrize("maximal", [False, True], ids=["every-size", "size-h+1"])
    def test_shift_structured(self, monkeypatch, family, maximal):
        for n, h in itertools.product(range(1, 4), range(4)):
            sizes = [h + 1] if maximal else None
            assert self.refused_at_walked_count(monkeypatch, family, n, h, None, sizes) == (
                False, True), (n, h)

    def test_hankel_block(self, monkeypatch):
        for n, h, k in itertools.product(range(1, 3), range(4), range(3)):
            assert self.refused_at_walked_count(monkeypatch, "H", n, h, k, None) == (
                False, True), (n, h, k)

    def test_a_top_row_count_of_a_two_row_hankel_block_fails(self, monkeypatch):
        counted = hankel.check_minor_count

        def top_rows(rows, cols, sizes, top):
            counted(rows, cols, sizes, True)

        monkeypatch.setattr(hankel, "check_minor_count", top_rows)
        # H(1, 2, 1) is 2x2: 6 minors walked, 4 counted on the top rows
        assert self.refused_at_walked_count(monkeypatch, "H", 1, 2, 1, None) == (False, False)


def _key_order_is_monomial_order(m: SymbolicMatrix) -> None:
    """Sorting the packed keys of every entry and minor of m as integers
    sorts their monomials in descending ``Monomial.order_key`` order."""
    packed = PackedMatrix(m)
    keys = {k for row in packed.entries for entry in row for k in entry}
    for s in range(1, min(m.rows, m.cols) + 1):
        for rows in itertools.combinations(range(m.rows), s):
            for cols in itertools.combinations(range(m.cols), s):
                keys.update(packed.det(rows, cols))
    monomials = [packed.index._monomial(k) for k in keys]
    assert [packed.index._monomial(k) for k in sorted(keys, reverse=True)] == sorted(
        monomials, key=Monomial.order_key, reverse=True
    )


class TestKeyOrder:
    """Within a matrix, integer order of packed keys is graded-lex order."""

    @settings(max_examples=200, deadline=None)
    @given(rectangular_matrices())
    @example([[P("x1_0*x2_0"), P("x1_1^2"), P("E1*y_0^2")], [P("x1_1*al1_1"), P("xi1^3"), P("1")]])
    def test_random_entries(self, rows):
        _key_order_is_monomial_order(SymbolicMatrix.from_rows(rows))

    @pytest.mark.parametrize(
        "family,n,h,k",
        [("T", 2, 3, None), ("S", 3, 2, None), ("S1", 2, 3, None), ("H", 2, 3, 2), ("T", 1, 6, None)],
    )
    def test_families(self, family, n, h, k):
        _key_order_is_monomial_order(build_matrix(family, n, h, k))


class TestStructuralInvariants:
    @pytest.mark.parametrize("n,h,k", [(1, 2, 2), (2, 2, 1)])
    def test_minors_annihilated_and_d2(self, n, h, k):
        gens = arc_generators_up_to(n, 2 * (h + k))
        for _, _, _, value in iter_minors(hankel_matrix(n, h, k), range(h + 1)):
            if value.is_zero:
                continue
            assert all(annihilates(g, value) for g in gens)
            assert double_derivative_vanishes(value)

    @pytest.mark.parametrize("n,h,k", [(1, 2, 1), (2, 2, 1), (1, 3, 1)])
    def test_derivative_of_maximal_minor_stays_in_family(self, n, h, k):
        # the derivative of each maximal minor lies in the span of maximal
        # minors of the widened matrix: adjoining it must not raise the rank
        wider = [
            value
            for _, _, _, value in iter_minors(hankel_matrix(n, h, k + 1), [h])
            if not value.is_zero
        ]
        wide_span = span_of(wider)
        for _, _, _, value in iter_minors(hankel_matrix(n, h, k), [h]):
            if value.is_zero:
                continue
            assert wide_span.contains(derivative_oracle(value))

    @pytest.mark.parametrize("n,d,J", [(1, 2, 2), (1, 3, 2), (2, 2, 2), (2, 3, 1)])
    def test_wronskians_are_the_maximal_minors(self, n, d, J):
        # size-d Wronskians of variables of order <= J coincide, as a span,
        # with the maximal minors of the d-row block with offsets <= J
        variables = [
            Polynomial.from_variable(x(i, j))
            for i in range(1, n + 1)
            for j in range(J + 1)
        ]
        wronskians = [
            w
            for subset in itertools.combinations(variables, d)
            if not (w := wronskian(list(subset))).is_zero
        ]
        minors = [
            value
            for _, _, _, value in iter_minors(hankel_matrix(n, d, J), [d])
            if not value.is_zero
        ]
        assert span_witness(span_of(wronskians), span_of(minors)) is None
