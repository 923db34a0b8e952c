import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcperp import linalg
from arcperp.linalg import (
    MonomialIndex,
    RationalMatrix,
    Span,
    back_substitute,
    forward_echelon,
    nullspace,
    span_witness,
)
from arcperp.ring import Monomial, Polynomial, differential_variables, parse, x

from oracles import (
    coefficient_types, graded_monomials, naive_basis, naive_rank, naive_rref, span_of,
)

P = parse


def random_matrix(rng, rows, cols, scale=6):
    return [[Fraction(rng.randint(-scale, scale), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)]


def _descending(monomials) -> list[Monomial]:
    return sorted(monomials, key=Monomial.order_key, reverse=True)


class TestMonomialIndex:
    def test_graded_count(self):
        # degree-d monomials in v variables: binom(v + d - 1, d), with distinct keys
        for n, d, h in [(1, 2, 2), (2, 3, 1), (2, 2, 3)]:
            v = n * (h + 1)
            idx = MonomialIndex(differential_variables(n, h), d + 1)
            keys = {idx._key(m) for m in graded_monomials(n, d, h)}
            assert None not in keys and len(keys) == math.comb(v + d - 1, d)

    def test_descending_order(self):
        idx = MonomialIndex(differential_variables(1, 2), 3)
        assert [str(m) for m in sorted(graded_monomials(1, 2, 2), key=idx._key, reverse=True)] == [
            "x1_0^2", "x1_0*x1_1", "x1_0*x1_2", "x1_1^2", "x1_1*x1_2", "x1_2^2",
        ]

    def test_degree_zero(self):
        idx = MonomialIndex((), 1)
        assert idx.variables == [] and idx.top == 1
        assert idx._key(Monomial(())) == 0 and idx._monomial(0) == Monomial(())

    def test_no_duplicates(self):
        idx = MonomialIndex([x(1, 0), x(1, 0)], 2)
        assert idx.variables == [x(1, 0)]


def _dense_basis(span: Span, monomials) -> list[list[Fraction]]:
    """The basis polynomials as dense rows over the given monomials."""
    return [[p.terms.get(m, 0) for m in monomials] for p in span.basis_polynomials()]


class TestCoeffMatrix:
    """Spans of polynomials keyed against an index, read back by their basis."""

    def test_single_row(self):
        idx = MonomialIndex([x(1, 0), x(1, 1)], 2)
        span = span_of([P("x1_0 + 2*x1_1")], idx)
        monomials = [Monomial.of(x(1, 0)), Monomial.of(x(1, 1))]
        assert _dense_basis(span, monomials) == naive_rref([[1, 2]], 2)

    def test_empty_list(self):
        idx = MonomialIndex(differential_variables(1, 1), 2)
        span = span_of([], idx)
        assert span.index is idx
        assert span.basis_polynomials() == () and span.dimension == 0

    def test_read_off_rows(self):
        idx = MonomialIndex(differential_variables(1, 2), 3)
        monomials = _descending(graded_monomials(1, 2, 2))
        polys = [P("x1_0*x1_2 - x1_1^2"), P("x1_1^2")]
        first, second = (span_of(group, idx) for group in (polys[:1], polys[1:]))
        assert _dense_basis(first, monomials) == [[0, 0, 1, -1, 0, 0]]
        assert _dense_basis(second, monomials) == [[0, 0, 0, 1, 0, 0]]

    def test_monomial_outside_index(self):
        # A variable outside the index, or an exponent of its base, has no
        # key, and no span over the index contains a polynomial with such a term.
        idx = MonomialIndex([x(1, 0)], 2)
        assert idx._key(Monomial.of(x(1, 1))) is None
        assert idx._key(Monomial.of(x(1, 0), 2)) is None
        span = span_of([P("x1_0")], idx)
        assert not span.contains(P("x1_0 + x1_0^2 + x1_1"))
        assert span.contains(P("x1_0 + x1_0^2 + x1_1") + P("-x1_0^2 - x1_1"))
        assert not span.contains(P("x1_1"))  # a variable outside the index
        assert not span.contains(P("x1_0^2"))  # an exponent equal to the base
        assert not span.contains(P("x1_0 + x1_0^2"))
        assert span.contains(Polynomial.zero())
        assert span_of([], idx).contains(Polynomial.zero())


class TestRankKernelRref:
    def test_identity_rank(self):
        assert RationalMatrix.identity(3).rank() == 3

    def test_kernel_of_sum(self):
        (vec,) = RationalMatrix([[Fraction(1), Fraction(1)]]).kernel_basis()
        assert vec[0] == -vec[1] != 0

    def test_zero_matrix(self):
        assert RationalMatrix.zero(2, 2).rank() == 0
        assert len(RationalMatrix.zero(2, 2).kernel_basis()) == 2

    def test_rref_idempotent(self):
        rng = random.Random(11)
        for _ in range(20):
            m = RationalMatrix(random_matrix(rng, 4, 5))
            r1 = m.row_reduce()
            assert r1.row_reduce() == r1

    def test_rref_matches_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            entries = random_matrix(rng, rows, cols)
            ours = RationalMatrix(entries).row_reduce().entries
            oracle = naive_rref(entries, cols)
            assert ours == oracle

    def test_rank_matches_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            entries = random_matrix(rng, rows, cols)
            assert RationalMatrix(entries).rank() == naive_rank(entries, cols)

    def test_rank_nullity_and_kernel_membership(self):
        rng = random.Random(19)
        for _ in range(30):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            m = RationalMatrix(random_matrix(rng, rows, cols))
            kernel = m.kernel_basis()
            assert m.rank() + len(kernel) == cols
            for vec in kernel:
                assert all(e == 0 for e in m.multiply_vector(vec))

    def test_rank_deficient_with_duplicate_rows(self):
        m = RationalMatrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
        assert m.rank() == 1
        assert m.row_reduce().entries == [[Fraction(1), Fraction(2)]]


small_integers = st.integers(min_value=-4, max_value=4)
small_rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


@st.composite
def matrices_with_zero_lines(draw):
    """Integer or rational matrices of up to 5 x 6, empty ones included, with
    some rows and columns forced to zero."""
    cols = draw(st.integers(min_value=0, max_value=6))
    entries = draw(st.sampled_from([small_integers, small_rationals]))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=5))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=4), max_size=2))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=5), max_size=2))
    return [
        [0 if r in zero_rows or c in zero_cols else e for c, e in enumerate(row)]
        for r, row in enumerate(rows)
    ], cols


def _all_integral_are_int(values) -> bool:
    return all(type(e) is int for e in values if e.denominator == 1)


def _integral(row: list) -> dict[int, int]:
    """A row's nonzero entries times the lcm of its denominators: the same
    line, so the same rank and reduced row-echelon form."""
    scale = math.lcm(*(Fraction(e).denominator for e in row))
    return {j: int(e * scale) for j, e in enumerate(row) if e != 0}


def _over_pivots(reduced, pivots) -> list[dict[int, Fraction]]:
    """Each integer row divided by its entry at its pivot."""
    return [{c: Fraction(e, row[p]) for c, e in row.items()} for row, p in zip(reduced, pivots)]


def _rref(rows) -> tuple[list[dict[int, Fraction]], list[int]]:
    """The integer core's reduced rows of integer rows, which hold only
    ``int``, each divided by its pivot entry; and the pivots."""
    reduced, pivots = back_substitute(forward_echelon(rows))
    assert all(type(e) is int for row in reduced for e in row.values())
    return _over_pivots(reduced, pivots), pivots


def _over_free_entries(kernel, cols: int, pivots) -> list[list[Fraction]]:
    """Integer kernel vectors, one per free column in column order, each
    divided by its entry at its free column: the normalised vectors, dense."""
    free = [f for f in range(cols) if f not in pivots]
    assert len(kernel) == len(free)
    assert all(type(e) is int for v in kernel for e in v.values())
    return [[Fraction(v.get(j, 0), v[f]) for j in range(cols)] for v, f in zip(kernel, free)]


class TestIntegerCore:
    """Rows enter and leave the elimination core over ``int``."""

    def test_rows_and_kernel_vectors_stay_integral(self):
        reduced, pivots = back_substitute(forward_echelon([{0: 2, 1: 1, 2: 1}, {1: 2, 2: 1}]))
        assert (reduced, pivots) == ([{0: 4, 2: 1}, {1: 2, 2: 1}], [0, 1])
        over_pivot = _over_pivots(reduced, pivots)
        assert [[row.get(j, 0) for j in range(3)] for row in over_pivot] == naive_rref(
            [[2, 1, 1], [0, 2, 1]], 3
        )
        (vector,) = nullspace([{0: 2, 1: 1}], 2)
        assert vector == {1: 2, 0: -1}
        assert all(type(e) is int for e in vector.values())
        # scaled by the lcm of the pivot entries the free column meets
        assert nullspace([{0: 2, 2: 1}, {1: 3, 2: 1}], 3) == [{2: 6, 0: -3, 1: -2}]


class TestSparseCoreAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(matrices_with_zero_lines())
    def test_rref_rank_and_kernel(self, case):
        rows, cols = case
        oracle = naive_rref(rows, cols)
        oracle_pivots = [next(j for j, e in enumerate(row) if e != 0) for row in oracle]
        sparse = [_integral(row) for row in rows]

        reduced, pivots = _rref(sparse)
        assert [[row.get(j, 0) for j in range(cols)] for row in reduced] == oracle
        assert pivots == oracle_pivots
        assert len(pivots) == naive_rank(rows, cols)

        # the kernel read off the oracle's RREF, one vector per free column
        expected = []
        for free in range(cols):
            if free in oracle_pivots:
                continue
            vec = [Fraction(0)] * cols
            vec[free] = Fraction(1)
            for row, p in zip(oracle, oracle_pivots):
                vec[p] = -row[free]
            expected.append(vec)
        kernel = nullspace(sparse, cols)
        assert _over_free_entries(kernel, cols, pivots) == expected
        for vec in expected:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
        assert naive_rank(expected, cols) == len(expected) == cols - len(pivots)

        matrix = RationalMatrix(rows, cols=cols)
        assert matrix.row_reduce().entries == oracle
        assert matrix.rank() == len(oracle)
        assert matrix.kernel_basis() == [tuple(v) for v in expected]


class TestRowOrderAndResultTypes:
    @settings(max_examples=200, deadline=None)
    @given(matrices_with_zero_lines(), st.data())
    def test_rref_independent_of_row_order(self, case, data):
        # Rows are eliminated in the order given; the RREF is unique all the same.
        rows, cols = case
        order = data.draw(st.permutations(range(len(rows))))
        sparse = [_integral(row) for row in rows]
        permuted = _rref(sparse[k] for k in order)
        assert permuted == _rref(sparse)
        assert [[row.get(j, 0) for j in range(cols)] for row in permuted[0]] == naive_rref(rows, cols)

    def test_span_rows_and_basis_are_int_where_integral(self):
        polys = [P("2*x1_0 + x1_2"), P("4*x1_0 + 6*x1_1 + 5*x1_2"), P("3*x1_1 + 3/2*x1_2")]
        span = span_of(polys, MonomialIndex(differential_variables(1, 2), 2))
        oracle = naive_basis(polys)
        assert span.basis_polynomials() == tuple(oracle)
        assert coefficient_types(span.basis_polynomials()) == coefficient_types(oracle)
        coefficients = [c for p in span.basis_polynomials() for c in p.terms.values()]
        assert any(type(e) is Fraction for e in coefficients)
        assert _all_integral_are_int(coefficients)
        assert sorted(map(str, span.basis_polynomials())) == [
            "x1_0 + 1/2*x1_2", "x1_1 + 1/2*x1_2"
        ]


class TestForwardEchelon:
    """The elimination core's two halves against the textbook oracle."""

    @settings(max_examples=300, deadline=None)
    @given(matrices_with_zero_lines(), st.data())
    def test_rank_and_rref_under_any_row_order(self, case, data):
        rows, cols = case
        order = data.draw(st.permutations(range(len(rows))))
        sparse = [_integral(rows[k]) for k in order]
        before = [dict(row) for row in sparse]

        kept = forward_echelon(sparse)
        assert len(kept) == naive_rank(rows, cols)
        assert all(min(row) == lead for lead, row in kept.items())
        assert sparse == before  # the caller's rows are not mutated
        kept_before = {lead: dict(row) for lead, row in kept.items()}

        reduced, pivots = back_substitute(kept)
        over_pivot = _over_pivots(reduced, pivots)
        assert [[row.get(j, 0) for j in range(cols)] for row in over_pivot] == naive_rref(rows, cols)
        assert pivots == sorted(kept)
        assert kept == kept_before  # nor are the kept rows
        assert (over_pivot, pivots) == _rref(_integral(row) for row in rows)

    def test_a_row_with_a_new_lead_is_kept_as_it_stands(self):
        first, second, third = {0: 2, 1: 4}, {1: 3, 2: 1}, {0: 1, 1: 2, 2: 5}
        kept = forward_echelon([first, second, third])
        assert kept[0] is first and kept[1] is second
        # third - first/2 = 5 * e_2: reduced, then divided by its content
        assert kept[2] == {2: 1}
        assert forward_echelon([first, {0: -3, 1: -6}]) == {0: first}


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestSparseCoreAgainstSympy:
    @settings(max_examples=200, deadline=None)
    @given(case=matrices_with_zero_lines())
    def test_rank_rref_and_kernel(self, sympy, case):
        rows, cols = case
        sparse = [_integral(row) for row in rows]
        exact = [[sympy.Rational(e.numerator, e.denominator) for e in row] for row in rows]
        matrix = sympy.Matrix(len(rows), cols, [e for row in exact for e in row])

        reduced, pivots = _rref(sparse)
        expected, expected_pivots = matrix.rref()
        assert len(pivots) == matrix.rank()
        assert tuple(pivots) == expected_pivots
        assert [[row.get(j, 0) for j in range(cols)] for row in reduced] == [
            list(expected.row(i)) for i in range(len(pivots))
        ]
        assert _over_free_entries(nullspace(sparse, cols), cols, pivots) == [
            list(v) for v in matrix.nullspace()
        ]


class TestSpan:
    def test_equal_after_row_mixing(self):
        a = span_of([P("x1_0"), P("x1_1")])
        b = span_of([P("x1_0 + x1_1"), P("x1_1")])
        assert span_witness(a, b) is None

    def test_different_lines(self):
        assert span_witness(span_of([P("x1_0")]), span_of([P("x1_1")])) == P("x1_0")

    def test_empty_equals_zero_set(self):
        a = span_of([])
        b = span_of([Polynomial.zero()])
        assert span_witness(a, b) is None
        assert a.dimension == 0

    def test_contains(self):
        s = span_of([P("x1_0 + x1_1"), P("x1_1 - x1_2")])
        assert s.contains(P("x1_0 + 2*x1_1 - x1_2"))
        assert not s.contains(P("x1_0"))
        assert s.contains(P("x1_0 + x1_1"))
        assert s.contains(P("1/2*x1_0 + 5/6*x1_1 - 1/3*x1_2"))
        assert not s.contains(P("x1_0 + x1_1 + 1"))  # the constant has a key, not a lead

    def test_witness_is_a_basis_polynomial_outside_the_other(self):
        line, plane = span_of([P("x1_0 + x1_1")]), span_of([P("x1_1"), P("x1_0")])
        assert plane.basis_polynomials() == (P("x1_0"), P("x1_1"))
        assert span_witness(plane, span_of([P("x1_0 + x1_1"), P("x1_0 - x1_1")])) is None
        assert span_witness(plane, line) == P("x1_0")  # the first of plane's basis outside
        # line lies inside plane, of lower dimension: the witness comes from plane
        assert span_witness(line, plane) == P("x1_0")
        other = span_of([P("x1_0 - x1_1")])
        assert span_witness(line, other) == P("x1_0 + x1_1")
        assert span_witness(other, line) == P("x1_0 - x1_1")

    def test_witness_of_equal_spans_reduces_no_second_basis(self, monkeypatch):
        polys = [P("x1_0*x1_2 - x1_1^2"), P("x1_1^2 + x1_0^2"), P("x1_0*x1_1")]
        first = span_of(polys)
        first.basis_polynomials()
        monkeypatch.setattr(linalg, "back_substitute", None)  # a call would raise
        second = span_of(reversed(polys), MonomialIndex(differential_variables(2, 3), 3))
        assert second.index is not first.index
        assert span_witness(first, second) is None
        assert second._polynomials is None

    def test_blockwise_equals_plain_rref(self):
        # bihomogeneous inputs take the weight-block path; the result must be
        # the same unique reduced basis as one full elimination
        polys = [
            P("x1_0*x1_2 - x1_1^2"),
            P("2*x1_0*x1_2"),
            P("x1_0*x1_1"),
            P("x1_0*x1_3 - x1_1*x1_2"),
            P("x1_0^2"),
        ]
        monomials = _descending(graded_monomials(1, 2, 3))
        blocked = span_of(polys, MonomialIndex(differential_variables(1, 3), 3))
        plain = naive_rref(_dense_rows(polys, monomials), len(monomials))
        assert _dense_basis(blocked, monomials) == plain

    def test_mixed_degree_fallback(self):
        s = span_of([P("x1_0 + x1_0^2"), P("x1_0")])
        assert s.dimension == 2
        assert s.contains(P("x1_0^2"))

    def test_basis_is_deterministic(self):
        polys = [P("3*x1_1 + x1_0"), P("x1_0 - x1_1")]
        a = span_of(polys)
        b = span_of(list(reversed(polys)))
        assert a.basis_polynomials() == b.basis_polynomials()

    def test_span_equal_is_equivalence(self):
        rng = random.Random(23)
        monomials = _descending(graded_monomials(1, 1, 3))
        index = MonomialIndex(differential_variables(1, 3), 2)
        spans = []
        for _ in range(6):
            polys = []
            for _ in range(rng.randint(1, 3)):
                terms = {
                    m: Fraction(rng.randint(-2, 2)) for m in monomials
                }
                polys.append(Polynomial(terms))
            spans.append(span_of(polys, index))
        def equal(a, b):
            return span_witness(a, b) is None

        for s in spans:
            assert equal(s, s)
        for a in spans:
            for b in spans:
                assert equal(a, b) == equal(b, a)
        for a in spans:
            for b in spans:
                for c in spans:
                    if equal(a, b) and equal(b, c):
                        assert equal(a, c)


# Degree-2 monomials in x1 up to order 2, an index that holds them, and
# monomials a span over them can never hold: one of degree 2 that sorts among
# them, one of degree 1, one in a second family, and one with an exponent
# above the index's base.
SPAN_MONOMIALS = _descending(graded_monomials(1, 2, 2))
SPAN_INDEX = MonomialIndex(differential_variables(1, 2), 3)
OUTSIDE = [
    Monomial(((x(1, 0), 1), (x(1, 3), 1))),
    Monomial.of(x(1, 3)),
    Monomial.of(x(2, 0), 2),
    Monomial.of(x(1, 0), 3),
]
COLUMNS = SPAN_MONOMIALS + OUTSIDE


def _polynomials_over(monomials):
    return st.dictionaries(st.sampled_from(monomials), small_rationals, max_size=4).map(Polynomial)


@st.composite
def spans_and_queries(draw):
    """Two lists of polynomials over SPAN_INDEX, zero ones included, and a
    query: a combination of the first list plus, often, a random polynomial
    that may leave both the span and the index."""
    polys = draw(st.lists(_polynomials_over(SPAN_MONOMIALS), max_size=5))
    others = draw(st.lists(_polynomials_over(SPAN_MONOMIALS), max_size=5))
    query = Polynomial.zero()
    for p in polys:
        query = query + draw(small_rationals) * p
    query = query + draw(st.one_of(st.just(Polynomial.zero()), _polynomials_over(COLUMNS)))
    return polys, others, query


def _dense_rows(polys, columns):
    return [[p.terms.get(m, 0) for m in columns] for p in polys]


class TestSpanAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(spans_and_queries())
    def test_queries_match_naive_elimination(self, case):
        polys, others, query = case
        span = span_of(polys, SPAN_INDEX)
        cols = len(COLUMNS)
        rows, other_rows = _dense_rows(polys, COLUMNS), _dense_rows(others, COLUMNS)
        rank = naive_rank(rows, cols)

        plain = naive_rref(_dense_rows(polys, SPAN_MONOMIALS), len(SPAN_MONOMIALS))
        assert _dense_basis(span, SPAN_MONOMIALS) == plain
        oracle = naive_basis(polys)
        assert coefficient_types(span.basis_polynomials()) == coefficient_types(oracle)
        first = span.basis_polynomials()
        assert span.basis_polynomials() == first
        assert span.basis_polynomials() is first

        assert span.contains(query) == (naive_rank(rows + _dense_rows([query], COLUMNS), cols) == rank)
        # adding an element of the span changes no answer
        shift = sum(polys, Polynomial.zero())
        assert span.contains(query + shift) == span.contains(query)

        # the same polynomials give the same span over either index
        assert span_witness(span, span_of(polys)) is None
        expected = rank == naive_rank(other_rows, cols) == naive_rank(rows + other_rows, cols)
        assert (span_witness(span, span_of(others, SPAN_INDEX)) is None) == expected
        assert (span_witness(span_of(polys), span_of(others)) is None) == expected
