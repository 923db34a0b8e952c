"""The first-order forms of the minor-side checks and the derivation, each
against the oracle it replaced: on random polynomials with auxiliary
variables, and on every minor of H, T and S for n <= 3, h <= 2."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from arcperp import pairing, perp
from arcperp.arcgen import arc_generators_up_to
from arcperp.hankel import (
    hankel_matrix, iter_minors, minor_span, scaled_matrix, triangular_matrix,
)
from arcperp.pairing import (
    apply_pairing, directional_derivative, is_differentially_homogeneous,
)
from arcperp.reports import (
    _annihilated_by_all,
    _generator_image,
    _quadratic_terms,
    _second_partials,
)
from arcperp.ring import E, Monomial, Polynomial, al, parse, x, xi, y

from oracles import (
    annihilated_by_all_oracle,
    derivative_oracle,
    differentially_homogeneous_oracle,
    highest_order,
    polynomial_from_terms,
    wronskian,
)

differential = st.builds(x, st.integers(1, 2), st.integers(0, 3))
constants = st.sampled_from([xi(1), xi(2), al(1, 1), al(1, 2), al(2, 1), E(1), E(2)])
indeterminates = st.builds(y, st.integers(0, 2))

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def polynomials(variables, min_factors=0, max_factors=4):
    monomials = st.lists(variables, min_size=min_factors, max_size=max_factors).map(
        lambda vs: Monomial((v, vs.count(v)) for v in set(vs))
    )
    return st.lists(st.tuples(monomials, coefficients), max_size=5).map(polynomial_from_terms)


every_kind = polynomials(st.one_of(differential, constants, indeterminates))
y_free = polynomials(st.one_of(differential, differential, constants))
quadratic_forms = polynomials(differential, 2, 2)

# Wronskians of the coordinates x_i = x_i^(0) are differentially homogeneous
# of degree their size, and so are products of them: these seed the cases
# the degree condition alone does not decide.
_COORDINATES = [Polynomial.from_variable(x(i, 0)) for i in (1, 2, 3)]
_WRONSKIANS = [
    (len(fs), wronskian(list(fs)))
    for size in (1, 2, 3)
    for fs in itertools.combinations(_COORDINATES, size)
]


@st.composite
def homogeneous_candidates(draw):
    """A sum of products of coordinate Wronskians and constants, all of one
    degree, plus, sometimes, a random y-free perturbation."""
    d = draw(st.integers(0, 4))
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = Polynomial({Monomial(()): draw(coefficients)})
        degree = 0
        while degree < d:
            size, w = draw(st.sampled_from([t for t in _WRONSKIANS if t[0] <= d - degree]))
            term, degree = term * w, degree + size
        for v in draw(st.lists(constants, max_size=2)):
            term = term * Polynomial.from_variable(v)
        p = p + term
    if draw(st.booleans()):
        p = p + draw(y_free)
    return p, d


class TestDerivative:
    @given(every_kind, st.integers(1, 3))
    @example(parse("x1_0*x1_1^2*x2_1*E1^2*y_0*y_1"), 2)
    @example(parse("E1^3*E2*x1_0 - 1/2*xi1*al1_2*E2 + xi1*E1^3*E2*al1_2"), 2)
    def test_matches_product_rule_oracle(self, p, times):
        got = expected = p
        for _ in range(times):
            got, expected = got.derivative(), derivative_oracle(expected)
        assert got == expected

    def test_next_variable_merges_into_the_next_pair(self):
        # x1_1' = x1_2 is the next pair, so x1_1*x1_2 -> x1_2^2 + x1_1*x1_3.
        assert parse("x1_1*x1_2").derivative() == parse("x1_2^2 + x1_1*x1_3")
        assert parse("y_0^2*y_1").derivative() == parse("2*y_0*y_1^2 + y_0^2*y_2")


def _assert_canonical(monomials) -> None:
    """Each monomial has strictly sorted pairs, no zero exponent, and a
    degree equal to the sum of its exponents.  Equality and hashing read the
    pairs alone, so a wrong degree can pass every other test."""
    for m in monomials:
        variables = [v for v, _ in m.pairs]
        assert all(a < b for a, b in zip(variables, variables[1:])), m
        assert all(e > 0 for _, e in m.pairs), m
        assert m.degree == sum(e for _, e in m.pairs), m


class TestCanonicalMonomials:
    @given(every_kind, every_kind)
    @example(parse("x1_0^2*x1_1*xi1^2*al1_1*E1"), parse("x1_1*E1"))
    def test_ring_operations(self, p, q):
        for r in (
            p * q,
            p.derivative(),
            p.derivative().derivative().derivative(),
            directional_derivative(p),
            directional_derivative(directional_derivative(p)),
        ):
            _assert_canonical(r.terms)

    @given(y_free)
    @example(parse("x1_0*x1_3^2*x2_2 + xi1*al2_1*x1_1*x2_0"))
    def test_scaling_derivation(self, p):
        _assert_canonical(p.derive(pairing._scaling_rule).terms)

    @pytest.mark.parametrize("n, h", [(1, 3), (2, 2), (3, 1)])
    def test_decoded_minors(self, n, h):
        for matrix in (hankel_matrix(n, h, 1), triangular_matrix(n, h), scaled_matrix(n, h)):
            sizes = range(min(matrix.rows, matrix.cols) + 1)
            for _, _, _, value in iter_minors(matrix, sizes):
                _assert_canonical(value.terms)
        for span in minor_span(triangular_matrix(n, h), range(h + 2)).spans.values():
            _assert_canonical(m for p in span.basis_polynomials() for m in p.terms)

    @pytest.mark.parametrize("n, degree, order", [(1, 4, 4), (2, 3, 3), (3, 2, 2)])
    def test_bounded_weight_enumeration(self, n, degree, order):
        index, found = perp._monomials_up_to_weight(n, degree, order, degree * order)
        decoded = [index._monomial(key) for _, _, key in found]
        _assert_canonical(decoded)
        assert [pairs for _, pairs, _ in found] == [m.pairs for m in decoded]


class TestDifferentialHomogeneity:
    @given(homogeneous_candidates(), st.integers(-1, 1))
    @example((Polynomial.zero(), 2), 0)
    @example((parse("x1_0*x2_1 - x1_1*x2_0"), 2), 0)
    @example((parse("x1_0*x2_1 - x1_1*x2_0 + x1_0"), 2), 0)
    @example((parse("xi1*E2*x1_0^3"), 3), 0)
    def test_matches_substitution_oracle(self, candidate, shift):
        p, d = candidate
        d = max(d + shift, 0)
        assert is_differentially_homogeneous(p, d) == differentially_homogeneous_oracle(p, d)

    @given(y_free, st.integers(0, 4))
    def test_matches_substitution_oracle_on_random_polynomials(self, p, d):
        assert is_differentially_homogeneous(p, d) == differentially_homogeneous_oracle(p, d)

    def test_rejects_a_polynomial_in_y(self):
        # Substituting into a p that holds y conflates its coefficients with
        # the scaling: this p passes the substitution test, though D_1 p =
        # (y_0*y_2 - y_1^2)*x1_0^2 is not zero.
        p = parse(
            "y_0*y_2*x1_0*x1_1 - y_1^2*x1_0*x1_1 - y_0*y_1*x1_0*x1_2 + y_0*y_1*x1_1^2"
        )
        assert differentially_homogeneous_oracle(p, 2)
        with pytest.raises(ValueError, match="free of y"):
            is_differentially_homogeneous(p, 2)


_FAMILY_INSTANCES = [(n, h) for n in (1, 2, 3) for h in (0, 1, 2)]


def _family_minors(n, h):
    """Every minor of H(n, h, k) for k <= 2, T(n, h) and S(n, h), with the
    largest derivative order in each matrix."""
    matrices = [hankel_matrix(n, h, k) for k in range(3)]
    for matrix in [*matrices, triangular_matrix(n, h), scaled_matrix(n, h)]:
        top = max((highest_order(p) for row in matrix.entries for p in row), default=0)
        sizes = range(min(matrix.rows, matrix.cols) + 1)
        yield top, [value for _, _, _, value in iter_minors(matrix, sizes)]


class TestEveryMinorOfTheFamilies:
    @pytest.mark.parametrize("n,h", _FAMILY_INSTANCES)
    def test_differential_homogeneity(self, n, h):
        for _, values in _family_minors(n, h):
            for w in values:
                for d in range(h + 3):
                    assert is_differentially_homogeneous(w, d) == (
                        differentially_homogeneous_oracle(w, d)
                    ), (w, d)

    @pytest.mark.parametrize("n,h", _FAMILY_INSTANCES)
    def test_annihilation(self, n, h):
        # Generators of t-power above twice the largest order act as zero.
        for top, values in _family_minors(n, h):
            generators = arc_generators_up_to(n, 2 * top)
            quadratic = [_quadratic_terms(g) for g in generators]
            for w in values:
                assert _annihilated_by_all(quadratic, w) == annihilated_by_all_oracle(generators, w), w


class TestGeneratorImage:
    @given(quadratic_forms, every_kind)
    @example(
        parse("x1_0*x2_0 + 3*x1_1^2 - 1/2*x1_0*x2_1"), parse("x1_0^2*x1_1^3*x2_0*al1_1")
    )
    def test_matches_pairing(self, g, w):
        image = _generator_image(_quadratic_terms(g), _second_partials(w))
        assert Polynomial(image) == apply_pairing(g, w)

    def test_only_pairs_that_occur_together_are_tabulated(self):
        table = _second_partials(parse("x1_0^2*x2_1 + 3*x1_1*E1"))
        assert {tuple(v.token() for v, _ in key) for key in table} == {("x1_0",), ("x1_0", "x2_1")}
        assert table[((x(1, 0), 2),)] == {Monomial.of(x(2, 1)): 2}
        assert table[((x(1, 0), 1), (x(2, 1), 1))] == {Monomial.of(x(1, 0)): 2}
