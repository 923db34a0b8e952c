import decimal
import itertools
import math
import random
import sys
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings, strategies as st

from arcperp.hankel import PackedMatrix, SymbolicMatrix
from arcperp.linalg import MonomialIndex
from arcperp import ring
from arcperp.pairing import apply_pairing, directional_derivative
from arcperp.ring import (
    E,
    Monomial,
    Polynomial,
    PolynomialSyntaxError,
    al,
    format_polynomial,
    parse,
    x,
    xi,
    y,
)

from oracles import (
    coefficient_of_power,
    derivative_oracle,
    diff_wrt,
    monomial_order_oracle,
    monomial_product_oracle,
    order_oracle_variables,
    polynomial_from_terms,
    restrict_above_oracle,
    span_of,
)


def P(text: str) -> Polynomial:
    return parse(text)


class TestParse:
    def test_worked_quadratic(self):
        p = P("2*x1_0*x1_2 + x1_1^2")
        xx = Monomial(((x(1, 0), 1), (x(1, 2), 1)))
        xp2 = Monomial.of(x(1, 1), 2)
        assert p.terms == {xx: Fraction(2), xp2: Fraction(1)}

    def test_zero(self):
        assert P("0").is_zero

    def test_rational_coefficient(self):
        p = P("3/2*x2_1")
        assert p.terms == {Monomial.of(x(2, 1)): Fraction(3, 2)}

    def test_auxiliary_tokens(self):
        p = P("xi2*al1_3*E2*y_4")
        (m,) = p.terms
        assert dict(m.pairs) == {xi(2): 1, al(1, 3): 1, E(2): 1, y(4): 1}

    def test_leading_minus_and_whitespace(self):
        assert P(" - x1_0 +  2 ") == 2 + (-1) * Polynomial.from_variable(x(1, 0))

    def test_repeated_variable_merges(self):
        assert P("x1_0*x1_0") == P("x1_0^2")

    def test_unknown_variable(self):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse("x1_0 + z3")
        assert exc.value.position == 7

    def test_malformed_differential_token(self):
        with pytest.raises(PolynomialSyntaxError):
            parse("x1")

    def test_family_zero_rejected(self):
        with pytest.raises(PolynomialSyntaxError):
            parse("x0_1")

    def test_syntax_error_position(self):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse("x1_0 + ")
        assert exc.value.position == 5

    def test_empty_input(self):
        with pytest.raises(PolynomialSyntaxError):
            parse("   ")

    def test_zero_denominator(self):
        with pytest.raises(PolynomialSyntaxError):
            parse("1/0")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("x1_0 $", "unexpected character '$'", 5),
            ("   ", "empty input", 0),
            ("-", "dangling sign", 0),
            ("x1_0 x1_1", "expected '+' or '-', found 'x1_1'", 5),
            ("x1_0*", "expected a factor", 5),
            ("x1_0^", "expected num, found end of input", 5),
            ("1/x1_0", "expected num, found 'x1_0'", 2),
            ("1/0", "zero denominator", 2),
            ("+-x1_0", "unexpected '-' in term", 1),
            ("xi1_2", "unknown variable name 'xi1_2'", 0),
            ("x0_1", "invalid differential variable x0_1", 0),
        ],
    )
    def test_every_error_message_and_position(self, text, message, position):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    @pytest.mark.parametrize("prefix, position", [("", 0), ("1/", 2), ("x1_0^", 5)])
    def test_number_beyond_the_integer_string_limit(self, prefix, position):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        text = prefix + "9" * max(limit + 1, 5000)
        if not limit:  # this interpreter converts integers of any length
            assert not parse(text).is_zero
            return
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse(text)
        assert exc.value.position == position
        assert str(exc.value).endswith(f"(at position {position})")

    @pytest.mark.parametrize("terms", [1, 10, 4_000])
    def test_one_monomial_and_one_polynomial_item_per_term(self, monkeypatch, terms):
        # Summing term by term into a new polynomial copies every term so far,
        # about terms^2/2 items; one sum of the terms passes each term once.
        built = {"monomials": 0, "items": 0}
        monomial_init, polynomial_init = Monomial.__init__, Polynomial.__init__

        def count_monomial(self, pairs):
            built["monomials"] += 1
            monomial_init(self, pairs)

        def count_items(self, items=None):
            built["items"] += len(items or ())
            polynomial_init(self, items)

        text = " + ".join(f"{k}*x1_{k}" for k in range(1, terms + 1))
        monkeypatch.setattr(Monomial, "__init__", count_monomial)
        monkeypatch.setattr(Polynomial, "__init__", count_items)
        assert len(parse(text).terms) == terms
        assert built == {"monomials": terms, "items": terms}


# Monomials of degree <= 8 over all five variable kinds, indices up to 12.
any_monomials = st.dictionaries(
    st.one_of(
        st.builds(x, st.integers(1, 12), st.integers(0, 12)),
        st.builds(xi, st.integers(0, 12)),
        st.builds(al, st.integers(0, 12), st.integers(0, 12)),
        st.builds(E, st.integers(0, 12)),
        st.builds(y, st.integers(0, 12)),
    ),
    st.integers(1, 2),
    max_size=4,
).map(lambda exps: Monomial(exps.items()))
coefficients = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))


class TestFormat:
    def test_zero(self):
        assert format_polynomial(Polynomial.zero()) == "0"

    def test_descending_term_order(self):
        assert str(P("x1_1^2 + 2*x1_0*x1_2")) == "2*x1_0*x1_2 + x1_1^2"

    def test_signs_and_fractions(self):
        assert str(P("-x1_0 + 1/2")) == "-x1_0 + 1/2"
        assert str(P("x1_0 - 3/2*x1_1")) == "x1_0 - 3/2*x1_1"

    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "x1_0",
            "2*x1_0*x1_2 + x1_1^2",
            "-5/3*x2_4 + x1_0^3 - 7",
            "xi1^2*al1_1*E1 + y_2",
        ],
    )
    def test_roundtrip(self, text):
        p = parse(text)
        assert parse(format_polynomial(p)) == p

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(any_monomials, coefficients), max_size=6))
    @example([])
    @example([(Monomial(()), Fraction(-7, 3))])
    def test_roundtrip_property(self, terms):
        p = polynomial_from_terms(terms)
        assert parse(format_polynomial(p)) == p


class TestFormatCoefficients:
    """``_format_coeff`` converts by binary splitting past ``_SPLIT_BITS`` bits;
    its text is that of the direct ``Decimal`` conversion."""

    def test_binary_splitting_matches_direct_conversion(self):
        rng = random.Random(31)
        edge = [2**ring._SPLIT_BITS - 1, 2**ring._SPLIT_BITS, 2 ** (ring._SPLIT_BITS + 1) + 1]
        values = edge + [10**5000, 10**19_999, math.factorial(3000)]
        for digits in [1, 20_000] + [rng.randint(1, 20_000) for _ in range(30)]:
            values.append(rng.randrange(10 ** (digits - 1), 10**digits))
        for v in values:
            for c in (v, -v):
                assert ring._format_coeff(c) == str(decimal.Decimal(c))

    def test_fraction_of_large_integers(self):
        rng = random.Random(32)
        for sign in (1, -1):
            numerator = sign * rng.randrange(10**14_999, 10**15_000)
            c = Fraction(numerator, rng.randrange(10**9_999, 10**10_000))
            assert c.denominator > 10**9_000
            direct = f"{decimal.Decimal(c.numerator)}/{decimal.Decimal(c.denominator)}"
            assert ring._format_coeff(c) == direct


class TestArithmetic:
    def test_add_cancellation(self):
        assert P("x1_0 + x1_1") + P("-x1_0") == P("x1_1")

    def test_add_identity(self):
        p = P("2*x1_0*x1_2 + x1_1^2")
        assert Polynomial.zero() + p == p

    def test_add_disjoint_supports(self):
        assert P("x1_0^2") + P("2*x1_0*x1_2 + x1_1^2") == P(
            "x1_0^2 + 2*x1_0*x1_2 + x1_1^2"
        )

    def test_mul_variables(self):
        assert P("x1_0") * P("x1_1") == P("x1_0*x1_1")

    def test_mul_difference_of_squares(self):
        assert P("x1_0 + x1_1") * P("x1_0 - x1_1") == P("x1_0^2 - x1_1^2")

    def test_mul_identity(self):
        p = P("2*x1_0*x1_2 + x1_1^2")
        assert Polynomial({Monomial(()): 1}) * p == p

    def test_scalar_coercion(self):
        p = P("x1_0")
        assert 2 * p + (-1) * p == p
        assert p + Fraction(1, 2) == P("x1_0 + 1/2")

    def test_operations_do_not_mutate(self):
        p = P("x1_0")
        q = P("x1_1")
        before = dict(p.terms)
        _ = p + q
        _ = p * q
        assert p.terms == before


def _next_order_image(v) -> Polynomial:
    """v' under the formal derivative: the next order of x and y, xi*E for E."""
    if v.kind == "x":
        return P(f"x{v.i}_{v.j + 1}")
    if v.kind == "y":
        return P(f"y_{v.j + 1}")
    if v.kind == "E":
        return P(f"xi{v.i}*E{v.i}")
    return Polynomial.zero()


class TestDerivation:
    """The formal-derivative oracle, which the Wronskian oracle rests on."""

    def test_derive_variable(self):
        assert derivative_oracle(P("x1_0")) == P("x1_1")

    def test_derive_leibniz_product(self):
        assert derivative_oracle(P("x1_0*x1_2")) == P("x1_1*x1_2 + x1_0*x1_3")

    def test_derive_wronskian_pattern(self):
        # frozen from the recursive product-rule oracle
        p = P("x1_0*x1_2 - x1_1^2")
        assert derivative_oracle(p) == P("x1_0*x1_3 - x1_1*x1_2")

    def test_derive_matches_oracle(self):
        # The chain rule, sum_v v' * dp/dv over single partials, against the
        # oracle's recursive product rule.
        for text in ["x1_0^3", "x1_0*x2_1 - x2_0*x1_1", "y_0*x1_1", "E1*x1_0", "xi1*E1^2*y_2"]:
            p = P(text)
            chain = Polynomial.zero()
            for v in {v for m in p.terms for v, _ in m.pairs}:
                chain = chain + _next_order_image(v) * diff_wrt(p, v)
            assert chain == derivative_oracle(p)

    def test_auxiliary_rules(self):
        assert derivative_oracle(P("xi1")).is_zero
        assert derivative_oracle(P("al2_1")).is_zero
        assert derivative_oracle(P("y_3")) == P("y_4")
        assert derivative_oracle(P("E2")) == P("xi2*E2")
        assert derivative_oracle(P("E1^2")) == P("2*xi1*E1^2")

    def test_higher_derivative(self):
        assert derivative_oracle(derivative_oracle(derivative_oracle(P("x1_0")))) == P("x1_3")


class TestRestrictAbove:
    def test_drops_high_order_term(self):
        assert restrict_above_oracle(P("x1_0*x1_2 - x1_1^2"), 1) == P("-x1_1^2")

    def test_keeps_low_order(self):
        assert restrict_above_oracle(P("x1_1"), 3) == P("x1_1")

    def test_kills_high_variable(self):
        assert restrict_above_oracle(P("x1_3"), 2).is_zero


class TestMonomialOrder:
    def test_degree_two_index_order(self):
        polys = [P(t) for t in ["x1_1^2", "x1_0*x1_2", "x1_0^2", "x1_0*x1_1",
                                "x1_1*x1_2", "x1_2^2"]]
        total = Polynomial.zero()
        for p in polys:
            total = total + p
        assert [str(m) for m, _ in total.sorted_terms()] == [
            "x1_0^2",
            "x1_0*x1_1",
            "x1_0*x1_2",
            "x1_1^2",
            "x1_1*x1_2",
            "x1_2^2",
        ]

    def test_graded_before_lex(self):
        low = Monomial.of(x(1, 0), 1)
        high = Monomial.of(x(1, 5), 2)
        assert low.order_key() < high.order_key()  # degree wins

    def test_family_major(self):
        assert Monomial.of(x(2, 0)).order_key() < Monomial.of(x(1, 3)).order_key()

    def test_auxiliaries_sort_after_differentials(self):
        assert Monomial.of(xi(1)).order_key() < Monomial.of(x(1, 9)).order_key()


ORDER_VARIABLES = order_oracle_variables(n=2, max_order=2, groups=2)

# Degree <= 4 monomials that mix all five variable kinds.
mixed_monomials = st.lists(st.sampled_from(ORDER_VARIABLES), max_size=4).map(
    lambda vs: Monomial((v, vs.count(v)) for v in set(vs))
)


def oracle_compare(a: Monomial, b: Monomial) -> int:
    return monomial_order_oracle(a, b, ORDER_VARIABLES)


class TestMonomialOrderOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(mixed_monomials, min_size=1, max_size=8))
    def test_order_matches_oracle(self, monos):
        for a, b in itertools.product(monos, repeat=2):
            assert (a.order_key() < b.order_key()) == (oracle_compare(a, b) < 0)
            assert (a == b) == (oracle_compare(a, b) == 0)
        for m in monos:
            assert [v for v, _ in m.pairs] == [v for v in ORDER_VARIABLES if dict(m.pairs).get(v, 0)]
        expected = sorted(set(monos), key=cmp_to_key(oracle_compare), reverse=True)
        assert [m for m, _ in Polynomial({m: 1 for m in monos}).sorted_terms()] == expected
        key = MonomialIndex(ORDER_VARIABLES, 5)._key  # degree <= 4: every exponent fits
        assert sorted(set(monos), key=key, reverse=True) == expected


class TestMonomialKeys:
    """``MonomialIndex`` keys against the order oracle and monomial products."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(mixed_monomials, min_size=1, max_size=8))
    def test_key_order_is_the_oracle_order(self, monos):
        key = MonomialIndex(ORDER_VARIABLES, 5)._key
        for a, b in itertools.product(monos, repeat=2):
            assert (key(a) < key(b)) == (oracle_compare(a, b) < 0)
            assert (key(a) == key(b)) == (a == b)

    @settings(max_examples=300, deadline=None)
    @given(mixed_monomials)
    def test_decoding_inverts_the_key(self, m):
        index = MonomialIndex(ORDER_VARIABLES, 5)
        decoded = index._monomial(index._key(m))
        assert decoded == m and decoded.degree == m.degree
        assert index._monomial(index._key(m)) is decoded  # decoded once per index

    @settings(max_examples=300, deadline=None)
    @given(mixed_monomials, st.sampled_from(ORDER_VARIABLES), st.integers(1, 4))
    def test_no_key_for_a_foreign_variable_or_a_large_exponent(self, m, foreign, base):
        exponents = dict(m.pairs)
        others = [v for v in ORDER_VARIABLES if v != foreign]
        assert (MonomialIndex(others, 5)._key(m) is None) == (foreign in exponents)
        fits = all(e < base for e in exponents.values())
        assert (MonomialIndex(ORDER_VARIABLES, base)._key(m) is None) == (not fits)

    @settings(max_examples=300, deadline=None)
    @given(mixed_monomials, mixed_monomials, st.integers(2, 5))
    def test_key_of_a_product_is_the_sum_of_keys(self, a, b, base):
        key = MonomialIndex(ORDER_VARIABLES, base)._key
        product = a.mul(b)
        if all(e < base for _, e in product.pairs):
            assert key(product) == key(a) + key(b)
        else:
            assert key(product) is None


# Few variables and exponents up to 3, so that factors often share variables.
shared_monomials = st.dictionaries(
    st.sampled_from(ORDER_VARIABLES[::3]), st.integers(1, 3), max_size=4
).map(lambda exps: Monomial(exps.items()))


class TestMonomialProduct:
    @settings(max_examples=300, deadline=None)
    @given(shared_monomials, shared_monomials)
    @example(
        Monomial(((x(1, 0), 2), (xi(1), 1))),
        Monomial(((x(1, 0), 1), (x(2, 1), 1), (xi(1), 3))),
    )
    def test_merge_matches_dict_oracle(self, a, b):
        product = a.mul(b)
        expected = monomial_product_oracle(a, b)
        assert product == expected
        assert product.pairs == expected.pairs
        assert product.degree == expected.degree == a.degree + b.degree
        assert hash(product) == hash(expected)
        assert product.order_key() == expected.order_key()
        assert b.mul(a) == product

    def test_one_is_shared_and_neutral(self):
        one = next(iter(ring.ONE.terms))  # the monomial 1 that every scalar shares
        assert one is next(iter((ring.ONE * 3).terms)) and one == Monomial(())
        assert one.pairs == () and one.degree == 0
        m = Monomial.of(x(1, 2), 2)
        assert one.mul(m) is m and m.mul(one) is m
        with pytest.raises(AttributeError):
            one.extra = 1  # slots: no attribute beyond pairs, degree and hash


def assert_exact(p: Polynomial) -> None:
    assert all(type(c) in (int, Fraction) and c != 0 for c in p.terms.values()), p.terms


EXACT_PAIRS = [
    ("x1_0 + 1/2*x1_1 - 3", "2*x1_0*x1_1 - 4/2*x1_1^2 + xi1*E1*y_0"),
    ("4/2*x1_0 - 2*x1_0 + 1/3", "x1_0^2 - 1/3"),
    ("-5/3*x2_2*x1_0 + 6/3", "x2_0*x1_2 + 1/2*al1_2*x1_1^2"),
]


class TestExactCoefficients:
    @pytest.mark.parametrize("f_text,p_text", EXACT_PAIRS)
    def test_every_operation_keeps_exact_nonzero_coefficients(self, f_text, p_text):
        f, p = parse(f_text), parse(p_text)
        matrix = SymbolicMatrix.from_rows([[f, p], [p * p, f + 1]])
        results = [
            f, p, f + p, f + (-1) * p, f + (-1) * f, p + Fraction(-1, 2), f * p, 3 * p, p * p * p,
            apply_pairing(f, p), apply_pairing(p, p * f),
            directional_derivative(p), directional_derivative(directional_derivative(f * p)),
            PackedMatrix(matrix).value((0, 1), (0, 1)),
            *span_of([f, p, f + p, f * p]).basis_polynomials(),
        ]
        for r in results:
            assert_exact(r)

    def test_integral_fraction_equals_int(self):
        m = Monomial.of(x(1, 0))
        as_fraction = Polynomial({m: Fraction(3)})
        as_int = Polynomial({m: 3})
        assert as_fraction == as_int
        assert Polynomial({Monomial(()): Fraction(3)}) == 3
        for scalar in (0, 3, Fraction(-1, 2)):
            assert Polynomial({Monomial(()): scalar}) == scalar
        with pytest.raises(TypeError):  # a polynomial is not hashable
            hash(as_int)


class TestQueries:
    def test_degree_weight_order(self):
        p = P("2*x1_0*x1_2 + x1_1^2")
        assert {m.degree for m in p.terms} == {2}
        assert {sum(v.j * e for v, e in m.pairs) for m in p.terms} == {2}

    def test_mixed_degrees(self):
        p = P("x1_0 + x1_0^2")
        assert {m.degree for m in p.terms} == {1, 2}

    def test_coefficient_of_power(self):
        p = P("x1_0^2*E1^2 + x1_1*E1 + 3")
        assert coefficient_of_power(p, E(1), 1) == P("x1_1")
        assert coefficient_of_power(p, E(1), 2) == P("x1_0^2")
        assert coefficient_of_power(p, E(1), 0) == P("3")
        assert max(dict(m.pairs).get(E(1), 0) for m in p.terms) == 2
