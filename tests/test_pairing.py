from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from arcperp import pairing
from arcperp.arcgen import arc_generators_up_to
from arcperp.pairing import (
    apply_pairing,
    check_pairing_size,
    directional_derivative,
    double_derivative_vanishes,
)
from arcperp.ring import E, Monomial, Polynomial, al, parse, x, xi, y

from oracles import (
    annihilates,
    coefficient_of_power,
    diff_wrt,
    graded_monomials,
    highest_order,
    linear_in_exponential_shift,
    pairing_oracle,
    polynomial_from_terms,
    wronskian,
)

P = parse
WRONSKIAN_2 = "x1_0*x1_2 - x1_1^2"

# Polynomials in x1, x2 up to order 3: sums of up to four terms of degree
# <= 3, which mostly pass the double-derivative test only when constant or
# linear, and Wronskians of linear forms, which pass it at degree 2 and 3.
_variables = st.builds(x, st.integers(1, 2), st.integers(0, 3))
_sums = st.lists(
    st.tuples(st.lists(_variables, max_size=3), st.integers(-3, 3)), max_size=4
).map(lambda terms: polynomial_from_terms((Monomial(Counter(vs).items()), c) for vs, c in terms))
_linear_forms = st.lists(st.tuples(_variables, st.integers(-3, 3)), min_size=1, max_size=3).map(
    lambda terms: polynomial_from_terms((Monomial.of(v), c) for v, c in terms)
)
x_only_polynomials = st.one_of(_sums, st.lists(_linear_forms, min_size=2, max_size=3).map(wronskian))


class TestApplyPairing:
    def test_power_rule(self):
        assert apply_pairing(P("x1_0^2"), P("x1_0^3")) == P("6*x1_0")

    def test_generator_kills_wronskian(self):
        # both mixed second partials expanded by the oracle agree
        f, p = P("2*x1_0*x1_2 + x1_1^2"), P(WRONSKIAN_2)
        assert pairing_oracle(f, p).is_zero
        assert apply_pairing(f, p).is_zero

    def test_disjoint_variables(self):
        assert apply_pairing(P("x1_1"), P("x1_0")).is_zero

    def test_matches_oracle(self):
        pairs = [
            ("x1_0*x1_1", "x1_0^2*x1_1^3"),
            ("x1_0^2 + x2_0", "x1_0^2*x2_0 - x2_0^2"),
            ("x1_2", WRONSKIAN_2),
        ]
        for f_text, p_text in pairs:
            f, p = P(f_text), P(p_text)
            assert apply_pairing(f, p) == pairing_oracle(f, p)

    def test_composition_on_example(self):
        f, g, p = P("x1_0"), P("x1_1"), P("x1_0^2*x1_1^2")
        assert apply_pairing(f * g, p) == apply_pairing(f, apply_pairing(g, p))

    def test_auxiliaries_ride_along(self):
        # an auxiliary factor in the operator multiplies through, untouched
        assert apply_pairing(P("xi1*x1_0"), P("x1_0^2")) == P("2*xi1*x1_0")
        # auxiliaries in the target are never differentiated away
        assert apply_pairing(P("x1_0"), P("xi1*x1_0")) == P("xi1")

    def test_zero_pairing_computes_no_falling_factorial(self, monkeypatch):
        # x1_0^100000 divides the first term, x3_0 divides neither: both
        # monomial pairings are zero before any a!/(a-b)! is formed.
        def perm(a, b):
            raise AssertionError(f"a falling factorial {a}!/({a}-{b})! was computed")

        monkeypatch.setattr(pairing.math, "perm", perm)
        assert apply_pairing(P("x1_0^100000*x3_0"), P("x1_0^100000 + x2_1")).is_zero


class TestPairingSize:
    """``check_pairing_size`` bounds, summed over the term pairs, the variables
    a pairing visits and the bits of its coefficients c_f * c_P * a!/(a-b)!
    by bits(c_f) + bits(c_P) + sum_v b_v*a_v.bit_length()."""

    def test_each_limit_admits_its_edge(self, monkeypatch):
        f, p = P("x1_0 + x1_1"), P("x1_0 + x1_1 + x1_2")  # 2*3 + 3*2 visits
        monkeypatch.setattr(pairing, "VISIT_LIMIT", 12)
        check_pairing_size(f, p)
        monkeypatch.setattr(pairing, "VISIT_LIMIT", 11)
        with pytest.raises(ValueError, match="^12 variable visits exceed the limit of 11 "):
            check_pairing_size(f, p)
        power = P("x1_0^5000")  # 5000 * 13 bits, and 2 bits for each coefficient 1
        monkeypatch.setattr(pairing, "COEFFICIENT_BITS", 65_004)
        check_pairing_size(power, power)
        monkeypatch.setattr(pairing, "COEFFICIENT_BITS", 65_003)
        with pytest.raises(ValueError, match="^a coefficient bound of 65,004 bits exceeds the "
                                             "limit of 65,003 bits per pairing$"):
            check_pairing_size(power, power)

    def test_visits_count_every_variable_of_both_monomials(self, monkeypatch):
        # two term pairs, each copying x1_0*x1_1*x1_2 and scanning one variable
        f, p = P("x2_0 + x2_1"), P("x1_0*x1_1*x1_2")
        monkeypatch.setattr(pairing, "VISIT_LIMIT", 7)
        with pytest.raises(ValueError, match="^8 variable visits exceed "):
            check_pairing_size(f, p)

    def test_the_bound_sums_over_the_term_pairs(self):
        one, two = P("x1_0^150000"), P("x1_0^150000 + x1_1^150000")  # 2,700,000 bits each
        check_pairing_size(one, two)
        with pytest.raises(ValueError, match="^a coefficient bound of 5,400,016 bits "):
            check_pairing_size(two, two)

    def test_the_coefficients_of_both_sides_count(self, monkeypatch):
        # 2 * (101 + 1) bits of 2^100, one per term of p, and 2 + 3 bits of 1 and 1/3
        f, p = P(str(2**100)), P("x2_0 + 1/3*x2_1")
        monkeypatch.setattr(pairing, "COEFFICIENT_BITS", 0)
        with pytest.raises(ValueError, match="^a coefficient bound of 209 bits "):
            check_pairing_size(f, p)

    def test_only_differential_variables_of_the_operator_count(self):
        # xi1 multiplies through, and x1_5 of the target meets no operator term
        check_pairing_size(P("xi1^9000000*x1_0"), P("xi1^9000000*x1_0 + x1_5^9000000"))


class TestAnnihilates:
    def test_degree_drop(self):
        assert apply_pairing(P("x1_0^2"), P("x1_0")).is_zero

    def test_wronskian_in_perp(self):
        assert apply_pairing(P("2*x1_0*x1_2 + x1_1^2"), P(WRONSKIAN_2)).is_zero

    def test_nonzero_constant(self):
        f, p = P("2*x1_0*x1_2 + x1_1^2"), P("x1_1^2")
        value = pairing_oracle(f, p)
        assert value == Polynomial({Monomial(()): 2})
        assert apply_pairing(f, p) == value
        assert not apply_pairing(f, p).is_zero


class TestDirectionalDerivative:
    def test_linear(self):
        assert directional_derivative(P("x1_0")) == P("al1_1")

    def test_square(self):
        assert directional_derivative(P("x1_0^2")) == P("2*al1_1*x1_0")

    def test_wronskian_frozen(self):
        # term-by-term partials: al * (x'' - 2 xi x' + xi^2 x)
        expected = P("al1_1*x1_2 - 2*al1_1*xi1*x1_1 + al1_1*xi1^2*x1_0")
        assert directional_derivative(P(WRONSKIAN_2)) == expected

    def test_two_families(self):
        out = directional_derivative(P("x1_0*x2_0"))
        assert out == P("al1_1*x2_0 + al1_2*x1_0")


# x-only polynomials times auxiliary factors, as the first pass of the double
# derivative leaves them (xi1, al1_i) and beside them (xi2, al2_1, E1, y_0).
_auxiliary = st.lists(st.sampled_from([xi(1), xi(2), al(1, 1), al(1, 2), al(2, 1), E(1), y(0)]), max_size=3)
with_auxiliaries = st.tuples(x_only_polynomials, _auxiliary).map(
    lambda pa: pa[0] * Polynomial({Monomial(Counter(pa[1]).items()): 1})
)


class TestDirectionalDerivativeAgainstOracle:
    @given(with_auxiliaries)
    @example(P("xi1*al1_1*x1_0^2*x2_1"))
    @example(P("xi1^2*al1_2*al2_1*E1*x1_0*x2_0"))
    def test_sum_of_marked_partials(self, p):
        # D p = sum_{i,j} al_{1,i} * xi_1^j * dp/dx_i^(j), one partial at a time.
        expected = Polynomial.zero()
        for v in {v for m in p.terms for v, _ in m.pairs if v.kind == "x"}:
            marker = Polynomial({Monomial(((al(1, v.i), 1), (xi(1), v.j))): 1})
            expected = expected + marker * diff_wrt(p, v)
        assert directional_derivative(p) == expected


class TestDoubleDerivative:
    def test_wronskian_vanishes(self):
        assert double_derivative_vanishes(P(WRONSKIAN_2))

    def test_square_does_not(self):
        p = P("x1_0^2")
        assert directional_derivative(directional_derivative(p)) == P("2*al1_1^2")
        assert not double_derivative_vanishes(p)

    def test_degree_one_vanishes(self):
        assert double_derivative_vanishes(P("x1_0"))

    @pytest.mark.parametrize("n,degree,order", [(1, 2, 2), (2, 2, 1)])
    def test_equivalent_to_generator_annihilation(self, n, degree, order):
        # vanishing double derivative must coincide with annihilation by all
        # generators of t-power <= 2 * maxorder
        import random

        rng = random.Random(7)
        gens = arc_generators_up_to(n, 2 * order)
        monomials = sorted(graded_monomials(n, degree, order), key=Monomial.order_key, reverse=True)
        samples = [Polynomial({m: 1}) for m in monomials]
        samples.append(
            P(WRONSKIAN_2) if n == 1 else P("x1_0*x2_1 - x1_1*x2_0")
        )
        for _ in range(25):
            a, b = rng.choice(monomials), rng.choice(monomials)
            samples.append(
                Polynomial({a: rng.randint(-3, 3)})
                + Polynomial({b: rng.randint(-3, 3)})
            )
        hits = 0
        for p in samples:
            if p.is_zero:
                continue
            d2 = double_derivative_vanishes(p)
            killed = all(annihilates(g, p) for g in gens)
            assert d2 == killed
            hits += d2
        assert hits > 0  # the equivalence was exercised on both outcomes

    @given(x_only_polynomials)
    @example(P(WRONSKIAN_2))
    @example(P("x1_0^2"))
    @example(P("x1_1"))
    def test_equals_linearity_under_an_exponential_shift(self, p):
        # Taylor: p(x + E*v) = sum_k E^k/k! * D_v^k p is linear in E iff D_v^2 p = 0.
        assert double_derivative_vanishes(p) == linear_in_exponential_shift(p)


class TestCoefficientExtraction:
    @pytest.mark.parametrize(
        "p_text,n",
        [
            ("x1_0*x1_2 - x1_1^2", 1),
            ("x1_0^2*x1_1", 1),
            ("x1_0*x2_1 - 3*x2_0^2", 2),
        ],
    )
    def test_double_derivative_coefficients_are_generator_images(self, p_text, n):
        # coefficient of al_i*al_j*xi^l in the double derivative is
        # C * sum_s d^2 p / dx_i^(s) dx_j^(l-s), with C = 1 if i = j else 2
        p = P(p_text)
        dd = directional_derivative(directional_derivative(p))
        h = highest_order(p)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                for ell in range(2 * h + 1):
                    if i == j:
                        coeff = coefficient_of_power(dd, al(1, i), 2)
                        scale = 1
                    else:
                        coeff = coefficient_of_power(
                            coefficient_of_power(dd, al(1, i), 1), al(1, j), 1
                        )
                        scale = 2
                    coeff = coefficient_of_power(coeff, xi(1), ell)
                    expected = Polynomial.zero()
                    for s in range(ell + 1):
                        if s > h or ell - s > h:
                            continue
                        expected = expected + diff_wrt(diff_wrt(p, x(i, s)), x(j, ell - s))
                    assert coeff == scale * expected
