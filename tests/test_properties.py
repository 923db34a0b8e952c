"""Property-based checks of the algebra laws on randomized small instances."""

from fractions import Fraction

from hypothesis import given, strategies as st

from arcperp.linalg import forward_echelon, nullspace
from arcperp.pairing import apply_pairing
from arcperp.ring import Monomial, format_polynomial, parse, x

from oracles import (
    core_rref, derivative_oracle, integral_row, polynomial_from_terms, restrict_above_oracle,
    wronskian,
)

variables = st.builds(
    x, st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=2)
)

monomials = st.lists(variables, max_size=3).map(
    lambda vs: Monomial((v, vs.count(v)) for v in set(vs))
)

coefficients = st.builds(
    Fraction,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=3),
)

polynomials = st.lists(st.tuples(monomials, coefficients), max_size=4).map(
    polynomial_from_terms
)


@given(polynomials, polynomials, polynomials)
def test_add_associative(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polynomials, polynomials)
def test_add_commutative(p, q):
    assert p + q == q + p


@given(polynomials, polynomials, polynomials)
def test_mul_distributes(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polynomials, polynomials, polynomials)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polynomials, polynomials)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(polynomials)
def test_additive_inverse(p):
    assert (p + (-1) * p).is_zero


@given(polynomials, polynomials)
def test_leibniz_rule(p, q):
    assert derivative_oracle(p * q) == derivative_oracle(p) * q + p * derivative_oracle(q)


@given(polynomials, polynomials)
def test_derivation_additive(p, q):
    assert derivative_oracle(p + q) == derivative_oracle(p) + derivative_oracle(q)


@given(polynomials)
def test_parse_format_roundtrip(p):
    assert parse(format_polynomial(p)) == p


@given(polynomials, polynomials, st.integers(min_value=0, max_value=2))
def test_restrict_above_is_a_ring_map(p, q, h):
    restricted = restrict_above_oracle(p * q, h)
    assert restricted == restrict_above_oracle(p, h) * restrict_above_oracle(q, h)
    assert restrict_above_oracle(p + q, h) == restrict_above_oracle(p, h) + restrict_above_oracle(q, h)


@given(polynomials, st.integers(min_value=0, max_value=2))
def test_restrict_above_idempotent(p, h):
    once = restrict_above_oracle(p, h)
    assert restrict_above_oracle(once, h) == once


@given(polynomials, polynomials, polynomials)
def test_pairing_composition(f, g, p):
    assert apply_pairing(f * g, p) == apply_pairing(f, apply_pairing(g, p))


@given(polynomials, polynomials, polynomials)
def test_pairing_bilinear(f, g, p):
    assert apply_pairing(f + g, p) == apply_pairing(f, p) + apply_pairing(g, p)
    assert apply_pairing(f, g + p) == apply_pairing(f, g) + apply_pairing(f, p)


@given(st.lists(polynomials, min_size=2, max_size=3), st.data())
def test_wronskian_alternates(fs, data):
    i = data.draw(st.integers(min_value=0, max_value=len(fs) - 2))
    swapped = list(fs)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    assert (wronskian(fs) + wronskian(swapped)).is_zero


@given(st.lists(polynomials, min_size=1, max_size=3), st.data())
def test_wronskian_duplicate_vanishes(fs, data):
    i = data.draw(st.integers(min_value=0, max_value=len(fs) - 1))
    assert wronskian(fs + [fs[i]]).is_zero


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda cols: st.lists(
        st.lists(coefficients, min_size=cols, max_size=cols), min_size=1, max_size=5
    )
)


@given(matrices)
def test_rank_nullity(rows):
    cols = len(rows[0])
    sparse = [integral_row(row) for row in rows]
    kernel = nullspace(sparse, cols)
    assert len(forward_echelon(sparse)) + len(kernel) == cols
    for vec in kernel:
        assert all(sum(e * vec.get(j, 0) for j, e in enumerate(row)) == 0 for row in rows)


@given(matrices)
def test_row_reduce_idempotent_and_rank_consistent(rows):
    cols = len(rows[0])
    reduced = core_rref(rows, cols)
    assert core_rref(reduced, cols) == reduced
    assert len(reduced) == len(forward_echelon(integral_row(row) for row in rows))
