"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Every check is exact equality (of spans, dimensions, or polynomials); the
only tolerances are the stated wall-clock budgets.  Each test prints a
one-line PASS marker; run with ``pytest tests/test_acceptance.py -v -s`` to
see them inline.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from arcperp.arcgen import arc_generators_up_to
from arcperp.hankel import (
    dimension_chain,
    dimension_series,
    hankel_matrix,
    hankel_minor_intersection_span,
    iter_minors,
    scaled_matrix,
    truncated_perp_basis,
)
from arcperp.linalg import forward_echelon, nullspace, span_witness
from arcperp.pairing import (
    apply_pairing, double_derivative_vanishes, is_differentially_homogeneous,
)
from arcperp.perp import perp_graded_basis, restriction_mismatch
from arcperp.ring import Monomial, Polynomial, parse, x

from oracles import (
    annihilates, integral_row, restrict_above_oracle, vanishes_on_exponential_sums_oracle,
    wronskian,
)

P = parse
SEED = 441

def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_worked_example():
    start = time.perf_counter()
    expected = {
        0: ["1"],
        1: ["x1_0", "x1_1", "x1_2"],
        2: ["x1_0*x1_2 - x1_1^2"],
    }
    for degree, basis in expected.items():
        span = perp_graded_basis(1, degree, 2)
        assert [str(p) for p in span.basis_polynomials()] == basis
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"graded inverse system at n=1, order 2 reproduced ({elapsed:.3f}s)")


def test_criterion_2_dimension_formula():
    worst = 0.0
    for n in (1, 2, 3):
        for h in (0, 1, 2, 3):
            start = time.perf_counter()
            total = truncated_perp_basis(n, h).total_dimension
            elapsed = time.perf_counter() - start
            worst = max(worst, elapsed)
            assert total == (n + 1) ** (h + 1), (n, h, total)
    assert worst < 60.0
    _report(2, f"totals equal (n+1)^(h+1) on the 3x4 grid (worst case {worst:.2f}s)")


def test_criterion_3_poincare_series():
    start = time.perf_counter()
    for n in (1, 2):
        rows = dimension_series(n, (truncated_perp_basis(n, h) for h in range(4)))
        assert [r.dimension for r in rows] == [(n + 1) ** (h + 1) for h in range(4)]
        assert all(r.match for r in rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"series coefficients match the closed form for n=1,2 ({elapsed:.2f}s)")


def test_criterion_4_kernel_equals_minor_span():
    start = time.perf_counter()
    # d = 3 > J + 1 at J = 1: both sides are empty.
    for n, d, J in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3)):
        kernel = perp_graded_basis(n, d, J)
        assert span_witness(kernel, hankel_minor_intersection_span(n, d, J)) is None, (n, d, J)
        assert kernel.dimension == math.comb(max(n * (J - d + 2), 0), d), (n, d, J)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, f"kernel and minor spans agree on 27 instances ({elapsed:.2f}s)")


def test_criterion_5_minor_annihilation():
    start = time.perf_counter()
    minors_checked = 0
    for n in (1, 2):
        for h in range(4):
            for k in range(4):
                generators = arc_generators_up_to(n, 2 * (h + k))
                matrix = hankel_matrix(n, h, k)
                top = min(h, matrix.cols)
                for _, _, _, value in iter_minors(matrix, range(top + 1)):
                    if value.is_zero:
                        continue
                    minors_checked += 1
                    assert all(annihilates(g, value) for g in generators)
                    assert double_derivative_vanishes(value)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, f"{minors_checked} minors annihilated, double derivative zero ({elapsed:.2f}s)")


def test_criterion_6_elimination():
    start = time.perf_counter()
    for n, h in itertools.product((1, 2), (0, 1, 2)):
        assert restriction_mismatch(n, h, truncated_perp_basis(n, h)) is None, (n, h)
    witness = restrict_above_oracle(wronskian([P("x1_0"), P("x1_1")]), 1)
    assert witness == P("-x1_1^2")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"restrictions match triangular minors, witness -x'^2 ({elapsed:.2f}s)")


def test_criterion_7_dimension_chain():
    start = time.perf_counter()
    for n, h in itertools.product((1, 2), (0, 1, 2)):
        chain = dimension_chain(n, h, truncated_perp_basis(n, h))
        closed = (n + 1) ** (h + 1)
        assert (
            chain.triangular == chain.scaled == chain.scaled_augmented == closed
        ), (n, h)
        assert chain.equal and chain.bijection_lands_in_scaled
        maximal = 0
        for _, _, _, value in iter_minors(scaled_matrix(n + 1, h), [h + 1]):
            if value.is_zero:
                continue
            maximal += 1
            assert is_differentially_homogeneous(value, h + 1)
        assert maximal > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(7, f"triangular/scaled/augmented dimensions agree four ways ({elapsed:.2f}s)")


def test_criterion_8_exponential_vanishing():
    start = time.perf_counter()
    elements = 0
    for n in (1, 2):
        for d in (0, 1, 2):
            span = perp_graded_basis(n, d + 1, 3)
            for p in span.basis_polynomials():
                elements += 1
                assert vanishes_on_exponential_sums_oracle(p, d), (n, d, str(p))
    assert not vanishes_on_exponential_sums_oracle(P("x1_0^2"), 1)  # negative control
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(8, f"{elements} basis elements vanish on exponential sums ({elapsed:.2f}s)")


def _random_polynomial(rng: random.Random) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        pairs: dict = {}
        for _ in range(rng.randint(0, 3)):
            v = x(rng.randint(1, 2), rng.randint(0, 2))
            pairs[v] = pairs.get(v, 0) + 1
        m = Monomial(pairs.items())
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        terms[m] = terms.get(m, Fraction(0)) + coeff
    return Polynomial(terms)


def test_criterion_9_property_suites():
    rng = random.Random(SEED)
    rounds = 200

    for _ in range(rounds):  # ring axioms
        p, q, r = (_random_polynomial(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
    for _ in range(rounds):  # Leibniz rule
        p, q = _random_polynomial(rng), _random_polynomial(rng)
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()
    for _ in range(rounds):  # pairing composition
        f, g, p = (_random_polynomial(rng) for _ in range(3))
        assert apply_pairing(f * g, p) == apply_pairing(f, apply_pairing(g, p))
    for _ in range(rounds):  # Wronskian alternation
        fs = [_random_polynomial(rng) for _ in range(rng.randint(2, 3))]
        i = rng.randint(0, len(fs) - 2)
        swapped = list(fs)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert (wronskian(fs) + wronskian(swapped)).is_zero
        dup = fs + [fs[rng.randint(0, len(fs) - 1)]]
        assert wronskian(dup).is_zero
    for _ in range(rounds):  # rank-nullity
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        entries = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        sparse = [integral_row(row) for row in entries]
        kernel = nullspace(sparse, cols)
        assert len(forward_echelon(sparse)) + len(kernel) == cols
        for vec in kernel:
            assert all(sum(e * vec.get(j, 0) for j, e in enumerate(row)) == 0 for row in entries)
    _report(9, f"5 property suites x {rounds} seeded instances, zero failures")
