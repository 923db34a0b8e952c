import itertools
import math
import sys
from fractions import Fraction

import pytest

from arcperp import perp
from arcperp.arcgen import arc_generators_up_to
from arcperp.hankel import (
    hankel_minor_intersection_span,
    iter_minors,
    minor_span,
    scaled_matrix,
    triangular_matrix,
    truncated_perp_basis,
)
from arcperp.linalg import MonomialIndex, forward_echelon, span_witness
from arcperp.pairing import apply_pairing, is_differentially_homogeneous
from arcperp.perp import (
    _generator_images,
    perp_graded_basis,
    restriction_span,
)
from arcperp.ring import Monomial, Polynomial, differential_variables, parse, x

from oracles import (
    annihilates,
    graded_monomials,
    linear_in_exponential_shift,
    naive_determinant,
    naive_rref,
    pairing_oracle,
    restrict_above_oracle,
    span_of,
    substitute_oracle,
    vanishes_on_exponential_sums_oracle,
    weight_bounded_scan,
    wronskian,
)

P = parse
WRONSKIAN_2 = "x1_0*x1_2 - x1_1^2"


def restriction_agrees(n, h, truncated):
    """Does ``restriction_span(n, h, d)`` span the degree-d part of
    ``truncated``, the triangular minor span of T(n, h), at every d <= h+1?"""
    return all(
        span_witness(restriction_span(n, h, d), truncated.span(d)) is None for d in range(h + 2)
    )


def graded_basis(gs) -> list[str]:
    """The basis polynomials of every degree, degrees ascending."""
    return [str(p) for span in gs.spans.values() for p in span.basis_polynomials()]


class TestGeneratorImages:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_structural_image_matches_pairing(self, n):
        # every degree-d monomial of orders <= H for d, H <= 3, against every
        # generator up to t-power 7 (those above 2H = 6 must act as zero)
        monomials = {m for d in range(4) for h in range(4) for m in graded_monomials(n, d, h)}
        keys = [(i, j, order) for order in range(8) for i in range(1, n + 1) for j in range(i, n + 1)]
        generators = dict(zip(keys, arc_generators_up_to(n, 7), strict=True))
        index = MonomialIndex(differential_variables(n, 3), 4)
        for m in monomials:
            images: dict[tuple, Polynomial] = {}
            for (i, j), order, quotient, coeff in _generator_images(index, m.pairs, index._key(m)):
                term = Polynomial({index._monomial(quotient): coeff})
                images[(i, j, order)] = images.get((i, j, order), Polynomial.zero()) + term
            target = Polynomial({m: 1})
            for key, g in generators.items():
                image = images.get(key, Polynomial.zero())
                assert image == apply_pairing(g, target), (m, key)
                assert image == pairing_oracle(g, target), (m, key)


class TestPerpGradedBasis:
    def test_worked_example_degree_1(self):
        span = perp_graded_basis(1, 1, 2)
        assert [str(p) for p in span.basis_polynomials()] == ["x1_0", "x1_1", "x1_2"]

    def test_worked_example_degree_2(self):
        span = perp_graded_basis(1, 2, 2)
        assert [str(p) for p in span.basis_polynomials()] == [WRONSKIAN_2]

    def test_degree_2_order_0_empty(self):
        assert perp_graded_basis(1, 2, 0).dimension == 0

    def test_degree_3_needs_order_4(self):
        # the smallest degree-3 element is the order-3 Wronskian of x, x', x'',
        # whose top entry has order 4
        assert perp_graded_basis(1, 3, 3).dimension == 0
        span = perp_graded_basis(1, 3, 4)
        assert [str(p) for p in span.basis_polynomials()] == [
            str(wronskian([P("x1_0"), P("x1_1"), P("x1_2")]))
        ]

    def test_degree_zero_constants(self):
        span = perp_graded_basis(2, 0, 3)
        assert [str(p) for p in span.basis_polynomials()] == ["1"]

    def test_every_element_in_kernel_of_generators(self):
        from arcperp.arcgen import arc_generators_up_to

        span = perp_graded_basis(2, 2, 2)
        gens = arc_generators_up_to(2, 4)
        for p in span.basis_polynomials():
            assert all(annihilates(g, p) for g in gens)

    def test_nested_in_higher_order(self):
        low = perp_graded_basis(1, 2, 2)
        high = span_of(
            list(perp_graded_basis(1, 2, 3).basis_polynomials())
        )
        for p in low.basis_polynomials():
            assert high.contains(p)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            perp_graded_basis(0, 1, 1)
        with pytest.raises(ValueError):
            perp_graded_basis(1, -1, 1)

    @pytest.mark.parametrize("n,d,H", [(1, 2, 2), (1, 3, 4), (2, 2, 2)])
    def test_basis_elements_pass_pointwise_certificates(self, n, d, H):
        from arcperp.pairing import double_derivative_vanishes

        span = perp_graded_basis(n, d, H)
        assert span.dimension > 0
        for p in span.basis_polynomials():
            assert double_derivative_vanishes(p)
            assert linear_in_exponential_shift(p)
            assert vanishes_on_exponential_sums_oracle(p, d - 1)


class TestKernelCompleteness:
    """``perp_graded_basis`` is the whole nullspace of a dense matrix built by
    the textbook pairing, with one column per degree-d monomial of orders <= H
    and one row per coefficient of ``pairing_oracle(g, m)``, over every
    generator g up to t-power 2H.  Annihilation shows only that the kernel is
    not too large; a constraint row split in two, or keyed to the wrong
    quotient, can make it too small."""

    CASES = [
        (n, d, H)
        for n in (1, 2, 3) for d in range(5) for H in range(5)
        if math.comb(n * (H + 1) + d - 1, d) <= 300
    ]

    @staticmethod
    def _oracle_matrix(n, d, H):
        columns = graded_monomials(n, d, H)
        rows: dict[tuple, dict[int, Fraction]] = {}
        for g, generator in enumerate(arc_generators_up_to(n, 2 * H)):
            for c, m in enumerate(columns):
                image = pairing_oracle(generator, Polynomial({m: 1}))
                for q, coeff in image.terms.items():
                    rows.setdefault((g, q), {})[c] = coeff
        # Repeated rows change no rank; dropping them keeps the oracle small.
        dense = {tuple(row.get(c, 0) for c in range(len(columns))) for row in rows.values()}
        return columns, [list(row) for row in dense]

    @pytest.mark.parametrize("n,d,H", CASES)
    def test_equals_the_oracle_nullspace(self, n, d, H):
        columns, matrix = self._oracle_matrix(n, d, H)
        kernel = perp_graded_basis(n, d, H)
        reduced = naive_rref(matrix, len(columns))
        assert kernel.dimension == len(columns) - len(reduced)  # naive_rank, computed once
        pivots = [next(c for c, e in enumerate(row) if e) for row in reduced]
        nullspace = []
        for f in sorted(set(range(len(columns))) - set(pivots)):
            terms = {columns[f]: Fraction(1)}
            terms.update((columns[p], -row[f]) for row, p in zip(reduced, pivots) if row[f])
            nullspace.append(Polynomial(terms))
        assert span_witness(kernel, span_of(nullspace)) is None


class TestTruncatedPerp:
    def test_n1_h1(self):
        gs = truncated_perp_basis(1, 1)
        assert gs.total_dimension == 4
        assert graded_basis(gs) == ["1", "x1_0", "x1_1", "x1_1^2"]

    def test_n1_h2_total(self):
        assert truncated_perp_basis(1, 2).total_dimension == 8

    def test_n2_h0(self):
        gs = truncated_perp_basis(2, 0)
        assert gs.total_dimension == 3
        assert graded_basis(gs) == ["1", "x1_0", "x2_0"]


def _restricted_kernel(n, h, degree, max_order):
    """Span of the order->h restrictions of ``perp_graded_basis`` at order H."""
    basis = perp_graded_basis(n, degree, max_order).basis_polynomials()
    return span_of(
        [restrict_above_oracle(p, h) for p in basis],
        MonomialIndex(differential_variables(n, h), degree + 1),
    )


class TestRestriction:
    def test_wronskian_restricts_to_square(self):
        span = restriction_span(1, 1, 2)
        assert [str(p) for p in span.basis_polynomials()] == ["x1_1^2"]

    def test_low_order_kernel_is_empty(self):
        assert perp_graded_basis(1, 2, 1).dimension == 0

    def test_linear_restriction(self):
        span = restriction_span(1, 0, 1)
        assert [str(p) for p in span.basis_polynomials()] == ["x1_0"]

    @pytest.mark.parametrize(
        "n,h,d", [(n, h, d) for n in (1, 2) for h in (0, 1, 2) for d in range(h + 2)]
    )
    def test_weight_bound_is_exact(self, n, h, d):
        # Restricting the order-H kernel gives the same span at H = d*h and
        # at H = d*h + 1: the blocks of weight above d*h add nothing.
        exact = restriction_span(n, h, d)
        for order in (d * h, d * h + 1):
            assert span_witness(_restricted_kernel(n, h, d, order), exact) is None

    @pytest.mark.parametrize("n,h,d", [(1, 1, 1), (1, 1, 2)])
    def test_weight_bound_is_needed(self, n, h, d):
        # One order below d*h loses the top weight block.
        short = _restricted_kernel(n, h, d, d * h - 1)
        assert short.dimension < restriction_span(n, h, d).dimension

    @pytest.mark.parametrize("n", [1, 2])
    def test_certified_at_h3(self, n):
        # The battery trims the restriction check to h <= 2.
        assert restriction_agrees(n, 3, truncated_perp_basis(n, 3))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            restriction_span(1, -1, 1)
        with pytest.raises(ValueError):
            restriction_span(0, 1, 1)


class TestWeightBlocks:
    """Every block the kernel side hands to ``_weight_block_kernel`` holds
    exactly the oracle's monomials of one weight, blocks in ascending weight."""

    @staticmethod
    def _recorded_blocks(monkeypatch):
        blocks = []

        def record(index, block):
            blocks.append([index._monomial(key) for _, key in block])
            return []

        monkeypatch.setattr(perp, "_weight_block_kernel", record)
        return blocks

    @staticmethod
    def _oracle_blocks(n, degree, max_order, max_weight):
        by_weight = {}
        for m in graded_monomials(n, degree, max_order):
            w = sum(v.j * e for v, e in m.pairs)
            if w <= max_weight:
                by_weight.setdefault(w, []).append(m)
        return [sorted(by_weight[w], key=Monomial.order_key) for w in sorted(by_weight)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_perp_graded_basis_blocks(self, monkeypatch, n):
        blocks = self._recorded_blocks(monkeypatch)
        for degree in range(5):
            for order in range(5):
                blocks.clear()
                perp_graded_basis(n, degree, order)
                got = [sorted(b, key=Monomial.order_key) for b in blocks]
                assert got == self._oracle_blocks(n, degree, order, degree * order)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernel_vectors_lead_at_their_free_columns(self, n):
        # A block's columns descend by key, so each integer kernel vector's
        # least key is its free column's, and the forward echelon keeps them all.
        for degree in range(5):
            for order in range(5):
                _, vectors = perp._kernel_up_to_weight(n, degree, order, degree * order)
                assert all(type(e) is int for v in vectors for e in v.values())
                kept = forward_echelon(vectors)
                assert len(kept) == len(vectors) and all(kept[min(v)] is v for v in vectors)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_restriction_span_blocks(self, monkeypatch, n):
        # Orders up to d*h are scanned, but only weights up to d*h are kept.
        blocks = self._recorded_blocks(monkeypatch)
        for degree in range(5):
            for h in range(5):
                if degree * h > 4:
                    continue
                blocks.clear()
                restriction_span(n, h, degree)
                got = [sorted(b, key=Monomial.order_key) for b in blocks]
                assert got == self._oracle_blocks(n, degree, degree * h, degree * h)


class TestBoundedWeightMonomials:
    """The direct enumeration yields the full scan's kept monomials, with
    their weights, in the scan's order."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_as_the_full_scan(self, n):
        for degree in range(5):
            for order in range(6):
                for max_weight in range(degree * order + 1):
                    index, found = perp._monomials_up_to_weight(n, degree, order, max_weight)
                    got = [(w, index._monomial(key)) for w, _, key in found]
                    assert got == weight_bounded_scan(n, degree, order, max_weight)
                    assert all(m.degree == degree for _, m in got)
                    assert [pairs for _, pairs, _ in found] == [m.pairs for _, m in got]


    @pytest.mark.parametrize("degree", [50, 200])
    def test_walk_makes_one_call_per_prefix(self, degree):
        # Two variables of order 0: the monomials x1_0^e * x2_0^(degree-e)
        # have the prefixes (), each x1_0^e, and each full monomial, so the
        # walk makes 1 + degree + degree calls, not one per exponent tried.
        walk = next(c for c in perp._monomials_up_to_weight.__code__.co_consts
                    if getattr(c, "co_name", None) == "walk")
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code is walk

        sys.setprofile(profile)
        try:
            _, found = perp._monomials_up_to_weight(2, degree, 0, 0)
        finally:
            sys.setprofile(None)
        assert len(found) == degree + 1
        assert calls == 2 * degree + 1


class TestMonomialLimit:
    """The kernel side counts its monomials exactly, with
    ``check_monomial_count``, before it lists a variable, and refuses an
    enumeration past ``MONOMIAL_LIMIT``."""

    def test_refused_past_the_limit(self, monkeypatch):
        count = len(perp._monomials_up_to_weight(2, 3, 3, 9)[1])
        monkeypatch.setattr(perp, "MONOMIAL_LIMIT", count)
        assert perp_graded_basis(2, 3, 3).dimension == math.comb(2 * 2, 3)
        monkeypatch.setattr(perp, "MONOMIAL_LIMIT", count - 1)
        with pytest.raises(ValueError, match=f"^over {count - 1} monomials of degree 3, orders <= 3 "):
            perp_graded_basis(2, 3, 3)
        with pytest.raises(ValueError, match="exceed the limit"):
            restriction_span(2, 3, 3)  # weight <= 9 at orders <= 9: more monomials

    @pytest.mark.parametrize("n,degree,order", [(2, 3, 3), (1, 4, 2), (3, 2, 1), (2, 0, 3)])
    def test_count_refuses_as_the_enumeration(self, monkeypatch, n, degree, order):
        # The weight bound d*H never binds: every degree-d monomial is listed.
        count = len(perp._monomials_up_to_weight(n, degree, order, degree * order)[1])
        assert count == math.comb(n * (order + 1) + degree - 1, degree)
        monkeypatch.setattr(perp, "MONOMIAL_LIMIT", count)
        perp.check_monomial_count(n, degree, order, degree * order)
        monkeypatch.setattr(perp, "MONOMIAL_LIMIT", count - 1)
        with pytest.raises(ValueError) as counted:
            perp.check_monomial_count(n, degree, order, degree * order)
        with pytest.raises(ValueError) as enumerated:
            perp_graded_basis(n, degree, order)
        assert str(counted.value) == str(enumerated.value)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("degree", range(5))
    def test_count_is_exact(self, monkeypatch, n, degree):
        # Every weight bound from 0 to d*H+1: the binomial where the bound
        # cannot bind, the count by (degree, weight) where it can.
        for order in range(5):
            for weight in range(degree * order + 2):
                count = len(perp._monomials_up_to_weight(n, degree, order, weight)[1])
                monkeypatch.setattr(perp, "MONOMIAL_LIMIT", count)
                perp.check_monomial_count(n, degree, order, weight)
                monkeypatch.setattr(perp, "MONOMIAL_LIMIT", count - 1)
                with pytest.raises(ValueError, match="exceed the limit"):
                    perp.check_monomial_count(n, degree, order, weight)
                monkeypatch.undo()  # list the next one under the real limit

    def test_refused_before_any_index(self, monkeypatch):
        def counted(*args):
            raise ValueError("counted")

        def indexed(*args):
            raise AssertionError("index built")

        monkeypatch.setattr(perp, "check_monomial_count", counted)
        monkeypatch.setattr(perp, "MonomialIndex", indexed)
        for build in (perp_graded_basis, restriction_span):
            with pytest.raises(ValueError, match="^counted$"):
                build(2, 2, 2)


class TestSpanEquality:
    # The kernel is the span of the Wronskians of d distinct variables of
    # orders <= J-d+1, of dimension C(n(J-d+2), d); empty when d > J+1.
    @pytest.mark.parametrize(
        "n,d,J", [(1, 2, 3), (1, 1, 2), (2, 2, 2), (3, 2, 2), (3, 3, 2), (2, 3, 1), (3, 2, 0)]
    )
    def test_examples(self, n, d, J):
        kernel = perp_graded_basis(n, d, J)
        assert span_witness(kernel, hankel_minor_intersection_span(n, d, J)) is None
        assert kernel.dimension == math.comb(max(n * (J - d + 2), 0), d)

    @pytest.mark.parametrize("n,d,J", [(1, 2, 4), (2, 1, 4), (3, 1, 4), (1, 4, 2)])
    def test_higher_order_samples(self, n, d, J):
        kernel = perp_graded_basis(n, d, J)
        assert span_witness(kernel, hankel_minor_intersection_span(n, d, J)) is None
        assert kernel.dimension == math.comb(max(n * (J - d + 2), 0), d)

    def test_equal_and_contained_over_different_indexes(self):
        # The kernel side keys its rows by its own support, the minor side by
        # its packed matrix; a span over a wider index keys every monomial
        # differently.  Equality and containment read polynomials alone.
        kernel = perp_graded_basis(2, 2, 2)
        minors = hankel_minor_intersection_span(2, 2, 2)
        wide = span_of(
            kernel.basis_polynomials(), MonomialIndex(differential_variables(3, 3), 4)
        )
        assert wide.index.top != minors.index.top
        for a, b in [(kernel, minors), (minors, wide), (wide, kernel)]:
            assert span_witness(a, b) is None and span_witness(b, a) is None
            assert all(b.contains(p) for p in a.basis_polynomials())
            assert all(a.contains(p) for p in b.basis_polynomials())

    def test_degree_one_is_all_linear_forms(self):
        side = hankel_minor_intersection_span(1, 1, 2)
        assert [str(p) for p in side.basis_polynomials()] == ["x1_0", "x1_1", "x1_2"]

    def test_degree_zero_is_constants(self):
        side = hankel_minor_intersection_span(1, 0, 2)
        assert [str(p) for p in side.basis_polynomials()] == ["1"]

    def test_intersection_really_cuts(self):
        # The order <= 2 cut leaves one Wronskian, W(x1_0, x1_1), the single
        # maximal minor of hankel_matrix(1, 2, 1); the next one,
        # W(x1_0, x1_2) = x1_0*x1_3 - x1_1*x1_2, already reaches order 3.
        side = hankel_minor_intersection_span(1, 2, 2)
        assert [str(p) for p in side.basis_polynomials()] == [WRONSKIAN_2]


class TestElimination:
    def test_n1_h1_with_witness(self):
        assert restriction_agrees(1, 1, truncated_perp_basis(1, 1))
        assert restrict_above_oracle(wronskian([P("x1_0"), P("x1_1")]), 1) == P("-x1_1^2")

    def test_n1_h0(self):
        assert restriction_agrees(1, 0, truncated_perp_basis(1, 0))

    def test_n2_h1_total(self):
        truncated = truncated_perp_basis(2, 1)
        assert restriction_agrees(2, 1, truncated)
        assert truncated.total_dimension == 9


class TestExponentialVanishing:
    """The exponential-sum oracle on values known by hand; test_reports
    checks that the battery's degree condition and double derivative decide
    it on the kernel bases."""

    def test_wronskian_one_exponential(self):
        assert vanishes_on_exponential_sums_oracle(P(WRONSKIAN_2), 1)

    def test_square_fails(self):
        assert not vanishes_on_exponential_sums_oracle(P("x1_0^2"), 1)

    def test_order_three_wronskian_two_exponentials(self):
        w3 = wronskian([P("x1_0"), P("x1_1"), P("x1_2")])
        assert vanishes_on_exponential_sums_oracle(w3, 2)

    def test_two_families(self):
        w = wronskian([P("x1_0"), P("x2_0")])
        assert vanishes_on_exponential_sums_oracle(w, 1)


class TestLinearShift:
    """The exponential-shift oracle on values known by hand; test_pairing
    checks that it agrees with ``double_derivative_vanishes``."""

    def test_wronskian_is_linear(self):
        assert linear_in_exponential_shift(P(WRONSKIAN_2))

    def test_square_is_not(self):
        assert not linear_in_exponential_shift(P("x1_0^2"))

    def test_degree_one_is_linear(self):
        assert linear_in_exponential_shift(P("x1_1"))


class TestDifferentialHomogeneity:
    def test_variable(self):
        assert is_differentially_homogeneous(P("x1_0"), 1)

    def test_first_derivative_is_not(self):
        # x' goes to y'x + yx', which is not y*x'
        assert not is_differentially_homogeneous(P("x1_1"), 1)

    def test_scaled_maximal_minors(self):
        for _, _, _, value in iter_minors(scaled_matrix(2, 1), [2]):
            if not value.is_zero:
                assert is_differentially_homogeneous(value, 2)

    def test_wrong_degree_fails(self):
        assert not is_differentially_homogeneous(P("x1_0"), 2)


class TestTriangularToScaledMap:
    """phi: x_i^(j) -> x_i^(h-j)/(h-j)!, the substitution that carries T(n, h)
    to S(n, h) entry by entry, applied by ``substitute_oracle``."""

    @staticmethod
    def _substitution(p, h):
        """x_i^(j) -> x_i^(h-j)/(h-j)! for every differential variable of p."""
        return {
            v: Polynomial({Monomial.of(x(v.i, h - v.j)): Fraction(1, math.factorial(h - v.j))})
            for m in p.terms for v, _ in m.pairs if v.kind == "x"
        }

    @pytest.mark.parametrize("n,h", [(2, 3), (3, 3), (1, 6)])
    def test_rename_matches_substitution_on_the_triangular_basis(self, n, h):
        basis = {d: span.basis_polynomials() for d, span in truncated_perp_basis(n, h).spans.items()}
        assert sum(map(len, basis.values())) == (n + 1) ** (h + 1)
        scaled = minor_span(scaled_matrix(n, h), range(h + 2))
        for d, ps in basis.items():
            for p in ps:
                image = substitute_oracle(p, self._substitution(p, h))
                assert len(image.terms) == len(p.terms)
                assert scaled.span(d).contains(image), str(p)

    @pytest.mark.parametrize("n,h", [(1, 2), (2, 2)])
    def test_substitution_carries_each_triangular_minor_to_the_scaled_one(self, n, h):
        # The proof behind the chain: phi is a ring homomorphism with
        # phi(T) = S entrywise, so it carries each minor to its counterpart.
        t, s = triangular_matrix(n, h).entries, scaled_matrix(n, h).entries
        minors = 0
        for size in range(h + 2):
            for rows in itertools.combinations(range(h + 1), size):
                for cols in itertools.combinations(range(n * (h + 1)), size):
                    tri = naive_determinant([[t[r][c] for c in cols] for r in rows])
                    sca = naive_determinant([[s[r][c] for c in cols] for r in rows])
                    assert substitute_oracle(tri, self._substitution(tri, h)) == sca, (rows, cols)
                    minors += 1
        assert minors == sum(
            math.comb(h + 1, k) * math.comb(n * (h + 1), k) for k in range(h + 2)
        )
