import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from arcperp import hankel, pairing, perp, reports
from arcperp.arcgen import arc_generators_up_to
from arcperp.hankel import (
    GradedSpan, dimension_chain, dimension_series, hankel_matrix, iter_minors,
    scaled_matrix, triangular_matrix, truncated_perp_basis,
)
from arcperp.linalg import MonomialIndex
from arcperp.pairing import (
    apply_pairing, double_derivative_vanishes, is_differentially_homogeneous,
)
from arcperp.perp import perp_graded_basis
from arcperp.reports import run_verification
from arcperp.ring import (
    Monomial, Polynomial, al, differential_variables, format_polynomial, parse, x, xi, y,
)

from oracles import (
    graded_monomials, span_of, spans_by_degree, vanishes_on_exponential_sums_oracle,
)


def _series(n, h_max):
    return dimension_series(n, (truncated_perp_basis(n, h) for h in range(h_max + 1)))


def _chain(n, h):
    return dimension_chain(n, h, truncated_perp_basis(n, h))


class TestDimensionSeries:
    def test_n1(self):
        rows = _series(1, 3)
        assert [r.dimension for r in rows] == [2, 4, 8, 16]
        assert all(r.match for r in rows)

    def test_n2(self):
        rows = _series(2, 2)
        assert [r.dimension for r in rows] == [3, 9, 27]
        assert all(r.match for r in rows)

    def test_h_max_zero(self):
        rows = _series(1, 0)
        assert [r.dimension for r in rows] == [2]

    def test_closed_form_column(self):
        rows = _series(3, 1)
        assert [(r.h, r.closed_form) for r in rows] == [(0, 4), (1, 16)]

    def test_totals_are_sums_of_graded_dimensions(self):
        for n, h in [(1, 2), (2, 1)]:
            graded = truncated_perp_basis(n, h).graded_dimensions
            row = _series(n, h)[-1]
            assert row.dimension == sum(graded.values())


class TestDimensionChain:
    def test_n1_h1(self):
        chain = _chain(1, 1)
        assert (chain.triangular, chain.scaled, chain.scaled_augmented) == (4, 4, 4)
        assert chain.equal
        assert chain.bijection_lands_in_scaled

    def test_n1_h2(self):
        chain = _chain(1, 2)
        assert (chain.triangular, chain.scaled, chain.scaled_augmented) == (8, 8, 8)
        assert chain.equal

    def test_n2_h0(self):
        chain = _chain(2, 0)
        assert (chain.triangular, chain.scaled, chain.scaled_augmented) == (3, 3, 3)
        assert chain.equal

    def test_n3_h3(self):
        chain = _chain(3, 3)
        assert (chain.triangular, chain.scaled, chain.scaled_augmented) == (256, 256, 256)
        assert chain.equal
        assert chain.bijection_lands_in_scaled
        assert chain.witness is None


class TestRunVerification:
    def test_n1_h2_all_pass(self):
        report = run_verification(1, 2)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "kernel_equals_hankel_minor_span" in names
        assert "restriction_matches_truncated_minors" in names
        series_check = next(
            c for c in report.checks if c.name == "dimension_series_matches_closed_form"
        )
        assert series_check.dimensions["2"] == 8

    def test_n2_h1_all_pass(self):
        report = run_verification(2, 1)
        assert report.passed
        elim = next(
            c for c in report.checks if c.name == "restriction_matches_truncated_minors"
        )
        assert elim.dimensions["total"] == 9

    def test_n1_h0(self):
        report = run_verification(1, 0)
        assert report.passed
        series_check = next(
            c for c in report.checks if c.name == "dimension_series_matches_closed_form"
        )
        assert series_check.dimensions == {"0": 2}

    def test_deterministic_without_timings(self):
        a = run_verification(1, 1, seed=5).to_dict(include_timings=False)
        b = run_verification(1, 1, seed=5).to_dict(include_timings=False)
        assert a == b
        assert json.dumps(a) == json.dumps(b)

    def test_json_round_trip(self):
        report = run_verification(1, 1)
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["passed"] is True
        assert parsed["version"] == report.version
        assert all("elapsed_ms" in c for c in parsed["checks"])

    def test_seed_changes_only_sampling_instance(self):
        a = run_verification(1, 1, seed=1).to_dict(include_timings=False)
        b = run_verification(1, 1, seed=2).to_dict(include_timings=False)
        a_names = [c["name"] for c in a["checks"]]
        b_names = [c["name"] for c in b["checks"]]
        assert a_names == b_names
        assert a["passed"] and b["passed"]

    def test_deep_series_counted_before_any_check(self, monkeypatch):
        # The deep series reaches T(4, 6), over the minor limit, while
        # S(5, 3) is under it; both are counted before the first check.
        def build(*args):
            pytest.fail("the battery built something before counting the series")

        monkeypatch.setattr(reports, "perp_graded_basis", build)
        monkeypatch.setattr(reports, "arc_generators_up_to", build)
        with pytest.raises(ValueError, match="^1,683,218 minors of a 7x28 matrix exceed "):
            run_verification(4, 3, deep=True)

    def test_kernel_enumeration_counted_before_any_check(self, monkeypatch):
        # At (28, 2) the generators and the Hankel minors are under their
        # limits, and the degree-3 kernel monomials of the third check,
        # C(86, 3) = 102,340 of them, are over.
        def build(*args):
            pytest.fail("the battery built something before counting its enumerations")

        monkeypatch.setattr(reports, "arc_generators_up_to", build)
        monkeypatch.setattr(reports, "minor_span", build)
        monkeypatch.setattr(reports, "perp_graded_basis", build)
        with pytest.raises(ValueError) as refused:
            run_verification(28, 2)
        assert str(refused.value) == (
            f"over {perp.MONOMIAL_LIMIT:,} monomials of degree 3, orders <= 2 and weight <= 6"
            f" exceed the limit of {perp.MONOMIAL_LIMIT:,} monomials per enumeration"
        )


    def test_restriction_enumeration_counted_before_any_check(self, monkeypatch):
        # At (2, 2) the kernel check lists 1, 6, 21 and 56 monomials and the
        # restriction 1, 6, 33 and 146: only the restriction's degree 3,
        # at orders and weight <= 6, passes a limit of 100.
        def build(*args):
            pytest.fail("the battery built something before counting its enumerations")

        monkeypatch.setattr(perp, "MONOMIAL_LIMIT", 100)
        for name in ("arc_generators_up_to", "minor_span", "perp_graded_basis", "restriction_span"):
            monkeypatch.setattr(reports, name, build)
        with pytest.raises(ValueError) as refused:
            run_verification(2, 2)
        assert str(refused.value) == (
            "over 100 monomials of degree 3, orders <= 6 and weight <= 6"
            " exceed the limit of 100 monomials per enumeration"
        )

    @pytest.mark.parametrize("n,h,deep,top", [(2, 2, False, 8), (1, 0, True, 2), (3, 3, False, 12)])
    def test_generators_listed_once_at_the_counted_t_power(self, monkeypatch, n, h, deep, top):
        # The annihilation check and the sampled check read one listing.
        counted, listed = [], []
        real_count, real_list = reports.check_product_count, reports.arc_generators_up_to

        def counting(*args):
            counted.append(args)
            return real_count(*args)

        def listing(*args):
            listed.append(args)
            return real_list(*args)

        monkeypatch.setattr(reports, "check_product_count", counting)
        monkeypatch.setattr(reports, "arc_generators_up_to", listing)
        assert run_verification(n, h, deep=deep).passed
        assert counted == listed == [(n, top)]


def _failed(report):
    return [c for c in report.checks if not c.passed]


def _drop_from_truncated(monkeypatch, order):
    """Make ``reports.truncated_perp_basis``, the one place the battery gets
    its triangular spans, lose the first basis element of the top degree at
    ``order``; returns the dropped list."""
    real = reports.truncated_perp_basis
    dropped = []

    def lossy(n, h):
        graded = real(n, h)
        if h != order:
            return graded
        spans = dict(graded.spans)
        top = max(spans)
        basis = spans[top].basis_polynomials()
        dropped.append(basis[0])
        spans[top] = span_of(basis[1:], spans[top].index)
        return GradedSpan(spans, graded.nonzero_minors)

    monkeypatch.setattr(reports, "truncated_perp_basis", lossy)
    return dropped


def _drop_top_element(monkeypatch, matrix):
    """Make ``hankel.minor_span``, which the dimension chain calls, lose the
    first basis element of the top degree when it spans the minors of
    ``matrix``; returns the dropped list."""
    real = hankel.minor_span
    dropped = []

    def lossy(m, sizes):
        graded = real(m, sizes)
        if m != matrix:
            return graded
        spans = dict(graded.spans)
        top = max(spans)
        basis = spans[top].basis_polynomials()
        dropped.append(basis[0])
        spans[top] = span_of(basis[1:], spans[top].index)
        return GradedSpan(spans, graded.nonzero_minors)

    monkeypatch.setattr(hankel, "minor_span", lossy)
    return dropped


class TestNegativeControls:
    """Each span cross-check, and the dimension chain, fails naming a witness
    when one side loses a basis element; every other check still passes."""

    def test_minor_side_missing_an_element(self, monkeypatch):
        real = reports.hankel_minor_intersection_span
        dropped = []

        def lossy(n, degree, max_order):
            span = real(n, degree, max_order)
            if degree != 1:
                return span
            basis = span.basis_polynomials()
            dropped.append(basis[0])
            return span_of(basis[1:], span.index)

        monkeypatch.setattr(reports, "hankel_minor_intersection_span", lossy)
        report = run_verification(1, 1)
        (check,) = _failed(report)
        assert check.name == "kernel_equals_hankel_minor_span"
        assert check.witness == f"degree 1: {format_polynomial(dropped[0])}"

    @pytest.mark.parametrize(
        "shift,n,h,witness",
        [(1, 1, 1, "x1_2"), (-1, 1, 1, "x1_1"), (1, 2, 2, "x1_3"), (-1, 2, 2, "x1_2")],
    )
    def test_minor_side_off_by_one_order_cut(self, monkeypatch, shift, n, h, witness):
        # One Hankel offset too many brings in a Wronskian of order H+1, one
        # too few loses those reaching order H; at degree 1 the Wronskians
        # are the variables themselves.
        real = hankel.hankel_matrix
        monkeypatch.setattr(hankel, "hankel_matrix", lambda n, rows, k: real(n, rows, k + shift))
        report = run_verification(n, h)
        (check,) = _failed(report)
        assert check.name == "kernel_equals_hankel_minor_span"
        assert check.witness == f"degree 1: {witness}"

    def test_truncated_side_missing_an_element(self, monkeypatch):
        # At h = 3 the restriction is trimmed to order 2, and the chain reads
        # order 3 only.
        dropped = _drop_from_truncated(monkeypatch, 2)
        report = run_verification(1, 3)
        failed = {c.name: c.witness for c in _failed(report)}
        assert failed == {
            "restriction_matches_truncated_minors": f"degree 3: {format_polynomial(dropped[0])}",
            "dimension_series_matches_closed_form": "h=2: 7 != 8",
        }
        assert format_polynomial(dropped[0]) == "x1_2^3"

    def test_every_reader_of_one_order_fails(self, monkeypatch):
        # The restriction, the chain and the series all read order 1 at h = 1.
        dropped = _drop_from_truncated(monkeypatch, 1)
        report = run_verification(1, 1)
        failed = {c.name: c.witness for c in _failed(report)}
        assert failed == {
            "restriction_matches_truncated_minors": f"degree 2: {format_polynomial(dropped[0])}",
            "triangular_scaled_dimension_chain": "triangular: 3 != 4",
            "dimension_series_matches_closed_form": "h=1: 3 != 4",
        }
        assert format_polynomial(dropped[0]) == "x1_1^2"
        elim = next(c for c in report.checks if c.name == "restriction_matches_truncated_minors")
        assert elim.dimensions == {"h": 1, "total": 3}

    def test_scaled_side_missing_an_element(self, monkeypatch):
        # Losing a span element leaves phi(T) = S entry by entry: only the
        # scaled dimension is off.
        _drop_top_element(monkeypatch, scaled_matrix(1, 1))
        report = run_verification(1, 1)
        (check,) = _failed(report)
        assert check.name == "triangular_scaled_dimension_chain"
        assert check.dimensions == {
            "triangular": 4,
            "scaled": 3,
            "scaled_augmented": 4,
            "equal": False,
            "bijection_lands_in_scaled": True,
        }
        assert check.witness == "scaled: 3 != 4"

    def test_triangular_side_missing_an_element(self, monkeypatch):
        # Order 3 is read by the chain and the last row of the series; the
        # restriction, trimmed to order 2, reads only its total.
        _drop_from_truncated(monkeypatch, 3)
        report = run_verification(1, 3)
        failed = {c.name: c for c in _failed(report)}
        assert {name: c.witness for name, c in failed.items()} == {
            "triangular_scaled_dimension_chain": "triangular: 15 != 16",
            "dimension_series_matches_closed_form": "h=3: 15 != 16",
        }
        assert failed["triangular_scaled_dimension_chain"].dimensions["bijection_lands_in_scaled"]
        elim = next(c for c in report.checks if c.name == "restriction_matches_truncated_minors")
        assert elim.dimensions == {"h": 2, "total": 15}


def _corrupt_one_minor(monkeypatch, matrix, stray):
    """Make ``reports.minor_span``, the one minor enumeration the battery
    reads, return for ``matrix`` the span of its minors with ``stray`` added
    to the first nonzero one; returns the list that receives that minor."""
    real = reports.minor_span
    corrupted = []

    def lossy(m, sizes):
        if m != matrix:
            return real(m, sizes)
        values = [value for _, _, _, value in iter_minors(m, sizes) if not value.is_zero]
        values[0] += parse(stray)
        corrupted.append(values[0])
        return GradedSpan(spans_by_degree(values), len(values))

    monkeypatch.setattr(reports, "minor_span", lossy)
    return corrupted


class TestMinorFedNegativeControls:
    """The checks fed by minors, and the series, fail naming a witness when
    one minor or one basis element is corrupted."""

    def test_hankel_minor_with_a_stray_term(self, monkeypatch):
        corrupted = _corrupt_one_minor(monkeypatch, hankel_matrix(1, 1, 1), "x1_0^2")
        report = run_verification(1, 1)
        # Both Hankel checks read the same minors, and x1_0^2 fails both.
        failed = {c.name: c.witness for c in _failed(report)}
        assert failed == {
            "hankel_minors_annihilated_by_generators": format_polynomial(corrupted[0]),
            "hankel_minors_double_derivative_vanishes": format_polynomial(corrupted[0]),
        }
        assert format_polynomial(corrupted[0]) == "x1_0^2 + 1"  # the size-0 minor

    def test_scaled_maximal_minor_with_a_stray_term(self, monkeypatch):
        corrupted = _corrupt_one_minor(monkeypatch, scaled_matrix(2, 1), "x1_1^2")
        report = run_verification(1, 1)
        (check,) = _failed(report)
        assert check.name == "scaled_maximal_minors_differentially_homogeneous"
        assert check.witness == format_polynomial(corrupted[0]) == "x1_0^2 + x1_1^2"
        assert check.dimensions == {"maximal_minors": 5}

    def test_scaled_maximal_minor_failing_the_degree_alone(self, monkeypatch):
        corrupted = _corrupt_one_minor(monkeypatch, scaled_matrix(2, 1), "x1_0")
        report = run_verification(1, 1)
        (check,) = _failed(report)
        assert check.name == "scaled_maximal_minors_differentially_homogeneous"
        assert check.witness == format_polynomial(corrupted[0]) == "x1_0^2 + x1_0"
        assert check.dimensions == {"maximal_minors": 5}
        # Each degree part passes on its own: every D_k kills both, and only
        # the degree condition sees their sum.
        stray = parse("x1_0")
        assert is_differentially_homogeneous(corrupted[0] + (-1) * stray, 2)
        assert is_differentially_homogeneous(stray, 1)

    def test_hankel_minor_seen_only_by_a_cross_family_generator(self, monkeypatch):
        corrupted = _corrupt_one_minor(monkeypatch, hankel_matrix(2, 1, 1), "x1_0*x2_0")
        report = run_verification(2, 1)
        failed = {c.name: c.witness for c in _failed(report)}
        assert failed == {
            "hankel_minors_annihilated_by_generators": format_polynomial(corrupted[0]),
            "hankel_minors_double_derivative_vanishes": format_polynomial(corrupted[0]),
        }
        assert format_polynomial(corrupted[0]) == "x1_0*x2_0 + 1"  # the size-0 minor
        # Of the generators the check reads, only g_{12,0} = x1_0*x2_0 sees it.
        generators = arc_generators_up_to(2, 4)
        assert [g for g in generators if not apply_pairing(g, corrupted[0]).is_zero] == [
            parse("x1_0*x2_0")
        ]

    @pytest.mark.parametrize("stray", ["x1_0", "xi1*x1_0", "xi1*x1_0*x1_1", "x1_0^3", "2"])
    def test_generator_that_is_not_a_quadratic_form_is_rejected(self, monkeypatch, stray):
        # The annihilation check reads generators from second partials only,
        # so a term of any other shape is invalid input, not a second route.
        def padded(n, max_order):
            first, *rest = arc_generators_up_to(n, max_order)
            return [first + parse(stray), *rest]

        monkeypatch.setattr(reports, "arc_generators_up_to", padded)
        with pytest.raises(ValueError, match="not a quadratic form in the differential variables"):
            run_verification(1, 1)

    def test_series_missing_a_basis_element(self, monkeypatch):
        # At h = 2 only the series reads order 1.
        _drop_from_truncated(monkeypatch, 1)
        report = run_verification(1, 2)
        (check,) = _failed(report)
        assert check.name == "dimension_series_matches_closed_form"
        assert check.witness == "h=1: 3 != 4"
        assert check.dimensions == {"0": 2, "1": 3, "2": 8}

    def test_series_with_a_reduced_minor_perturbed(self, monkeypatch):
        # At h = 2 only the series reads order 1.  Of the five nonzero 2x2
        # top-row minors of T(2, 1), the forward echelon reduces one to zero,
        # -x1_1*x2_1; its coefficient at x1_0*x2_1, a monomial of the degree
        # that leads no kept row, goes from 0 to 1.
        real_echelon, real_basis = hankel.forward_echelon, reports.truncated_perp_basis
        perturbed = []

        def perturbing(rows):
            rows = list(rows)
            ranks = [len(real_echelon(rows[:i])) for i in range(len(rows) + 1)]
            reduced = [i for i in range(len(rows)) if ranks[i + 1] == ranks[i]]
            if not reduced:
                return real_echelon(rows)
            # No element of the span has its least key outside the leads, so
            # adding 1 at such a key takes the minor out of the span.
            i, leads = reduced[0], real_echelon(rows)
            key = min(k for k in set().union(*rows) if k not in leads)
            rows[i] = {**rows[i], key: rows[i].get(key, 0) + 1}
            perturbed.append(rows[i])
            kept = real_echelon(rows)
            assert len(kept) == ranks[-1] + 1
            return kept

        def basis(n, h):
            if h != 1:
                return real_basis(n, h)
            with monkeypatch.context() as patch:
                patch.setattr(hankel, "forward_echelon", perturbing)
                return real_basis(n, h)

        monkeypatch.setattr(reports, "truncated_perp_basis", basis)
        report = run_verification(2, 2)
        (check,) = _failed(report)
        assert check.name == "dimension_series_matches_closed_form"
        assert check.witness == "h=1: 10 != 9"
        assert check.dimensions == {"0": 3, "1": 10, "2": 27}
        assert len(perturbed) == 1  # degree 2; degrees 0 and 1 reduce nothing


class TestBuildCounts:
    def test_homogeneity_tests_one_polynomial_per_dimension(self, monkeypatch):
        # S(2, 3) has 42 nonzero maximal minors, which span (n+1)^(h+1) = 16
        # dimensions; the check tests the 16 basis polynomials.
        tested = []
        real = reports.is_differentially_homogeneous

        def counting(p, d):
            tested.append(p)
            return real(p, d)

        monkeypatch.setattr(reports, "is_differentially_homogeneous", counting)
        check = next(
            c for c in run_verification(1, 3).checks
            if c.name == "scaled_maximal_minors_differentially_homogeneous"
        )
        assert (check.passed, check.dimensions) == (True, {"maximal_minors": 42})
        assert len(tested) == len({str(p) for p in tested}) == 16

    @pytest.mark.parametrize("n,h,deep", [(1, 3, False), (2, 2, False), (1, 2, True)])
    def test_each_triangular_matrix_packed_once(self, monkeypatch, n, h, deep):
        # Every minor enumeration packs its matrix once, so this counts the
        # triangular spans the battery builds.
        packed = Counter()

        def text(m):  # a matrix of polynomials, keyed by the text of its entries
            return tuple(tuple(map(str, row)) for row in m.entries)

        class Counting(hankel.PackedMatrix):
            def __init__(self, m):
                packed[text(m)] += 1
                super().__init__(m)

        monkeypatch.setattr(hankel, "PackedMatrix", Counting)
        assert run_verification(n, h, deep=deep).passed
        top = min(2 * h, 6) if deep else h
        orders = {text(triangular_matrix(n, k)): k for k in range(top + 3)}
        built = {orders[m]: count for m, count in packed.items() if m in orders}
        assert built == dict.fromkeys(range(top + 1), 1)

    def test_each_generator_split_into_terms_once(self, monkeypatch):
        # The annihilation check and the sampled check read one listing of
        # the generators with their quadratic terms.
        split = Counter()
        real = reports._quadratic_terms

        def counting(g):
            split[str(g)] += 1
            return real(g)

        monkeypatch.setattr(reports, "_quadratic_terms", counting)
        assert run_verification(2, 2).passed
        assert split == Counter(str(g) for g in arc_generators_up_to(2, 8))

    @pytest.mark.parametrize("n,h,degrees", [(1, 1, 3), (2, 2, 4), (4, 3, 4)])
    def test_every_span_is_built_inside_the_check_that_reads_it_first(
        self, monkeypatch, n, h, degrees
    ):
        # A check's elapsed_ms includes what it builds: each kernel basis and
        # each minor span the battery reads is built once, while a check runs.
        running, built = [], {"perp_graded_basis": [], "minor_span": []}
        real_timed = reports._timed

        def timed(name, instance, fn):
            running.append(name)
            try:
                return real_timed(name, instance, fn)
            finally:
                running.pop()

        def recording(name):
            real = getattr(reports, name)

            def wrapper(*args):
                built[name].append(running[-1] if running else None)
                return real(*args)

            return wrapper

        monkeypatch.setattr(reports, "_timed", timed)
        for name in built:
            monkeypatch.setattr(reports, name, recording(name))
        assert run_verification(n, h).passed
        assert built == {
            "perp_graded_basis": ["kernel_basis_pointwise_certificates"] * degrees,
            "minor_span": [
                "hankel_minors_annihilated_by_generators",
                "scaled_maximal_minors_differentially_homogeneous",
            ],
        }


class TestFirstDifferingDegree:
    """The one span comparison of the battery, degree by degree."""

    def test_no_span_is_built_past_the_first_differing_degree(self):
        wide, narrow = truncated_perp_basis(1, 1), truncated_perp_basis(1, 0)

        def triples():
            yield 0, wide.span(0), narrow.span(0)
            yield 1, wide.span(1), narrow.span(1)
            pytest.fail("a span past the first differing degree was built")

        assert reports._first_differing_degree(triples()) == (1, "degree 1: x1_1")

    def test_every_degree_agrees(self):
        wide = truncated_perp_basis(1, 1)
        triples = ((d, wide.span(d), wide.span(d)) for d in range(3))
        assert reports._first_differing_degree(triples) == (None, None)


class TestExponentialSumCertificate:
    """The battery's pointwise certificate, a vanishing double derivative on
    a form of degree d, against the substitution it stands for: vanishing on
    every sum of d-1 exponentials."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_certified_elements_vanish_on_exponential_sums(self, n):
        rng = random.Random(23)
        checked = 0
        for d in range(1, 5):
            for order in range(4):
                basis = perp_graded_basis(n, d, order).basis_polynomials()
                combinations = [
                    sum((rng.randint(-3, 3) * p for p in basis), Polynomial.zero())
                    for _ in range(3 if basis else 0)
                ]
                for p in [*basis, *combinations]:
                    assert double_derivative_vanishes(p), str(p)
                    assert reports._is_form(p, d), str(p)
                    assert vanishes_on_exponential_sums_oracle(p, d - 1), str(p)
                    checked += 1
        assert checked > 0

    def test_degree_condition(self):
        assert reports._is_form(parse("x1_0*x1_2 - x1_1^2"), 2)
        assert reports._is_form(parse("3"), 0)
        assert not reports._is_form(parse("x1_0*x1_2 - x1_1"), 2)
        assert not reports._is_form(parse("xi1*x1_0^2"), 2)
        assert not reports._is_form(parse("x1_0*al1_1"), 2)


class TestPointwiseNegativeControls:
    """The checks that test single polynomials fail naming a witness when fed
    a polynomial that is wrong."""

    def test_hankel_minor_with_a_high_order_stray_term(self, monkeypatch):
        # Generators up to t-power 4 cannot see a term of weight 11, so only
        # the double-derivative check fails.
        _corrupt_one_minor(monkeypatch, hankel_matrix(1, 1, 1), "x1_5*x1_6")
        report = run_verification(1, 1)
        (check,) = _failed(report)
        assert check.name == "hankel_minors_double_derivative_vanishes"
        assert check.witness == "x1_5*x1_6 + 1"

    def test_kernel_basis_with_a_stray_element(self, monkeypatch):
        real = reports.perp_graded_basis

        def padded(n, degree, max_order):
            span = real(n, degree, max_order)
            if degree != 2:
                return span
            stray = [*span.basis_polynomials(), parse("x1_0^2")]
            return span_of(stray)

        monkeypatch.setattr(reports, "perp_graded_basis", padded)
        report = run_verification(1, 1)
        failed = {c.name: c.witness for c in _failed(report)}
        assert failed == {
            "kernel_basis_pointwise_certificates": "x1_0^2",
            "kernel_equals_hankel_minor_span": "degree 2: x1_0^2",
        }

    def test_kernel_basis_element_seen_only_by_the_exponential_sums(self, monkeypatch):
        # A 2x2 Wronskian added to the degree-3 Wronskian keeps the double
        # derivative zero but does not vanish on sums of two exponentials:
        # only the degree condition sees it.
        real = reports.perp_graded_basis

        def shifted(n, degree, max_order):
            span = real(n, degree, max_order)
            if degree != 3:
                return span
            (p,) = span.basis_polynomials()
            return span_of([p + parse("x1_0*x2_1 - x1_1*x2_0")])

        monkeypatch.setattr(reports, "perp_graded_basis", shifted)
        report = run_verification(3, 2)
        (stray,) = shifted(3, 3, 2).basis_polynomials()
        assert double_derivative_vanishes(stray)
        assert not vanishes_on_exponential_sums_oracle(stray, 2)
        witness = format_polynomial(stray)
        failed = {c.name: c.witness for c in _failed(report)}
        assert failed == {
            "kernel_basis_pointwise_certificates": witness,
            "kernel_equals_hankel_minor_span": f"degree 3: {witness}",
        }


def _undoubled_images(index, pairs, key):
    """``perp._generator_images`` without the doubling of a pair of one family."""
    top2, place = 2 * index.top, index._place
    for p, (u, a) in enumerate(pairs):
        low = key - top2 - place[u]
        if a >= 2:
            yield (u.i, u.i), 2 * u.j, low - place[u], a * (a - 1)
        for v, b in pairs[p + 1:]:
            yield (u.i, v.i), u.j + v.j, low - place[v], a * b


class TestGeneratorActionPaths:
    """The three paths of an arc generator g applied to w that the sampled
    check compares: the pairing, the minor side and the kernel side."""

    def test_every_generator_on_every_monomial(self):
        # n = 2: the 15 generators of t-power <= 4 against the 84 monomials
        # of degree <= 3 and orders <= 2.
        index = MonomialIndex(differential_variables(2, 2), 4)
        monomials = [m for d in range(4) for m in graded_monomials(2, d, 2)]
        generators = arc_generators_up_to(2, 4)
        nonzero = 0
        for g in generators:
            for m in monomials:
                actions = reports._generator_actions(
                    index, g, reports._quadratic_terms(g), Polynomial({m: 1})
                )
                image, *others = actions.values()
                assert all(other == image for other in others), (str(g), str(m), actions)
                nonzero += not image.is_zero
        assert (len(generators), len(monomials), nonzero) == (15, 84, 147)


class TestActionPathNegativeControls:
    """Each path of g applied to w, perturbed alone, fails the sampled check
    with a witness naming that path, and fails exactly the other checks that
    rest on it."""

    def test_kernel_side_without_the_same_family_doubling(self, monkeypatch):
        # The kernel side's constraint rows change too, so every check that
        # reads a kernel fails.
        monkeypatch.setattr(perp, "_generator_images", _undoubled_images)
        monkeypatch.setattr(reports, "_generator_images", _undoubled_images)
        failed = {c.name: c.witness for c in _failed(run_verification(2, 2))}
        assert failed == {
            "kernel_basis_pointwise_certificates": "x1_0*x1_2 - 1/2*x1_1^2",
            "kernel_equals_hankel_minor_span": "degree 2: x1_0*x1_2 - 1/2*x1_1^2",
            "restriction_matches_truncated_minors": "degree 2: x1_0*x1_2 - 1/2*x1_1^2",
            "randomized_property_samples": (
                "kernel side disagrees: g = 2*x2_0*x2_1,"
                " w = -4/3*x1_2*x2_0*x2_1 - 1/3*x2_1*x2_2 - 1"
            ),
        }

    def test_minor_side_with_a_square_giving_a_times_a(self, monkeypatch):
        # The second partial of u^a by u^2 read as a*a instead of a*(a-1):
        # the annihilation check reads the same table.
        real = reports._second_partials

        def squares(w):
            table = real(w)
            for key, column in table.items():
                if len(key) == 1:
                    ((u, _),) = key
                    for q, value in column.items():
                        a = dict(q.pairs).get(u, 0) + 2
                        column[q] = Fraction(value * a, a - 1)
            return table

        monkeypatch.setattr(reports, "_second_partials", squares)
        failed = {c.name: c.witness for c in _failed(run_verification(2, 2))}
        assert failed == {
            "hankel_minors_annihilated_by_generators": "x1_0*x1_2 - x1_1^2",
            "randomized_property_samples": (
                "minor side disagrees: g = x1_0^2, w = -3*x1_0^2*x2_2 - 2*x2_2^2"
            ),
        }

    def test_pairing_with_powers_for_falling_factorials(self, monkeypatch):
        # x^b acting on x^a scaled by a**b instead of a!/(a-b)!: only the
        # sampled check applies the pairing.
        real = pairing._monomial_pairing

        def powered(beta, alpha):
            hit = real(beta, alpha)
            if hit is None:
                return None
            exponents = dict(alpha.pairs)
            return math.prod(exponents[v] ** b for v, b in beta.pairs if v.kind == "x"), hit[1]

        monkeypatch.setattr(pairing, "_monomial_pairing", powered)
        failed = {c.name: c.witness for c in _failed(run_verification(2, 2))}
        assert failed == {
            "randomized_property_samples": (
                "pairing disagrees: g = x1_0^2, w = -3*x1_0^2*x2_2 - 2*x2_2^2"
            ),
        }


class TestUpstreamNegativeControls:
    """A wrong input further upstream, a generator or a kernel vector, fails
    exactly the checks that read it, naming a witness."""

    def test_generator_with_a_flipped_sign(self, monkeypatch):
        real = reports.arc_generators_up_to
        target = parse("2*x1_0*x1_2 + x1_1^2")
        flipped = parse("2*x1_0*x1_2 - x1_1^2")
        hits = []

        def perturbed(n, max_order):
            gens = real(n, max_order)
            hits.extend(g for g in gens if g == target)
            return [flipped if g == target else g for g in gens]

        monkeypatch.setattr(reports, "arc_generators_up_to", perturbed)
        report = run_verification(1, 2)
        assert hits
        failed = {c.name: c.witness for c in _failed(report)}
        # The kernel side reads the generator by its name alone, so the
        # sampled check names it as the path that disagrees.
        assert failed == {
            "hankel_minors_annihilated_by_generators": "x1_0*x1_2 - x1_1^2",
            "randomized_property_samples": (
                "kernel side disagrees: g = 2*x1_0*x1_2 - x1_1^2,"
                " w = -4/3*x1_1^2*x1_2 - 1/3*x1_2^2 - 1"
            ),
        }

    def test_kernel_vector_with_a_flipped_sign(self, monkeypatch):
        # Only the first two-term vector of the run is changed; it belongs
        # to the kernel bases, so the restriction check still passes.
        real = perp._weight_block_kernel
        flipped = []

        def perturbed(index, block):
            vectors = real(index, block)
            for vector in vectors:
                if not flipped and len(vector) == 2:
                    first = next(iter(vector))
                    vector[first] = -vector[first]
                    flipped.append(vector)
            return vectors

        monkeypatch.setattr(perp, "_weight_block_kernel", perturbed)
        report = run_verification(1, 2)
        assert len(flipped) == 1
        failed = {c.name: c.witness for c in _failed(report)}
        assert failed == {
            "kernel_basis_pointwise_certificates": "x1_0*x1_2 + x1_1^2",
            "kernel_equals_hankel_minor_span": "degree 2: x1_0*x1_2 + x1_1^2",
        }

    def test_constraint_rows_of_one_generator_dropped(self, monkeypatch):
        # Without the rows of g_{11,2} = 2*x1_0*x1_2 + x1_1^2 the weight-2
        # block of degree 2 keeps x1_0*x1_2 in its kernel: every check that
        # reads a kernel, the restriction included, fails on it.
        real = perp._generator_images
        dropped = []

        def without_g11_2(index, pairs, key):
            for image in real(index, pairs, key):
                if image[:2] == ((1, 1), 2):
                    dropped.append(image)
                else:
                    yield image

        monkeypatch.setattr(perp, "_generator_images", without_g11_2)
        report = run_verification(1, 2)
        assert dropped
        failed = {c.name: c.witness for c in _failed(report)}
        assert failed == {
            "kernel_basis_pointwise_certificates": "x1_0*x1_2",
            "kernel_equals_hankel_minor_span": "degree 2: x1_0*x1_2",
            "restriction_matches_truncated_minors": "degree 2: x1_0*x1_2",
        }


class TestDerivationRuleNegativeControls:
    """A derivation rule perturbed at one place makes the check built on it
    fail with a witness."""

    def test_marker_rule_with_a_squared_order(self, monkeypatch):
        def squared(v):
            if v.kind != "x":
                return []
            return [(1, Monomial(((xi(1), v.j * v.j), (al(1, v.i), 1))).pairs)]

        monkeypatch.setattr(pairing, "_marker_rule", squared)
        report = run_verification(1, 2)
        failed = {c.name: c.witness for c in _failed(report)}
        assert failed == {
            "hankel_minors_double_derivative_vanishes": "x1_0*x1_2 - x1_1^2",
            "kernel_basis_pointwise_certificates": "x1_0*x1_2 - x1_1^2",
        }
        monkeypatch.undo()
        assert double_derivative_vanishes(parse("x1_0*x1_2 - x1_1^2"))

    def test_scaling_rule_with_unit_binomials(self, monkeypatch):
        def unit_binomials(v):
            if v.kind != "x":
                return []
            return [(1, ((x(v.i, v.j - k), 1), (y(k), 1))) for k in range(1, v.j + 1)]

        monkeypatch.setattr(pairing, "_scaling_rule", unit_binomials)
        report = run_verification(1, 2)
        (check,) = _failed(report)
        assert check.name == "scaled_maximal_minors_differentially_homogeneous"
        # A basis polynomial of the maximal minors' span, twice a minor.
        assert check.witness == (
            "x1_0^2*x2_2 - 2*x1_0*x1_1*x2_1 - x1_0*x1_2*x2_0 + 2*x1_1^2*x2_0"
        )
        assert check.dimensions == {"maximal_minors": 14}
        witness = parse(check.witness)
        assert not is_differentially_homogeneous(witness, 3)
        monkeypatch.undo()
        assert is_differentially_homogeneous(witness, 3)
