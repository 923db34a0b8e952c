"""The verification driver producing reproducible reports.

A report is a plain dict rendered to JSON; everything in it except the
wall-clock ``elapsed_ms`` entries is deterministic for fixed inputs, and
those can be omitted entirely (``to_dict(include_timings=False)``, CLI
``--no-timings``) for byte-identical CI diffs.  This is the one module that
sees both sides: the kernel side in ``perp`` and the minor side in
``hankel``, which holds the dimension series and chain.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .arcgen import arc_generators_up_to, check_product_count
from .hankel import (  # ChainDims, SeriesRow: perfbench/tracer.py traces them here
    ChainDims,
    GradedSpan,
    PackedMatrix,
    SeriesRow,
    SymbolicMatrix,
    check_minor_count,
    check_triangular_counts,
    dimension_chain,
    dimension_series,
    hankel_matrix,
    hankel_minor_intersection_span,
    matrix_shape,
    minor_span,
    scaled_matrix,
    truncated_perp_basis,
)
from .linalg import Span, span_witness
from .pairing import apply_pairing, double_derivative_vanishes, is_differentially_homogeneous
from .perp import check_monomial_count, perp_graded_basis, restriction_mismatch
from .ring import Monomial, Polynomial, differential_variables, format_polynomial


# -- the verification driver ---------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    instance: dict
    passed: bool
    dimensions: dict
    witness: str | None = None
    elapsed_ms: float = 0.0

    def to_dict(self, include_timings: bool = True) -> dict:
        out: dict = {"name": self.name, "instance": self.instance, "passed": self.passed}
        if self.dimensions:
            out["dimensions"] = self.dimensions
        if self.witness is not None:
            out["witness"] = self.witness
        if include_timings:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


class VerificationReport(NamedTuple):
    version: str
    parameters: dict
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timings: bool = True) -> dict:
        return {
            "version": self.version,
            "parameters": self.parameters,
            "passed": self.passed,
            "checks": [c.to_dict(include_timings) for c in self.checks],
        }


def _timed(name: str, instance: dict, fn) -> CheckResult:
    start = time.perf_counter()
    passed, dimensions, witness = fn()
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(name, instance, passed, dimensions, witness, elapsed)


def _is_form(p: Polynomial, d: int) -> bool:
    """Is every term of p a degree-d monomial in the differential variables?"""
    return all(m.degree == d and (not m.pairs or m.pairs[-1][0].kind == "x") for m in p.terms)


def _minor_basis(graded: GradedSpan) -> list[Polynomial]:
    """The basis polynomials of a minor span, degrees ascending.  The minor-side
    checks (annihilation by the generators, the vanishing double derivative,
    differential homogeneity) are linear in the polynomial, and span(kept
    rows) = span(all minors), as ``minor_span`` certifies: so a linear test on
    the basis tests every minor, and a basis polynomial witnesses a failure."""
    return [p for span in graded.spans.values() for p in span.basis_polynomials()]


# -- annihilation from second partials -----------------------------------------


def _second_partials(w: Polynomial) -> dict[tuple, dict[Monomial, int | Fraction]]:
    """The second partials du dv w, keyed by the pairs of the monomial u*v.

    Only pairs of differential variables that occur together in a term of w
    (u = v when its exponent is at least 2) are listed: every other second
    partial of w is zero.  For u != v with exponents a, b in a term c*m the
    term contributes c*a*b on m/(u*v); a square contributes c*a*(a-1) on
    m/u^2.  Auxiliary variables ride along in the quotients.
    """
    table: dict[tuple, dict[Monomial, int | Fraction]] = {}
    for m, c in w.terms.items():
        # m is the quotient times u*v, so each quotient comes from one term.
        pairs = m.pairs
        for p, (u, a) in enumerate(pairs):
            if u.kind != "x":
                break  # differential variables sort first
            if a >= 2:
                quotient = Monomial(pairs[:p] + ((u, a - 2),) + pairs[p + 1:])
                table.setdefault(((u, 2),), {})[quotient] = c * a * (a - 1)
            for q in range(p + 1, len(pairs)):
                v, b = pairs[q]
                if v.kind != "x":
                    break
                quotient = Monomial(
                    pairs[:p] + ((u, a - 1),) + pairs[p + 1:q] + ((v, b - 1),) + pairs[q + 1:]
                )
                table.setdefault(((u, 1), (v, 1)), {})[quotient] = c * a * b
    return table


def _quadratic_terms(g: Polynomial) -> list[tuple[tuple, int | Fraction]]:
    """The terms of g as (pairs, coefficient), each pairs a key shape of
    :func:`_second_partials`.  Every arc generator is a quadratic form in the
    differential variables, and a term of any other shape raises ``ValueError``."""
    if any(m.degree != 2 or m.pairs[-1][0].kind != "x" for m in g.terms):  # x sorts first
        raise ValueError(f"generator {g} is not a quadratic form in the differential variables")
    return [(m.pairs, c) for m, c in g.terms.items()]


def _generator_image(terms, partials) -> dict:
    """g applied to w as a monomial -> coefficient map, whose values may
    include zeros, for g given by :func:`_quadratic_terms` and the table
    ``partials = _second_partials(w)``: each term c*u*v of g reads
    c * du dv w from the table."""
    acc: dict = {}
    for key, c in terms:
        column = partials.get(key)
        if column:
            unit = c == 1
            for q, e in column.items():
                t = e if unit else c * e
                old = acc.get(q)
                acc[q] = t if old is None else old + t
    return acc


def _annihilated_by_all(generators: list, w: Polynomial) -> bool:
    """Does every generator, given by :func:`_quadratic_terms`, annihilate w?
    The second partials of w are tabulated once for all of them."""
    partials = _second_partials(w)
    return all(not any(_generator_image(terms, partials).values()) for terms in generators)


def run_verification(n: int, h: int, deep: bool = False, seed: int = 0) -> VerificationReport:
    """Run the full cross-check battery at desk scale.

    ``deep`` widens the sweeps: it doubles ``k_cap`` (at most 4, and 1 at
    h = 0) and the series horizon (at most 6), adds 2 to the order bound (at
    most 5, and 2 at h = 0) and 1 to the degree cap, and takes 200 samples
    instead of 60.  All checks are deterministic given (n, h, seed).
    """
    if n < 1 or h < 0:
        raise ValueError(f"run_verification needs n >= 1, h >= 0 (got n={n}, h={h})")
    checks: list[CheckResult] = []
    h_cap = min(h, 3)
    k_cap = h_cap if not deep else min(2 * h_cap, 4) if h_cap else 1
    degree_cap = min(h + 1, 3) + (1 if deep else 0)
    order_bound = min(h + (2 if deep else 0), 5) if h else (2 if deep else 1)
    series_h = min(2 * h, 6) if deep else h
    # The restriction solves every weight block up to d*h for d <= h+1; at
    # h = 3 the degree-4 blocks (weight up to 12) take seconds, so the
    # battery trims this sweep while the standalone API stays unbounded.
    h_elim = min(h, 2)

    # The homogeneity span, the maximal minors of S(n+1, h), and every
    # triangular span of the series are counted here, before any work, and
    # built in the checks that read them.  By Vandermonde no span of the chain
    # has more minors than S(n+1, h), T(n, h) included, so the series count
    # refuses first only under ``deep``, whose horizon passes h.
    check_minor_count(*matrix_shape("S", n + 1, h), [h + 1], top=True)
    check_triangular_counts(n, range(series_h + 1))
    # Then the enumerations of the checks, in check order, each refused with
    # the error of the code that enumerates: the generator products, the
    # Hankel block's minors (no block of two or more rows is shift-structured,
    # so every row set counts), the kernel monomials of each degree and the
    # restriction's, at orders and weight <= d*h_elim.  The span equality's
    # Wronskians never outnumber the kernel's; later checks read spans above.
    check_product_count(n, 2 * (h_cap + k_cap))
    check_minor_count(*matrix_shape("H", n, h_cap, k_cap), range(h_cap + 1), top=False)
    for d in range(degree_cap + 1):
        check_monomial_count(n, d, order_bound, d * order_bound)
    for d in range(h_elim + 2):
        check_monomial_count(n, d, d * h_elim, d * h_elim)

    # Each object is built in the first check that reads it, so that check's
    # time includes it, and shared by the later ones.
    @functools.cache
    def minors() -> GradedSpan:
        return minor_span(hankel_matrix(n, h_cap, k_cap), range(h_cap + 1))

    def check_minor_annihilation():
        generators = arc_generators_up_to(n, 2 * (h_cap + k_cap))
        quadratic = [_quadratic_terms(g) for g in generators]
        for w in _minor_basis(minors()):
            if not _annihilated_by_all(quadratic, w):
                return False, {"minors": minors().nonzero_minors}, format_polynomial(w)
        return True, {"minors": minors().nonzero_minors, "generators": len(generators)}, None

    checks.append(
        _timed(
            "hankel_minors_annihilated_by_generators",
            {"n": n, "h": h_cap, "k": k_cap, "max_t_power": 2 * (h_cap + k_cap)},
            check_minor_annihilation,
        )
    )

    def check_minor_double_derivative():
        for w in _minor_basis(minors()):
            if not double_derivative_vanishes(w):
                return False, {}, format_polynomial(w)
        return True, {"minors": minors().nonzero_minors}, None

    checks.append(
        _timed(
            "hankel_minors_double_derivative_vanishes",
            {"n": n, "h": h_cap, "k": k_cap},
            check_minor_double_derivative,
        )
    )

    @functools.cache
    def kernel_basis(d: int) -> Span:
        return perp_graded_basis(n, d, order_bound)

    def check_kernel_pointwise():
        """Each degree-d basis element p has a vanishing double derivative
        and is a form of degree d in the differential variables.

        Together the two make p, for d >= 1, vanish on every sum of d-1
        exponentials, x_i^(j) -> v_i^(j) = sum_{m<d} al_{m,i} xi_m^j E_m.
        Let D_m be the derivation x_i^(j) -> al_{m,i} xi_m^j E_m, so that
        the derivative in the direction v is D_v = sum_m D_m.  A form of
        degree d satisfies p(v) = D_v^d p / d!: both are the coefficient of
        s^d in p(x + s*v) = sum_k s^k/k! D_v^k p.  The D_m have constant
        coefficients, so they commute and (sum_m D_m)^d is a sum of products
        D_1^k_1 ... D_{d-1}^k_{d-1} with k_1 + ... + k_{d-1} = d.  d factors
        fall on d-1 directions, so some k_m >= 2, and that product is zero
        because D_m^2 p = 0: p has no auxiliary variable, so D_m^2 p is
        E_m^2 times the double derivative of p with al_1, xi_1 renamed to
        al_m, xi_m.  The degree condition cannot be dropped: a degree-3
        Wronskian plus a 2x2 one has a vanishing double derivative but does
        not vanish on two exponentials.
        """
        dims = {}
        for d in range(degree_cap + 1):
            span = kernel_basis(d)
            dims[str(d)] = span.dimension
            for p in span.basis_polynomials():
                if not double_derivative_vanishes(p) or not _is_form(p, d):
                    return False, dims, format_polynomial(p)
        return True, dims, None

    checks.append(
        _timed(
            "kernel_basis_pointwise_certificates",
            {"n": n, "order": order_bound, "degrees": list(range(degree_cap + 1))},
            check_kernel_pointwise,
        )
    )

    def check_span_equality():
        dims = {}
        for d in range(1, degree_cap + 1):
            minor_side = hankel_minor_intersection_span(n, d, order_bound)
            witness = span_witness(kernel_basis(d), minor_side)
            if witness is not None:
                return False, dims, f"degree {d}: {format_polynomial(witness)}"
            dims[str(d)] = kernel_basis(d).dimension
        return True, dims, None

    checks.append(
        _timed(
            "kernel_equals_hankel_minor_span",
            {"n": n, "order": order_bound, "degrees": list(range(1, degree_cap + 1))},
            check_span_equality,
        )
    )

    # Built on first use and shared by the restriction, chain and series checks.
    @functools.cache
    def triangular(k: int) -> GradedSpan:
        return truncated_perp_basis(n, k)

    def check_elimination():
        mismatch = restriction_mismatch(n, h_elim, triangular(h_elim))
        dims = {"h": h_elim, "total": triangular(h).total_dimension}
        if mismatch is None:
            return True, dims, None
        degree, witness = mismatch
        return False, dims, f"degree {degree}: {format_polynomial(witness)}"

    checks.append(
        _timed(
            "restriction_matches_truncated_minors",
            {"n": n, "h": h_elim},
            check_elimination,
        )
    )

    def check_chain():
        chain = dimension_chain(n, h, triangular(h))
        return chain.equal and chain.bijection_lands_in_scaled, chain.to_dict(), chain.witness

    checks.append(_timed("triangular_scaled_dimension_chain", {"n": n, "h": h}, check_chain))

    def check_diff_homogeneous():
        maximal = minor_span(scaled_matrix(n + 1, h), [h + 1])
        dims = {"maximal_minors": maximal.nonzero_minors}
        for p in _minor_basis(maximal):
            if not is_differentially_homogeneous(p, h + 1):
                return False, dims, format_polynomial(p)
        return True, dims, None

    checks.append(
        _timed(
            "scaled_maximal_minors_differentially_homogeneous",
            {"n": n + 1, "h": h, "degree": h + 1},
            check_diff_homogeneous,
        )
    )

    def check_series():
        rows = dimension_series(n, (triangular(k) for k in range(series_h + 1)))
        dims = {str(r.h): r.dimension for r in rows}
        bad = [r for r in rows if not r.match]
        witness = None if not bad else f"h={bad[0].h}: {bad[0].dimension} != {bad[0].closed_form}"
        return not bad, dims, witness

    checks.append(_timed("dimension_series_matches_closed_form", {"n": n, "h_max": series_h}, check_series))

    def check_samples():
        return _property_samples(n, order_bound, seed, count=200 if deep else 60)

    checks.append(
        _timed(
            "randomized_property_samples",
            {"n": n, "order": order_bound, "seed": seed},
            check_samples,
        )
    )

    return VerificationReport(
        version=__version__,
        parameters={"n": n, "h": h, "deep": deep, "seed": seed},
        checks=checks,
    )


def _random_polynomial(rng: random.Random, variables: list) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        pairs: dict = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.choice(variables)
            pairs[v] = pairs.get(v, 0) + 1
        numerator, denominator = rng.randint(-4, 4), rng.randint(1, 3)
        if numerator % denominator:
            coeff = Fraction(numerator, denominator)
        else:
            coeff = numerator // denominator
        m = Monomial(pairs.items())
        old = terms.get(m)
        terms[m] = coeff if old is None else old + coeff
    return Polynomial(terms)


def _property_samples(n: int, max_order: int, seed: int, count: int):
    """Seeded spot checks of the algebra laws used everywhere else.

    Every sample is drawn first, in the order of a sample-by-sample loop (p,
    q, r, then the pair f, g).  W(f, g) = -W(g, f) is read off one
    ``PackedMatrix`` whose rows are every f_i, g_i side by side and their
    derivatives: the minors on columns (2i, 2i+1) and (2i+1, 2i), under one
    row scale.  The laws run sample by sample in the order below, and the
    first failure is returned.
    """
    rng = random.Random(seed)
    variables = differential_variables(n, max_order)
    first_order = differential_variables(n, 1)
    samples, pairs = [], []
    for _ in range(count):
        samples.append([_random_polynomial(rng, variables) for _ in range(3)])
        pairs += (_random_polynomial(rng, first_order) for _ in range(2))
    packed = PackedMatrix(SymbolicMatrix.from_rows([pairs, [f.derivative() for f in pairs]]))
    for i, (p, q, r) in enumerate(samples):
        if (p + q) * r != p * r + q * r:
            return False, {"sample": i}, "distributivity"
        pq = p * q
        if pq.derivative() != p.derivative() * q + p * q.derivative():
            return False, {"sample": i}, "leibniz"
        if apply_pairing(pq, r) != apply_pairing(p, apply_pairing(q, r)):
            return False, {"sample": i}, "pairing composition"
        swapped = packed.det((0, 1), (2 * i + 1, 2 * i))
        if packed.det((0, 1), (2 * i, 2 * i + 1)) != {k: -c for k, c in swapped.items()}:
            return False, {"sample": i}, "wronskian alternation"
    return True, {"samples": count}, None
