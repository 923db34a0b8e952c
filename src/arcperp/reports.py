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
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .arcgen import arc_generators_up_to, check_product_count
from .hankel import (  # ChainDims, SeriesRow: perfbench/tracer.py traces them here
    ChainDims,
    GradedSpan,
    SeriesRow,
    check_span_count,
    dimension_chain,
    dimension_series,
    hankel_matrix,
    hankel_minor_intersection_span,
    minor_span,
    scaled_matrix,
    truncated_perp_basis,
)
from .linalg import MonomialIndex, Span, span_witness
from .pairing import apply_pairing, double_derivative_vanishes, is_differentially_homogeneous
from .perp import _generator_images, check_monomial_count, perp_graded_basis, restriction_mismatch
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
    check_span_count("S", n + 1, h, sizes=[h + 1])
    for k in range(series_h + 1):
        check_span_count("T", n, k)
    # Then the enumerations of the checks, in check order, each refused with
    # the error of the code that enumerates: the generator products, the
    # Hankel block's minors, the kernel monomials of each degree and the
    # restriction's, at orders and weight <= d*h_elim.  The span equality's
    # Wronskians never outnumber the kernel's; later checks read spans above.
    check_product_count(n, 2 * (h_cap + k_cap))
    check_span_count("H", n, h_cap, k_cap)
    for d in range(degree_cap + 1):
        check_monomial_count(n, d, order_bound, d * order_bound)
    for d in range(h_elim + 2):
        check_monomial_count(n, d, d * h_elim, d * h_elim)

    # Each object is built in the first check that reads it, so that check's
    # time includes it, and shared by the later ones.
    @functools.cache
    def minors() -> GradedSpan:
        return minor_span(hankel_matrix(n, h_cap, k_cap), range(h_cap + 1))

    @functools.cache
    def generators() -> list[Polynomial]:
        return arc_generators_up_to(n, 2 * (h_cap + k_cap))

    def check_minor_annihilation():
        quadratic = [_quadratic_terms(g) for g in generators()]
        for w in _minor_basis(minors()):
            if not _annihilated_by_all(quadratic, w):
                return False, {"minors": minors().nonzero_minors}, format_polynomial(w)
        return True, {"minors": minors().nonzero_minors, "generators": len(quadratic)}, None

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
        return _property_samples(n, order_bound, seed, 200 if deep else 60, generators())

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
        pairs = Counter(rng.choice(variables) for _ in range(rng.randint(0, 3)))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        m = Monomial(pairs.items())
        terms[m] = terms.get(m, 0) + (c if c.denominator > 1 else c.numerator)
    return Polynomial(terms)


def _generator_actions(index: MonomialIndex, g: Polynomial, w: Polynomial) -> dict:
    """The arc generator g applied to w by three paths that share no code:
    ``apply_pairing``, the minor side's second partials, and the kernel
    side's ``_generator_images`` of each term c*m of w, keyed in ``index``,
    summed as sum c*image(m).  The kernel side reads only g's name g_{ij,l},
    off one term x_i^(s) x_j^(l-s)."""
    (u, _), *rest = next(iter(g.terms)).pairs
    v = rest[0][0] if rest else u
    kernel = Polynomial.zero()
    for m, c in w.terms.items():
        images = _generator_images(index, m.pairs, index._key(m))
        kernel = kernel + c * Polynomial(
            {index._monomial(q): e for ij, l, q, e in images if (ij, l) == ((u.i, v.i), u.j + v.j)}
        )
    return {
        "pairing": apply_pairing(g, w),
        "minor side": Polynomial(_generator_image(_quadratic_terms(g), _second_partials(w))),
        "kernel side": kernel,
    }


def _property_samples(n: int, max_order: int, seed: int, count: int, generators: list):
    """Seeded samples of the action both sides rest on: each draws g from
    ``generators``, then w with at most 3 factors a term in the variables of
    orders <= max_order, keyed in one index of base 4.  The paths of
    :func:`_generator_actions` must agree on g applied to w; the first sample
    where one differs from the other two fails, naming it, g and w."""
    rng = random.Random(seed)
    variables = differential_variables(n, max_order)
    index = MonomialIndex(variables, 4)
    acting = [g for g in generators  # t-power <= 2*max_order: the rest act as zero
              if sum(v.j * e for v, e in next(iter(g.terms)).pairs) <= 2 * max_order]
    for i in range(count):
        g = rng.choice(acting)
        w = _random_polynomial(rng, variables)
        (a, p), (b, q), (c, r) = _generator_actions(index, g, w).items()
        if not p == q == r:
            path = c if p == q else b if p == r else a if q == r else "every path"
            witness = f"{path} disagrees: g = {format_polynomial(g)}, w = {format_polynomial(w)}"
            return False, {"sample": i}, witness
    return True, {"samples": count}, None
