"""Independent brute-force implementations used as test oracles.

These deliberately avoid the code paths they are checking: differentiation is
done one variable at a time from the textbook definition, determinants by
full permutation expansion (the Wronskian too, on rows of those
derivatives), and row reduction by plain rational
Gauss-Jordan without any fraction-free shortcuts.  The monomial order is
read off dense exponent vectors over a variable list written out by hand.
Substitution multiplies out one term at a time, differential homogeneity is
tested by substituting y*x itself, linearity under an exponential shift by
substituting the shift itself, vanishing on sums of exponentials by
substituting the sums, and annihilation applies every generator by repeated
single derivatives.  Nothing here calls ``arcperp.pairing``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from arcperp.linalg import MonomialIndex, Span, back_substitute, forward_echelon
from arcperp.ring import E, Monomial, Polynomial, al, differential_variables, x, xi, y


def diff_wrt(p: Polynomial, v) -> Polynomial:
    """Single partial derivative d/dv, straight from the power rule."""
    terms: dict[Monomial, Fraction] = {}
    for m, c in p.terms.items():
        e = dict(m.pairs).get(v, 0)
        if e == 0:
            continue
        pairs = {w: k for w, k in m.pairs}
        if e == 1:
            del pairs[v]
        else:
            pairs[v] = e - 1
        mm = Monomial(pairs.items())
        terms[mm] = terms.get(mm, Fraction(0)) + c * e
    return Polynomial(terms)


def pairing_oracle(f: Polynomial, p: Polynomial) -> Polynomial:
    """Apply f as a differential operator by repeated single derivatives."""
    result = Polynomial.zero()
    for m, c in f.terms.items():
        image = p
        for v, e in m.pairs:
            assert v.kind == "x", "oracle only handles differential operators"
            for _ in range(e):
                image = diff_wrt(image, v)
        result = result + c * image
    return result


def _derive_variable_rule(v) -> Polynomial:
    if v.kind == "x":
        return Polynomial.from_variable(x(v.i, v.j + 1))
    if v.kind == "y":
        return Polynomial.from_variable(y(v.j + 1))
    if v.kind == "E":
        return Polynomial.from_variable(xi(v.i)) * Polynomial.from_variable(E(v.i))
    return Polynomial.zero()


def _derive_monomial(pairs: tuple) -> Polynomial:
    """Recursive product rule: (v * rest)' = v' * rest + v * rest'."""
    if not pairs:
        return Polynomial.zero()
    (v, e), *tail = pairs
    rest_pairs = tuple(([(v, e - 1)] if e > 1 else []) + tail)
    rest = Polynomial({Monomial(rest_pairs): 1})
    head = Polynomial.from_variable(v)
    return _derive_variable_rule(v) * rest + head * _derive_monomial(rest_pairs)


def derivative_oracle(p: Polynomial) -> Polynomial:
    result = Polynomial.zero()
    for m, c in p.terms.items():
        result = result + c * _derive_monomial(m.pairs)
    return result


def restrict_above_oracle(p: Polynomial, h: int) -> Polynomial:
    """Drop every term containing a differential variable of order > h."""
    return Polynomial({
        m: c for m, c in p.terms.items() if all(v.kind != "x" or v.j <= h for v, _ in m.pairs)
    })


def naive_determinant(rows: list[list]) -> Polynomial:
    """Full permutation expansion with explicit inversion-count signs."""
    size = len(rows)
    acc = Polynomial.zero()
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b]
        )
        term = Polynomial({Monomial(()): 1})
        for r in range(size):
            term = term * rows[r][perm[r]]
        acc = acc + (-1) ** inversions * term
    return acc


def wronskian(fs: list[Polynomial]) -> Polynomial:
    """Determinant of the matrix whose i-th row is the i-th derivative of fs:
    rows by ``derivative_oracle``, the determinant by ``naive_determinant``."""
    rows = [list(fs)]
    while len(rows) < len(fs):
        rows.append([derivative_oracle(f) for f in rows[-1]])
    return naive_determinant(rows[: len(fs)])


def polynomial_from_terms(items) -> Polynomial:
    """The sum of the (monomial, coefficient) terms, repeats added up."""
    acc: dict[Monomial, Fraction] = {}
    for m, c in items:
        acc[m] = acc.get(m, 0) + c
    return Polynomial(acc)


def highest_order(p: Polynomial) -> int:
    """The largest derivative order of a differential variable of p; -1 if none."""
    return max((v.j for m in p.terms for v, _ in m.pairs if v.kind == "x"), default=-1)


def top_degree(p: Polynomial) -> int:
    """The largest degree of a term of a nonzero polynomial."""
    return max(m.degree for m in p.terms)


def span_of(polys, index: MonomialIndex | None = None) -> Span:
    """The span of polynomials, through ``forward_echelon``: each polynomial
    is one integer row over the keys of ``index``, its coefficients times the
    lcm of their denominators; ``index`` is by default the index of their
    variables whose base is one above their largest exponent."""
    polys = list(polys)
    if index is None:
        pairs = [pair for p in polys for m in p.terms for pair in m.pairs]
        index = MonomialIndex((v for v, _ in pairs), max((e for _, e in pairs), default=0) + 1)
    rows = []
    for p in polys:
        scale = math.lcm(*(Fraction(c).denominator for c in p.terms.values()))
        rows.append({index._key(m): int(c * scale) for m, c in p.terms.items()})
    assert all(None not in row for row in rows), "a monomial outside the index"
    return Span(index, forward_echelon(rows))


def integral_row(row: list) -> dict[int, int]:
    """A dense rational row as the elimination core takes it: its nonzero
    entries times the lcm of its denominators, the same line, so the same
    rank and reduced row-echelon form."""
    scale = math.lcm(*(Fraction(e).denominator for e in row))
    return {j: int(e * scale) for j, e in enumerate(row) if e != 0}


def core_rref(rows: list[list], cols: int) -> list[list[Fraction]]:
    """The reduced row-echelon form of dense rational rows through the
    elimination core, ``back_substitute(forward_echelon(...))``, dense: each
    reduced row divided by its pivot entry, zero rows dropped."""
    reduced, pivots = back_substitute(forward_echelon(integral_row(row) for row in rows))
    return [
        [Fraction(row.get(j, 0), row[p]) for j in range(cols)] for row, p in zip(reduced, pivots)
    ]


def spans_by_degree(polys) -> dict[int, Span]:
    """The span of the nonzero polynomials of each total degree, each built by
    ``span_of`` from decoded polynomials, with no packed minor."""
    by_degree: dict[int, list[Polynomial]] = {}
    for p in polys:
        if not p.is_zero:
            by_degree.setdefault(top_degree(p), []).append(p)
    return {d: span_of(group) for d, group in sorted(by_degree.items())}


def naive_rref(rows: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    """Textbook rational Gauss-Jordan; returns nonzero rows only."""
    work = [[Fraction(e) for e in row] for row in rows]
    pivot_row = 0
    for c in range(cols):
        chosen = None
        for r in range(pivot_row, len(work)):
            if work[r][c] != 0:
                chosen = r
                break
        if chosen is None:
            continue
        work[pivot_row], work[chosen] = work[chosen], work[pivot_row]
        inv = work[pivot_row][c]
        work[pivot_row] = [e / inv for e in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][c] != 0:
                factor = work[r][c]
                work[r] = [a - factor * b for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return [row for row in work if any(e != 0 for e in row)]


def naive_rank(rows: list[list[Fraction]], cols: int) -> int:
    return len(naive_rref(rows, cols))


def naive_basis(polys) -> list[Polynomial]:
    """The reduced row-echelon basis of the span of polys: ``naive_rref`` of
    their coefficient rows over their monomials, highest first, with each
    integral entry an ``int``."""
    monomials = sorted({m for p in polys for m in p.terms}, key=Monomial.order_key, reverse=True)
    rows = naive_rref([[p.terms.get(m, 0) for m in monomials] for p in polys], len(monomials))
    return [
        Polynomial({m: e.numerator if e.denominator == 1 else e for m, e in zip(monomials, row)})
        for row in rows
    ]


def coefficient_types(polys) -> list[dict]:
    """Each polynomial's monomials mapped to the types of their coefficients,
    which polynomial equality does not compare."""
    return [{m: type(c) for m, c in p.terms.items()} for p in polys]


def graded_monomials(n: int, degree: int, max_order: int) -> list[Monomial]:
    """Every degree-d monomial in x_i^(j), 1 <= i <= n, 0 <= j <= max_order:
    one per composition of d into exponents over that variable list, built by
    choosing the exponent of the first variable and recursing on the rest."""
    variables = [x(i, j) for i in range(1, n + 1) for j in range(max_order + 1)]

    def compositions(k: int, remaining: int):
        if k == len(variables):
            if remaining == 0:
                yield ()
            return
        for e in range(remaining + 1):
            for rest in compositions(k + 1, remaining - e):
                yield (e,) + rest

    return [
        Monomial(zip(variables, exponents)) for exponents in compositions(0, degree)
    ]


def weight_bounded_scan(n: int, degree: int, max_order: int, max_weight: int) -> list:
    """(weight, monomial) for every degree-d multiset of the variables of
    orders <= max_order, as ``combinations_with_replacement`` lists them, kept
    when its weight is at most max_weight: the full scan that the kernel
    side's direct enumeration replaces."""
    found = []
    variables = differential_variables(n, max_order)
    for combo in itertools.combinations_with_replacement(variables, degree):
        w = sum(v.j for v in combo)
        if w <= max_weight:
            found.append((w, Monomial(Counter(combo).items())))
    return found


def order_oracle_variables(n: int, max_order: int, groups: int) -> list:
    """Every variable of small index, listed in the documented variable order:
    x family-major with orders ascending, then xi, al, E and y."""
    return (
        [x(i, j) for i in range(1, n + 1) for j in range(max_order + 1)]
        + [xi(m) for m in range(1, groups + 1)]
        + [al(m, i) for m in range(1, groups + 1) for i in range(1, n + 1)]
        + [E(m) for m in range(1, groups + 1)]
        + [y(k) for k in range(max_order + 1)]
    )


def monomial_order_oracle(a: Monomial, b: Monomial, variables: list) -> int:
    """-1, 0 or 1 as a is below, equal to or above b in graded lex order:
    total degree first, then the dense exponent vectors over ``variables``
    compared left to right."""
    def dense(m: Monomial) -> list[int]:
        exps = dict(m.pairs)
        assert set(exps) <= set(variables), "monomial outside the oracle's variables"
        vector = [exps.get(v, 0) for v in variables]
        return [sum(vector)] + vector

    va, vb = dense(a), dense(b)
    return (va > vb) - (va < vb)


def monomial_product_oracle(a: Monomial, b: Monomial) -> Monomial:
    """a * b by adding exponents in a dict and sorting again in the
    constructor: the merge ``Monomial.mul`` replaced."""
    merged = dict(a.pairs)
    for v, e in b.pairs:
        merged[v] = merged.get(v, 0) + e
    return Monomial(merged.items())


def substitute_oracle(p: Polynomial, mapping) -> Polynomial:
    """Replace each mapped variable by a polynomial, rebuilding every term
    from a constant and adding the terms up one at a time."""
    result = Polynomial.zero()
    for m, c in p.terms.items():
        term = Polynomial({Monomial(()): c})
        for v, e in m.pairs:
            repl = mapping.get(v)
            if repl is None:
                term = term * Polynomial({Monomial.of(v, e): 1})
            else:
                for _ in range(e):
                    term = term * repl
        result = result + term
    return result


def differentially_homogeneous_oracle(p: Polynomial, d: int) -> bool:
    """Does substituting x_i^(j) -> sum_k C(j, k) y_k x_i^(j-k) multiply p by y_0^d?"""
    mapping = {}
    for m in p.terms:
        for v, _ in m.pairs:
            if v.kind == "x":
                mapping[v] = polynomial_from_terms(
                    (Monomial(((y(k), 1), (x(v.i, v.j - k), 1))), math.comb(v.j, k))
                    for k in range(v.j + 1)
                )
    expected = Polynomial({Monomial.of(y(0), d): 1}) * p
    return substitute_oracle(p, mapping) == expected


def coefficient_of_power(p: Polynomial, v, e: int) -> Polynomial:
    """The coefficient of v**e in p: the terms with exponent exactly e, with v removed."""
    out: dict[Monomial, Fraction] = {}
    for m, c in p.terms.items():
        exps = dict(m.pairs)
        if exps.pop(v, 0) == e:
            rest = Monomial(exps.items())
            out[rest] = out.get(rest, 0) + c
    return Polynomial(out)


def linear_in_exponential_shift(p: Polynomial) -> bool:
    """Is p(x + exponential shift) linear in the exponential marker?

    Substitutes x_i^(j) -> x_i^(j) + al_{1,i} * xi_1^j * E_1 and requires the
    result to have degree <= 1 in E_1 with the degree-1 coefficient equal to
    the exponential-direction derivative of p, sum al_{1,i} xi_1^j dp/dx_i^(j),
    built from single partials.
    """
    marker = E(1)
    mapping = {}
    for v in {v for m in p.terms for v, _ in m.pairs if v.kind == "x"}:
        shift = Polynomial({Monomial(((al(1, v.i), 1), (xi(1), v.j), (marker, 1))): 1})
        mapping[v] = Polynomial.from_variable(v) + shift
    shifted = substitute_oracle(p, mapping)
    if any(dict(m.pairs).get(marker, 0) > 1 for m in shifted.terms):
        return False
    direction = Polynomial.zero()
    for v in mapping:
        coefficient = Polynomial({Monomial(((al(1, v.i), 1), (xi(1), v.j))): 1})
        direction = direction + coefficient * diff_wrt(p, v)
    return coefficient_of_power(shifted, marker, 1) == direction


def vanishes_on_exponential_sums_oracle(p: Polynomial, d: int) -> bool:
    """Is p identically zero on every sum of d exponential trajectories?

    Substitutes x_i^(j) -> sum_{1 <= m <= d} al_{m,i} * xi_m^j * E_m and
    tests whether the result vanishes identically in the auxiliaries.
    """
    mapping = {}
    for v in {v for m in p.terms for v, _ in m.pairs if v.kind == "x"}:
        mapping[v] = polynomial_from_terms(
            (Monomial(((al(m, v.i), 1), (xi(m), v.j), (E(m), 1))), 1) for m in range(1, d + 1)
        )
    return substitute_oracle(p, mapping).is_zero


def annihilates(f: Polynomial, p: Polynomial) -> bool:
    """Is f applied to p as a differential operator, by ``pairing_oracle``,
    identically zero?"""
    return pairing_oracle(f, p).is_zero


def annihilated_by_all_oracle(generators: list[Polynomial], w: Polynomial) -> bool:
    """Does every generator, applied by ``pairing_oracle``, annihilate w?"""
    return all(annihilates(g, w) for g in generators)
