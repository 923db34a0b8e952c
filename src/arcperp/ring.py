"""Sparse differential polynomial ring over exact rationals.

A polynomial is a sparse map from monomials to nonzero exact coefficients,
each an ``int`` or a ``Fraction`` as the arithmetic produced it, so integer
arithmetic stays in ``int``.  Variables come in two flavours:

* differential variables ``x<i>_<j>`` standing for the j-th formal derivative
  of the i-th coordinate (the derivation sends ``x<i>_<j>`` to ``x<i>_<j+1>``);
* auxiliary symbols with their own derivation rules: the constants ``xi<m>``
  and ``al<m>_<i>`` (derivative zero), the exponential markers ``E<m>``
  (derivative ``xi<m>*E<m>``), and the differential indeterminate ``y_<k>``
  (derivative ``y_<k+1>``).

All values are immutable after construction and every operation is a pure
function, so concurrent use is safe.  There is no floating-point mode.
"""

from __future__ import annotations

import bisect
import decimal
import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple


class Variable(NamedTuple):
    """A single ring variable: the plain tuple ``(rank, i, j, kind)``.

    ``kind`` is one of ``x``, ``xi``, ``al``, ``E``, ``y`` and ``rank`` is its
    position in that list.  For ``x`` the fields are (family ``i`` >= 1,
    derivative order ``j`` >= 0); for ``al`` they are (group ``i``,
    coordinate ``j``); for ``xi``/``E`` only ``i`` is used; for ``y`` only
    ``j`` (the derivative order).

    Order, equality and hashing are the tuple's: differential variables come
    first, family-major with orders ascending, then ``xi``, ``al``, ``E`` and
    ``y``, each by ``(i, j)``.  Build variables with :func:`x`, :func:`xi`,
    :func:`al`, :func:`E` and :func:`y` only.
    """

    rank: int
    i: int
    j: int
    kind: str

    def token(self) -> str:
        if self.kind == "x":
            return f"x{self.i}_{self.j}"
        if self.kind == "xi":
            return f"xi{self.i}"
        if self.kind == "al":
            return f"al{self.i}_{self.j}"
        if self.kind == "E":
            return f"E{self.i}"
        return f"y_{self.j}"

    def __repr__(self) -> str:
        return f"Variable({self.token()!r})"


def x(i: int, j: int = 0) -> Variable:
    """The differential variable x_i^(j)."""
    if i < 1 or j < 0:
        raise ValueError(f"invalid differential variable x{i}_{j}")
    return Variable(0, i, j, "x")


def xi(m: int) -> Variable:
    """The transcendental constant xi_m (derivative zero)."""
    return Variable(1, m, 0, "xi")


def al(m: int, i: int) -> Variable:
    """The transcendental constant al_{m,i} (derivative zero)."""
    return Variable(2, m, i, "al")


def E(m: int) -> Variable:
    """The exponential marker E_m, with derivation E_m' = xi_m * E_m."""
    return Variable(3, m, 0, "E")


def y(k: int) -> Variable:
    """The k-th derivative of the differential indeterminate y."""
    if k < 0:
        raise ValueError(f"invalid derivative order y_{k}")
    return Variable(4, 0, k, "y")


def differential_variables(n: int, max_order: int) -> list[Variable]:
    """All x_i^(j) with 1 <= i <= n and 0 <= j <= max_order, in variable order."""
    return [x(i, j) for i in range(1, n + 1) for j in range(max_order + 1)]


class Monomial:
    """A power product, stored as a sorted tuple of (variable, exponent) pairs.

    Zero exponents are never stored; the empty product is the monomial 1.
    Ordering is graded lexicographic: higher total degree wins, ties are
    broken by the exponent at the earliest variable where the two differ.
    :meth:`order_key` spells that order as one flat tuple; sort with
    ``key=Monomial.order_key``.
    """

    __slots__ = ("pairs", "degree", "_hash")

    def __init__(self, pairs: Iterable[tuple[Variable, int]]):
        items = [(v, e) for v, e in pairs if e != 0]
        for _, e in items:
            if e < 0:
                raise ValueError("negative exponent in monomial")
        items.sort()
        self.pairs: tuple[tuple[Variable, int], ...] = tuple(items)
        self.degree: int = sum(e for _, e in items)
        self._hash = hash(self.pairs)

    @classmethod
    def of(cls, v: Variable, e: int = 1) -> "Monomial":
        return cls(((v, e),))

    def order_key(self) -> tuple[int, ...]:
        """``(degree, -rank, -i, -j, e, ...)`` over the pairs in variable order.

        Every variable takes the same four places, so comparing keys compares
        the exponents at the first variable where two monomials differ, and a
        monomial holding the earlier variable is the larger one.
        """
        key = [self.degree]
        for (rank, i, j, _), e in self.pairs:
            key += (-rank, -i, -j, e)
        return tuple(key)

    def variables(self) -> tuple[Variable, ...]:
        return tuple(v for v, _ in self.pairs)

    def mul(self, other: "Monomial") -> "Monomial":
        if not self.pairs:
            return other
        if not other.pairs:
            return self
        # One merge of the two sorted pair tuples; exponents only add.
        a, b = self.pairs, other.pairs
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (va, ea), (vb, eb) = a[i], b[j]
            if va == vb:
                out.append((va, ea + eb))
                i += 1
                j += 1
            elif va < vb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out += a[i:] or b[j:]
        return _sorted_monomial(tuple(out), self.degree + other.degree)

    def has_order_above(self, h: int) -> bool:
        return any(v.kind == "x" and v.j > h for v, _ in self.pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.pairs:
            return "1"
        parts = []
        for v, e in self.pairs:
            parts.append(v.token() if e == 1 else f"{v.token()}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _sorted_monomial(pairs: tuple[tuple[Variable, int], ...], degree: int) -> Monomial:
    """The monomial of pairs already sorted, with no zero exponent, and of
    the given degree: skips the sorting constructor."""
    m = object.__new__(Monomial)
    m.pairs, m.degree, m._hash = pairs, degree, hash(pairs)
    return m


_ONE = Monomial(())

_Scalar = (int, Fraction)


class Polynomial:
    """Sparse rational-coefficient sum of monomials.

    The term map never stores zero coefficients; the zero polynomial has an
    empty map.  Coefficients are kept as given, ``int`` or ``Fraction``; the
    two compare alike, so ``3`` and ``Fraction(3)`` make equal polynomials.
    Instances are immutable by convention.  The operators are ``+``, ``*``
    and ``==``, each also with an ``int`` or ``Fraction``; a polynomial is
    not hashable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        self.terms: dict[Monomial, int | Fraction] = (
            {m: c for m, c in terms.items() if c} if terms else {}
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def from_variable(cls, v: Variable) -> "Polynomial":
        return cls({Monomial.of(v): 1})

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Monomial, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0].order_key(), reverse=True)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value: "Polynomial | int | Fraction") -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, _Scalar):
            return Polynomial({_ONE: value})
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            old = out.get(m)
            out[m] = c if old is None else old + c
        return Polynomial(out)

    __radd__ = __add__

    def __mul__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial.zero()
        out: dict[Monomial, int | Fraction] = {}
        for ma, ca in self.terms.items():
            unit = ca == 1
            for mb, cb in other.terms.items():
                m = ma.mul(mb)
                c = cb if unit else ca * cb
                old = out.get(m)
                out[m] = c if old is None else old + c
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Scalar):
            other = Polynomial({_ONE: other})
        return isinstance(other, Polynomial) and self.terms == other.terms

    # -- derivation ---------------------------------------------------------

    def derive(self, rule) -> "Polynomial":
        """The derivation sum_v rule(v) * dp/dv.

        ``rule(v)``, called once per variable of p, lists the image of v as
        terms (r, pairs), r times the monomial u of the sorted pairs; it is
        empty for a constant.  A factor v^e of a term c*m gives c*e*r times m
        with v's exponent lowered and u's pairs merged in at their places: one
        edit of the pair tuple per image term, with no polynomial product.
        """
        images: dict[Variable, list] = {}
        acc: dict[tuple, int | Fraction] = {}
        for m, c in self.terms.items():
            pairs = m.pairs
            for idx, (v, e) in enumerate(pairs):
                image = images.get(v)
                if image is None:
                    image = images[v] = rule(v)
                if not image:
                    continue
                lowered = list(pairs)
                if e > 1:
                    lowered[idx] = (v, e - 1)
                else:
                    del lowered[idx]
                ce = c if e == 1 else c * e
                for r, upairs in image:
                    out = lowered.copy()
                    for w, f in upairs:
                        pos = bisect.bisect_left(out, (w,))
                        if pos < len(out) and out[pos][0] == w:
                            out[pos] = (w, out[pos][1] + f)
                        else:
                            out.insert(pos, (w, f))
                    key = tuple(out)
                    t = ce if r == 1 else ce * r
                    old = acc.get(key)
                    acc[key] = t if old is None else old + t
        return Polynomial(
            {_sorted_monomial(k, sum(e for _, e in k)): t for k, t in acc.items() if t}
        )

    def derivative(self) -> "Polynomial":
        """The formal derivative: :meth:`derive` with the rule :func:`_next_order`."""
        return self.derive(_next_order)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)})"


def _next_order(v: Variable) -> list:
    """The formal derivative as a :meth:`Polynomial.derive` rule: ``x`` and ``y``
    go to the next order of their own family and E_m to xi_m*E_m, while ``xi``
    and ``al`` are constants."""
    rank, i, j, kind = v
    if kind == "x" or kind == "y":
        return [(1, ((Variable(rank, i, j + 1, kind), 1),))]
    if kind == "E":
        return [(1, ((xi(i), 1), (v, 1)))]
    return []


# -- parsing and formatting ---------------------------------------------------

ZERO = Polynomial.zero()
ONE = Polynomial({_ONE: 1})


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The token and variable-name patterns.  They are passed to ``re`` as text, so
# ``re`` compiles each on the first ``parse`` and caches it; a command that
# parses nothing compiles neither.
_TOKEN = r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[+\-*/^])|(?P<bad>\S))"
_VARIABLE = r"(xi|al|x|E|y_)(\d+)(?:_(\d+))?"


def _variable(tok: str, pos: int) -> Variable:
    """The variable a name token spells: ``x`` and ``al`` take two indices,
    ``xi``, ``E`` and ``y_`` one."""
    m = re.fullmatch(_VARIABLE, tok)
    if m:
        name, a, b = m.groups()
        if (b is None) == (name in ("xi", "E", "y_")):
            make = {"x": x, "xi": xi, "al": al, "E": E, "y_": y}[name]
            try:
                return make(int(a)) if b is None else make(int(a), int(b))
            except ValueError as exc:
                raise PolynomialSyntaxError(str(exc), pos) from None
    raise PolynomialSyntaxError(f"unknown variable name {tok!r}", pos)


def _number(token: tuple[str, str, int]) -> int:
    """A ``num`` token's value, past Python's integer-string limit a syntax error."""
    kind, tok, pos = token
    if kind != "num":
        found = "end of input" if kind == "end" else repr(tok)
        raise PolynomialSyntaxError(f"expected num, found {found}", pos)
    try:
        return int(tok)
    except ValueError as exc:
        raise PolynomialSyntaxError(str(exc), pos) from None


def parse(text: str) -> Polynomial:
    """Parse polynomial text in the grammar used by :func:`format_polynomial`.

    Terms are separated by ``+``/``-``; each term is a ``*``-separated list of
    an optional rational ``p`` or ``p/q`` and powered variables ``tok^e``.
    Whitespace is ignored.  Raises :class:`PolynomialSyntaxError` on malformed
    input or unknown variable names.

    One pass of ``_TOKEN`` splits the whole text into (kind, text,
    position) tokens of kind ``num``, ``ident`` or ``op``, so a stray
    character is reported before any other error.  An ``end`` sentinel at
    ``len(text)`` closes the list, so every lookahead is one index read.
    One loop then reads each term, an optional sign and the ``*``-joined
    factors that follow it, into one term map, so parsing is linear.
    """
    tokens = []
    for m in re.finditer(_TOKEN, text):
        kind = m.lastgroup
        if kind == "bad":
            raise PolynomialSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    if not tokens:
        raise PolynomialSyntaxError("empty input", 0)
    tokens.append(("end", "", len(text)))
    terms: dict[Monomial, int | Fraction] = {}
    i = 0
    while tokens[i][0] != "end":
        _, tok, pos = tokens[i]
        sign = -1 if tok == "-" else 1
        if tok in ("+", "-"):
            i += 1
            if tokens[i][0] == "end":
                raise PolynomialSyntaxError("dangling sign", pos)
        elif i:
            raise PolynomialSyntaxError(f"expected '+' or '-', found {tok!r}", pos)
        coeff: int | Fraction = 1
        pairs: dict[Variable, int] = {}
        while True:
            kind, tok, pos = tokens[i]
            if kind == "num":
                numer = _number(tokens[i])
                if tokens[i + 1][1] == "/":
                    i += 2
                    denom = _number(tokens[i])
                    if denom == 0:
                        raise PolynomialSyntaxError("zero denominator", tokens[i][2])
                    numer = Fraction(numer, denom)
                coeff *= numer
            elif kind == "ident":
                v = _variable(tok, pos)
                e = 1
                if tokens[i + 1][1] == "^":
                    i += 2
                    e = _number(tokens[i])
                pairs[v] = pairs.get(v, 0) + e
            elif kind == "op":
                raise PolynomialSyntaxError(f"unexpected {tok!r} in term", pos)
            else:
                raise PolynomialSyntaxError("expected a factor", pos)
            i += 1
            if tokens[i][1] != "*":
                break
            i += 1
        m = Monomial(pairs.items())
        terms[m] = terms.get(m, 0) + sign * coeff
    return Polynomial(terms)


# Up to this many bits ``Decimal(n)`` converts n directly.
_SPLIT_BITS = 4096


def _decimal(n: int) -> decimal.Decimal:
    """n as an exact ``Decimal``.  ``Decimal(n)`` takes time quadratic in the
    digits, so past ``_SPLIT_BITS`` bits n is converted by binary splitting:
    its high and low halves, converted in turn, are joined as hi * 2^half +
    lo under a context of unbounded precision that traps any rounding.  That
    takes the time of the decimal products, which is subquadratic."""
    bits = abs(n).bit_length()
    if bits <= _SPLIT_BITS:
        return decimal.Decimal(n)
    powers: dict[int, decimal.Decimal] = {}

    def split(m: int, bits: int) -> decimal.Decimal:  # 0 <= m < 2**bits
        if bits <= _SPLIT_BITS:
            return decimal.Decimal(m)
        half = bits // 2
        if half not in powers:
            powers[half] = decimal.Decimal(2) ** half
        return split(m >> half, bits - half) * powers[half] + split(m & ((1 << half) - 1), half)

    with decimal.localcontext() as context:
        context.prec, context.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        magnitude = split(abs(n), bits)
        return magnitude if n > 0 else -magnitude


def _format_coeff(c: int | Fraction) -> str:
    """c as ``p`` or ``p/q``.  An exact product can pass Python's limit on
    integer-to-string conversion (1700! has 4,756 digits); ``_decimal`` holds
    an ``int`` exactly and prints every digit, with no process-wide setting."""
    numerator = str(_decimal(c.numerator))
    return numerator if c.denominator == 1 else f"{numerator}/{_decimal(c.denominator)}"


def format_polynomial(p: Polynomial) -> str:
    """Render a polynomial in the parse grammar, terms in descending order."""
    if p.is_zero:
        return "0"
    chunks: list[str] = []
    for idx, (m, c) in enumerate(p.sorted_terms()):
        mag = abs(c)
        if not m.pairs:
            body = _format_coeff(mag)
        elif mag == 1:
            body = str(m)
        else:
            body = f"{_format_coeff(mag)}*{m}"
        if idx == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(chunks)
