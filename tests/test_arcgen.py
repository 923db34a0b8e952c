import pytest

from arcperp import arcgen
from arcperp.arcgen import arc_generators_up_to
from arcperp.ring import parse

P = parse


def arc_generator(n, i, j, order):
    """The coefficient of t^order in x_i(t) * x_j(t), read at its place in
    the (order, i, j) listing of :func:`arc_generators_up_to`."""
    families = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    return arc_generators_up_to(n, order)[order * len(families) + families.index((i, j))]


class TestArcGenerator:
    def test_square(self):
        assert arc_generator(1, 1, 1, 0) == P("x1_0^2")

    def test_second_coefficient(self):
        assert arc_generator(1, 1, 1, 2) == P("2*x1_0*x1_2 + x1_1^2")

    def test_mixed_families(self):
        assert arc_generator(2, 1, 2, 1) == P("x1_0*x2_1 + x1_1*x2_0")


class TestEnumeration:
    def test_n1_low_orders(self):
        # (x + x' t + ...)^2 expands with coefficient 2*x*x' at t^1
        assert arc_generators_up_to(1, 1) == [P("x1_0^2"), P("2*x1_0*x1_1")]

    def test_n1_order_zero(self):
        assert arc_generators_up_to(1, 0) == [P("x1_0^2")]

    def test_n2_order_zero(self):
        assert arc_generators_up_to(2, 0) == [P("x1_0^2"), P("x1_0*x2_0"), P("x2_0^2")]

    def test_order_major_then_families(self):
        gens = arc_generators_up_to(2, 1)
        assert gens == [
            P("x1_0^2"),
            P("x1_0*x2_0"),
            P("x2_0^2"),
            P("2*x1_0*x1_1"),
            P("x1_0*x2_1 + x1_1*x2_0"),
            P("2*x2_0*x2_1"),
        ]


class TestStructure:
    @pytest.mark.parametrize("n,i,j,order", [(1, 1, 1, 4), (2, 1, 2, 3), (3, 2, 3, 5)])
    def test_degree_and_weight_homogeneous(self, n, i, j, order):
        g = arc_generator(n, i, j, order)
        assert {m.degree for m in g.terms} == {2}
        assert {sum(v.j * e for v, e in m.pairs) for m in g.terms} == {order}

    @pytest.mark.parametrize("n,i,j,order", [(1, 1, 1, 0), (1, 1, 1, 3), (2, 1, 2, 2)])
    def test_derivative_reindexes_the_series(self, n, i, j, order):
        # (sum_s x_i^(s) x_j^(l-s))' = sum_s x_i^(s+1) x_j^(l-s)
        #                            + sum_s x_i^(s) x_j^(l-s+1), verified symbolically
        from arcperp.ring import Monomial, Polynomial, x

        g = arc_generator(n, i, j, order)
        expected = Polynomial.zero()
        for s in range(order + 1):
            expected = expected + Polynomial(
                {Monomial.of(x(i, s + 1)).mul(Monomial.of(x(j, order - s))): 1}
            )
            expected = expected + Polynomial(
                {Monomial.of(x(i, s)).mul(Monomial.of(x(j, order - s + 1))): 1}
            )
        assert g.derivative() == expected


class TestProductLimit:
    def test_refused_past_the_closed_form_count(self, monkeypatch):
        # n(n+1)/2 * (m+1)(m+2)/2 products: 6 at (1, 2) and (3, 0), 10 at
        # (1, 3) and 9 at (2, 1).
        monkeypatch.setattr(arcgen, "PRODUCT_LIMIT", 6)
        assert len(arc_generators_up_to(1, 2)) == 3
        assert len(arc_generators_up_to(3, 0)) == 6
        for n, order in [(1, 3), (2, 1)]:
            with pytest.raises(ValueError, match="exceed the limit of 6 products per listing"):
                arc_generators_up_to(n, order)
