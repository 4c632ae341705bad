"""Multivariate polynomials S(V) and linear group actions on them.

The action of g on S(V) is the algebra automorphism extending the matrix
action on V (column j = image of e_j); the reduced space S̄ uses the
monomial-basis section minus the constant monomial.
"""

import pytest
from hypothesis import given, strategies as st

from skewchain.fields import GF, QQ, vec_add, vec_scale
from skewchain.groups import cyclic_group, symmetric_group
from skewchain.polynomials import (
    MAX_ACTION_DIM,
    ActionTooLarge,
    DimensionMismatch,
    LinearAction,
    grlex_key,
    monomials_of_degree,
    monomials_up_to,
    poly_mul,
    total_degree,
    var_exp,
)


def act_poly(action, g, f):
    """g·f, summed from the images of the monomials of f."""
    out = {}
    for m, c in f.items():
        out = vec_add(action.field, out,
                      vec_scale(action.field, c, action.act_monomial(g, m)))
    return out


def polys(field, nvars, max_deg=3):
    coeff = (
        st.integers(-5, 5).map(field.from_int)
        if field is QQ
        else st.integers(0, field.p - 1)
    )
    mono = st.tuples(*([st.integers(0, max_deg)] * nvars)).filter(
        lambda m: sum(m) <= max_deg
    )
    return st.dictionaries(mono, coeff, max_size=5).map(
        lambda d: {m: c for m, c in d.items() if c != 0}
    )


class TestArithmetic:
    def test_product_of_variables(self):
        x, y = {(1, 0): 1}, {(0, 1): 1}
        assert poly_mul(QQ, x, y) == {(1, 1): 1}

    def test_binomial_square(self):
        x_plus_y = {(1, 0): 1, (0, 1): 1}
        assert poly_mul(QQ, x_plus_y, x_plus_y) == {
            (2, 0): 1, (1, 1): 2, (0, 2): 1
        }

    def test_binomial_square_char2(self):
        F = GF(2)
        x_plus_y = {(1, 0): 1, (0, 1): 1}
        assert poly_mul(F, x_plus_y, x_plus_y) == {(2, 0): 1, (0, 2): 1}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            poly_mul(QQ, {(1, 0): 1}, {(1,): 1})

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
    def test_ring_laws(self, field):
        @given(polys(field, 2), polys(field, 2), polys(field, 2))
        def laws(f, g, h):
            assert poly_mul(field, f, g) == poly_mul(field, g, f)
            assert poly_mul(field, f, poly_mul(field, g, h)) == \
                poly_mul(field, poly_mul(field, f, g), h)
            assert poly_mul(field, f, vec_add(field, g, h)) == \
                vec_add(
                    field, poly_mul(field, f, g), poly_mul(field, f, h)
                )

        laws()

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    def test_degree_additive(self, field):
        @given(polys(field, 2), polys(field, 2))
        def law(f, g):
            p = poly_mul(field, f, g)
            if f and g:
                assert max(map(total_degree, p)) == \
                    max(map(total_degree, f)) + max(map(total_degree, g))

        law()


class TestSections:
    def test_monomial_enumeration(self):
        assert list(monomials_of_degree(2, 0)) == [(0, 0)]
        assert set(monomials_of_degree(2, 2)) == {(2, 0), (1, 1), (0, 2)}
        assert len(list(monomials_up_to(3, 2))) == 1 + 3 + 6
        assert len(list(monomials_up_to(3, 2, include_unit=False))) == 9

    def test_grlex_is_graded(self):
        ms = sorted(monomials_up_to(2, 3), key=grlex_key)
        degs = [total_degree(m) for m in ms]
        assert degs == sorted(degs)


class TestLinearAction:
    def test_swap_on_monomial(self):
        G = cyclic_group(2)
        A = LinearAction(QQ, G, 2, {1: [[0, 1], [1, 0]]})
        # g·(x0² x1) = x1² x0
        assert A.act_monomial(1, (2, 1)) == {(1, 2): 1}

    def test_sign_action_on_product(self):
        G = cyclic_group(2)
        A = LinearAction(QQ, G, 2, {1: [[-1, 0], [0, -1]]})
        assert A.act_monomial(1, (1, 1)) == {(1, 1): 1}
        assert A.act_monomial(1, (1, 0)) == {(1, 0): -1}

    def test_identity_acts_trivially(self):
        G = cyclic_group(2)
        A = LinearAction(QQ, G, 2, {1: [[0, 1], [1, 0]]})
        f = {(2, 0): 3, (1, 1): -1}
        assert act_poly(A, 0, f) == f

    def test_homomorphism_enforced(self):
        G = cyclic_group(2)
        with pytest.raises(ValueError):
            LinearAction(QQ, G, 2, {1: [[1, 0], [0, 2]]})

    def test_from_generators(self):
        G = symmetric_group(3)
        s, r = G.labels.index("102"), G.labels.index("120")
        A = LinearAction.from_generators(
            QQ, G, 2, {r: [[0, -1], [1, -1]], s: [[0, 1], [1, 0]]}
        )
        for g in G.elements:
            for h in G.elements:
                gh = G.mul(g, h)
                f = {var_exp(2, 0): 1, (1, 1): 2}
                assert act_poly(A, g, act_poly(A, h, f)) == \
                    act_poly(A, gh, f)

    @pytest.mark.parametrize("build", [
        lambda G, n: LinearAction(QQ, G, n, {}),
        lambda G, n: LinearAction.from_generators(QQ, G, n, {}),
        lambda G, n: LinearAction.from_config(QQ, G, {"dim": n}),
    ], ids=["init", "from_generators", "from_config"])
    def test_dim_cap(self, build):
        G = cyclic_group(1)
        assert build(G, MAX_ACTION_DIM).dim == MAX_ACTION_DIM
        with pytest.raises(ActionTooLarge, match="exceeds the cap of 16"):
            build(G, 10 ** 9)

    def test_from_generators_insufficient(self):
        G = symmetric_group(3)
        r = G.labels.index("120")
        with pytest.raises(ValueError):
            LinearAction.from_generators(QQ, G, 2, {r: [[0, -1], [1, -1]]})

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
    def test_automorphism_property(self, field):
        G = cyclic_group(2)
        A = LinearAction(field, G, 2, {1: [[0, 1], [1, 0]]})

        @given(polys(field, 2), polys(field, 2))
        def law(f, g):
            assert act_poly(A, 1, poly_mul(field, f, g)) == poly_mul(
                field, act_poly(A, 1, f), act_poly(A, 1, g)
            )

        law()
