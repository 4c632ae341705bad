"""Finite groups as validated Cayley tables and the group algebra kG."""

import pytest
from hypothesis import given, strategies as st

from skewchain.fields import GF, QQ, vec_add, vec_scale
from skewchain.groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupTooLarge,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    cyclic_group,
    group_from_config,
    product_of_cyclic_groups,
    symmetric_group,
)

from helpers import NONASSOCIATIVE_TABLE, ga_mul


class TestConstruction:
    def test_cyclic_2(self):
        G = cyclic_group(2)
        assert G.order == 2
        assert G.mul(1, 1) == 0

    def test_symmetric_3(self):
        G = symmetric_group(3)
        assert G.order == 6
        transpositions = [
            g for g in G.elements if g != 0 and G.mul(g, g) == 0
        ]
        assert len(transpositions) == 3
        # labels are one-line notation; composition (p*q)(x) = p(q(x))
        s, r = G.labels.index("102"), G.labels.index("120")
        p, q = (1, 0, 2), (1, 2, 0)
        assert G.labels[G.mul(s, r)] == "".join(
            str(p[q[x]]) for x in range(3)
        )

    def test_product_of_cyclics(self):
        G = product_of_cyclic_groups([2, 2])
        assert G.order == 4
        assert all(G.mul(g, g) == 0 for g in G.elements)

    def test_not_associative(self):
        with pytest.raises(NotAssociative):
            FiniteGroup(NONASSOCIATIVE_TABLE)

    def test_not_latin_square(self):
        with pytest.raises(NotLatinSquare):
            FiniteGroup([[0, 1], [1, 1]])

    def test_no_identity_at_zero(self):
        # Z/2 written with its identity at index 1
        with pytest.raises(NoIdentity):
            FiniteGroup([[1, 0], [0, 1]])

    def test_from_config(self):
        assert group_from_config({"family": "cyclic", "n": 3}).order == 3
        assert group_from_config({"family": "symmetric", "n": 3}).order == 6
        assert group_from_config(
            {"family": "product_of_cyclics", "orders": [2, 3]}
        ).order == 6
        assert group_from_config({"table": [[0, 1], [1, 0]]}).order == 2

    def test_inverses(self):
        for G in (cyclic_group(5), symmetric_group(3)):
            for g in G.elements:
                assert G.mul(g, G.inv(g)) == 0
                assert G.mul(G.inv(g), g) == 0

    def test_ordered_product(self):
        G = symmetric_group(3)
        assert G.prod([]) == 0
        gs = [1, 4, 2, 3]
        acc = 0
        for g in gs:
            acc = G.mul(acc, g)
        assert G.prod(gs) == acc


class TestOrderCap:
    """Group orders above MAX_GROUP_ORDER are refused before any table.

    Each config below once ran for hours (O(n^3) associativity) or built a
    table of 40320^2 entries; now each is refused at once.
    """

    @pytest.mark.parametrize("cfg", [
        {"family": "cyclic", "n": 1000},
        {"family": "cyclic", "n": 10 ** 18},
        {"family": "symmetric", "n": 8},
        {"family": "symmetric", "n": 10 ** 9},
        {"family": "product_of_cyclics", "orders": [10, 10, 10]},
        {"family": "product_of_cyclics", "orders": [2] * 64},
        {"table": [[0]] * (MAX_GROUP_ORDER + 1)},
    ], ids=["cyclic", "cyclic_huge", "symmetric", "symmetric_huge",
            "product", "product_many", "table"])
    def test_large_order_refused(self, cfg):
        with pytest.raises(GroupTooLarge, match="exceeds the cap"):
            group_from_config(cfg)

    def test_cap_itself_is_allowed(self):
        assert MAX_GROUP_ORDER == 120
        assert symmetric_group(5).order == MAX_GROUP_ORDER
        with pytest.raises(GroupTooLarge):
            cyclic_group(MAX_GROUP_ORDER + 1)


def ga_elements(field, order):
    coeff = (
        st.integers(-5, 5).map(field.from_int)
        if field is QQ
        else st.integers(0, field.p - 1)
    )
    return st.dictionaries(
        st.integers(0, order - 1), coeff, max_size=order
    ).map(lambda d: {g: c for g, c in d.items() if c != 0})


class TestGroupAlgebra:
    def test_z2_square(self):
        G = cyclic_group(2)
        assert ga_mul(QQ, G, {1: 1}, {1: 1}) == {0: 1}

    def test_zero_divisors_q(self):
        G = cyclic_group(2)
        one_plus_g = {0: 1, 1: 1}
        one_minus_g = {0: 1, 1: -1}
        assert ga_mul(QQ, G, one_plus_g, one_minus_g) == {}

    def test_radical_char2(self):
        G = cyclic_group(2)
        F = GF(2)
        one_plus_g = {0: 1, 1: 1}
        assert ga_mul(F, G, one_plus_g, one_plus_g) == {}

    @pytest.mark.parametrize(
        "field,group",
        [(QQ, symmetric_group(3)), (GF(2), product_of_cyclic_groups([2, 2]))],
        ids=["QS3", "GF2_V4"],
    )
    def test_associative_bilinear(self, field, group):
        @given(
            ga_elements(field, group.order),
            ga_elements(field, group.order),
            ga_elements(field, group.order),
        )
        def laws(a, b, c):
            assert ga_mul(field, group, a, ga_mul(field, group, b, c)) == \
                ga_mul(field, group, ga_mul(field, group, a, b), c)
            assert ga_mul(field, group, a, vec_add(field, b, c)) == \
                vec_add(
                    field,
                    ga_mul(field, group, a, b),
                    ga_mul(field, group, a, c),
                )

        laws()

    def test_no_stored_zeros(self):
        G = cyclic_group(3)
        prod = ga_mul(QQ, G, {0: 1, 1: -1}, {0: 1, 1: 1, 2: 1})
        assert 0 not in prod.values()
        assert vec_scale(QQ, 0, {1: 5}) == {}
