"""The skew group algebra S(V) ⋊ G: (s·g)(s'·g') = s·(ᵍs')·gg'.

Elements are sparse {(monomial, group): scalar} dicts.
"""

import random

import pytest

from skewchain.fields import vec_add
from skewchain.skew import ContextMismatch
from skewchain.verify import random_term

from helpers import s3_perm_q, swap_gf2, swap_q


class TestMultiplication:
    def test_defining_relation(self):
        # (1·g)·(x0·1) = (ᵍx0)·g = x1·g for the swap action
        A = swap_q()
        g = {((0, 0), 1): 1}
        x0 = {((1, 0), 0): 1}
        assert A.mul(g, x0) == {((0, 1), 1): 1}

    def test_swap_squares_to_s(self):
        # (x0·g)·(x1·g) = x0·(ᵍx1)·g² = x0²·1
        A = swap_q()
        a = {((1, 0), 1): 1}
        b = {((0, 1), 1): 1}
        assert A.mul(a, b) == {((2, 0), 0): 1}

    def test_s_embeds(self):
        A = swap_q()
        x0 = {((1, 0), 0): 1}
        x1 = {((0, 1), 0): 1}
        assert A.mul(x0, x1) == {((1, 1), 0): 1}

    def test_unit_is_identity(self):
        A = s3_perm_q()
        a = {((1, 0, 2), 3): 4, ((0, 0, 0), 1): -1}
        assert A.mul(A.unit(), a) == a
        assert A.mul(a, A.unit()) == a

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            swap_q().require_same(s3_perm_q())


def skew_elements(alg, rng, size=3, dmax=2):
    pool = alg.pairs_up_to(dmax, include_unit=True)
    out = {}
    for _ in range(rng.randrange(size + 1)):
        c = alg.field.from_int(rng.randrange(-3, 4))
        if c != 0:
            out[rng.choice(pool)] = c
    return out


@pytest.mark.parametrize("make", [swap_q, swap_gf2, s3_perm_q],
                         ids=["swap_q", "swap_gf2", "s3_perm_q"])
class TestAlgebraLaws:
    def test_associativity(self, make):
        alg = make()
        rng = random.Random(11)
        for _ in range(60):
            a = skew_elements(alg, rng)
            b = skew_elements(alg, rng)
            c = skew_elements(alg, rng)
            assert alg.mul(a, alg.mul(b, c)) == alg.mul(alg.mul(a, b), c)

    def test_distributivity(self, make):
        alg = make()
        rng = random.Random(13)
        for _ in range(60):
            a = skew_elements(alg, rng)
            b = skew_elements(alg, rng)
            c = skew_elements(alg, rng)
            assert alg.mul(a, vec_add(alg.field, b, c)) == \
                vec_add(alg.field, alg.mul(a, b), alg.mul(a, c))

    def test_subalgebras(self, make):
        # {s·1} is S and {1·g} is kG inside the product
        alg = make()
        for m1 in alg.monomials_up_to(2):
            for m2 in alg.monomials_up_to(1):
                from skewchain.polynomials import poly_mul

                want = alg.of_poly(
                    poly_mul(alg.field, {m1: 1}, {m2: 1})
                )
                assert alg.mul(alg.of_poly({m1: 1}),
                               alg.of_poly({m2: 1})) == want
        G = alg.group
        for g in G.elements:
            for h in G.elements:
                assert alg.mul(alg.of_group_algebra({g: 1}),
                               alg.of_group_algebra({h: 1})) == \
                    alg.of_group_algebra({G.mul(g, h): 1})


class TestPools:
    """The sampling pools are built once per algebra, and a drawn term is
    made of the pool's own objects."""

    def test_repeated_calls_return_the_same_tuple(self):
        A = s3_perm_q()
        for pool in (lambda: A.pairs_up_to(2), lambda: A.monomials_up_to(2),
                     lambda: A.pairs_up_to(1, include_unit=True),
                     lambda: A.monomials_up_to(1, include_unit=False),
                     lambda: A.wedges(2)):
            first = pool()
            assert type(first) is tuple and first
            assert pool() is first
        assert A.pairs_up_to(1) == tuple(
            (m, g) for m in A.monomials_up_to(1) for g in A.group.elements
            if (m, g) != A.unit_pair)

    def test_a_drawn_sample_holds_the_pools_letters(self):
        A = s3_perm_q()
        rng = random.Random(3)
        letters = A.pairs_up_to(2, include_unit=False)
        outer = A.pairs_up_to(2, include_unit=True)
        for _ in range(20):
            tag, slots = random_term(A, "barskew", 4, 2, rng, free=False)
            assert all(any(p is q for q in letters) for p in slots[1:-1])
            assert all(any(p is q for q in outer)
                       for p in (slots[0], slots[-1]))
            tag, slots = random_term(A, "twisted_koszul", 4, 2, rng)
            assert any(slots[-2] is w for w in A.wedges(tag[2]))
