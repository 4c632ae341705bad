"""Cochains on the bar resolution: products, differential, transports.

The composition product here inserts g into each argument slot of f with
sign (-1)^{(n-1)i} after reducing the value to the monomial basis and
dropping unit insertions; the coboundary is evaluation against the bar
differential.  With those conventions the products satisfy (checked here
on random tables, all degrees m, n, p <= 2..3):

* pre-Lie symmetry
    (f∘g)∘h - f∘(g∘h) = (-1)^{(n-1)(p-1)} [(f∘h)∘g - f∘(h∘g)],
* homotopy-commutativity of the cup product
    d*(f∘g) - (-1)^{n-1}(d*f)∘g - f∘(d*g)
        = -(-1)^{n(m-1)} f⌣g + (-1)^n g⌣f,

and the transports along the splitting maps restrict back to the original
twisted-product cochains (π∘ι = id pointwise on cochains).
"""

import itertools
import random

import pytest

from skewchain.chainmaps import iota
from skewchain.cochains import (
    Cochain,
    Expansion,
    circle,
    coboundary,
    transport_down,
    transport_up,
)
from skewchain.complexes import (
    ChainElement,
    ShapeMismatch,
    expand_term,
)
from skewchain.fields import vec_sub
from skewchain.pbw import PBWParams
from skewchain.polynomials import var_exp

from helpers import pi_of_free, swap_gf2, swap_q, z3_unipotent_gf3

Z, X0, X1 = (0, 0), (1, 0), (0, 1)
UNIT = (Z, 0)


def table_cochain(A, tag, table):
    """The cochain with the given values on free keys, zero off the table."""
    return Cochain(A, tag, lambda key: table.get(key, {}))


def rand_table(A, m, rng, density=0.5):
    pairs = A.pairs_up_to(1, include_unit=False)
    allp = A.pairs_up_to(1, include_unit=True)
    t = {}
    for key in itertools.product(pairs, repeat=m):
        if rng.random() < density:
            t[key] = {rng.choice(allp): A.field.from_int(rng.choice([1, -1, 2]))}
    return table_cochain(A, ("barskew", m), t)


def cup(f, g):
    """(f ⌣ g)(x_1..x_{m+n}) = f(x_1..x_m) * g(x_{m+1}..x_{m+n})."""
    A, m = f.alg, f.tag[1]
    return Cochain(A, ("barskew", m + g.tag[1]),
                   lambda inner: A.mul(f.value(inner[:m]),
                                       g.value(inner[m:])))


def keys_of(A, deg):
    return list(itertools.product(A.pairs_up_to(1, include_unit=False),
                                  repeat=deg))


class TestEvaluation:
    def test_bimodule_extension(self):
        # f(1 ⊗ x0 ⊗ 1) = 1; on x1 · (1⊗x0⊗1) · g the value is x1 · 1 · g
        A = swap_q()
        f = table_cochain(A, ("barskew", 1), {((X0, 0),): {UNIT: 1}})
        x = ChainElement.basis(A, ("barskew", 1), ((X1, 0), (X0, 0), (Z, 1)))
        assert f.eval_element(x) == {(X1, 1): 1}

    def test_off_tag_is_zero(self):
        A = swap_q()
        f = table_cochain(A, ("barskew", 1), {((X0, 0),): {UNIT: 1}})
        y = ChainElement.basis(A, ("barskew", 2), (UNIT, (X0, 0), (X0, 0), UNIT))
        assert f.eval_element(y) == {}

    def test_twisted_evaluation_through_free_decompose(self):
        # alpha((g), (x0)) = 1 on the (1,1) Koszul column; on the term with
        # left outer group slot g the value picks up the outer: g · 1 = g
        A = swap_q()
        al = table_cochain(
            A, ("twisted", 1, 1, "koszul"), {((1,), ((0,),)): {UNIT: 1}}
        )
        free = ChainElement.basis(
            A, ("twisted", 1, 1, "koszul"), (0, 1, 0, Z, (0,), Z)
        )
        assert al.eval_element(free) == {UNIT: 1}
        shifted = ChainElement.basis(
            A, ("twisted", 1, 1, "koszul"), (1, 1, 0, Z, (0,), Z)
        )
        assert al.eval_element(shifted) == {(Z, 1): 1}

    def test_each_cochain_reads_only_its_own_tag(self):
        # a chain over a bar and a twisted tag: each cochain reads its own
        # part, as a chain or as an Expansion, and is zero on a tag the
        # chain has no part on
        A = swap_q()
        f = table_cochain(A, ("barskew", 1), {((X0, 0),): {UNIT: 1}})
        al = table_cochain(
            A, ("twisted", 1, 1, "koszul"), {((1,), ((0,),)): {UNIT: 1}}
        )
        other = table_cochain(A, ("twisted", 0, 2, "koszul"),
                              {((), ((0, 1),)): {UNIT: 1}})
        x = ChainElement.basis(A, ("barskew", 1), ((X1, 0), (X0, 0), UNIT))
        x.add_scaled(ChainElement.basis(
            A, ("twisted", 1, 1, "koszul"), (1, 1, 0, Z, (0,), Z)), 3)
        for read in (x, Expansion.of(x)):
            assert f.eval_element(read) == {(X1, 0): 1}
            assert al.eval_element(read) == {(Z, 1): 3}
            assert other.eval_element(read) == {}

    @pytest.mark.parametrize("tag,slots", [
        (("bars", 1), (Z, X0, Z)),
        (("koszul", 1), (Z, (0,), Z)),
    ])
    def test_no_cochain_reads_a_chain_of_s(self, tag, slots):
        A = swap_q()
        c = table_cochain(A, tag, {})
        with pytest.raises(ShapeMismatch):
            c.eval_element(ChainElement.basis(A, tag, slots))
        with pytest.raises(ShapeMismatch):
            Expansion.of(ChainElement.basis(A, tag, slots))

    def test_vector_space_structure_requires_same_degree(self):
        A = swap_q()
        f = table_cochain(A, ("barskew", 1), {})
        g = table_cochain(A, ("barskew", 2), {})
        with pytest.raises(ShapeMismatch):
            f + g
        with pytest.raises(ShapeMismatch):
            f - g


class TestCoboundary:
    def test_frozen_degree1(self):
        # f(x0) = 1, zero elsewhere:
        #   (d*f)(x0, x1) = x0 f(x1) - f(x0 x1) + f(x0) x1 = x1
        #   (d*f)(x0·g, x0) = (x0·g) f(x0) - f(x0 ^g(x0) · g) + f(x0·g) x0
        #                   = x0·g
        A = swap_q()
        f = table_cochain(A, ("barskew", 1), {((X0, 0),): {UNIT: 1}})
        df = coboundary(f)
        assert df.value(((X0, 0), (X1, 0))) == {(X1, 0): 1}
        assert df.value(((X1, 0), (X0, 0))) == {(X1, 0): 1}
        assert df.value(((X0, 1), (X0, 0))) == {(X0, 1): 1}

    def test_wrong_domain(self):
        A = swap_q()
        al = table_cochain(A, ("twisted", 1, 1, "koszul"), {})
        with pytest.raises(ShapeMismatch):
            coboundary(al)

    @pytest.mark.parametrize("m", [1, 2])
    def test_squares_to_zero(self, m):
        A = z3_unipotent_gf3()
        rng = random.Random(100 + m)
        for _ in range(3):
            f = rand_table(A, m, rng)
            ddf = coboundary(coboundary(f))
            for key in keys_of(A, m + 2):
                assert ddf.value(key) == {}


class TestCircleAndCup:
    def test_unit_insertions_vanish(self):
        A = swap_q()
        f = table_cochain(A, ("barskew", 1), {((X0, 0),): {UNIT: 1}})
        g_unit = table_cochain(A, ("barskew", 1), {((X0, 0),): {UNIT: 1}})
        # g hands back the unit, which may not re-enter a bar slot
        assert circle(f, g_unit).value(((X0, 0),)) == {}
        g_var = table_cochain(A, ("barskew", 1), {((X0, 0),): {(X0, 0): 2}})
        assert circle(f, g_var).value(((X0, 0),)) == {UNIT: 2}

    def test_insertion_sign(self):
        # f, g of degree 2: (f∘g)(a,b,c) = f(g(a,b),c) - f(a,g(b,c));
        # with f(x0,x1) = 1, g(x1,x0) = x0 and g(x0,x0) = x1:
        #   (f∘g)(x1,x0,x1) = f(x0,x1) = 1        (position 0, sign +)
        #   (f∘g)(x0,x0,x0) = -f(x0,x1) = -1      (position 1, sign -)
        A = swap_q()
        f = table_cochain(
            A, ("barskew", 2), {((X0, 0), (X1, 0)): {UNIT: 1}}
        )
        g = table_cochain(
            A, ("barskew", 2),
            {((X1, 0), (X0, 0)): {(X0, 0): 1},
             ((X0, 0), (X0, 0)): {(X1, 0): 1}},
        )
        fg = circle(f, g)
        assert fg.value(((X1, 0), (X0, 0), (X1, 0))) == {UNIT: 1}
        assert fg.value(((X0, 0), (X0, 0), (X0, 0))) == {UNIT: -1}



class TestGerstenhaberIdentities:
    @pytest.mark.parametrize("make", [swap_q, z3_unipotent_gf3],
                             ids=["swap_q", "z3_uni"])
    @pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_cup_homotopy_commutative(self, make, mn):
        A = make()
        m, n = mn
        rng = random.Random(40 + 10 * m + n)
        for _ in range(2):
            f, g = rand_table(A, m, rng), rand_table(A, n, rng)
            a = -1 if (n - 1) % 2 else 1
            e1 = -1 if (n * (m - 1)) % 2 == 0 else 1
            e2 = -1 if n % 2 else 1
            lhs = coboundary(circle(f, g)) \
                - circle(coboundary(f), g).scaled(a) \
                - circle(f, coboundary(g))
            rhs = cup(f, g).scaled(e1) + cup(g, f).scaled(e2)
            keys = keys_of(A, m + n)
            rng.shuffle(keys)
            for key in keys[:30]:
                assert lhs.value(key) == rhs.value(key)

    @pytest.mark.parametrize("np_", [(1, 1), (2, 1), (1, 2)])
    def test_pre_lie_symmetry(self, np_):
        A = swap_q()
        n, p = np_
        rng = random.Random(60 + 10 * n + p)
        for m in (1, 2):
            f = rand_table(A, m, rng)
            g, h = rand_table(A, n, rng), rand_table(A, p, rng)
            s = -1 if ((n - 1) * (p - 1)) % 2 else 1
            lhs = circle(circle(f, g), h) - circle(f, circle(g, h))
            rhs = (circle(circle(f, h), g)
                   - circle(f, circle(h, g))).scaled(s)
            keys = keys_of(A, m + n + p - 2)
            rng.shuffle(keys)
            for key in keys[:25]:
                assert lhs.value(key) == rhs.value(key)


class TestTransports:
    @pytest.mark.parametrize("make", [swap_q, z3_unipotent_gf3],
                             ids=["swap_q", "z3_uni"])
    def test_round_trip_restricts_to_identity(self, make):
        A = make()
        pif = pi_of_free(A)
        rng = random.Random(23)
        for tag in (("twisted", 1, 1, "koszul"), ("twisted", 0, 2, "koszul")):
            i, j = tag[1], tag[2]
            keys = []
            for cb in itertools.product(range(1, A.group.order), repeat=i):
                for w in itertools.combinations(range(A.nvars), j):
                    keys.append((cb, (w,)))
            for _ in range(3):
                table = {
                    k: {rng.choice(A.pairs_up_to(1, include_unit=True)): 1}
                    for k in keys if rng.random() < 0.7
                }
                al = table_cochain(A, tag, table)
                back = transport_down(transport_up(al, pif), iota, tag)
                for k in keys:
                    assert back.value(k) == al.value(k)

    def test_transport_shape_errors(self):
        A = swap_q()
        mu = table_cochain(A, ("barskew", 2), {})
        al = table_cochain(A, ("twisted", 1, 1, "koszul"), {})
        with pytest.raises(ShapeMismatch):
            transport_up(mu, lambda x: x)
        with pytest.raises(ShapeMismatch):
            transport_down(al, lambda x: x, ("twisted", 1, 1, "koszul"))
        with pytest.raises(ShapeMismatch):
            transport_down(mu, lambda x: x, ("twisted", 2, 1, "koszul"))


class TestParameterCochainIdentities:
    """mu1, mu2 restrict to lambda and kappa through the splitting."""

    @pytest.mark.parametrize("make", [swap_q, swap_gf2, z3_unipotent_gf3],
                             ids=["swap_q", "swap_gf2", "z3_uni"])
    def test_mu1_mu2_restriction(self, make):
        A = make()
        pif = pi_of_free(A)
        rng = random.Random(29)
        z = A.zero_exp
        for _ in range(6):
            params = PBWParams.random(A, rng).without_identity_lambda()

            def lam_fn(key, p=params):
                (g,), ((i,),) = key
                return A.of_group_algebra(p.lam_of(g, i))

            def kap_fn(key, p=params):
                _, ((i, j),) = key
                return A.of_group_algebra(p.kappa_wedge(i, j))

            mu1 = transport_up(
                Cochain(A, ("twisted", 1, 1, "koszul"), lam_fn), pif
            )
            mu2 = transport_up(
                Cochain(A, ("twisted", 0, 2, "koszul"), kap_fn), pif
            )
            tag = ("barskew", 2)
            for g in range(A.group.order):
                for i in range(A.nvars):
                    v = var_exp(A.nvars, i)
                    el1 = expand_term(
                        A, tag, (UNIT, (z, g), (v, 0), UNIT)
                    )
                    gv = A.action.act_monomial(g, v)
                    el2 = expand_term(
                        A, tag,
                        (UNIT, {(m, 0): c for m, c in gv.items()},
                         (z, g), UNIT),
                    )
                    lhs = vec_sub(A.field, mu1.eval_element(el1),
                                  mu1.eval_element(el2))
                    rhs = A.of_group_algebra(params.lam_of(g, i))
                    assert lhs == rhs
            for i in range(A.nvars):
                for j in range(i + 1, A.nvars):
                    vi = var_exp(A.nvars, i)
                    vj = var_exp(A.nvars, j)
                    el1 = expand_term(
                        A, tag, (UNIT, (vi, 0), (vj, 0), UNIT)
                    )
                    el2 = expand_term(
                        A, tag, (UNIT, (vj, 0), (vi, 0), UNIT)
                    )
                    lhs = vec_sub(A.field, mu2.eval_element(el1),
                                  mu2.eval_element(el2))
                    rhs = A.of_group_algebra(params.kappa_wedge(i, j))
                    assert lhs == rhs
