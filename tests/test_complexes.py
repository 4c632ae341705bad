"""Chain elements of the bar/Koszul/twisted complexes and their structure.

Frozen differential values are the defining formulas evaluated by hand:

* reduced bar:  d(a₀⊗…⊗a_{n+1}) = Σ (−1)^i a₀⊗…⊗a_i a_{i+1}⊗…⊗a_{n+1},
  with any bar slot that becomes the unit struck out;
* Koszul:       d(1⊗v_{i₁}∧…∧v_{i_j}⊗1)
                = Σ_t (−1)^{t+1}(v_{i_t}⊗…v̂_t…⊗1 − 1⊗…v̂_t…⊗v_{i_t});
* twisted:      d_C⊗1 + (−1)^i 1⊗d_D on X_{i,j} = C_i ⊗ D_j;
* bimodule:     s·(c⊗d)·h = ch ⊗ ^{(gh)^{-1}}s · ^{h^{-1}}d for c of
                group degree g.
"""

import itertools
import random

import pytest

from skewchain.complexes import (
    ChainElement,
    ChainVector,
    ShapeMismatch,
    bar_diff,
    bimodule_act,
    diff,
    expand_term,
    free_decompose,
    free_slots,
    free_terms,
    koszul_diff,
    layout,
    random_twisted_slots,
    term_s_degree,
)
from skewchain.polynomials import poly_mul

from helpers import (
    CHAINMAP_CONFIGS,
    PBW_CONFIGS,
    s3_perm_q,
    swap_gf2,
    swap_q,
    v4_gf2,
    z3_unipotent_gf3,
)

Z = (0, 0)  # the constant monomial for N = 2
X0, X1 = (1, 0), (0, 1)
UNIT = (Z, 0)


class TestChainVector:
    def test_cancelled_terms_leave_no_empty_part(self):
        A = swap_q()
        x = ChainElement.basis(A, ("bars", 1), (Z, X0, Z), 3)
        y = ChainElement.basis(A, ("barg", 1), (0, 1, 0))
        vec = ChainVector(A)
        vec.add_element(x)
        vec.add_element(y)
        vec.add_element(x, A.field.from_int(-1))
        assert list(vec.parts) == [("barg", 1)]
        vec.add_terms(("barg", 1), [((0, 1, 0), -1)])
        assert vec.parts == {}
        assert vec == ChainVector(A)
        assert vec.is_zero()


class TestExpandTerm:
    def test_bar_slot_strikes_unit(self):
        A = swap_q()
        # 1 ⊗ (3 + x0) ⊗ 1 in the bar of S -> 1 ⊗ x0 ⊗ 1
        el = expand_term(A, ("bars", 1), (Z, {Z: 3, X0: 1}, Z))
        assert el.terms == {(Z, X0, Z): 1}

    def test_bar_group_slot_identity_dies(self):
        A = swap_q()
        el = expand_term(A, ("barg", 1), (0, 0, 0))
        assert el.terms == {}

    def test_outer_slot_unreduced(self):
        A = swap_q()
        el = expand_term(A, ("bars", 1), ({Z: 3, X0: 1}, X1, Z))
        assert el.terms == {(Z, X1, Z): 3, (X0, X1, Z): 1}

    def test_multilinear(self):
        A = swap_q()
        el = expand_term(
            A, ("bars", 1), ({Z: 2}, {X0: 1, X1: -1}, Z), coeff=3
        )
        assert el.terms == {(Z, X0, Z): 6, (Z, X1, Z): -6}

    def test_idempotent_on_basis(self):
        A = swap_q()
        slots = (UNIT, (X0, 1), UNIT)
        el = expand_term(A, ("barskew", 1), slots)
        assert el.terms == {slots: 1}

    def test_shape_mismatch(self):
        A = swap_q()
        with pytest.raises(ShapeMismatch):
            expand_term(A, ("barskew", 1), (UNIT, UNIT))


class TestBarDifferential:
    def test_barskew_degree1(self):
        # d(1 ⊗ (x0·g) ⊗ 1) = (x0·g) ⊗ 1 − 1 ⊗ (x0·g)
        A = swap_q()
        x = ChainElement.basis(A, ("barskew", 1), (UNIT, (X0, 1), UNIT))
        d = bar_diff(x)
        assert d.terms == {((X0, 1), UNIT): 1, (UNIT, (X0, 1)): -1}

    def test_barg_middle_term_dies(self):
        # Z/2: d(1⊗g⊗g⊗1) = g⊗g⊗1 + 1⊗g⊗g; the middle merge hits g² = 1
        A = swap_q()
        x = ChainElement.basis(A, ("barg", 2), (0, 1, 1, 0))
        assert bar_diff(x).terms == {(1, 1, 0): 1, (0, 1, 1): 1}

    def test_bars_merge_multiplies(self):
        A = swap_q()
        x = ChainElement.basis(A, ("bars", 2), (Z, X0, X1, Z))
        assert bar_diff(x).terms == {
            (X0, X1, Z): 1,
            (Z, (1, 1), Z): -1,
            (Z, X0, X1): 1,
        }

    def test_degree0_is_closed(self):
        A = swap_q()
        x = ChainElement.basis(A, ("barskew", 0), (UNIT, UNIT))
        assert diff(x).is_zero()


class TestKoszulDifferential:
    def test_j1(self):
        A = swap_q()
        x = ChainElement.basis(A, ("koszul", 1), (Z, (0,), Z))
        assert koszul_diff(x).terms == {(X0, (), Z): 1, (Z, (), X0): -1}

    def test_j2_four_terms(self):
        A = swap_q()
        x = ChainElement.basis(A, ("koszul", 2), (Z, (0, 1), Z))
        assert koszul_diff(x).terms == {
            (X0, (1,), Z): 1,
            (Z, (1,), X0): -1,
            (X1, (0,), Z): -1,
            (Z, (0,), X1): 1,
        }

    def test_d_squared_zero(self):
        A = s3_perm_q()
        z3 = (0, 0, 0)
        x = ChainElement.basis(
            A, ("koszul", 3), ((1, 0, 2), (0, 1, 2), z3)
        )
        assert diff(diff(x)).is_zero()


class TestTwistedDifferential:
    def test_horizontal_only_in_bidegree_1_0(self):
        A = swap_q()
        x = ChainElement.basis(A, ("twisted", 1, 0, "bar"), (0, 1, 0, Z, Z))
        d = diff(x)
        comp = d.parts[("twisted", 0, 0, "bar")]
        assert comp.terms == {(1, 0, Z, Z): 1, (0, 1, Z, Z): -1}
        assert len(d.parts) == 1

    def test_vertical_only_in_bidegree_0_1(self):
        A = swap_q()
        x = ChainElement.basis(A, ("twisted", 0, 1, "bar"), (0, 0, Z, X0, Z))
        d = diff(x)
        comp = d.parts[("twisted", 0, 0, "bar")]
        assert comp.terms == {(0, 0, X0, Z): 1, (0, 0, Z, X0): -1}

    def test_vertical_sign_alternates(self):
        # on X_{1,1} the vertical differential carries (−1)^i = −1
        A = swap_q()
        x = ChainElement.basis(
            A, ("twisted", 1, 1, "bar"), (0, 1, 0, Z, X0, Z)
        )
        vert = diff(x).parts[("twisted", 1, 0, "bar")]
        assert vert.terms == {
            (0, 1, 0, X0, Z): -1,
            (0, 1, 0, Z, X0): 1,
        }

    @pytest.mark.parametrize(
        "make", [swap_q, swap_gf2, z3_unipotent_gf3, s3_perm_q, v4_gf2],
        ids=["swap_q", "swap_gf2", "z3_uni", "s3_perm", "v4"],
    )
    def test_d_squared_zero_exhaustive(self, make):
        A = make()
        for n in (2, 3):
            for i in range(n + 1):
                for dkind in ("bar", "koszul"):
                    if dkind == "koszul" and n - i > A.nvars:
                        continue
                    tag = ("twisted", i, n - i, dkind)
                    for slots in free_terms(A, tag, 1):
                        x = ChainElement.basis(A, tag, slots)
                        assert diff(diff(x)).is_zero()

    def test_d_squared_zero_with_outer_slots(self):
        A = s3_perm_q()
        rng = random.Random(5)
        for _ in range(50):
            dkind = rng.choice(("bar", "koszul"))
            n = rng.randrange(2, 5)
            jtop = n if dkind == "bar" else min(n, A.nvars)
            j = rng.randrange(jtop + 1)
            slots = random_twisted_slots(A, n - j, j, dkind, 2, rng,
                                         free=False)
            x = ChainElement.basis(A, ("twisted", n - j, j, dkind), slots)
            assert diff(diff(x)).is_zero()


class TestBimoduleStructure:
    def test_trivial_twists(self):
        # identity group degree, h = 1: s·(c⊗d)·1 = c ⊗ s·d
        A = swap_q()
        x = ChainElement.basis(A, ("twisted", 0, 1, "bar"), (0, 0, Z, X0, Z))
        moved = bimodule_act({(X1, 0): 1}, x, None)
        assert moved.terms == {(0, 0, X1, X0, Z): 1}

    def test_right_group_action(self):
        # s = 1: (c⊗d)·h = ch ⊗ ʰ⁻¹d
        A = swap_q()
        x = ChainElement.basis(A, ("twisted", 1, 1, "bar"), (0, 1, 0, Z, X0, Z))
        moved = bimodule_act(None, x, {(Z, 1): 1})
        # right outer C slot picks up h; every D entry is twisted by h⁻¹ = g
        assert moved.terms == {(0, 1, 1, Z, X1, Z): 1}

    def test_formula_against_direct_evaluation(self):
        # s·(c⊗d)·h with c of group degree g: ch ⊗ ^{(gh)^{-1}}s · ^{h^{-1}}d
        A = s3_perm_q()
        G, act = A.group, A.action
        rng = random.Random(7)
        for _ in range(40):
            i, j = rng.randrange(3), rng.randrange(3)
            dkind = "bar" if rng.random() < 0.5 else "koszul"
            if dkind == "koszul":
                j = min(j, A.nvars)
            slots = random_twisted_slots(A, i, j, dkind, 1, rng, free=False)
            tag = ("twisted", i, j, dkind)
            x = ChainElement.basis(A, tag, slots)
            s = rng.choice(A.monomials_up_to(2))
            h = rng.randrange(G.order)
            got = bimodule_act({(s, 0): 1}, x, {(A.zero_exp, h): 1})
            g = G.prod(slots[:i + 2])
            hinv = G.inv(h)
            new_c = slots[:i + 1] + (G.mul(slots[i + 1], h),)
            tw = act.act_monomial(G.inv(G.mul(g, h)), s)
            if dkind == "bar":
                dparts = [act.act_monomial(hinv, m) for m in slots[i + 2:]]
                want = expand_term(
                    A, tag,
                    new_c + (poly_mul(A.field, tw, dparts[0]),)
                    + tuple(dparts[1:]),
                )
            else:
                m0, w, m1 = slots[i + 2], slots[i + 3], slots[i + 4]
                wd = act.act_wedge(hinv, w)
                m0h = act.act_monomial(hinv, m0)
                m1h = act.act_monomial(hinv, m1)
                want = ChainElement(A, tag)
                for wslots, wc in wd.items():
                    want = want + expand_term(
                        A, tag,
                        new_c
                        + (poly_mul(A.field, tw, m0h), wslots, m1h),
                        coeff=wc,
                    )
            assert got == want

    def test_module_axioms(self):
        A = z3_unipotent_gf3()
        rng = random.Random(9)
        pool = A.pairs_up_to(1, include_unit=True)
        for _ in range(60):
            dkind = rng.choice(("bar", "koszul"))
            j = rng.randrange(0, min(2, A.nvars) + 1)
            i = rng.randrange(0, 2)
            slots = random_twisted_slots(A, i, j, dkind, 1, rng, free=False)
            x = ChainElement.basis(A, ("twisted", i, j, dkind), slots)
            a1 = {rng.choice(pool): 1}
            a2 = {rng.choice(pool): 1}
            b1 = {rng.choice(pool): 1}
            b2 = {rng.choice(pool): 1}
            assert bimodule_act(A.mul(a1, a2), x, None) == \
                bimodule_act(a1, bimodule_act(a2, x, None), None)
            assert bimodule_act(None, x, A.mul(b1, b2)) == \
                bimodule_act(None, bimodule_act(None, x, b1), b2)
            assert bimodule_act(a1, bimodule_act(None, x, b1), None) == \
                bimodule_act(None, bimodule_act(a1, x, None), b1)

    def test_diff_is_bimodule_map(self):
        A = v4_gf2()
        rng = random.Random(3)
        pool = A.pairs_up_to(1, include_unit=True)
        for _ in range(40):
            dkind = rng.choice(("bar", "koszul"))
            n = rng.randrange(1, 4)
            jtop = n if dkind == "bar" else min(n, A.nvars)
            j = rng.randrange(jtop + 1)
            slots = random_twisted_slots(A, n - j, j, dkind, 1, rng,
                                         free=False)
            x = ChainElement.basis(A, ("twisted", n - j, j, dkind), slots)
            a = {rng.choice(pool): 1}
            b = {rng.choice(pool): 1}
            assert diff(bimodule_act(a, x, b)) == \
                bimodule_act(a, diff(x), b)

    def test_barskew_bimodule_diff(self):
        A = swap_q()
        rng = random.Random(21)
        pool = A.pairs_up_to(1, include_unit=True)
        for n in (1, 2, 3):
            for slots in free_terms(A, ("barskew", n), 1):
                x = ChainElement.basis(A, ("barskew", n), slots)
                a = {rng.choice(pool): 1}
                b = {rng.choice(pool): 1}
                assert diff(bimodule_act(a, x, b)) == \
                    bimodule_act(a, diff(x), b)


class TestFreeStructure:
    @pytest.mark.parametrize("make", [swap_q, s3_perm_q],
                             ids=["swap_q", "s3_perm"])
    def test_free_decompose_reconstructs(self, make):
        A = make()
        rng = random.Random(31)
        for _ in range(50):
            dkind = rng.choice(("bar", "koszul"))
            i, j = rng.randrange(3), rng.randrange(min(3, A.nvars) + 1)
            tag = ("twisted", i, j, dkind)
            slots = random_twisted_slots(A, i, j, dkind, 2, rng, free=False)
            x = ChainElement.basis(A, tag, slots)
            a, items, b = free_decompose(A, tag, slots)
            acc = ChainElement(A, tag)
            for c, (cbars, dmid) in items:
                free = ChainElement.basis(
                    A, tag, free_slots(A, tag, cbars + dmid)
                )
                acc = acc + bimodule_act(a, free, b).scaled(c)
            assert acc == x

    def test_s_degree(self):
        A = swap_q()
        tag = ("twisted", 1, 1, "bar")
        slots = (0, 1, 0, X0, X1, (2, 0))
        assert term_s_degree(A, tag, slots) == 1 + 1 + 2
        tagk = ("twisted", 0, 2, "koszul")
        assert term_s_degree(A, tagk, (0, 0, X0, (0, 1), Z)) == 1 + 2

    def test_basis_sizes(self):
        A = swap_q()
        # barskew degree 1, monomial degree ≤ 1: non-unit pairs (m, g)
        basis = list(free_terms(A, ("barskew", 1), 1))
        # pairs: m ∈ {1, x0, x1} × g ∈ {1, g} minus the unit pair
        assert len(basis) == 3 * 2 - 1


def frozen_free_basis(alg, tag, dmax):
    """The free generators of a tag as the per-complex loops that
    ``free_terms`` replaced enumerated them, kept as its reference."""
    kind, n = tag[0], tag[1]
    z = alg.zero_exp
    if kind == "barskew":
        pairs = alg.pairs_up_to(dmax, include_unit=False)
        unit = alg.unit_pair
        for combo in itertools.product(pairs, repeat=n):
            yield (unit,) + combo + (unit,)
    elif kind == "barg":
        for mids in itertools.product(range(1, alg.group.order), repeat=n):
            yield (0,) + mids + (0,)
    elif kind == "bars":
        letters = alg.monomials_up_to(dmax, include_unit=False)
        for mids in itertools.product(letters, repeat=n):
            yield (z,) + mids + (z,)
    elif kind == "koszul":
        for w in itertools.combinations(range(alg.nvars), n):
            yield (z, w, z)
    else:
        i, j, dkind = tag[1:]
        gbars = itertools.product(range(1, alg.group.order), repeat=i)
        if dkind == "bar":
            mids = alg.monomials_up_to(dmax, include_unit=False)
            for cb in gbars:
                for dm in itertools.product(mids, repeat=j):
                    yield (0,) + cb + (0,) + (z,) + dm + (z,)
        else:
            wedges = list(itertools.combinations(range(alg.nvars), j))
            for cb in gbars:
                for w in wedges:
                    yield (0,) + cb + (0,) + (z, w, z)


#: Every tag of homological degree at most 4.
TAGS_THROUGH_DEGREE_4 = [
    (kind, n) for kind in ("barskew", "barg", "bars", "koszul")
    for n in range(5)
] + [("twisted", i, n - i, dkind) for n in range(5) for i in range(n + 1)
     for dkind in ("bar", "koszul")]

LAYOUT_CONFIGS = {**CHAINMAP_CONFIGS, **PBW_CONFIGS}


class TestLayout:
    @pytest.mark.parametrize("name", sorted(LAYOUT_CONFIGS))
    def test_free_terms_match_the_replaced_enumerators(self, name):
        # sequences, not sets: the order fixes the reports' witnesses and
        # the rng draws that follow an enumeration
        A = LAYOUT_CONFIGS[name]()
        end = object()
        for dmax in (1, 2):
            for tag in TAGS_THROUGH_DEGREE_4:
                pairs = itertools.zip_longest(
                    free_terms(A, tag, dmax), frozen_free_basis(A, tag, dmax),
                    fillvalue=end)
                assert all(new == old for new, old in pairs), (tag, dmax)

    def test_layout_of_each_complex(self):
        assert list(layout(("barskew", 2))) == [
            ("pair", False), ("pair", True), ("pair", True), ("pair", False)]
        assert list(layout(("koszul", 2))) == [
            ("exp", False), ("wedge", False), ("exp", False)]
        assert list(layout(("twisted", 1, 1, "bar"))) == [
            ("group", False), ("group", True), ("group", False),
            ("exp", False), ("exp", True), ("exp", False)]
        assert list(layout(("twisted", 0, 3, "koszul"))) == \
            list(layout(("barg", 0))) + list(layout(("koszul", 3)))
        with pytest.raises(ShapeMismatch, match="unknown complex tag"):
            layout(("spectral", 1))

    def test_layout_length_needs_no_slots(self):
        # a tag of any degree has a layout of a few runs
        assert len(layout(("twisted", 10 ** 9, 10 ** 9, "bar"))) == \
            2 * 10 ** 9 + 4
        assert len(layout(("twisted", 10 ** 9, 10 ** 9, "koszul"))) == \
            10 ** 9 + 5
