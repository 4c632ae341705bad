"""The four chain maps, their splitting identities, and their gradings.

Frozen values are evaluated by hand from the defining formulas:

* awg peels group letters to the C side; a summand survives only when the
  peeled pairs have trivial polynomial part (the augmentation kills the
  rest), the remaining group letters are pushed into the C outer slot as a
  prefix product, and each surviving s-letter is twisted by the inverse of
  the product of the group letters originally standing to its right;
* ezg sums over (i,j)-shuffles of the C bar letters with the D letters,
  with the permutation sign, each s-letter twisted by the group letters
  shuffled to its right;
* iota_s antisymmetrizes a wedge over all orderings;
* pi_s is the closed-form splitting Ψ: divided differences in degree 1,
  pinned here on 1 ⊗ x0² ⊗ 1, and in degree 2 a signed sum over a
  decreasing choice of one variable per slot, pinned on 1 ⊗ x1² ⊗ x0x1 ⊗ 1
  and on 1 ⊗ x0 ⊗ x1 ⊗ 1 (no decreasing choice, so zero).
"""

import itertools
import random

import pytest

from skewchain import chainmaps
from skewchain.chainmaps import (
    MAPS,
    _shuffles,
    awg,
    ezg,
    id_tensor_iota_s,
    id_tensor_pi_s,
    iota,
    iota_s,
    pi,
    pi_s,
)
from skewchain.cli import run_verify
from skewchain.complexes import (
    ChainElement,
    ShapeMismatch,
    bimodule_act,
    diff,
    free_terms,
    random_barskew_slots,
    random_twisted_slots,
    term_s_degree,
)
from skewchain.serialize import DEFAULT_BUDGETS, RunConfig, canonical_json
from skewchain.verify import random_term, verify_chainmap

from helpers import (
    CHAINMAP_CONFIGS,
    classical_aw,
    classical_ez,
    s3_perm_q,
    shuffle_signs_by_permutation,
    swap_q,
    trivial_group_q,
    v4_gf2,
    z3_unipotent_gf3,
)

Z, X0, X1 = (0, 0), (1, 0), (0, 1)
UNIT = (Z, 0)


class TestShuffles:
    def test_signs_match_permutation_parity(self):
        for i in range(5):
            for j in range(5):
                want = dict(
                    (pos, sign)
                    for sign, pos in shuffle_signs_by_permutation(i, j)
                )
                got = {}
                for sign, word, _ in _shuffles(i, j):
                    pos = tuple(
                        p for p, w in enumerate(word) if w[0] == "g"
                    )
                    got[pos] = sign
                assert got == want

    def test_count(self):
        import math

        for i in range(5):
            for j in range(5):
                assert len(_shuffles(i, j)) == math.comb(i + j, i)

    def test_twists_are_right_letters(self):
        for sign, word, twists in _shuffles(2, 2):
            for t, q in [(w[1], p) for p, w in enumerate(word)
                         if w[0] == "s"]:
                want = tuple(
                    w[1] for p, w in enumerate(word)
                    if w[0] == "g" and p > q
                )
                assert twists[t] == want


class TestFrozenValues:
    def test_awg_degree1(self):
        # awg(1 ⊗ (x0·g) ⊗ 1) over the swap action:
        #   l=0: g pushed into the C outer, x0 twisted by g^{-1} = g -> x1;
        #   l=1: dies on the C side? no - the pair has m = x0, so only the
        #        group letter survives there with the twisted x1 in the
        #        right D outer slot.
        A = swap_q()
        x = ChainElement.basis(A, ("barskew", 1), (UNIT, (X0, 1), UNIT))
        v = awg(x)
        assert v.parts[("twisted", 0, 1, "bar")] == {
            (1, 0, Z, X1, Z): 1
        }
        assert v.parts[("twisted", 1, 0, "bar")] == {
            (0, 1, 0, Z, X1): 1
        }
        assert len(v.parts) == 2

    def test_awg_degree2_augmentation_kills_mixed_summands(self):
        # 1 ⊗ (x0·g) ⊗ (x1·1) ⊗ 1: the (1,1) summand needs the first pair
        # to be a pure group letter (x0 dies under the augmentation) and
        # the (2,0) summand has 1 as its second bar letter; only (0,2)
        # survives, with x0 twisted by (g·1)^{-1} and x1 by 1.
        A = swap_q()
        x = ChainElement.basis(
            A, ("barskew", 2), (UNIT, (X0, 1), (X1, 0), UNIT)
        )
        v = awg(x)
        assert v.parts[("twisted", 0, 2, "bar")] == {
            (1, 0, Z, X1, X1, Z): 1
        }
        assert len(v.parts) == 1

    def test_ezg_degree2(self):
        # ezg on the free (1,1) term with bar letter g and s-letter x0:
        # shuffle g before x0 (sign +, no twist on x0 from the left... the
        # twist collects letters to the *right*, so x0 is untouched) and
        # x0 before g (sign -, x0 twisted by g).
        A = swap_q()
        x = ChainElement.basis(
            A, ("twisted", 1, 1, "bar"), (0, 1, 0, Z, X0, Z)
        )
        v = ezg(x)
        el = v.parts[("barskew", 2)]
        assert el == {
            (UNIT, (Z, 1), (X0, 0), UNIT): 1,
            (UNIT, (X1, 0), (Z, 1), UNIT): -1,
        }
        assert len(v.parts) == 1

    def test_awg_ezg_roundtrip_on_worked_instance(self):
        A = swap_q()
        x = ChainElement.basis(
            A, ("twisted", 1, 1, "bar"), (0, 1, 0, Z, X0, Z)
        )
        assert awg(ezg(x)) == x

    def test_iota_s_antisymmetrizes(self):
        A = swap_q()
        x = ChainElement.basis(A, ("koszul", 2), (Z, (0, 1), Z))
        v = iota_s(x)
        assert v.parts[("bars", 2)] == {
            (Z, X0, X1, Z): 1,
            (Z, X1, X0, Z): -1,
        }

    def test_pi_s_on_square(self):
        # pi_s(1 ⊗ x0² ⊗ 1) = x0 ⊗ x0 ⊗ 1 + 1 ⊗ x0 ⊗ x0; both sides have
        # Koszul differential x0² ⊗ 1 − 1 ⊗ x0², matching the bar
        # differential of the input.
        A = swap_q()
        x = ChainElement.basis(A, ("bars", 1), (Z, (2, 0), Z))
        v = pi_s(x)
        assert v.parts[("koszul", 1)] == {
            (X0, (0,), Z): 1,
            (Z, (0,), X0): 1,
        }
        # chain-map identity at this instance, after the degree-0
        # identification Koszul_0 = S ⊗ S = BarS_0
        kosz0 = diff(v).parts[("koszul", 0)]
        bars0 = diff(x).parts[("bars", 0)]
        assert {(m0, m1): c for (m0, _, m1), c in kosz0.items()} == bars0

    def test_pi_s_closed_form_in_degree_two(self):
        # j_1 = 1 in x1² (β_1 = 0, 1) and j_2 = 0 in x0x1 (β_2 = 0), sign
        # (-1)^{2·1/2}: -(1 ⊗ x0∧x1 ⊗ x1²) - (x1 ⊗ x0∧x1 ⊗ x1)
        A = swap_q()
        x = ChainElement.basis(A, ("bars", 2), (Z, (0, 2), (1, 1), Z))
        assert pi_s(x).parts[("koszul", 2)] == {
            (Z, (0, 1), (0, 2)): -1,
            (X1, (0, 1), X1): -1,
        }
        assert diff(pi_s(x)) == pi_s(diff(x))
        y = ChainElement.basis(A, ("bars", 2), (Z, X0, X1, Z))
        assert pi_s(y).is_zero()

    def test_pi_s_iota_s_identity_on_wedge(self):
        A = s3_perm_q()
        z3 = (0, 0, 0)
        x = ChainElement.basis(A, ("koszul", 2), (z3, (0, 2), z3))
        assert pi_s(iota_s(x)) == x


class TestChainMapProperty:
    @pytest.mark.parametrize("name", ["awg", "ezg", "iota_s", "pi_s",
                                      "iota", "pi"])
    def test_swap_q(self, name):
        rep = verify_chainmap(swap_q(), name, degrees=(0, 1, 2, 3),
                              max_poly_deg=2, samples=20, seed=1)
        assert rep["failures"] == [] and rep["checked"] > 0

    @pytest.mark.parametrize("name", ["awg", "ezg", "iota_s", "pi_s",
                                      "iota", "pi"])
    def test_z3_unipotent(self, name):
        rep = verify_chainmap(z3_unipotent_gf3(), name, degrees=(0, 1, 2),
                              max_poly_deg=1, samples=10, sample_degree=3,
                              seed=2)
        assert rep["failures"] == [] and rep["checked"] > 0

    @pytest.mark.parametrize("name", ["awg", "ezg", "iota", "pi"])
    def test_v4(self, name):
        rep = verify_chainmap(v4_gf2(), name, degrees=(0, 1, 2),
                              max_poly_deg=1)
        assert rep["failures"] == [] and rep["checked"] > 0

    def test_mutated_map_is_caught(self, monkeypatch):
        # flipping the sign of the odd-column components anticommutes with
        # the horizontal differential, so the verifier must object
        def mutant(x):
            v = awg(x)
            for tag, terms in v.parts.items():
                if tag[1] % 2:
                    v.parts[tag] = {s: -c for s, c in terms.items()}
            return v

        monkeypatch.setattr(chainmaps, "awg", mutant)
        rep = verify_chainmap(swap_q(), "awg", degrees=(1, 2))
        assert rep["failures"] != []

    def test_wrong_domain_raises(self):
        A = swap_q()
        bars = ChainElement.basis(A, ("bars", 1), (Z, X0, Z))
        kosz = ChainElement.basis(A, ("koszul", 1), (Z, (0,), Z))
        skew = ChainElement.basis(A, ("barskew", 1), (UNIT, (X0, 1), UNIT))
        with pytest.raises(ShapeMismatch):
            awg(bars)
        with pytest.raises(ShapeMismatch):
            ezg(skew)
        with pytest.raises(ShapeMismatch):
            iota_s(bars)
        with pytest.raises(ShapeMismatch):
            pi_s(kosz)
        # the D-part maps check the tag before reading its degrees
        with pytest.raises(ShapeMismatch):
            id_tensor_iota_s(kosz)
        with pytest.raises(ShapeMismatch):
            id_tensor_pi_s(bars)


def _two_parts(A, *terms):
    """A chain with one basis term in each of two tags."""
    vec = ChainElement(A)
    for tag, slots in terms:
        vec.add_terms(tag, [(slots, 2)])
    assert len(vec.parts) == 2
    return vec


#: map name -> (map, its two parts as (tag, slots) on swap_q)
LIFTED_MAPS = {
    "awg": (awg, ((("barskew", 1), (UNIT, (X0, 1), (X1, 0))),
                  (("barskew", 2), (UNIT, (X0, 0), ((0, 0), 1), UNIT)))),
    "ezg": (ezg, ((("twisted", 1, 1, "bar"), (0, 1, 0, Z, X0, X1)),
                  (("twisted", 0, 2, "bar"), (1, 0, X1, X0, X1, Z)))),
    "iota_s": (iota_s, ((("koszul", 1), (X0, (1,), Z)),
                        (("koszul", 2), (Z, (0, 1), X1)))),
    "pi_s": (pi_s, ((("bars", 1), (X1, (2, 0), Z)),
                    (("bars", 2), (Z, X0, X1, X0)))),
    "id_tensor_iota_s": (id_tensor_iota_s, (
        (("twisted", 1, 1, "koszul"), (0, 1, 1, X0, (1,), Z)),
        (("twisted", 0, 2, "koszul"), (1, 0, Z, (0, 1), X0)))),
    "id_tensor_pi_s": (id_tensor_pi_s, (
        (("twisted", 1, 1, "bar"), (1, 1, 0, Z, (1, 1), X0)),
        (("twisted", 0, 2, "bar"), (0, 0, X1, X0, X0, Z)))),
    "diff": (diff, ((("barskew", 2), ((X0, 1), (X1, 0), (Z, 1), UNIT)),
                    (("twisted", 1, 1, "koszul"), (0, 1, 1, X0, (1,), X1)))),
    "bimodule_act": (
        lambda x: bimodule_act({(X0, 1): 1, (Z, 0): 3}, x, {(X1, 1): -1}),
        ((("barskew", 1), (UNIT, (X0, 1), UNIT)),
         (("twisted", 1, 1, "bar"), (0, 1, 1, Z, X1, X0)))),
}


@pytest.mark.parametrize("name", sorted(LIFTED_MAPS))
def test_map_of_a_vector_is_the_sum_over_its_parts(name):
    A = swap_q()
    fn, terms = LIFTED_MAPS[name]
    vec = _two_parts(A, *terms)
    want = ChainElement(A)
    for tag, terms in vec.parts.items():
        want.add_scaled(fn(ChainElement(A, {tag: terms})))
    assert not want.is_zero()
    assert fn(vec) == want


@pytest.mark.parametrize("name", list(MAPS))
def test_each_map_is_the_chain_of_its_stages(name):
    # verify checks a map by applying its stages in MAPS; the map the CLI
    # and the deciders call must be that chain
    A = swap_q()
    rng = random.Random(5)
    for n in (0, 1, 2, 3):
        tag, slots = random_term(A, MAPS[name][0], n, 2, rng, free=False)
        x = ChainElement.basis(A, tag, slots)
        image = x
        for stage in MAPS[name][1]:
            image = getattr(chainmaps, stage)(image)
        assert getattr(chainmaps, name)(x) == image


class TestBimoduleProperty:
    def test_awg(self):
        A = z3_unipotent_gf3()
        rng = random.Random(11)
        pool = A.pairs_up_to(1, include_unit=True)
        for _ in range(30):
            n = rng.randrange(1, 4)
            slots = random_barskew_slots(A, n, 1, rng, free=False)
            x = ChainElement.basis(A, ("barskew", n), slots)
            a = {rng.choice(pool): 1}
            b = {rng.choice(pool): 1}
            assert awg(bimodule_act(a, x, b)) == \
                bimodule_act(a, awg(x), b)

    def test_ezg(self):
        A = swap_q()
        rng = random.Random(12)
        pool = A.pairs_up_to(1, include_unit=True)
        for _ in range(30):
            n = rng.randrange(1, 4)
            j = rng.randrange(n + 1)
            slots = random_twisted_slots(A, n - j, j, "bar", 1, rng,
                                         free=False)
            x = ChainElement.basis(A, ("twisted", n - j, j, "bar"), slots)
            a = {rng.choice(pool): 1}
            b = {rng.choice(pool): 1}
            assert ezg(bimodule_act(a, x, b)) == \
                bimodule_act(a, ezg(x), b)


#: The free generators of the module-structure pins: bar degree 1 and 2,
#: and the X_{i,j} with 1 <= i + j <= 2, at polynomial degree <= 1.
BAR_TAGS = [("barskew", 1), ("barskew", 2)]
TWISTED_TAGS = [("twisted", i, j, "koszul")
                for i in range(3) for j in range(3 - i) if i + j]


def free_generators(A, tags):
    for tag in tags:
        for slots in free_terms(A, tag, 1):
            yield ChainElement.basis(A, tag, slots)


def moved(x, a=None, b=None):
    """a·x·b for basis pairs a, b of the skew algebra (None: no move)."""
    return bimodule_act(a and {a: 1}, x, b and {b: 1})


class TestModuleStructure:
    """pi and iota as module maps, moved by every non-unit basis pair of
    polynomial degree <= 1.  pi = (id ⊗ Ψ)∘awg is left A-linear and right
    S-linear, but not right kG-linear, because the closed-form Ψ is not
    G-equivariant; iota is an A-bimodule map."""

    @pytest.mark.parametrize("name", sorted(CHAINMAP_CONFIGS))
    def test_pi_is_left_a_linear_and_right_s_linear(self, name):
        A = CHAINMAP_CONFIGS[name]()
        moves = A.pairs_up_to(1)
        checked = 0
        for x in free_generators(A, BAR_TAGS):
            image = pi(x)
            for p in moves:
                assert pi(moved(x, a=p)) == moved(image, a=p), (x.parts, p)
                if p[1] == 0:
                    assert pi(moved(x, b=p)) == moved(image, b=p), \
                        (x.parts, p)
                checked += 1
        assert checked

    def test_pi_is_not_right_kg_linear(self):
        # E = 1 ⊗ x1 ⊗ x0 ⊗ 1 on the swap: pi(E) = -(1 ⊗ x0∧x1 ⊗ 1), and
        # pi(E)·g moves the wedge to x1∧x0, but pi(E·g) = 0
        A = swap_q()
        g = (Z, 1)
        x = ChainElement.basis(A, ("barskew", 2), (UNIT, (X1, 0), (X0, 0),
                                                   UNIT))
        tag = ("twisted", 0, 2, "koszul")
        assert pi(x).parts == {tag: {(0, 0, Z, (0, 1), Z): -1}}
        assert moved(pi(x), b=g).parts == {tag: {(0, 1, Z, (0, 1), Z): 1}}
        assert pi(moved(x, b=g)).is_zero()

    @pytest.mark.parametrize("name", sorted(CHAINMAP_CONFIGS))
    def test_iota_is_an_a_bimodule_map(self, name):
        A = CHAINMAP_CONFIGS[name]()
        moves = A.pairs_up_to(1)
        checked = 0
        for x in free_generators(A, TWISTED_TAGS):
            image = iota(x)
            for p in moves:
                assert iota(moved(x, a=p)) == moved(image, a=p), (x.parts, p)
                assert iota(moved(x, b=p)) == moved(image, b=p), (x.parts, p)
                checked += 1
        assert checked


class TestSplittingIdentities:
    @pytest.mark.parametrize(
        "make,deg", [(swap_q, 2), (z3_unipotent_gf3, 1), (v4_gf2, 1)],
        ids=["swap_q", "z3_uni", "v4"],
    )
    def test_awg_ezg_identity(self, make, deg):
        A = make()
        for n in range(4):
            for i in range(n + 1):
                tag = ("twisted", i, n - i, "bar")
                for slots in free_terms(A, tag, deg):
                    x = ChainElement.basis(A, tag, slots)
                    assert awg(ezg(x)) == x

    @pytest.mark.parametrize(
        "make,deg,top", [(swap_q, 2, 3), (z3_unipotent_gf3, 1, 3),
                         (v4_gf2, 1, 2)],
        ids=["swap_q", "z3_uni", "v4"],
    )
    def test_pi_iota_identity(self, make, deg, top):
        A = make()
        for n in range(top + 1):
            for i in range(n + 1):
                if n - i > A.nvars:
                    continue
                tag = ("twisted", i, n - i, "koszul")
                for slots in free_terms(A, tag, deg):
                    x = ChainElement.basis(A, tag, slots)
                    assert pi(iota(x)) == x

    def test_pi_s_iota_s_identity_all_wedges(self):
        A = s3_perm_q()
        z3 = (0, 0, 0)
        for j in range(A.nvars + 1):
            for w in itertools.combinations(range(A.nvars), j):
                x = ChainElement.basis(A, ("koszul", j), (z3, w, z3))
                assert pi_s(iota_s(x)) == x

    def test_iota_preserves_s_degree(self):
        A = swap_q()
        rng = random.Random(13)
        for _ in range(25):
            j = rng.randrange(A.nvars + 1)
            i = rng.randrange(3)
            tag = ("twisted", i, j, "koszul")
            slots = random_twisted_slots(A, i, j, "koszul", 2, rng,
                                         free=False)
            x = ChainElement.basis(A, tag, slots)
            d = term_s_degree(A, tag, slots)
            for otag, part in iota(x).parts.items():
                for oslots in part:
                    assert term_s_degree(A, otag, oslots) == d

    def test_pi_preserves_s_degree(self):
        # pi runs BarSkew -> twisted(koszul)
        A = swap_q()
        rng = random.Random(14)
        for _ in range(25):
            n = rng.randrange(4)
            tag = ("barskew", n)
            slots = random_barskew_slots(A, n, 2, rng, free=False)
            x = ChainElement.basis(A, tag, slots)
            d = term_s_degree(A, tag, slots)
            for otag, part in pi(x).parts.items():
                for oslots in part:
                    assert term_s_degree(A, otag, oslots) == d


class TestClassicalDegeneration:
    """With G = {1} the twisted maps collapse to the textbook AW/EZ."""

    def test_awg_is_classical(self):
        A = trivial_group_q()
        for n in range(4):
            for slots in free_terms(A, ("barskew", n), 2):
                inner = tuple(m for m, _ in slots[1:-1])
                x = ChainElement.basis(A, ("barskew", n), slots)
                v = awg(x)
                want = classical_aw(A.nvars, inner)
                assert set(v.parts) == {
                    ("twisted", i, j, "bar") for i, j in want
                }
                for (i, j), terms in want.items():
                    el = v.parts[("twisted", i, j, "bar")]
                    z = A.zero_exp
                    expect = {}
                    for c, (cb, dm) in terms:
                        expect[(0,) + tuple(cb) + (0,) + (z,)
                               + tuple(dm) + (z,)] = c
                    assert el == expect

    def test_ezg_is_classical(self):
        A = trivial_group_q()
        z = A.zero_exp
        for j in range(4):
            for slots in free_terms(A, ("twisted", 0, j, "bar"), 2):
                dmid = slots[3:-1]
                x = ChainElement.basis(A, ("twisted", 0, j, "bar"), slots)
                v = ezg(x)
                expect = {}
                for c, mids in classical_ez((), dmid):
                    expect[((z, 0),) + tuple((m, 0) for m in mids)
                           + ((z, 0),)] = c
                assert v.parts[("barskew", j)] == expect
                assert len(v.parts) == 1


class TestAwgMemo:
    """awg memoizes its images of free generators with at most two bar
    letters on the algebra.  A stored image must never reach a caller, and
    a warm algebra must give the reports of a fresh one."""

    @staticmethod
    def verify_config(make, seed):
        budgets = dict(DEFAULT_BUDGETS, max_bar_degree=2, max_poly_degree=1,
                       samples=5, degree4_samples=5, seed=seed)
        return RunConfig(make(), None, budgets, None, {})

    @pytest.mark.parametrize("inner", [((X0, 1),), ((X0, 1), (X1, 0))])
    def test_mutating_a_returned_image_leaves_the_next_call_intact(
            self, inner):
        A = swap_q()
        x = ChainElement.basis(A, ("barskew", len(inner)),
                               (UNIT,) + inner + (UNIT,))
        for fn in (awg, pi):
            first = fn(x)
            want = {tag: dict(terms) for tag, terms in first.parts.items()}
            for terms in first.parts.values():
                for slots in terms:
                    terms[slots] = 7
            first.add_terms(("twisted", 0, 0, "bar"), [((0, 0, Z, Z), 1)])
            first.parts.clear()
            again = fn(x)
            assert again.parts == want

    @pytest.mark.parametrize("make", [swap_q, v4_gf2])
    def test_verify_on_a_warm_algebra_matches_a_fresh_one(self, make):
        warm = self.verify_config(make, seed=1)
        run_verify(warm, "all")
        # a caller that sums awg images in place, as user code may
        for n in (1, 2):
            for slots in free_terms(warm.algebra, ("barskew", n), 1):
                x = ChainElement.basis(warm.algebra, ("barskew", n), slots)
                image = awg(x)
                image.add_scaled(awg(x))
        assert warm.algebra._awg_memo
        warm.budgets["seed"] = 2
        fresh = self.verify_config(make, seed=2)
        assert (canonical_json(run_verify(warm, "all")[0])
                == canonical_json(run_verify(fresh, "all")[0]))

    def test_memo_holds_only_short_generators(self):
        cfg = self.verify_config(swap_q, seed=0)
        cfg.budgets["max_bar_degree"] = 3
        run_verify(cfg, "all")
        memo = cfg.algebra._awg_memo
        assert memo and max(len(inner) for inner in memo) <= 2
        # held as tuples, so no caller can change a stored image
        assert all(isinstance(image, tuple)
                   and all(isinstance(pairs, tuple) for _tag, pairs in image)
                   for image in memo.values())
