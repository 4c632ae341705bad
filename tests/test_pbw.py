"""The three PBW deciders: closed-form conditions, cochain conditions,
and the rewriting oracle.

The only identity claimed between the three methods is that their
*verdicts* coincide; the per-condition entries of the two condition-based
checkers are asserted equal only on pinned instances where the
correspondence is exact.  The frozen instances:

* swap action, kappa(x0∧x1) = 1 over Q: fails exactly condition (2) with
  witness (g, x0, x1) and defect -2g; quotient dimension 14 < 20;
* the same table over GF(2) is PBW (the defect is 2-torsion);
* -id action, kappa(x0∧x1) = g: PBW of dimension 20;
* trivial Z/3 on GF(3)^3 (char = |G|): a lambda table plus one kappa
  entry failing only condition (5); adding the matching second kappa
  entry repairs it to a PBW deformation of dimension 60 = 3·C(6,3);
  a lambda-only table failing only condition (2) with the same witness
  and defect 2g² from both checkers — these pin the obstruction signs
  in odd characteristic, where sign errors are visible.
"""

import functools
import random
from math import comb

import pytest

from skewchain import pbw
from skewchain.chainmaps import iota, pi
from skewchain.cochains import (
    Cochain,
    circle,
    coboundary,
    transport_up,
)
from skewchain.complexes import (
    ChainElement,
    bimodule_act,
    diff,
    free_terms,
    random_twisted_slots,
)
from skewchain.pbw import (
    ORACLE_DEGREE,
    PBWParams,
    SearchSpaceTooLarge,
    _Rows,
    _defects,
    _frame,
    _iota_images,
    _normal_words,
    check_all,
    check_cohomological,
    check_five,
    enumerate_pbw,
    oracle_pbw,
)

from test_oracle_reference import _Rewriter, literal_oracle
from helpers import (
    PBW_CONFIGS,
    full_support_table,
    neg_id_q,
    pi_of_free,
    s3_refl_q,
    swap_gf2,
    swap_q,
    v4_gf2,
    z3_trivial_gf3_n3,
    z3_unipotent_gf3,
)


def holds_pattern(report):
    return tuple(c["holds"] for c in report.per_condition)


class TestParams:
    def test_zero_values_dropped(self):
        A = swap_q()
        p = PBWParams(A, kappa={(0, 1): {0: 0}}, lam={(1, 0): {1: 0}})
        assert p.is_zero()

    def test_index_validation(self):
        A = swap_q()
        with pytest.raises(ValueError):
            PBWParams(A, kappa={(1, 0): {0: 1}})
        with pytest.raises(ValueError):
            PBWParams(A, kappa={(0, 2): {0: 1}})
        with pytest.raises(ValueError):
            PBWParams(A, kappa={(0, 1): {5: 1}})
        with pytest.raises(ValueError):
            PBWParams(A, lam={(2, 0): {0: 1}})
        with pytest.raises(ValueError):
            PBWParams(A, lam={(1, 7): {0: 1}})

    def test_random_is_seeded(self):
        A = s3_refl_q()
        p1 = PBWParams.random(A, random.Random(5))
        p2 = PBWParams.random(A, random.Random(5))
        assert p1.kappa == p2.kappa and p1.lam == p2.lam


class TestNamedInstances:
    def test_zero_params_are_pbw(self):
        for make in PBW_CONFIGS.values():
            A = make()
            reports, agree = check_all(A, PBWParams.zero(A))
            assert agree
            assert all(r.verdict for r in reports.values())

    def test_swap_kappa_one_fails_condition_two(self):
        A = swap_q()
        p = PBWParams(A, kappa={(0, 1): {0: 1}})
        r5 = check_five(A, p)
        rc = check_cohomological(A, p)
        assert not r5.verdict and not rc.verdict
        want = (True, False, True, True, True)
        assert holds_pattern(r5) == want
        assert holds_pattern(rc) == want
        witness = {"g": 1, "u": 0, "v": 1, "defect": "(-2)*g"}
        assert r5.per_condition[1]["witness"] == witness
        assert rc.per_condition[1]["witness"] == witness
        ro = oracle_pbw(A, p)
        assert not ro.verdict
        assert ro.extras["dimension"] == 14
        assert ro.extras["expected_dimension"] == 20

    def test_swap_kappa_one_in_char_two_is_pbw(self):
        # the condition-(2) defect above is -2g, which vanishes mod 2
        A = swap_gf2()
        p = PBWParams(A, kappa={(0, 1): {0: 1}})
        reports, agree = check_all(A, p)
        assert agree and all(r.verdict for r in reports.values())
        assert oracle_pbw(A, p).extras["dimension"] == 20

    def test_neg_id_kappa_g_is_pbw(self):
        A = neg_id_q()
        p = PBWParams(A, kappa={(0, 1): {1: 1}})
        reports, agree = check_all(A, p)
        assert agree and all(r.verdict for r in reports.values())
        assert oracle_pbw(A, p).extras["dimension"] == 20


class TestModularInstances:
    """Trivial Z/3 on GF(3)^3: char = |G| and every condition is live."""

    LAM = {(1, i): {0: 1} for i in range(3)} | {(2, i): {1: 2}
                                               for i in range(3)}

    def test_fails_only_condition_five(self):
        A = z3_trivial_gf3_n3()
        p = PBWParams(A, kappa={(0, 1): {1: 1}}, lam=dict(self.LAM))
        r5 = check_five(A, p)
        rc = check_cohomological(A, p)
        want = (True, True, True, True, False)
        assert holds_pattern(r5) == want
        assert holds_pattern(rc) == want
        w = r5.per_condition[4]["witness"]
        assert (w["u"], w["v"], w["w"]) == (0, 1, 2)
        assert not oracle_pbw(A, p).verdict

    def test_repaired_table_is_pbw_dimension_60(self):
        A = z3_trivial_gf3_n3()
        p = PBWParams(
            A, kappa={(0, 1): {1: 1}, (0, 2): {1: 1}}, lam=dict(self.LAM)
        )
        reports, agree = check_all(A, p)
        assert agree and all(r.verdict for r in reports.values())
        ro = oracle_pbw(A, p)
        assert ro.extras["dimension"] == 60 == 3 * comb(6, 3)

    def test_lambda_only_fails_condition_two_with_identical_defect(self):
        A = z3_trivial_gf3_n3()
        lam = {(1, 0): {1: 1}, (1, 1): {2: 1},
               (2, 0): {2: 2}, (2, 1): {0: 2}}
        p = PBWParams(A, lam=lam)
        r5 = check_five(A, p)
        rc = check_cohomological(A, p)
        want = (True, False, True, True, True)
        assert holds_pattern(r5) == want
        assert holds_pattern(rc) == want
        witness = {"g": 1, "u": 0, "v": 1, "defect": "(2)*g^2"}
        assert r5.per_condition[1]["witness"] == witness
        assert rc.per_condition[1]["witness"] == witness
        assert not oracle_pbw(A, p).verdict


class TestWitnessDefect:
    def test_cohomological_defect_keeps_its_identity_term(self):
        # d*(mu1) on the first X_{2,1} image is -2 times the unit pair; the
        # witness once printed it with that term dropped, as "0"
        A = swap_q()
        p = full_support_table(A, 0)
        r5 = check_five(A, p).per_condition[0]
        rc = check_cohomological(A, p).per_condition[0]
        assert not r5["holds"] and not rc["holds"]
        assert r5["witness"] == {"g": 1, "h": 1, "v": 0, "defect": "(2)*1"}
        assert rc["witness"] == {"g": 1, "h": 1, "v": 0, "defect": "(-2)*1"}


class TestIdentityLambda:
    def test_reported_as_condition_one_with_identity_witness(self):
        A = swap_q()
        p = PBWParams(A, lam={(0, 0): {0: 1}})
        r5 = check_five(A, p)
        rc = check_cohomological(A, p)
        assert holds_pattern(r5) == (False, True, True, True, True)
        assert holds_pattern(rc) == (False, True, True, True, True)
        for rep in (r5, rc):
            w = rep.per_condition[0]["witness"]
            assert (w["g"], w["h"], w["v"]) == (0, 0, 0)
        assert not oracle_pbw(A, p).verdict


class TestStructuralVacuity:
    """Conditions that cannot fail when one parameter vanishes.

    With lambda = 0 the obstructions drop to Phi2 = -d*(mu2) and
    Phi3 = 0 on the kappa side, so only conditions (2) and (4) are live;
    with kappa = 0 condition (5) is a composition against mu2 = 0.
    """

    @pytest.mark.parametrize("name", sorted(PBW_CONFIGS))
    def test_kappa_only(self, name):
        A = PBW_CONFIGS[name]()
        rng = random.Random(sum(map(ord, name)) % 1000)
        for _ in range(6):
            p = PBWParams.random(A, rng)
            p = PBWParams(A, kappa=p.kappa, lam={})
            for rep in (check_five(A, p), check_cohomological(A, p)):
                pat = holds_pattern(rep)
                assert pat[0] and pat[2] and pat[4]

    @pytest.mark.parametrize("name", ["swap_q", "z3_unipotent_gf3"])
    def test_lambda_only_condition_five_holds(self, name):
        A = PBW_CONFIGS[name]()
        rng = random.Random(len(name))
        for _ in range(6):
            p = PBWParams.random(A, rng)
            p = PBWParams(A, kappa={}, lam=p.lam).without_identity_lambda()
            for rep in (check_five(A, p), check_cohomological(A, p)):
                assert holds_pattern(rep)[4]


class TestOracle:
    def test_normal_word_count_is_binomial(self):
        for make in (swap_q, z3_trivial_gf3_n3, s3_refl_q):
            A = make()
            assert len(_normal_words(A, 3)) == \
                A.group.order * comb(A.nvars + 3, 3)

    def test_dimension_never_exceeds_bound(self):
        A = swap_q()
        rng = random.Random(71)
        for _ in range(8):
            p = PBWParams.random(A, rng)
            ro = oracle_pbw(A, p)
            bound = A.group.order * comb(A.nvars + 3, 3)
            assert ro.extras["dimension"] <= bound
            assert ro.verdict == (ro.extras["dimension"] == bound)

    @pytest.mark.parametrize("name", ["swap_q", "neg_id", "z3_uni"])
    def test_modes_agree(self, name):
        """Sandwiching with every legal word of the free product, not only
        normal words, spans the same space (literal all-words oracle)."""
        make = {"swap_q": swap_q, "neg_id": neg_id_q,
                "z3_uni": z3_unipotent_gf3}[name]
        A = make()
        rng = random.Random(13)
        tables = [PBWParams.zero(A), PBWParams(A, kappa={(0, 1): {0: 1}})]
        tables += [PBWParams.random(A, rng) for _ in range(3)]
        for p in tables:
            a = oracle_pbw(A, p)
            rank, _witness = literal_oracle(A, p, "all_words")
            assert a.verdict == (rank == 0)
            assert a.extras["dimension"] == a.extras["normal_words"] - rank

    def test_early_exit_reports_no_dimension(self):
        A = swap_q()
        p = PBWParams(A, kappa={(0, 1): {0: 1}})
        ro = oracle_pbw(A, p, early_exit=True)
        assert not ro.verdict
        assert ro.extras["dimension"] is None
        assert ro.extras["rank"] is None
        assert ro.extras["witness"] is not None
        ok = oracle_pbw(A, PBWParams.zero(A), early_exit=True)
        assert ok.verdict and ok.extras["dimension"] == 20

    def test_failure_witness_names_a_relation_sandwich(self):
        A = swap_q()
        ro = oracle_pbw(A, PBWParams(A, kappa={(0, 1): {0: 1}}))
        w = ro.extras["witness"]
        assert w["relation"] == {"kind": "commutator", "i": 0, "j": 1}
        assert w["reduction"] == "(2)*g"


class TestOraclePins:
    """[verdict, dimension, rank] of the full rank on full-support tables.

    The Q tables run the fraction-free elimination of IncrementalRank on
    a rank-36 rational system; the mod-p tables pin the GF(3) and GF(2)
    paths.
    """

    @pytest.mark.parametrize("make, seed, want", [
        (s3_refl_q, 0, [False, 24, 36]),
        (s3_refl_q, 1, [False, 24, 36]),
        (z3_unipotent_gf3, 0, [False, 12, 18]),
        (v4_gf2, 0, [False, 61, 19]),
    ], ids=["s3_refl_q-0", "s3_refl_q-1", "z3_unipotent_gf3-0", "v4_gf2-0"])
    def test_full_support_table(self, make, seed, want):
        A = make()
        ro = oracle_pbw(A, full_support_table(A, seed))
        assert [ro.verdict, ro.extras["dimension"], ro.extras["rank"]] == want


class TestDrinfeldHeckePins:
    """Nonzero kappa-only tables on s3_refl_q, r and r² the 3-cycles
    (group indices 3 and 4).  kappa(x0 ∧ x1) = c(r - r²) is a Drinfeld
    Hecke algebra (Ram–Shepler, Comment. Math. Helv. 78, 2003): kappa is
    G-invariant and supported on elements with codim V^g = 2, and the
    reflections (det = -1) force kappa_r² = -kappa_r and kappa_1 = 0.
    Breaking either rule collapses the oracle's span to rank 18."""

    @pytest.mark.parametrize("value, want", [
        ({3: 1, 4: -1}, [True, 0, 60]),
        ({3: -1, 4: 1}, [True, 0, 60]),
        ({3: 2, 4: -2}, [True, 0, 60]),
        ({3: 1}, [False, 18, 42]),
        ({3: 1, 4: 1}, [False, 18, 42]),
        ({0: 1, 3: 1, 4: -1}, [False, 18, 42]),
    ], ids=["r-r2", "r2-r", "2r-2r2", "r", "r+r2", "r-r2+1"])
    def test_three_deciders(self, value, want):
        A = s3_refl_q()
        p = PBWParams(A, kappa={(0, 1): value})
        ro = oracle_pbw(A, p)
        assert [ro.verdict, ro.extras["rank"], ro.extras["dimension"]] == want
        assert check_five(A, p).verdict == want[0]
        assert check_cohomological(A, p).verdict == want[0]
        assert oracle_pbw(A, p, early_exit=True).verdict == want[0]


class TestOracleFactoring:
    """The rows the oracle builds every normal form from,

        R_x(c)  =  NF(nwords[c]·x),

    each filled by one leftmost step and the right-closure identity
    NF(y·b) = sum over z of NF(y)[z] · NF(z·b).  Every row, for every
    column of degree <= 2 and every variable, must be the normal form the
    frozen literal rewriter of test_oracle_reference gives, also on the
    non-PBW tables, where the rewriting system is not confluent.
    """

    @pytest.mark.parametrize("name", sorted(PBW_CONFIGS))
    def test_right_factor_identity(self, name):
        A = PBW_CONFIGS[name]()
        frame = _frame(A)
        columns = [c for c, w in enumerate(frame.nwords)
                   if sum(x < A.nvars for x in w) <= 2]
        for params in frame_tables(A, sum(map(ord, name))):
            rows = _Rows(frame, params)
            literal = _Rewriter(A, params)
            for c in columns:
                for x in range(A.nvars):
                    row = dict(rows.row(x, c))
                    assert ({frame.nwords[z]: d for z, d in row.items()}
                            == literal.reduce(frame.nwords[c] + (x,))), (
                        params.kappa, params.lam, frame.nwords[c], x)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("name", sorted(PBW_CONFIGS))
    def test_verdicts_agree_on_random_tables(self, name):
        A = PBW_CONFIGS[name]()
        rng = random.Random(sum(map(ord, name)))
        for _ in range(8):
            p = PBWParams.random(A, rng)
            reports, agree = check_all(A, p)
            assert agree, (name, p.kappa, p.lam,
                           {k: r.verdict for k, r in reports.items()})

    def test_report_shapes(self):
        A = swap_q()
        reports, agree = check_all(A, PBWParams.zero(A))
        assert agree
        for key, rep in reports.items():
            d = rep.to_json_dict()
            assert d["method"] == rep.method
            assert set(d) == {"method", "verdict", "per_condition", "extras"}
        assert reports["oracle"].per_condition is None
        for rep in (reports["five_conditions"], reports["cohomological"]):
            assert [c["condition"] for c in rep.per_condition] == \
                [1, 2, 3, 4, 5]
            assert all(c["witness"] is None for c in rep.per_condition)


def fresh_report(name, p):
    """check_cohomological on the table ``p`` over a new algebra."""
    cold = PBW_CONFIGS[name]()
    return check_cohomological(
        cold, PBWParams(cold, p.kappa, p.lam)).to_json_dict()


class TestSharedMemos:
    @pytest.mark.parametrize("name", ["v4_gf2", "z3_unipotent_gf3"])
    def test_cohomological_report_does_not_depend_on_earlier_tables(
            self, name):
        """The algebra memoizes what no table changes (the expansions of
        the pi images and of d E and iota(E), with their columns), so a
        table decided after others must get the report of a fresh
        algebra."""
        warm = PBW_CONFIGS[name]()
        rng = random.Random(7)
        for _ in range(6):
            p = PBWParams.random(warm, rng)
            assert (check_cohomological(warm, p).to_json_dict()
                    == fresh_report(name, p))


def frame_tables(A, seed):
    """Zero, kappa-only, lambda-only, one-coordinate, random and
    full-support tables for the oracle frame tests."""
    rng = random.Random(seed)
    full = full_support_table(A, seed)
    coords = sorted(full.kappa) + sorted(full.lam)
    ci = rng.randrange(len(coords))
    g = rng.randrange(A.group.order)
    single = ({coords[ci]: {g: 1}}, {}) if ci < len(full.kappa) else (
        {}, {coords[ci]: {g: 1}})
    return [PBWParams.zero(A), PBWParams(A, kappa=full.kappa),
            PBWParams(A, lam=full.lam), PBWParams(A, *single),
            PBWParams.random(A, rng), PBWParams.random(A, rng), full]


def fresh_oracle(name, p, early_exit):
    """oracle_pbw on the table ``p`` over a new algebra."""
    cold = PBW_CONFIGS[name]()
    return oracle_pbw(cold, PBWParams(cold, p.kappa, p.lam),
                      early_exit=early_exit).to_json_dict()


def relation_element(A, coord, free, p):
    """The relation carrying coord under the table p, as (word, scalar)
    pairs: its table-free part plus its table value."""
    f, nv = A.field, A.nvars
    kind, u, v = coord
    value = (p.kappa_wedge(u, v) if kind == "kappa"
             else {g: f.neg(c) for g, c in p.lam_of(u, v).items()})
    return f.accumulate(dict(free), (((nv + g,) if g else (), c)
                                     for g, c in value.items())).items()


def overlap_skips(A, coord, a):
    """The overlap rule, stated on words: with the left word m·h, skip
    h = 1 with the straightening of g != 1, and h = 1 with the commutator
    of i < j when m is empty or last(m) <= j."""
    m = _frame(A).nwords[a]
    if m and m[-1] >= A.nvars:
        return False
    kind, u, v = coord
    return u != 0 if kind == "lambda" else not m or m[-1] <= v


class TestOracleFrame:
    """The oracle keeps its table-free data on the algebra
    (``_OracleFrame``), so a table decided on an algebra that decided
    others must get the report of a fresh algebra."""

    @pytest.mark.parametrize("name", ["swap_q", "swap_gf2",
                                      "z3_unipotent_gf3", "s3_refl_q",
                                      "v4_gf2"])
    def test_report_does_not_depend_on_earlier_tables(self, name):
        tables = frame_tables(PBW_CONFIGS[name](), sum(map(ord, name)))
        # one algebra starts from the zero table, the other from the full
        # one; each decides every table with and without early exit, then
        # again in the opposite order
        for first in (tables, tables[::-1]):
            warm = PBW_CONFIGS[name]()
            order = [(p, e) for p in first for e in (False, True)]
            order += [(p, e) for p in first[::-1] for e in (True, False)]
            for p, early in order:
                p = PBWParams(warm, p.kappa, p.lam)
                assert (oracle_pbw(warm, p, early_exit=early).to_json_dict()
                        == fresh_oracle(name, p, early)), (p.kappa, p.lam)
            # the zero table read its left products from the frame
            zero_lefts = warm._oracle_frame._zero_lefts
            assert any(zero_lefts)
            assert not any(v for per in zero_lefts for v in per)

    @pytest.mark.parametrize("name", ["swap_gf2", "z3_unipotent_gf3",
                                      "v4_gf2"])
    def test_sparse_tables_match_the_literal_oracle(self, name):
        """Tables that leave most coordinates zero (kappa-only,
        lambda-only, one-coordinate): most of their left products are
        zero, so rank and witness rest on the few that are not, which on
        three variables (v4_gf2) may first differ from zero deep inside a
        reduction."""
        A = PBW_CONFIGS[name]()
        total = len(_frame(A).nwords)
        tables = frame_tables(A, 0)[1:4]
        tables += [frame_tables(A, seed)[3] for seed in (1, 2)]
        for p in tables:
            rank, witness = literal_oracle(A, p, "normal_sandwich")
            ro = oracle_pbw(A, p)
            assert [ro.extras["rank"], ro.extras["dimension"],
                    ro.extras["witness"]] == [rank, total - rank, witness]

    @pytest.mark.parametrize("name", sorted(PBW_CONFIGS))
    def test_group_relabelling_is_right_multiplication(self, name):
        """R_g on columns, read off the word layout, is w -> w·g."""
        A = PBW_CONFIGS[name]()
        frame = _frame(A)
        cat = _Rewriter(A, PBWParams.zero(A)).cat
        for g, perm in enumerate(frame.perms, 1):
            assert perm == [frame.index[cat(w, (frame.nv + g,))]
                            for w in frame.nwords]

    @pytest.mark.parametrize("name", sorted(PBW_CONFIGS))
    def test_overlap_rule_skips_only_zero_products(self, name):
        """The frame keeps, per relation, exactly the left columns of
        degree within the relation's budget that the overlap rule does not
        skip, in scan order; every skipped product is zero on every table,
        PBW or not; and the rule skips products of both relation kinds."""
        A = PBW_CONFIGS[name]()
        frame = _frame(A)
        degree = [sum(x < A.nvars for x in w) for w in frame.nwords]
        skipped = {"kappa": [], "lambda": []}
        for coord, free, budget, columns in frame.relations:
            assert budget == ORACLE_DEGREE - (2 if coord[0] == "kappa" else 1)
            scan = [a for d in range(budget + 1)
                    for a, da in enumerate(degree) if da == d]
            assert list(columns) == [a for a in scan
                                     if not overlap_skips(A, coord, a)]
            skipped[coord[0]] += [(coord, free, a) for a in scan
                                  if overlap_skips(A, coord, a)]
        assert skipped["kappa"] and skipped["lambda"]
        for p in frame_tables(A, sum(map(ord, name))):
            rows = _Rows(frame, p)
            for coord, free, a in skipped["kappa"] + skipped["lambda"]:
                assert rows.left(a, relation_element(A, coord, free, p)) \
                    == {}, (p.kappa, p.lam, coord, frame.nwords[a])


def iota_images(A, i, j):
    """iota(E) as a chain, per free generator E of X_{i,j}, in the order
    of the decider's scans."""
    tag = ("twisted", i, j, "koszul")
    return [iota(ChainElement.basis(A, tag, slots))
            for slots in free_terms(A, tag, 1)]


def all_defects(A, p):
    """Every defect of check_cohomological for the table p, generator by
    generator: d*(mu1) over the X_{2,1} basis, all three defects over the
    X_{1,2} and X_{0,3} bases, each read on the cached expansions of d E
    and iota(E)."""
    d_mu1, *phis = _defects(A, p)
    return [(d_mu1(boundary, image),) + tuple(
                phi(boundary, image) for phi in phis if image is not None)
            for i, j in ((2, 1), (1, 2), (0, 3))
            for _key, boundary, image in _iota_images(A, i, j)]


class TestTwistedSideCoboundary:
    """check_cohomological evaluates d*(mu) on iota(E) as alpha(d E),
    lambda and kappa on the algebra's expansions of d E, and the circle
    products on the cached expansion of iota(E).  Every defect must equal
    the one the cochain code computes on the bar side: coboundary and
    circle of the transported cochains, evaluated on y = iota(E) built
    here as a chain.  On X_{2,1} only d*(mu1) is compared: no condition
    reads the circle products there.

    The tables: random ones, full-support ones with and without kappa,
    and on s3_refl_q the Drinfeld Hecke table kappa(x0 ∧ x1) = r - r²,
    PBW, so that every image's defects are zero, with the three near
    misses of TestDrinfeldHeckePins.  They are decided in turn on one
    algebra, so the later ones meet expansions that earlier tables filled;
    each must get the defects of a cold algebra."""

    @pytest.mark.parametrize("name", sorted(PBW_CONFIGS))
    def test_defects_match_the_bar_side_cochains(self, name):
        A = PBW_CONFIGS[name]()
        rng = random.Random(11)
        tables = [PBWParams.random(A, rng) for _ in range(3)]
        tables += [full_support_table(A, s) for s in range(2)]
        tables.append(PBWParams(A, lam=full_support_table(A, 0).lam))
        if name == "s3_refl_q":
            tables += [PBWParams(A, kappa={(0, 1): value}) for value in (
                {3: 1, 4: -1}, {3: 1}, {3: 1, 4: 1}, {0: 1, 3: 1, 4: -1})]
        pif = pi_of_free(A)
        images = {(i, j): iota_images(A, i, j)
                  for i, j in ((2, 1), (1, 2), (0, 3))}
        for p in tables:
            p = p.without_identity_lambda()

            def lam_fn(key):
                (g,), ((i,),) = key
                return A.of_group_algebra(p.lam_of(g, i))

            def kap_fn(key):
                _, ((i, j),) = key
                return A.of_group_algebra(p.kappa_wedge(i, j))

            mu1 = transport_up(
                Cochain(A, ("twisted", 1, 1, "koszul"), lam_fn), pif)
            mu2 = transport_up(
                Cochain(A, ("twisted", 0, 2, "koszul"), kap_fn), pif)
            ref1 = coboundary(mu1)
            ref2 = circle(mu1, mu1) - coboundary(mu2)
            ref3 = circle(mu1, mu2) + circle(mu2, mu1)
            got = all_defects(A, p)
            assert got == [
                (ref1.eval_element(y),) + (() if (i, j) == (2, 1) else (
                    ref2.eval_element(y), ref3.eval_element(y)))
                for (i, j), ys in images.items() for y in ys], \
                (p.kappa, p.lam)
            cold = PBW_CONFIGS[name]()
            assert all_defects(cold, PBWParams(cold, p.kappa, p.lam)) == got
            if p.kappa == {(0, 1): {3: 1, 4: -1}} and not p.lam:
                assert not any(map(any, got))


def unit_coordinate_cochains(A):
    """The lambda and kappa cochains of the tables with one coordinate 1,
    lambda(g, x_i) = h or kappa(x_i ∧ x_j) = h, and every other 0."""
    order, nv = A.group.order, A.nvars
    keys = [(("twisted", 1, 1, "koszul"), ((g,), ((i,),)))
            for g in range(1, order) for i in range(nv)]
    keys += [(("twisted", 0, 2, "koszul"), ((), ((i, j),)))
             for i in range(nv) for j in range(i + 1, nv)]
    return [Cochain(A, tag, lambda k, key=key, h=h:
                    A.of_group_algebra({h: 1}) if k == key else {})
            for tag, key in keys for h in range(order)]


class TestTransportAlongIota:
    """The identity check_cohomological rests on: a cochain alpha of the
    twisted complex, transported along pi to mu, reads on iota(x) what
    alpha reads on x.  mu∘iota and alpha are bimodule maps that agree on
    the free generators, because iota(E) is a sum of free bar generators
    and pi∘iota = id; so this holds on terms with any outer slots, and
    a lambda cochain reads zero on the iota image of an X_{0,2} term, a
    kappa cochain on that of an X_{1,1} term.

    The circle products read mu on the bar letters of iota(E)'s terms for
    the free generators E of X_{2,1}, X_{1,2} and X_{0,3}; those terms
    must have unit outer slots too."""

    @pytest.mark.parametrize("name", sorted(PBW_CONFIGS))
    def test_transported_cochain_reads_alpha_on_iota(self, name):
        A = PBW_CONFIGS[name]()
        pif = functools.cache(pi_of_free(A))
        cochains = [(alpha, transport_up(alpha, pif))
                    for alpha in unit_coordinate_cochains(A)]
        rng = random.Random(23)
        nonzero = 0
        for i, j in ((1, 1), (0, 2)):
            tag = ("twisted", i, j, "koszul")
            for _ in range(20):
                x = ChainElement.basis(A, tag, random_twisted_slots(
                    A, i, j, "koszul", 1, rng, free=False))
                y = iota(x)
                for alpha, mu in cochains:
                    want = alpha.eval_element(x)
                    assert mu.eval_element(y) == want, (tag, x.parts)
                    nonzero += bool(want)
        assert nonzero

    @pytest.mark.parametrize("name", sorted(PBW_CONFIGS))
    def test_iota_of_a_free_generator_has_unit_outer_slots(self, name):
        A = PBW_CONFIGS[name]()
        unit = A.unit_pair
        for i, j in ((1, 1), (0, 2), (2, 1), (1, 2), (0, 3)):
            for y in iota_images(A, i, j):
                for part in y.parts.values():
                    assert all(slots[0] == unit == slots[-1]
                               for slots in part), (i, j)


def test_cohomological_builds_no_x21_iota_image(monkeypatch):
    """Only d E of an X_{2,1} generator E is read, so the decider maps no
    X_{2,1} generator through iota, and still checks them all."""
    A = z3_trivial_gf3_n3()
    seen = set()

    def recording(x):
        seen.update(x.parts)
        return iota(x)

    monkeypatch.setattr(pbw, "iota", recording)
    report = check_cohomological(A, PBWParams.zero(A))
    assert report.verdict
    assert seen == {("twisted", 1, 2, "koszul"), ("twisted", 0, 3, "koszul")}
    assert report.extras["checked"]["X21"] == len(list(
        free_terms(A, ("twisted", 2, 1, "koszul"), 1))) > 0


def pi_of_boundary_chain(A, y):
    """Π(d y) built as a chain: pi on the free part of each term of d y,
    moved by the term's outer slots through the bimodule action."""
    pif = pi_of_free(A)
    out = ChainElement(A)
    for terms in diff(y).parts.values():
        for slots, c in terms.items():
            a, b = (None if s == A.unit_pair else {s: 1}
                    for s in (slots[0], slots[-1]))
            out.add_scaled(bimodule_act(a, pif(slots[1:-1]), b), c)
    return out


class TestBoundaryTransport:
    """On every X_{2,1}, X_{1,2} and X_{0,3} iota image y, Π(d y), pi
    moved bimodule-wise, and pi(d y), pi applied to the chain, agree on
    the X_{1,1} and X_{0,2} parts, the parts that lambda and kappa read.
    Π is not a chain map (pi is not right kG-linear), so this is a
    measured property of these images, kept as a regression check."""

    PARTS = (("twisted", 1, 1, "koszul"), ("twisted", 0, 2, "koszul"))

    @pytest.mark.parametrize("name", sorted(PBW_CONFIGS))
    def test_bimodule_extension_agrees_with_pi_on_the_read_parts(self, name):
        A = PBW_CONFIGS[name]()
        nonzero = 0
        for i, j in ((2, 1), (1, 2), (0, 3)):
            for index, y in enumerate(iota_images(A, i, j)):
                built, direct = pi_of_boundary_chain(A, y), pi(diff(y))
                for tag in self.PARTS:
                    part = built.parts.get(tag, {})
                    assert part == direct.parts.get(tag, {}), \
                        (i, j, index, tag)
                    nonzero += bool(part)
        assert nonzero


class TestEnumerate:
    def test_neg_id_all_four_kappa_choices_pass(self):
        A = neg_id_q()
        found = enumerate_pbw(
            A, kappa_candidates=[{}, {0: 1}, {1: 1}, {0: 1, 1: 1}]
        )
        assert [f.kappa for f in found] == [
            {},
            {(0, 1): {0: 1}},
            {(0, 1): {1: 1}},
            {(0, 1): {0: 1, 1: 1}},
        ]
        for f in found:
            assert oracle_pbw(A, f).verdict

    def test_swap_only_zero_survives(self):
        # over the swap action every nonzero constant kappa fails (2)
        A = swap_q()
        found = enumerate_pbw(
            A, kappa_candidates=[{}, {0: 1}, {1: 1}, {0: 1, 1: 1}]
        )
        assert [f.kappa for f in found] == [{}]

    def test_cap(self):
        A = s3_refl_q()
        with pytest.raises(SearchSpaceTooLarge):
            enumerate_pbw(
                A, kappa_candidates=[{}, {0: 1}],
                lambda_candidates=[{}, {0: 1}, {1: 1}], cap=10,
            )


class TestConditionsOnNonBasisVectors:
    def test_phi1_vanishes_on_random_combinations(self):
        # For a PBW table with lambda != 0 the transported 2-cochain mu1
        # is a cocycle; d*(mu1) must kill the iota-image of arbitrary
        # X_{1,2} elements (outer slots, several terms), not only the
        # free-basis vectors the checker enumerates.
        A = z3_trivial_gf3_n3()
        p = PBWParams(
            A, kappa={(0, 1): {1: 1}, (0, 2): {1: 1}},
            lam=dict(TestModularInstances.LAM),
        )
        pif = pi_of_free(A)

        def lam_fn(key):
            (g,), ((i,),) = key
            return A.of_group_algebra(p.lam_of(g, i))

        mu1 = transport_up(
            Cochain(A, ("twisted", 1, 1, "koszul"), lam_fn), pif
        )
        phi1 = coboundary(mu1)
        rng = random.Random(37)
        tag = ("twisted", 1, 2, "koszul")
        for _ in range(10):
            x = ChainElement(A)
            for _ in range(rng.randrange(1, 4)):
                slots = random_twisted_slots(A, 1, 2, "koszul", 1, rng,
                                             free=False)
                x.add_scaled(ChainElement.basis(
                    A, tag, slots, coeff=A.field.from_int(rng.choice([1, 2]))
                ))
            assert phi1.eval_element(iota(x)) == {}
