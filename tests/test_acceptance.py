"""Binding end-to-end acceptance runs at full advertised budgets.

Each test name carries the number of the criterion it certifies;
conftest.py turns the outcomes into a one-line-per-criterion summary at
the end of the run.  This is the slow part of the suite (several minutes
combined): exhaustive free bases through bar degree 3 at polynomial
degree 2 with 200 random degree-4 samples per chain map, the splitting
identities through total degree 4 (AW/EZ) and 3 (Koszul), the
trivial-group degeneration through degree 4, 100 random parameter
tables per configuration for the three-way PBW agreement, and the
pinned named instances.  Everything else in tests/ is fast unit
coverage; nothing here may be weakened without changing what the
package promises.
"""

import random
import time
from math import comb

import pytest

from skewchain import verify
from skewchain.chainmaps import awg, ezg, iota, pi
from skewchain.cochains import Cochain, transport_up
from skewchain.fields import vec_sub
from skewchain.complexes import (
    ChainElement,
    expand_term,
    free_terms,
    random_barskew_slots,
    random_twisted_slots,
    term_s_degree,
)
from skewchain.pbw import PBWParams, check_all, oracle_pbw
from skewchain.polynomials import var_exp
from skewchain.verify import verify_chainmap

from helpers import (
    CHAINMAP_CONFIGS,
    PBW_CONFIGS,
    classical_aw,
    classical_ez,
    neg_id_q,
    pi_of_free,
    swap_gf2,
    swap_q,
    trivial_group_q,
    z3_trivial_gf3_n3,
)

CHAINMAP_NAMES = sorted(CHAINMAP_CONFIGS)
PBW_NAMES = sorted(PBW_CONFIGS)

BAR_DEGREES = (0, 1, 2, 3)
POLY_DEG = 2
DEGREE4_SAMPLES = 200
BUDGETS = {"max_bar_degree": 3, "max_poly_degree": 2, "j_max": 4,
           "samples": 100, "degree4_samples": DEGREE4_SAMPLES, "seed": 0}


def total_degree(tag):
    return tag[1] + tag[2] if tag[0] == "twisted" else tag[1]


def assert_check_passes(A, check, seed=0):
    """Run one check of skewchain.verify at the acceptance budgets."""
    rep = check(A, BUDGETS, random.Random(seed))
    assert rep["passed"] and rep["checked"] > 0, rep


# -- criterion 1: the four resolution-level chain maps ---------------------

@pytest.mark.parametrize("name", CHAINMAP_NAMES)
def test_criterion_1_chain_maps(name):
    A = CHAINMAP_CONFIGS[name]()
    start = time.monotonic()
    for map_name in ("awg", "ezg", "iota_s", "pi_s"):
        rep = verify_chainmap(A, map_name, degrees=BAR_DEGREES,
                              max_poly_deg=POLY_DEG,
                              samples=DEGREE4_SAMPLES, sample_degree=4,
                              seed=17)
        assert rep["failures"] == [], (name, map_name, rep["failures"][:2])
        assert rep["checked"] > DEGREE4_SAMPLES
    assert time.monotonic() - start < 300.0


# -- criterion 2: AW o EZ = id through total degree 4 ----------------------

@pytest.mark.parametrize("name", CHAINMAP_NAMES)
def test_criterion_2_awg_ezg_identity(name):
    assert_check_passes(CHAINMAP_CONFIGS[name](), verify.awg_ezg_identity)


def test_criterion_2_worked_degree2_instance():
    # 1 (x) g (x) x0 (x) 1 in bidegree (1,1) for the order-2 swap action:
    # the shuffle lift is 1 (x) g (x) x0 (x) 1 - 1 (x) x1 (x) g (x) 1 and
    # AW collapses it back onto the original generator.
    A = swap_q()
    Z = A.zero_exp
    UNIT = (Z, 0)
    x = ChainElement.basis(A, ("twisted", 1, 1, "bar"),
                           (0, 1, 0, Z, (1, 0), Z))
    lift = ezg(x)
    assert lift.parts[("barskew", 2)] == {
        (UNIT, (Z, 1), ((1, 0), 0), UNIT): 1,
        (UNIT, ((0, 1), 0), (Z, 1), UNIT): -1,
    }
    assert awg(lift) == x


# -- criterion 3: the Koszul splitting through total degree 3 --------------

@pytest.mark.parametrize("name", CHAINMAP_NAMES)
def test_criterion_3_koszul_splitting(name):
    A = CHAINMAP_CONFIGS[name]()
    start = time.monotonic()

    for map_name in ("iota", "pi"):
        rep = verify_chainmap(A, map_name, degrees=BAR_DEGREES,
                              max_poly_deg=POLY_DEG,
                              samples=DEGREE4_SAMPLES, sample_degree=4,
                              seed=19)
        assert rep["failures"] == [], (name, map_name, rep["failures"][:2])

    assert_check_passes(A, verify.pi_iota_identity)

    # graded-map property on random terms with nontrivial outer slots:
    # both maps preserve the total homological degree and the S-degree.
    rng = random.Random(23)
    for _ in range(25):
        j = rng.randrange(min(A.nvars, 3) + 1)
        i = rng.randrange(4 - j)
        tag = ("twisted", i, j, "koszul")
        slots = random_twisted_slots(A, i, j, "koszul", POLY_DEG, rng,
                                     free=False)
        x = ChainElement.basis(A, tag, slots)
        d = term_s_degree(A, tag, slots)
        for otag, part in iota(x).parts.items():
            assert total_degree(otag) == i + j
            for oslots in part:
                assert term_s_degree(A, otag, oslots) == d
    for _ in range(25):
        n = rng.randrange(4)
        slots = random_barskew_slots(A, n, POLY_DEG, rng, free=False)
        x = ChainElement.basis(A, ("barskew", n), slots)
        d = term_s_degree(A, ("barskew", n), slots)
        for otag, part in pi(x).parts.items():
            assert total_degree(otag) == n
            for oslots in part:
                assert term_s_degree(A, otag, oslots) == d
    assert time.monotonic() - start < 600.0


# -- criterion 4: trivial group = the classical simplicial maps ------------

def test_criterion_4_trivial_group_aw():
    A = trivial_group_q()
    for n in range(5):
        for slots in free_terms(A, ("barskew", n), POLY_DEG):
            inner = tuple(m for m, _ in slots[1:-1])
            v = awg(ChainElement.basis(A, ("barskew", n), slots))
            want = classical_aw(A.nvars, inner)
            assert set(v.parts) == {
                ("twisted", i, j, "bar") for i, j in want
            }
            z = A.zero_exp
            for (i, j), terms in want.items():
                expect = {}
                for c, (cb, dm) in terms:
                    expect[(0,) + tuple(cb) + (0,) + (z,)
                           + tuple(dm) + (z,)] = c
                assert v.parts[("twisted", i, j, "bar")] == expect


def test_criterion_4_trivial_group_ez():
    A = trivial_group_q()
    z = A.zero_exp
    for j in range(5):
        for slots in free_terms(A, ("twisted", 0, j, "bar"), POLY_DEG):
            dmid = slots[3:-1]
            v = ezg(ChainElement.basis(A, ("twisted", 0, j, "bar"), slots))
            expect = {}
            for c, mids in classical_ez((), dmid):
                expect[((z, 0),) + tuple((m, 0) for m in mids)
                       + ((z, 0),)] = c
            assert v.parts[("barskew", j)] == expect
            assert len(v.parts) == 1


# -- criterion 5: three-way PBW agreement on random tables -----------------

@pytest.mark.parametrize("name", PBW_NAMES)
def test_criterion_5_three_way_agreement(name):
    A = PBW_CONFIGS[name]()
    rng = random.Random(10_000 + sum(map(ord, name)))
    start = time.monotonic()
    for _ in range(100):
        p = PBWParams.random(A, rng)
        reports, agree = check_all(A, p)
        assert agree, (name, p.kappa, p.lam,
                       {k: r.verdict for k, r in reports.items()})
    # five configs at < 6 min apiece keeps the whole battery under 30 min
    assert time.monotonic() - start < 360.0


# -- criterion 6: named instances with pinned verdicts ---------------------

def test_criterion_6_zero_tables_are_pbw():
    for make in PBW_CONFIGS.values():
        A = make()
        reports, agree = check_all(A, PBWParams.zero(A))
        assert agree and all(r.verdict for r in reports.values())


def test_criterion_6_swap_kappa_one():
    # over Q the defect -2g obstructs; over GF(2) it vanishes
    A = swap_q()
    p = PBWParams(A, kappa={(0, 1): {0: 1}})
    reports, agree = check_all(A, p)
    assert agree and not any(r.verdict for r in reports.values())
    ro = oracle_pbw(A, p)
    assert (ro.extras["dimension"], ro.extras["expected_dimension"]) \
        == (14, 20)

    A2 = swap_gf2()
    p2 = PBWParams(A2, kappa={(0, 1): {0: 1}})
    reports, agree = check_all(A2, p2)
    assert agree and all(r.verdict for r in reports.values())
    assert oracle_pbw(A2, p2).extras["dimension"] == 20


def test_criterion_6_neg_id_group_valued_kappa():
    A = neg_id_q()
    p = PBWParams(A, kappa={(0, 1): {1: 1}})
    reports, agree = check_all(A, p)
    assert agree and all(r.verdict for r in reports.values())
    assert oracle_pbw(A, p).extras["dimension"] == 20


def test_criterion_6_modular_lambda_kappa_table():
    # char = |G| = 3: a mixed table that is PBW only with both kappa
    # entries present; quotient dimension 60 = 3 * C(6, 3).
    A = z3_trivial_gf3_n3()
    lam = {(1, i): {0: 1} for i in range(3)}
    lam.update({(2, i): {1: 2} for i in range(3)})
    broken = PBWParams(A, kappa={(0, 1): {1: 1}}, lam=dict(lam))
    reports, agree = check_all(A, broken)
    assert agree and not any(r.verdict for r in reports.values())
    repaired = PBWParams(A, kappa={(0, 1): {1: 1}, (0, 2): {1: 1}},
                         lam=dict(lam))
    reports, agree = check_all(A, repaired)
    assert agree and all(r.verdict for r in reports.values())
    assert oracle_pbw(A, repaired).extras["dimension"] == 60 == \
        3 * comb(6, 3)


# -- criterion 7: parameter tables as cochains -----------------------------

@pytest.mark.parametrize("name", PBW_NAMES)
def test_criterion_7_parameter_cochain_identities(name):
    A = PBW_CONFIGS[name]()
    pif = pi_of_free(A)
    rng = random.Random(700 + sum(map(ord, name)))
    z = A.zero_exp
    UNIT = (z, 0)
    tag = ("barskew", 2)
    for _ in range(20):
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
        for g in range(A.group.order):
            for i in range(A.nvars):
                v = var_exp(A.nvars, i)
                el1 = expand_term(A, tag, (UNIT, (z, g), (v, 0), UNIT))
                gv = A.action.act_monomial(g, v)
                el2 = expand_term(
                    A, tag,
                    (UNIT, {(m, 0): c for m, c in gv.items()},
                     (z, g), UNIT),
                )
                lhs = vec_sub(A.field, mu1.eval_element(el1), mu1.eval_element(el2))
                assert lhs == A.of_group_algebra(params.lam_of(g, i))
        for i in range(A.nvars):
            for j in range(i + 1, A.nvars):
                vi, vj = var_exp(A.nvars, i), var_exp(A.nvars, j)
                el1 = expand_term(A, tag, (UNIT, (vi, 0), (vj, 0), UNIT))
                el2 = expand_term(A, tag, (UNIT, (vj, 0), (vi, 0), UNIT))
                lhs = vec_sub(A.field, mu2.eval_element(el1), mu2.eval_element(el2))
                assert lhs == A.of_group_algebra(params.kappa_wedge(i, j))


# -- criterion 8: the resolutions themselves -------------------------------

@pytest.mark.parametrize("name", CHAINMAP_NAMES)
def test_criterion_8_d_squared_zero(name):
    A = CHAINMAP_CONFIGS[name]()
    for check in verify.D2_CHECKS:
        assert_check_passes(A, check)
    # degree-4 terms with nontrivial outer slots
    assert_check_passes(A, verify.d2_random_degree4, seed=41)


@pytest.mark.parametrize("name", CHAINMAP_NAMES)
def test_criterion_8_diff_commutes_with_action(name):
    assert_check_passes(CHAINMAP_CONFIGS[name](),
                        verify.diff_commutes_with_action, seed=43)
