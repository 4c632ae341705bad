"""skewchain.verify: its sampled inputs, its failure witnesses, the one
pass per input family that runs every row of its table, and the input
count that bounds a run before it starts."""

import collections
import functools
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from skewchain import chainmaps, complexes, verify
from skewchain.chainmaps import awg
from skewchain.complexes import ChainElement
from skewchain.serialize import DEFAULT_BUDGETS, RunConfig, canonical_json

from helpers import (
    CHAINMAP_CONFIGS,
    PBW_CONFIGS,
    neg_id_q,
    s3_perm_q,
    s3_refl_q,
    swap_gf2,
    swap_q,
    trivial_group_q,
    v4_gf2,
    z3_diag_gf3,
    z3_trivial_gf3_n3,
    z3_unipotent_gf3,
)

ROOT = Path(__file__).resolve().parent.parent

BUDGETS = {"max_bar_degree": 2, "max_poly_degree": 2, "j_max": 4,
           "samples": 20, "degree4_samples": 20, "seed": 0}


def has_non_unit_outer(alg, tag, slots):
    if tag[0] == "barskew":
        return (slots[0], slots[-1]) != (alg.unit_pair, alg.unit_pair)
    i = tag[1]
    z = alg.zero_exp
    return (slots[0], slots[i + 1], slots[i + 2], slots[-1]) != (0, 0, z, z)


@pytest.mark.parametrize("check", [
    verify.d2_random_degree4, verify.bimodule_axioms,
    verify.diff_commutes_with_action, verify.group_scalar_compat,
], ids=lambda c: c.__name__)
def test_random_checks_draw_outer_slots(check, monkeypatch):
    # The sampled checks are meant for terms with nontrivial outer slots;
    # free generators alone would leave the bimodule coefficients untested.
    drawn = []
    original = verify.random_term

    def recording(*args, **kwargs):
        term = original(*args, **kwargs)
        drawn.append(term)
        return term

    monkeypatch.setattr(verify, "random_term", recording)
    alg = swap_q()
    rep = check(alg, BUDGETS, random.Random(0))
    assert rep["passed"] and len(drawn) == rep["checked"]
    assert any(has_non_unit_outer(alg, tag, slots) for tag, slots in drawn)


def test_chainmap_witnesses_are_capped_and_name_the_defect(monkeypatch):
    def mutant(x):
        v = awg(x)
        for tag, terms in v.parts.items():
            if tag[1] % 2:
                v.parts[tag] = {s: -c for s, c in terms.items()}
        return v

    monkeypatch.setattr(chainmaps, "awg", mutant)
    rep = verify.verify_chainmap(swap_q(), "awg", degrees=(1, 2))
    assert rep["checked"] > verify.MAX_WITNESSES
    assert len(rep["failures"]) == verify.MAX_WITNESSES
    for w in rep["failures"]:
        assert set(w) == {"degree", "tag", "input", "defect_terms", "defect"}
        assert w["tag"][0] == "barskew" and w["degree"] == w["tag"][1]
        assert w["defect_terms"] > 0


def test_chainmap_witness_renders_the_defect(monkeypatch):
    """A witness shows the first terms of d f(x) - f(d x) in tag, then
    slot, order, and counts the terms it leaves out."""
    def mutant(x):  # awg with its X_{i,j} part scaled by i + 1
        v = awg(x)
        for tag, terms in v.parts.items():
            v.parts[tag] = {s: (tag[1] + 1) * c for s, c in terms.items()}
        return v

    monkeypatch.setattr(chainmaps, "awg", mutant)
    alg = swap_q()
    rep = verify.verify_chainmap(alg, "awg", degrees=(1,))
    first = rep["failures"][0]
    assert first["input"] == [[[0, 0], 0], [[0, 0], 1], [[0, 0], 0]]
    # d awg(1⊗g⊗1) = g⊗1 - 1⊗g in X_{0,0}; the mutant doubles it
    assert first["defect"] == ("(-1)*twisted(0,0,bar)(0,1,(0,0),(0,0)) + "
                               "(1)*twisted(0,0,bar)(1,0,(0,0),(0,0))")
    rep = verify.verify_chainmap(alg, "awg", degrees=(), samples=5)
    long = [w for w in rep["failures"]
            if w["defect_terms"] > verify.MAX_DEFECT_TERMS]
    assert long, "no sampled degree-4 input has a long defect"
    for w in long:
        shown, more = w["defect"].rsplit(" +", 1)
        assert shown.count(")*") == verify.MAX_DEFECT_TERMS
        assert more == f"{w['defect_terms'] - verify.MAX_DEFECT_TERMS} more"
    for w in rep["failures"]:
        if w["defect_terms"] <= verify.MAX_DEFECT_TERMS:
            assert w["defect"].count(")*") == w["defect_terms"]


SMALL = {"max_bar_degree": 2, "max_poly_degree": 1, "j_max": 4,
         "samples": 5, "degree4_samples": 5, "seed": 3}


def test_a_passing_run_builds_no_witness(monkeypatch):
    def forbidden(slots):
        raise AssertionError("a witness was built for a passing input")

    monkeypatch.setattr(verify, "_slots_json", forbidden)
    records = verify.run_suites(swap_q(), SMALL, "all")
    assert all(r["passed"] for r in records)


def test_a_failing_run_keeps_its_witnesses(monkeypatch):
    """With every identity broken, each record keeps the witnesses of its
    first inputs; the canonical records are pinned by their sha256, taken
    when every input's witness was built eagerly."""
    def odd_columns_negated(x):
        v = real_awg(x)
        for tag, terms in v.parts.items():
            if tag[1] % 2:
                v.parts[tag] = {s: -c for s, c in terms.items()}
        return v

    real_awg = chainmaps.awg
    monkeypatch.setattr(chainmaps, "awg", odd_columns_negated)
    monkeypatch.setattr(ChainElement, "__eq__", lambda self, other: False)
    monkeypatch.setattr(ChainElement, "is_zero", lambda self: False)
    monkeypatch.setattr(verify, "term_s_degree", lambda alg, tag, s: s)
    alg = swap_q()
    records = verify.run_suites(alg, SMALL, "all")
    for r in records:
        assert len(r["failures"]) == min(r["checked"], verify.MAX_WITNESSES)
    d2 = next(r for r in records if r["name"] == "d2_barskew")
    assert d2["failures"] == [
        {"tag": list(tag), "input": json.loads(json.dumps(slots))}
        for tag, slots in itertools.islice(
            verify.free_basis(alg, "barskew", 2, 1), verify.MAX_WITNESSES)]
    scalar = next(r for r in records if r["name"] == "group_scalar_compat")
    assert all(set(w) == {"tag", "input", "g"} for w in scalar["failures"])
    assert hashlib.sha256(canonical_json(records).encode()).hexdigest() == (
        "b6e7ac82620b2f9152d106959168cd6df5c453c3c50563d7f0ead7d78b564dc0")


@pytest.mark.parametrize("config", [swap_q, v4_gf2, s3_perm_q],
                         ids=lambda c: c.__name__)
def test_the_suite_pass_equals_one_check_per_map(config):
    alg = config()
    records = verify.run_suites(alg, SMALL, "chainmaps")
    assert [r["name"] for r in records] == [
        f"chainmap_{name}" for name in chainmaps.MAPS]
    for name, record in zip(chainmaps.MAPS, records):
        rep = verify.verify_chainmap(
            alg, name, degrees=(0, 1, 2), max_poly_deg=1, samples=5,
            sample_degree=4, seed=3)
        assert record == {"name": f"chainmap_{name}",
                          "checked": rep["checked"],
                          "passed": not rep["failures"],
                          "failures": rep["failures"]}


def _records(alg):
    return {r["name"]: r for r in verify.run_suites(alg, SMALL, "chainmaps")}


def test_a_broken_last_stage_fails_only_its_map(monkeypatch):
    def scaled(x):  # id ⊗ pi_s with its X_{i,j} part scaled by j + 1
        v = real(x)
        for tag, terms in v.parts.items():
            v.parts[tag] = {s: (tag[2] + 1) * c for s, c in terms.items()}
        return v

    real = chainmaps.id_tensor_pi_s
    monkeypatch.setattr(chainmaps, "id_tensor_pi_s", scaled)
    records = _records(swap_q())
    assert records["chainmap_awg"]["passed"]
    assert not records["chainmap_pi"]["passed"]
    witness = records["chainmap_pi"]["failures"][0]
    assert witness["tag"][0] == "barskew" and witness["defect_terms"] > 0


def test_a_broken_first_stage_fails_every_map_that_applies_it(monkeypatch):
    def odd_columns_negated(x):
        v = real(x)
        for tag, terms in v.parts.items():
            if tag[1] % 2:
                v.parts[tag] = {s: -c for s, c in terms.items()}
        return v

    real = chainmaps.awg
    monkeypatch.setattr(chainmaps, "awg", odd_columns_negated)
    records = _records(swap_q())
    assert not records["chainmap_awg"]["passed"]
    assert not records["chainmap_pi"]["passed"]
    assert all(records[f"chainmap_{name}"]["passed"]
               for name in ("ezg", "iota_s", "pi_s", "iota"))


def test_each_family_draws_the_samples_of_its_maps_own_stream(monkeypatch):
    drawn = []
    original = verify.random_term

    def recording(alg, family, *args):
        term = original(alg, family, *args)
        drawn.append((family, term))
        return term

    monkeypatch.setattr(verify, "random_term", recording)
    alg = swap_q()
    verify.run_suites(alg, SMALL, "chainmaps")
    families = list(dict.fromkeys(d for d, _ in chainmaps.MAPS.values()))
    want = []
    for family in families:
        rng = random.Random(SMALL["seed"])
        want += [(family, original(alg, family, 4, 1, rng))
                 for _ in range(SMALL["degree4_samples"])]
    assert drawn == want


# -- one table, one pass per family ----------------------------------------

def _count_stage_calls(monkeypatch, names):
    """Calls of each stage of MAPS while the named rows run at SMALL."""
    calls = collections.Counter()
    for stage in {s for _domain, stages in chainmaps.MAPS.values()
                  for s in stages}:
        def counted(x, real=getattr(chainmaps, stage), stage=stage):
            calls[stage] += 1
            return real(x)
        monkeypatch.setattr(chainmaps, stage, counted)
    verify.run_rows(swap_q(), SMALL, names)
    monkeypatch.undo()
    return calls


def test_verify_all_applies_each_stage_chain_to_an_input_once(monkeypatch):
    """Across the rows of all three suites, samples included, no stage
    chain is applied twice to the same input: a sample drawn again, or
    drawn among the enumerated inputs, is not run again."""
    applied, made, keep = collections.Counter(), {}, []

    def traced(module, name, real):
        def stage(x):
            root, chain = made.get(id(x), (x, ()))
            out = real(x)
            if chain == ():  # a generator, keyed by its one term
                root = next((tag, s) for tag, part in x.parts.items()
                            for s in part)
            made[id(out)] = (root, chain + (name,))
            keep.append(out)  # keeps ids unique while the run lasts
            applied[made[id(out)]] += 1
            return out
        monkeypatch.setattr(module, name, stage)

    traced(complexes, "diff", complexes.diff)
    for stage in {s for _domain, stages in chainmaps.MAPS.values()
                  for s in stages}:
        traced(chainmaps, stage, getattr(chainmaps, stage))
    records = verify.run_suites(swap_q(), SMALL, "all")
    assert all(r["passed"] for r in records)
    assert applied and max(applied.values()) == 1, [
        key for key, n in applied.items() if n > 1][:3]


def _dropping_a_term(real):
    """real with the least term of its first part with two terms dropped."""
    def mutant(x):
        v = real(x)
        for tag in sorted(v.parts):
            terms = v.parts[tag]
            if len(terms) > 1:
                least = min(terms)
                v.parts[tag] = {s: c for s, c in terms.items() if s != least}
                break
        return v
    return mutant


def _chainmap_per_draw(alg, name, degrees, samples, seed):
    """verify_chainmap at max_poly_deg 2 run one input at a time, each
    enumerated generator and then each draw through its stages afresh,
    with the draws whose repeat appended a witness and those whose repeat
    of a failing input found the witnesses full."""
    family, stages = chainmaps.MAPS[name]

    def through(chain, x):
        for stage in chain:
            x = (complexes.diff if stage == "diff"
                 else getattr(chainmaps, stage))(x)
        return x

    rng = random.Random(seed)
    inputs = [t for n in degrees
              for t in verify.free_basis(alg, family, n, 2)]
    draws = [verify.random_term(alg, family, 4, 2, rng)
             for _ in range(samples)]
    failures, seen, replayed, dropped = [], set(), [], []
    for k, (tag, slots) in enumerate(inputs + draws):
        x = ChainElement.basis(alg, tag, slots)
        lhs = through(stages + ("diff",), x)
        rhs = through(("diff",) + stages, x)
        if lhs == rhs:
            continue
        repeat = (tag, slots) in seen
        seen.add((tag, slots))
        if len(failures) < verify.MAX_WITNESSES:
            failures.append(verify._defect_witness(tag, slots, lhs, rhs))
            replayed += [k] if repeat else []
        elif repeat:
            dropped.append(k)
    report = {"map": name, "degrees": list(degrees),
              "checked": len(inputs) + samples, "failures": failures}
    return report, replayed, dropped


@pytest.mark.parametrize("config", [swap_q, v4_gf2], ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", ["iota", "ezg"])
@pytest.mark.parametrize("degrees, kept", [((0, 1, 2, 3), 5), ((), 5),
                                           ((), 60)])
def test_a_repeated_draw_replays_its_first_outcome(monkeypatch, config, name,
                                                   degrees, kept):
    """Under an ezg that drops a term, the report equals one made input by
    input: a repeated failing draw appends its witness again while there
    is room, and nothing once MAX_WITNESSES are kept."""
    monkeypatch.setattr(chainmaps, "ezg", _dropping_a_term(chainmaps.ezg))
    monkeypatch.setattr(verify, "MAX_WITNESSES", kept)
    alg = config()
    want, replayed, dropped = _chainmap_per_draw(alg, name, degrees, 200, 0)
    assert verify.verify_chainmap(alg, name, degrees=degrees,
                                  samples=200) == want
    assert len(want["failures"]) == kept
    if not degrees:  # a failing draw repeats once the witnesses are full
        assert dropped
    if kept > 5 and config is swap_q:  # and while there is room
        assert replayed


def test_graded_and_identity_rows_reuse_the_chainmap_images(monkeypatch):
    chainmap_rows = [f"chainmap_{name}" for name in chainmaps.MAPS]
    alone = _count_stage_calls(monkeypatch, chainmap_rows)
    assert alone["awg"] and alone["id_tensor_pi_s"] and alone["ezg"]
    graded = _count_stage_calls(monkeypatch,
                                chainmap_rows + ["pi_graded", "iota_graded"])
    assert graded == alone
    identity = _count_stage_calls(monkeypatch,
                                  chainmap_rows + ["pi_iota_identity"])
    for stage in ("id_tensor_iota_s", "ezg"):
        assert identity[stage] == alone[stage]


@pytest.mark.parametrize("config", [swap_q, v4_gf2, s3_perm_q],
                         ids=lambda c: c.__name__)
def test_all_is_the_three_suites_run_alone(config):
    alg = config()
    alone = [r for suite in verify.SUITES
             for r in verify.run_suites(alg, SMALL, suite)]
    assert verify.run_suites(alg, SMALL, "all") == alone


# -- the up-front input count ------------------------------------------------

@functools.lru_cache(maxsize=None)
def _enumerated(config, family, n, dmax):
    return sum(1 for _ in verify.free_basis(config(), family, n, dmax))


@pytest.mark.parametrize("config", sorted(
    set(CHAINMAP_CONFIGS.values()) | set(PBW_CONFIGS.values()),
    key=lambda c: c.__name__), ids=lambda c: c.__name__)
@pytest.mark.parametrize("dmax", [1, 2])
def test_input_count_is_the_number_of_inputs(config, dmax):
    """Through bar degree 3, each row's count by formula is its free
    generators, times its pairs of outer coefficients, plus its samples."""
    alg = config()
    budgets = dict(SMALL, max_bar_degree=3, max_poly_degree=dmax)
    for name, row in verify.ROWS.items():
        pairs = len(range(alg.group.order) if row.family == "barg"
                    else alg.monomials_up_to(dmax)) ** 2 if row.outer else 1
        want = sum(pairs * _enumerated(config, row.family, n, dmax)
                   for n in row.degrees(3))
        if row.kind == "commutes":
            want += budgets["degree4_samples"]
        assert verify.input_count(alg, budgets, name) == want, name
    for check in verify.SUITES["complexes"][6:]:
        assert verify.input_count(alg, budgets, check) == (
            budgets["degree4_samples"] if check is verify.d2_random_degree4
            else budgets["samples"])
    assert verify.input_count(
        alg, budgets, verify.splitting_worked_degree2) == 1


def _helper_configs():
    algebras = [(f.__name__, f) for f in (
        swap_q, swap_gf2, neg_id_q, z3_diag_gf3, z3_unipotent_gf3,
        z3_trivial_gf3_n3, s3_perm_q, s3_refl_q, v4_gf2, trivial_group_q)]
    for path in sorted((ROOT / "perfbench" / "configs").glob("*.json")):
        algebras.append((f"perfbench:{path.stem}",
                         lambda path=path: RunConfig.from_file(
                             str(path)).algebra))
    return algebras


@pytest.mark.parametrize("name, make", _helper_configs(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_every_config_is_under_the_cap_at_default_budgets(name, make):
    alg = make()
    for check in (c for suite in verify.SUITES.values() for c in suite):
        assert verify.input_count(alg, DEFAULT_BUDGETS, check) <= \
            verify.MAX_CHECK_INPUTS, (name, check)


def test_the_largest_default_check_is_chainmap_awg_on_s3_perm_q():
    counts = {check: verify.input_count(s3_perm_q(), DEFAULT_BUDGETS, check)
              for check in verify.ROWS}
    assert max(counts, key=counts.get) in ("chainmap_awg", "chainmap_pi")
    # 59 letters (m, g) with deg m <= 2 and (m, g) != (1, 1), through
    # degree 3, plus the 200 degree-4 samples
    assert counts["chainmap_awg"] == 1 + 59 + 59 ** 2 + 59 ** 3 + 200
    top = dict(DEFAULT_BUDGETS, max_bar_degree=4)
    assert verify.input_count(s3_perm_q(), top, "chainmap_awg") > \
        verify.MAX_CHECK_INPUTS
