"""skewchain.verify: its sampled inputs and its failure witnesses."""

import random

import pytest

from skewchain import verify
from skewchain.chainmaps import awg

from helpers import swap_q

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


def test_chainmap_witnesses_are_capped_and_name_the_defect():
    def mutant(x):
        v = awg(x)
        for tag, terms in v.parts.items():
            if tag[1] % 2:
                v.parts[tag] = {s: -c for s, c in terms.items()}
        return v

    rep = verify.verify_chainmap(swap_q(), "awg", degrees=(1, 2),
                                 map_fn=mutant)
    assert rep["checked"] > verify.MAX_WITNESSES
    assert len(rep["failures"]) == verify.MAX_WITNESSES
    for w in rep["failures"]:
        assert set(w) == {"degree", "tag", "input", "defect_terms", "defect"}
        assert w["tag"][0] == "barskew" and w["degree"] == w["tag"][1]
        assert w["defect_terms"] > 0


def test_chainmap_witness_renders_the_defect():
    """A witness shows the first terms of d f(x) - f(d x) in tag, then
    term_sort_key, order, and counts the terms it leaves out."""
    def mutant(x):  # awg with its X_{i,j} part scaled by i + 1
        v = awg(x)
        for tag, terms in v.parts.items():
            v.parts[tag] = {s: (tag[1] + 1) * c for s, c in terms.items()}
        return v

    alg = swap_q()
    rep = verify.verify_chainmap(alg, "awg", degrees=(1,), map_fn=mutant)
    first = rep["failures"][0]
    assert first["input"] == [[[0, 0], 0], [[0, 0], 1], [[0, 0], 0]]
    # d awg(1⊗g⊗1) = g⊗1 - 1⊗g in X_{0,0}; the mutant doubles it
    assert first["defect"] == ("(-1)*twisted(0,0,bar)(0,1,(0,0),(0,0)) + "
                               "(1)*twisted(0,0,bar)(1,0,(0,0),(0,0))")
    rep = verify.verify_chainmap(alg, "awg", degrees=(), samples=5,
                                 map_fn=mutant)
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

