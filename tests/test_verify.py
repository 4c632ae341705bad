"""skewchain.verify: its sampled inputs and its failure witnesses."""

import random

import pytest

from skewchain import verify
from skewchain.chainmaps import awg
from skewchain.complexes import ChainVector

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
        out = ChainVector(v.alg)
        for tag, el in v.parts.items():
            out.add_element(el, -1 if tag[1] % 2 else 1)
        return out

    rep = verify.verify_chainmap(swap_q(), "awg", degrees=(1, 2),
                                 map_fn=mutant)
    assert rep["checked"] > verify.MAX_WITNESSES
    assert len(rep["failures"]) == verify.MAX_WITNESSES
    for w in rep["failures"]:
        assert set(w) == {"degree", "tag", "input", "defect_terms"}
        assert w["tag"][0] == "barskew" and w["degree"] == w["tag"][1]
        assert w["defect_terms"] > 0

