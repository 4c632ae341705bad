"""The PBW oracle against the literal oracle it computes.

The reference reduces every whole sandwich a·r·b (r a defining relation, a
and b sandwich words of total filtration degree at most ``ORACLE_DEGREE``)
to normal form and inserts each reduction into one ``IncrementalRank``:
no factoring through ``NF(a·r)``, no dedupe and no right-closure.  Its
witness is the first nonzero sandwich in the scan order relation, left
word, right word (by degree, then word order).  ``oracle_pbw`` must give
the same verdict, dimension, rank and witness in both sandwich modes, and
with ``early_exit`` the same verdict and witness, on every config below:
the zero table, a kappa-only table, three random tables and a table with
every kappa and lambda entry nonzero.
"""

import random

import pytest

from skewchain.linalg import IncrementalRank
from skewchain.pbw import (
    ORACLE_DEGREE,
    PBWParams,
    _all_words,
    _format_words,
    _normal_words,
    _relations,
    _Rewriter,
    oracle_pbw,
)

from helpers import (
    full_support_table,
    neg_id_q,
    swap_gf2,
    swap_q,
    z3_diag_gf3,
    z3_unipotent_gf3,
)

CONFIGS = {
    "swap_q": swap_q,
    "swap_gf2": swap_gf2,
    "neg_id_q": neg_id_q,
    "z3_diag_gf3": z3_diag_gf3,
    "z3_unipotent_gf3": z3_unipotent_gf3,
}

MODES = ("normal_sandwich", "all_words")


def literal_oracle(alg, params, mode):
    """(rank, witness) of the span of all reduced sandwiches a·r·b."""
    rw = _Rewriter(alg, params)
    f = alg.field
    nv = alg.nvars
    nwords = _normal_words(alg, ORACLE_DEGREE)
    index = {w: c for c, w in enumerate(nwords)}
    pool = nwords if mode == "normal_sandwich" else _all_words(
        alg, ORACLE_DEGREE)

    def deg(w):
        return sum(1 for x in w if x < nv)

    rank = IncrementalRank(f)
    witness = None
    for tag, top, el in _relations(alg, params, rw):
        budget = ORACLE_DEGREE - top
        for da in range(budget + 1):
            for a in (w for w in pool if deg(w) == da):
                for db in range(budget - da + 1):
                    for b in (w for w in pool if deg(w) == db):
                        vec = {}
                        for w, c in el.items():
                            whole = rw.cat(rw.cat(a, w), b)
                            f.accumulate(vec, (
                                (index[z], f.mul(c, d))
                                for z, d in rw.reduce(whole).items()))
                        if not vec:
                            continue
                        if witness is None:
                            witness = {
                                "left": list(a),
                                "relation": tag,
                                "right": list(b),
                                "reduction": _format_words(alg, vec, nwords),
                            }
                        rank.insert(vec)
    return rank.rank, witness


def tables(alg, seed):
    """The zero, kappa-only, three random and the full-support tables."""
    rng = random.Random(seed)
    full = full_support_table(alg, seed)
    return ([PBWParams.zero(alg), PBWParams(alg, kappa=full.kappa)]
            + [PBWParams.random(alg, rng) for _ in range(3)] + [full])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_oracle_matches_literal_span(name, mode):
    alg = CONFIGS[name]()
    total = len(_normal_words(alg, ORACLE_DEGREE))
    verdicts = set()
    for params in tables(alg, sum(map(ord, name))):
        rank, witness = literal_oracle(alg, params, mode)
        full = oracle_pbw(alg, params, mode=mode)
        assert [full.verdict, full.extras["dimension"], full.extras["rank"],
                full.extras["witness"]] == [rank == 0, total - rank, rank,
                                            witness], (params.kappa,
                                                       params.lam)
        early = oracle_pbw(alg, params, mode=mode, early_exit=True)
        assert [early.verdict, early.extras["rank"],
                early.extras["witness"]] == [rank == 0, None if rank else 0,
                                             witness]
        verdicts.add(rank == 0)
    # every config sees a PBW table (the zero one) and a collapse
    assert verdicts == {True, False}
