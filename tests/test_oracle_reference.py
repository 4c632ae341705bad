"""The PBW oracle against the literal oracle it computes.

The reference reduces every whole sandwich a·r·b (r a defining relation, a
and b sandwich words of total filtration degree at most ``ORACLE_DEGREE``)
to normal form and inserts each reduction into one ``IncrementalRank``:
no factoring through ``NF(a·r)``, no dedupe, no right-closure and no
skipped left product.  Its witness is the first nonzero sandwich in the
scan order relation, left word, right word (by degree, then word order).
The sandwich words are the normal words, or in the ``all_words`` cross-check
every legal word of the free product.  ``oracle_pbw`` must give the same
verdict, dimension and rank as both, the witness of the normal-word scan,
and with ``early_exit`` the same verdict and witness, on every config
below: the zero table, a kappa-only table, three random tables, a table
with every kappa and lambda entry nonzero, and a table with lambda(1, x) != 0,
alone and with kappa (only such a table makes the straightening relation
of the identity nonzero, and then it is an element of kG).

The rewriting system below is a frozen copy of the oracle's as it was
before the oracle kept table-free data on the algebra: it builds its own
action columns, relations and word lists per call and shares no memo with
``skewchain.pbw``, which rewrites no words.  ``tests/test_pbw.py`` also
checks every one of the oracle's rows R_x(c) = NF(w·x) against it.
"""

import itertools
import random

import pytest

from skewchain.fields import scaled_pairs
from skewchain.linalg import IncrementalRank
from skewchain.pbw import (
    ORACLE_DEGREE,
    PBWParams,
    _format_words,
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


def _basis_image(alg, g, i):
    """^g x_i as a linear form {variable index: scalar} (a matrix column)."""
    mat = alg.action.matrices[g]
    return {k: mat[k][i] for k in range(alg.nvars) if mat[k][i] != 0}


class _Rewriter:
    """Leftmost-reduction rewriting in the free product of T(V) and kG.

    Words are tuples over letters 0..N-1 (variables) and N+g (group
    elements, g >= 1); legal words never contain two adjacent group
    letters and never the identity letter — that much is the free-product
    structure itself (kG is a subalgebra).  Everything else — moving group
    letters right, sorting variables — happens only through the defining
    relations:

        (N+g, i)  ->  sum_k (^g x_i)_k (k, N+g)  +  lambda(g, x_i)
        (j, i)    ->  (i, j) - kappa(x_i ∧ x_j)          for j > i

    applied at the leftmost reducible position and memoized.  Reduction
    terminates because each step either lowers the filtration degree or
    moves the word down in the (group letters left of variables,
    variable inversions) order.
    """

    def __init__(self, alg, params):
        self.alg = alg
        self.params = params
        self.nv = alg.nvars
        self._memo: dict = {}
        nv = self.nv
        self._act_rows = {
            g: [_basis_image(alg, g, i) for i in range(nv)]
            for g in range(alg.group.order)
        }

    def cat(self, w1, w2):
        """Concatenate legal words, merging boundary group letters."""
        nv = self.nv
        if not (w1 and w2 and w1[-1] >= nv and w2[0] >= nv):
            return w1 + w2
        group = self.alg.group
        w1 = list(w1)
        w2 = list(w2)
        while w1 and w2 and w1[-1] >= nv and w2[0] >= nv:
            g = group.mul(w1[-1] - nv, w2[0] - nv)
            w1.pop()
            w2.pop(0)
            if g != 0:
                w1.append(nv + g)
        return tuple(w1) + tuple(w2)

    def ga_word(self, a: dict):
        """A group-algebra dict as (word, coeff) pairs."""
        nv = self.nv
        return [
            ((() if g == 0 else (nv + g,)), c) for g, c in sorted(a.items())
        ]

    def reduce(self, w):
        """The normal form of a word, as {normal word: scalar}."""
        hit = self._memo.get(w)
        if hit is not None:
            return hit
        nv = self.nv
        f = self.alg.field
        pos = None
        for p in range(len(w) - 1):
            a, b = w[p], w[p + 1]
            if a >= nv and b < nv:
                pos = p
                break
            if a < nv and b < nv and a > b:
                pos = p
                break
        if pos is None:
            out = {w: 1}
            self._memo[w] = out
            return out
        head, tail = w[:pos], w[pos + 2:]
        a, b = w[pos], w[pos + 1]
        expansion = []
        if a >= nv:
            g, i = a - nv, b
            for k, c in self._act_rows[g][i].items():
                expansion.append(((k, a), c))
            for word, c in self.ga_word(self.params.lam_of(g, i)):
                expansion.append((word, c))
        else:
            expansion.append(((b, a), 1))
            for word, c in self.ga_word(self.params.kappa_wedge(b, a)):
                expansion.append((word, f.neg(c)))
        out: dict = {}
        for mid, c in expansion:
            sub = self.reduce(self.cat(self.cat(head, mid), tail))
            f.accumulate(out, scaled_pairs(f, c, sub.items()))
        self._memo[w] = out
        return out


def _normal_words(alg, max_degree):
    """All normal-form words of filtration degree <= max_degree."""
    nv = alg.nvars
    out = []
    for d in range(max_degree + 1):
        for mono in itertools.combinations_with_replacement(range(nv), d):
            out.append(mono)
            for g in range(1, alg.group.order):
                out.append(mono + (nv + g,))
    return out


def _all_words(alg, max_degree):
    """All legal free-product words of filtration degree <= max_degree.

    Legal words alternate freely in the variables but never put two group
    letters next to each other, which bounds the length by
    2*max_degree + 1; breadth-first growth by one letter therefore
    terminates and produces each word exactly once.
    """
    nv = alg.nvars
    glets = [nv + g for g in range(1, alg.group.order)]
    maxlen = 2 * max_degree + 1
    out = []
    frontier = [()]
    while frontier:
        grown = []
        for w in frontier:
            out.append(w)
            if len(w) >= maxlen:
                continue
            deg = sum(1 for x in w if x < nv)
            if deg < max_degree:
                for v in range(nv):
                    grown.append(w + (v,))
            if not (w and w[-1] >= nv):
                for gl in glets:
                    grown.append(w + (gl,))
        frontier = grown
    return out


def _relations(alg, params, rw):
    """The defining relations as (tag dict, top degree, element dict).

    Group-product relations gh - (gh) are omitted: word concatenation
    multiplies inside kG, so their sandwiches reduce to identically zero
    elements and contribute nothing to the span.  Their overlaps with the
    straightening rule are still exercised, by sandwiches whose left word
    ends in a group letter.
    """
    nv = alg.nvars
    f = alg.field
    rels = []
    for i in range(nv):
        for j in range(i + 1, nv):
            el = f.accumulate({(j, i): 1, (i, j): f.from_int(-1)},
                              rw.ga_word(params.kappa_wedge(i, j)))
            rels.append(({"kind": "commutator", "i": i, "j": j}, 2, el))
    for g in range(alg.group.order):
        for i in range(nv):
            gw = (nv + g,) if g else ()
            el = f.accumulate({rw.cat(gw, (i,)): 1}, itertools.chain(
                ((rw.cat((k,), gw), f.neg(c))
                 for k, c in rw._act_rows[g][i].items()),
                ((word, f.neg(c))
                 for word, c in rw.ga_word(params.lam_of(g, i)))))
            if el:
                rels.append(
                    ({"kind": "straightening", "g": g, "i": i}, 1, el)
                )
    return rels


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
    """The zero, kappa-only, three random and the full-support tables, then
    lambda(1, x_(N-1)) = the full table's lambda(g_1, x_0), alone and with
    the full kappa."""
    rng = random.Random(seed)
    full = full_support_table(alg, seed)
    identity = {(0, alg.nvars - 1): full.lam[(1, 0)]}
    return ([PBWParams.zero(alg), PBWParams(alg, kappa=full.kappa)]
            + [PBWParams.random(alg, rng) for _ in range(3)] + [full]
            + [PBWParams(alg, lam=identity),
               PBWParams(alg, kappa=full.kappa, lam=identity)])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_oracle_matches_literal_span(name, mode):
    alg = CONFIGS[name]()
    total = len(_normal_words(alg, ORACLE_DEGREE))
    verdicts = set()
    for params in tables(alg, sum(map(ord, name))):
        rank, witness = literal_oracle(alg, params, mode)
        full = oracle_pbw(alg, params)
        assert [full.verdict, full.extras["dimension"], full.extras["rank"],
                full.extras["witness"]] == [rank == 0, total - rank, rank,
                                            witness], (params.kappa,
                                                       params.lam)
        early = oracle_pbw(alg, params, early_exit=True)
        assert [early.verdict, early.extras["rank"],
                early.extras["witness"]] == [rank == 0, None if rank else 0,
                                             witness]
        verdicts.add(rank == 0)
    # every config sees a PBW table (the zero one) and a collapse
    assert verdicts == {True, False}
