"""Shared fixtures: the standard configurations and a textbook AW/EZ.

Configurations used throughout the suite (N = dim V):

* ``swap_q`` / ``swap_gf2``  - Z/2 acting on k^2 by exchanging x0, x1;
* ``neg_id_q``               - Z/2 acting on Q^2 by -id;
* ``z3_diag_gf3``            - Z/3 on GF(3)^2 by the only diagonal action
                               available in char 3 (the trivial one);
* ``z3_unipotent_gf3``       - Z/3 on GF(3)^2 by [[1,1],[0,1]] (faithful);
* ``z3_trivial_gf3_n3``      - Z/3 trivially on GF(3)^3 (all five PBW
                               conditions non-vacuous, char = |G|);
* ``s3_perm_q``              - S_3 permuting the coordinates of Q^3;
* ``s3_refl_q``              - S_3 in its 2-dimensional reflection
                               representation on Q^2;
* ``v4_gf2``                 - Z/2 x Z/2 on GF(2)^3 by the coordinate swap
                               and a commuting transvection.
"""

import itertools
import random

from skewchain.chainmaps import pi
from skewchain.complexes import ChainElement, free_slots
from skewchain.fields import GF, QQ
from skewchain.groups import (
    cyclic_group,
    product_of_cyclic_groups,
    symmetric_group,
)
from skewchain.pbw import PBWParams
from skewchain.polynomials import LinearAction
from skewchain.skew import SkewAlgebra


def swap_q() -> SkewAlgebra:
    field, group = QQ, cyclic_group(2)
    action = LinearAction(field, group, 2, {1: [[0, 1], [1, 0]]})
    return SkewAlgebra(field, group, action)


def swap_gf2() -> SkewAlgebra:
    field, group = GF(2), cyclic_group(2)
    action = LinearAction(field, group, 2, {1: [[0, 1], [1, 0]]})
    return SkewAlgebra(field, group, action)


def neg_id_q() -> SkewAlgebra:
    field, group = QQ, cyclic_group(2)
    action = LinearAction(field, group, 2, {1: [[-1, 0], [0, -1]]})
    return SkewAlgebra(field, group, action)


def z3_diag_gf3() -> SkewAlgebra:
    field, group = GF(3), cyclic_group(3)
    eye = [[1, 0], [0, 1]]
    action = LinearAction(field, group, 2, {1: eye, 2: eye})
    return SkewAlgebra(field, group, action)


def z3_unipotent_gf3() -> SkewAlgebra:
    field, group = GF(3), cyclic_group(3)
    action = LinearAction.from_generators(
        field, group, 2, {1: [[1, 1], [0, 1]]}
    )
    return SkewAlgebra(field, group, action)


def z3_trivial_gf3_n3() -> SkewAlgebra:
    field, group = GF(3), cyclic_group(3)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    action = LinearAction(field, group, 3, {1: eye, 2: eye})
    return SkewAlgebra(field, group, action)


def s3_perm_q() -> SkewAlgebra:
    field, group = QQ, symmetric_group(3)
    swap01 = group.labels.index("102")
    cycle = group.labels.index("120")
    action = LinearAction.from_generators(
        field, group, 3,
        {
            swap01: [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            cycle: [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        },
    )
    return SkewAlgebra(field, group, action)


def s3_refl_q() -> SkewAlgebra:
    field, group = QQ, symmetric_group(3)
    swap01 = group.labels.index("102")
    cycle = group.labels.index("120")
    action = LinearAction.from_generators(
        field, group, 2,
        {cycle: [[0, -1], [1, -1]], swap01: [[0, 1], [1, 0]]},
    )
    return SkewAlgebra(field, group, action)


def v4_gf2() -> SkewAlgebra:
    field, group = GF(2), product_of_cyclic_groups([2, 2])
    g10 = group.labels.index("1,0")
    g01 = group.labels.index("0,1")
    action = LinearAction.from_generators(
        field, group, 3,
        {
            g10: [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            g01: [[1, 0, 1], [0, 1, 1], [0, 0, 1]],
        },
    )
    return SkewAlgebra(field, group, action)


def trivial_group_q(nvars: int = 2) -> SkewAlgebra:
    """G = {1}: the skew group algebra degenerates to S(V) itself."""
    field, group = QQ, cyclic_group(1)
    action = LinearAction(field, group, nvars, {})
    return SkewAlgebra(field, group, action)


def full_support_table(A, seed):
    """Every kappa and lambda entry nonzero, each coefficient a seeded +-1."""
    rng = random.Random(seed)
    f, nv, order = A.field, A.nvars, A.group.order

    def ga():
        return {g: f.from_int(rng.choice((1, -1))) for g in range(order)}

    return PBWParams(
        A,
        {(i, j): ga() for i in range(nv) for j in range(i + 1, nv)},
        {(g, i): ga() for g in range(1, order) for i in range(nv)})


def ga_mul(field, group, a: dict, b: dict) -> dict:
    """The convolution product in kG, the reference for the package's
    relabellings by one group element."""
    table = group.table
    mul = field.mul
    return field.accumulate({}, ((table[g][h], mul(cg, ch))
                                 for g, cg in a.items()
                                 for h, ch in b.items()))


def pi_of_free(A):
    """pi on the free bar generator 1 ⊗ inner ⊗ 1, by its inner slots.

    This is the ``pi_fn`` that ``cochains.transport_up`` takes.
    """
    return lambda inner: pi(ChainElement.basis(
        A, ("barskew", len(inner)),
        free_slots(A, ("barskew", len(inner)), inner)))


#: The configuration battery of the chain-map acceptance runs.
CHAINMAP_CONFIGS = {
    "swap_q": swap_q,
    "swap_gf2": swap_gf2,
    "z3_diag_gf3": z3_diag_gf3,
    "s3_perm_q": s3_perm_q,
    "v4_gf2": v4_gf2,
}

#: The configuration battery of the three-way PBW sweeps.
PBW_CONFIGS = {
    "swap_q": swap_q,
    "swap_gf2": swap_gf2,
    "z3_unipotent_gf3": z3_unipotent_gf3,
    "s3_refl_q": s3_refl_q,
    "v4_gf2": v4_gf2,
}


# -- JSON config documents for the CLI -------------------------------------

def swap_q_config_doc(**extra) -> dict:
    doc = {
        "field": "Q",
        "group": {"family": "cyclic", "n": 2},
        "action": {"dim": 2, "matrices": {"1": [["0", "1"], ["1", "0"]]}},
    }
    doc.update(extra)
    return doc


def neg_id_q_config_doc(**extra) -> dict:
    doc = {
        "field": "Q",
        "group": {"family": "cyclic", "n": 2},
        "action": {"dim": 2, "matrices": {"1": [["-1", "0"], ["0", "-1"]]}},
    }
    doc.update(extra)
    return doc


#: An order-5 loop: a Latin square with identity that is not associative
#: ((1*1)*2 = 2 but 1*(1*2) = 4).
NONASSOCIATIVE_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


# -- an independent textbook AW / EZ over the plain bar complexes ----------
#
# For G = {1} the twisted maps must degenerate to the classical simplicial
# comparison maps between B(A) ⊗ B(B) and B(A ⊗ B).  The versions below are
# written directly from the standard formulas, with no group anywhere:
#
#   AW(a0..an+1 ⊗ b0..bn+1)    -- front face / back face splitting,
#   EZ((i,j)-components)       -- signed sum over (i,j)-shuffles,
#
# specialised to A = kG = k (so the twisted complex's C-side is trivial)
# acting on tensors encoded exactly like the package's free twisted terms:
# a bidegree-(i, j) term is (cbars, dmid) with cbars i group letters (all
# forced to be absent for the trivial group) and dmid j monomials.

def classical_aw(nvars, inner):
    """AW on a degree-n bar term of S: returns {(i, j): list of terms}.

    ``inner`` is a tuple of n monomial exponent tuples (the bar slots of a
    free term 1 ⊗ m_1 ⊗ ... ⊗ m_n ⊗ 1 of the reduced bar complex of S ⊗ k,
    identified with the twisted complex of the trivial group).  The
    classical AW of x ⊗ y sums front(x, l) ⊗ back(y, n - l); with the
    C-side concentrated in degree 0 only the l = 0 summand survives, so AW
    is the identity onto bidegree (0, n).
    """
    return {(0, len(inner)): [(1, ((), tuple(inner)))]}


def classical_ez(cbars, dmid):
    """EZ on ((), dmid): with C trivial the only (0,j)-shuffle is trivial."""
    assert cbars == ()
    return [(1, tuple(dmid))]


def shuffle_signs_by_permutation(i, j):
    """All (i,j)-shuffles with signs computed from the explicit permutation.

    A shuffle is the choice of positions for the i letters of the first
    kind; its sign in every textbook EZ formula is the parity of the
    permutation rearranging the concatenated word g_1..g_i s_1..s_j into
    shuffled order.  The parity here is counted pairwise over the full
    one-line permutation, deliberately avoiding the production shortcut, so
    the two enumerations check each other.
    """
    n = i + j
    out = []
    for pos in itertools.combinations(range(n), i):
        rest = [q for q in range(n) if q not in pos]
        perm = [0] * n
        for r, p in enumerate(pos):
            perm[p] = r
        for t, q in enumerate(rest):
            perm[q] = i + t
        inv = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if perm[a] > perm[b]
        )
        out.append((-1 if inv % 2 else 1, pos))
    return out
