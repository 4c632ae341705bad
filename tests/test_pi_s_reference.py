"""The closed-form pi_s in degree 2 against a reference grade solve.

The reference is the construction the closed form replaced: for a free bar
tuple 1 ⊗ a ⊗ b ⊗ 1 of polynomial grade g, solve d ∘ pi_2 = pi_1 ∘ d in the
Koszul complex restricted to grade g, with the free variables pinned to
zero.  Any two solutions differ by a Koszul 2-cycle, so the closed form
must differ from the reference by a cycle on every tuple, and must equal it
when N = 2, where the top Koszul differential is injective.  Every free
tuple up to grade 4 is checked on every chain-map configuration.
"""

import itertools

import pytest

from skewchain.chainmaps import pi_s
from skewchain.complexes import ChainElement, diff, koszul_faces
from skewchain.linalg import FactoredSolver
from skewchain.polynomials import monomials_of_degree

from helpers import CHAINMAP_CONFIGS

MAX_GRADE = 4


def koszul_basis(nvars, j, grade):
    """Basis slots (m0, w, m1) of Koszul_j in one polynomial grade."""
    return [(m0, w, m1)
            for w in itertools.combinations(range(nvars), j)
            for da in range(grade - j + 1)
            for m0 in monomials_of_degree(nvars, da)
            for m1 in monomials_of_degree(nvars, grade - j - da)]


class GradeSolve:
    """Reference pi_s on free bar tuples of degree 2, one solve per tuple."""

    def __init__(self, alg):
        self.alg = alg
        self._solvers = {}

    def _solver(self, grade):
        if grade not in self._solvers:
            alg = self.alg
            cols = koszul_basis(alg.nvars, 2, grade)
            rows = koszul_basis(alg.nvars, 1, grade)
            row_index = {s: r for r, s in enumerate(rows)}
            matrix = [[0] * len(cols) for _ in rows]
            for c, slots in enumerate(cols):
                # the faces of one basis term are distinct
                for face, v in koszul_faces(alg, [(slots, 1)], 0):
                    matrix[row_index[face]][c] = v
            self._solvers[grade] = (FactoredSolver(alg.field, matrix),
                                    rows, cols)
        return self._solvers[grade]

    def __call__(self, x):
        """The reference value on a free generator x of BarS_2."""
        ((slots, _),) = x.parts[("bars", 2)].items()
        grade = sum(map(sum, slots))
        solver, rows, cols = self._solver(grade)
        rhs = pi_s(diff(x)).parts.get(("koszul", 1), {})
        sol = solver.solve([rhs.get(s, 0) for s in rows])
        out = ChainElement(self.alg)
        out.add_terms(("koszul", 2),
                      ((cols[c], v) for c, v in enumerate(sol) if v != 0))
        return out


def free_tuples(alg):
    """Every free generator 1 ⊗ a ⊗ b ⊗ 1 of BarS_2 up to MAX_GRADE."""
    z = alg.zero_exp
    letters = alg.monomials_up_to(MAX_GRADE - 1, include_unit=False)
    for a, b in itertools.product(letters, repeat=2):
        if sum(a) + sum(b) <= MAX_GRADE:
            yield ChainElement.basis(alg, ("bars", 2), (z, a, b, z))


@pytest.mark.parametrize("name", sorted(CHAINMAP_CONFIGS))
def test_closed_form_differs_from_the_grade_solve_by_a_cycle(name):
    A = CHAINMAP_CONFIGS[name]()
    ref = GradeSolve(A)
    checked = 0
    for x in free_tuples(A):
        gap = pi_s(x)
        gap.add_scaled(ref(x), A.field.from_int(-1))
        assert diff(gap).is_zero(), x.parts
        if A.nvars == 2:
            assert gap.is_zero(), x.parts
        checked += 1
    assert checked > 0
