"""Exact linear algebra over the scalar fields: rref, rank, solving.

``rref``/``rank``/``FactoredSolver`` work on dense row lists;
``IncrementalRank`` keeps a sparse row space over arbitrary orderable
column keys (downstream: chain-element basis tuples).
"""

import random

import pytest

from skewchain.fields import GF, QQ
from skewchain.linalg import (
    FactoredSolver,
    IncrementalRank,
    InconsistentSystem,
    rank,
    rref,
)


def mat_vec(field, rows, x):
    return [
        _dotsum(field, row, x)
        for row in rows
    ]


def _dotsum(field, row, x):
    acc = 0
    for a, b in zip(row, x):
        acc = field.add(acc, field.mul(a, b))
    return acc


class TestRref:
    def test_identity(self):
        assert rank(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_dependent_rows(self):
        assert rank(QQ, [[1, 2], [2, 4]]) == 1

    def test_char_dependence(self):
        # [[1,1],[1,-1]] is invertible over Q but not over GF(2)
        assert rank(QQ, [[1, 1], [1, -1]]) == 2
        assert rank(GF(2), [[1, 1], [1, 1]]) == 1

    def test_pivots_normalized(self):
        R, pivots = rref(QQ, [[2, 4, 0], [0, 3, 6]])
        assert pivots == [0, 1]
        for r, c in enumerate(pivots):
            assert R[r][c] == 1
            assert all(R[i][c] == 0 for i in range(len(R)) if i != r)

    def test_idempotent(self):
        rows = [[1, 2, 3], [0, 1, 1], [1, 3, 4]]
        R1, p1 = rref(QQ, rows)
        R2, p2 = rref(QQ, R1)
        assert (R1, p1) == (R2, p2)


class TestIncrementalRank:
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    def test_matches_batch_rank(self, field):
        rng = random.Random(23)
        for _ in range(20):
            dense = [
                [field.from_int(rng.randrange(-3, 4)) for _ in range(5)]
                for _ in range(6)
            ]
            inc = IncrementalRank(field)
            for row in dense:
                inc.insert({j: c for j, c in enumerate(row) if c != 0})
            assert inc.rank == rank(field, dense)

    def test_insert_reports_residual(self):
        inc = IncrementalRank(QQ)
        assert inc.insert({0: 1, 1: 1})  # new pivot: nonzero residual
        assert inc.insert({0: 2, 1: 2}) == {}  # dependent row
        assert inc.rank == 1

    def test_tuple_columns(self):
        # column keys only need a total order, as with basis tuples
        inc = IncrementalRank(QQ)
        inc.insert({(0, 1): 2, (1, 0): 1})
        inc.insert({(0, 1): 2, (1, 0): 3})
        assert inc.insert({(1, 0): 7}) == {}
        assert inc.rank == 2


class TestFactoredSolver:
    def test_solves_consistent_system(self):
        rows = [[1, 1], [0, 1]]
        solver = FactoredSolver(QQ, rows)
        x = solver.solve([3, 5])
        assert mat_vec(QQ, rows, x) == [3, 5]

    def test_free_variables_zero(self):
        # underdetermined: x1 is free and must come back as 0
        solver = FactoredSolver(QQ, [[1, 1, 0], [0, 0, 1]])
        x = solver.solve([4, 7])
        assert x == [4, 0, 7]

    def test_inconsistent_raises(self):
        solver = FactoredSolver(QQ, [[1, 0], [2, 0]])
        with pytest.raises(InconsistentSystem):
            solver.solve([1, 3])

    def test_modular_solve(self):
        F = GF(3)
        rows = [[2, 1], [1, 1]]
        solver = FactoredSolver(F, rows)
        x = solver.solve([1, 0])
        assert mat_vec(F, rows, x) == [1, 0]

    def test_many_right_hand_sides(self):
        rng = random.Random(29)
        rows = [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(4)]
        solver = FactoredSolver(QQ, rows)
        for _ in range(10):
            x0 = [rng.randrange(-3, 4) for _ in range(4)]
            b = mat_vec(QQ, rows, x0)
            x = solver.solve(b)
            assert mat_vec(QQ, rows, x) == b

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
    def test_matches_rref_of_augmented_system(self, field):
        # With the free variables at zero the solution is unique, so the
        # sparse elimination must return the one read off rref([M | b]).
        rng = random.Random(31)
        for _ in range(20):
            rows = [[field.from_int(rng.choice((0, 0, 0, 1, -1, 2)))
                     for _ in range(7)] for _ in range(9)]
            rows[5] = [field.add(a, b) for a, b in zip(rows[0], rows[1])]
            for row in rows:
                row[4] = row[2]
            x0 = [field.from_int(rng.randrange(-2, 3)) for _ in range(7)]
            b = mat_vec(field, rows, x0)
            R, pivots = rref(field, [row + [bv] for row, bv in zip(rows, b)])
            want = [0] * 7
            for r, c in enumerate(pivots):
                want[c] = R[r][-1]
            assert FactoredSolver(field, rows).solve(b) == want
