"""Exact linear algebra over the scalar fields: rref, rank, solving.

``rref``/``rank``, the dense Gauss-Jordan reference the other solvers are
checked against, are defined here; ``FactoredSolver`` works on dense row
lists; ``IncrementalRank`` keeps a sparse row space over arbitrary
orderable column keys (downstream: chain-element basis tuples).
"""

import random
from fractions import Fraction

import pytest

from skewchain.fields import GF, QQ
from skewchain.linalg import (
    FactoredSolver,
    IncrementalRank,
    InconsistentSystem,
)


def rref(field, rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    R = [list(r) for r in rows]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if R[i][c] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = field.inv(R[r][c])
        R[r] = [field.mul(inv, v) for v in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


def rank(field, rows) -> int:
    return len(rref(field, rows)[1])


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


def random_sparse_rows(field, rng, nrows=12, ncols=9):
    """Dense rows, about 40 % nonzero; every other row combines earlier ones.

    Over Q the independent rows carry fractions with numerators and
    denominators up to 10**6.
    """
    def scalar():
        if field.char:
            return field.from_int(rng.randrange(1, field.char))
        return field.mul(rng.randint(-10**6, 10**6),
                         field.inv(rng.randint(1, 10**6)))

    rows = []
    for i in range(nrows):
        if i % 2 and rows:
            row = [0] * ncols
            for src in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                c = scalar()
                row = [field.add(a, field.mul(c, b)) for a, b in zip(row, src)]
        else:
            row = [scalar() if rng.random() < 0.4 else 0
                   for _ in range(ncols)]
        rows.append(row)
    return rows


def fraction_insert(field, rows, vec):
    """Reference insert: eliminate by the stored rows scaled to lead 1."""
    v = dict(vec)
    while v:
        lead = min(v)
        if lead not in rows:
            inv = field.inv(v[lead])
            rows[lead] = {c: field.mul(inv, x) for c, x in v.items()}
            return rows[lead]
        b = v[lead]
        for c, y in rows[lead].items():
            s = field.sub(v.get(c, 0), field.mul(b, y))
            if s:
                v[c] = s
            else:
                v.pop(c, None)
    return v


class TestIncrementalRankProperties:
    """IncrementalRank against rref and against Fraction elimination."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7)], ids=str)
    def test_matches_rref_on_random_sparse_rows(self, field):
        rng = random.Random(41 + field.char)
        for _ in range(25):
            rows = random_sparse_rows(field, rng)
            inc = IncrementalRank(field)
            ref: dict = {}
            for i, row in enumerate(rows):
                vec = {j: c for j, c in enumerate(row) if c != 0}
                dependent = rank(field, rows[:i + 1]) == rank(field, rows[:i])
                residual = inc.insert(vec)
                assert (residual == {}) == dependent
                want = fraction_insert(field, ref, vec)
                # the residual is a nonzero multiple of the Fraction one
                if residual:
                    lead = min(residual)
                    scale = field.inv(residual[lead])
                    assert {c: field.mul(scale, x)
                            for c, x in residual.items()} == want
            assert inc.rank == rank(field, rows)
            assert all(type(x) is int
                       for row in inc.rows.values() for x in row.values())

    def test_rational_rows_are_primitive_integer_vectors(self):
        inc = IncrementalRank(QQ)
        inc.insert({0: Fraction(1, 2), 3: Fraction(-2, 3)})
        inc.insert({0: Fraction(5, 7), 2: 10**6})
        assert inc.rows[0] == {0: 3, 3: -4}
        # 3·(5/7, 10**6 at 2) - 5·row 0 = (21·10**6, 20) at (2, 3), content 20
        assert inc.rows[2] == {2: 1050000, 3: 1}
        assert inc.insert({2: Fraction(-1050000, 9), 3: Fraction(-1, 9)}) == {}
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
