"""Small exact linear algebra over a Field: RREF, solving, incremental rank.

Everything here is dense-list or sparse-dict based and exact; matrices stay
small (a few hundred rows/columns), so no fraction-free tricks are needed.
"""

from __future__ import annotations

import itertools

from .fields import Field, scaled_pairs


def rref(field: Field, rows):
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


def rank(field: Field, rows) -> int:
    return len(rref(field, rows)[1])


class InconsistentSystem(ValueError):
    """Raised when solve() is asked for a solution that does not exist."""


def _sub_scaled(field: Field, dst: dict, src: dict, coef) -> None:
    """dst -= coef * src on sparse vectors, in place, dropping zeros."""
    field.accumulate(dst, scaled_pairs(field, field.neg(coef), src.items()))


class FactoredSolver:
    """Gauss-Jordan factorization of M, reusable for many right-hand sides.

    Elimination runs on sparse rows, pivot columns in increasing order, and
    keeps for each pivot the combination of rows of M that reduces to it,
    so each solve of M x = b costs one sparse product with b.  The
    particular solution sets all free variables to zero, which makes it
    unique (the pivot columns are independent), so it does not depend on
    the elimination order.  Each solution is checked against M; a b
    outside the column space raises :class:`InconsistentSystem`.
    """

    def __init__(self, field: Field, rows):
        self.field = field
        m = len(rows)
        self.m = m
        self.n = len(rows[0]) if m else 0
        #: column c of M as {row: scalar}
        self._cols = [{} for _ in range(self.n)]
        # each live row is [M-part, row combination], both sparse
        live = []
        for i, r in enumerate(rows):
            row = {c: v for c, v in enumerate(r) if v != 0}
            for c, v in row.items():
                self._cols[c][i] = v
            live.append([row, {i: 1}])
        done = []  # (pivot column, M-part, row combination)
        for c in range(self.n):
            k = next((k for k, (row, _) in enumerate(live) if c in row), None)
            if k is None:
                continue
            row, comb = live.pop(k)
            inv = field.inv(row[c])
            row = {a: field.mul(inv, v) for a, v in row.items()}
            comb = {a: field.mul(inv, v) for a, v in comb.items()}
            for other_row, other_comb in itertools.chain(
                    ((r, t) for _, r, t in done), live):
                coef = other_row.get(c)
                if coef is not None:
                    _sub_scaled(field, other_row, row, coef)
                    _sub_scaled(field, other_comb, comb, coef)
            done.append((c, row, comb))
        self.pivots = [c for c, _, _ in done]
        #: row j of M -> [(pivot column, weight of row j in its combination)]
        self._uses = [[] for _ in range(m)]
        for c, _, comb in done:
            for j, v in comb.items():
                self._uses[j].append((c, v))

    def solve(self, b):
        """A solution x of M x = b with free variables set to zero."""
        f = self.field
        x = [0] * self.n
        for j, bv in enumerate(b):
            if bv != 0:
                for c, v in self._uses[j]:
                    x[c] = f.add(x[c], f.mul(v, bv))
        image = [0] * self.m
        for c, xc in enumerate(x):
            if xc != 0:
                for i, v in self._cols[c].items():
                    image[i] = f.add(image[i], f.mul(v, xc))
        if image != list(b) and any(
                f.sub(a, bv) != 0 for a, bv in zip(image, b)):
            raise InconsistentSystem("no solution for this right-hand side")
        return x


class IncrementalRank:
    """Sparse incremental row space: insert vectors, track the rank.

    Rows are dicts {column: scalar} with the leading (minimum) column
    normalized to 1.  ``insert`` reduces the vector against the current
    basis and absorbs any nonzero residual; it returns the residual so
    callers can detect dependence (empty dict) or collapse witnesses.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict) -> dict:
        f = self.field
        v = dict(vec)
        while v:
            lead = min(v)
            row = self.rows.get(lead)
            if row is None:
                inv = f.inv(v[lead])
                v = {c: f.mul(inv, x) for c, x in v.items()}
                self.rows[lead] = v
                return v
            _sub_scaled(f, v, row, v[lead])
        return v
