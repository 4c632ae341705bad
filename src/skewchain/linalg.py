"""Small exact linear algebra over a Field: solving and incremental rank.

Everything here is dense-list or sparse-dict based and exact.
``FactoredSolver`` eliminates over the field itself; ``IncrementalRank``,
whose rational rows would otherwise fill with ever larger fractions, keeps
them as primitive integer vectors and eliminates fraction-free.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .fields import Field, scaled_pairs


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

    Rows are dicts {column: scalar} keyed by their leading (minimum)
    column, and both fields share one exact elimination loop.  Over GF(p)
    a row's lead is 1.  Over Q a row is a primitive integer vector (its
    entries are coprime ints), and a vector v with lead b meets a row with
    lead a as ``v <- a·v - b·row``, made primitive again by dividing out
    the gcd of its entries, so no Fraction is created and no inverse taken
    (fraction-free elimination, as in Bareiss, Math. Comp. 22, 1968).
    ``insert`` reduces the vector against the current basis and absorbs
    any nonzero residual; it returns the residual, a nonzero multiple of
    the reduced vector, or ``{}`` exactly when the vector is already in
    the span.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict) -> dict:
        p = self.field.char
        rows = self.rows
        v = dict(vec) if p else _primitive(vec)
        while v:
            lead = min(v)
            b = v[lead]
            row = rows.get(lead)
            if row is None:
                if p and b != 1:
                    inv = pow(b, -1, p)
                    v = {c: x * inv % p for c, x in v.items()}
                rows[lead] = v
                return v
            if p:
                # v <- v - b·row; b·y is nonzero mod p, so a zero sum
                # is always an existing entry
                for c, y in row.items():
                    s = (v.get(c, 0) - b * y) % p
                    if s:
                        v[c] = s
                    else:
                        del v[c]
                continue
            a = row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                v = {c: a * x for c, x in v.items()}
            for c, y in row.items():
                s = v.get(c, 0) - b * y
                if s:
                    v[c] = s
                else:
                    del v[c]
            g = gcd(*v.values())
            if g > 1:
                v = {c: x // g for c, x in v.items()}
        return v


def _primitive(vec: dict) -> dict:
    """The primitive integer multiple of a sparse vector over Q."""
    den = lcm(*(x.denominator for x in vec.values()))
    v = {c: x.numerator * (den // x.denominator) for c, x in vec.items()}
    g = gcd(*v.values())
    return {c: x // g for c, x in v.items()} if g > 1 else v
