"""Multivariate polynomials and matrix actions of a finite group.

A monomial in N variables is an exponent tuple of length N; a polynomial is
a dict mapping exponent tuples to nonzero scalars (the zero polynomial is
the empty dict).  Addition, negation and scaling are the sparse-vector
functions of :mod:`skewchain.fields`; this module adds the product
:func:`poly_mul`.  Iteration-sensitive code orders monomials by the graded
lexicographic key :func:`grlex_key` so runs are deterministic.

A :class:`LinearAction` is built from matrices on any generating set of
the group, checked and closed under the group once, and keeps one
invertible matrix per element together with its columns (column j is the
image of the basis vector e_j).  It extends the action to polynomials as
algebra automorphisms and to wedge words of distinct variables with the
usual alternating signs.
"""

from __future__ import annotations

import itertools
import operator

from .fields import Field, is_json_int
from .groups import FiniteGroup


class DimensionMismatch(ValueError):
    """Raised when a vector/matrix has the wrong dimension for an action."""


class ActionTooLarge(ValueError):
    """Raised when an action's dimension exceeds :data:`MAX_ACTION_DIM`."""


#: The largest dimension N of V accepted.  An action stores an N x N
#: matrix per group element and multiplies one per element and given
#: generator, and the complexes grow
#: with powers of N, so a larger N would not finish; the bound is checked
#: before any matrix is built.
MAX_ACTION_DIM = 16


# -- polynomial arithmetic -------------------------------------------------

def monomial_mul(m1: tuple, m2: tuple) -> tuple:
    return tuple(map(operator.add, m1, m2))


def poly_mul(field: Field, f: dict, g: dict) -> dict:
    if f and g:
        n1, n2 = len(next(iter(f))), len(next(iter(g)))
        if n1 != n2:
            raise DimensionMismatch(
                f"cannot multiply polynomials in {n1} and {n2} variables"
            )
    mul = field.mul
    return field.accumulate({}, ((monomial_mul(m1, m2), mul(c1, c2))
                                 for m1, c1 in f.items()
                                 for m2, c2 in g.items()))


def total_degree(m: tuple) -> int:
    return sum(m)


def grlex_key(m: tuple):
    """Sort key for the graded lexicographic monomial order."""
    return (sum(m), m)


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d, in lexicographic order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort()
    return out


def monomials_up_to(nvars: int, dmax: int, include_unit: bool = True):
    """Exponent tuples of degree <= dmax in graded lexicographic order."""
    out = []
    for d in range(0 if include_unit else 1, dmax + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


def var_exp(nvars: int, i: int) -> tuple:
    """The exponent tuple of the single variable x_i."""
    e = [0] * nvars
    e[i] = 1
    return tuple(e)


def var_names(nvars: int):
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    return tuple(f"x{i}" for i in range(nvars))


def format_monomial(m: tuple) -> str:
    names = var_names(len(m))
    parts = [
        names[i] if e == 1 else f"{names[i]}^{e}"
        for i, e in enumerate(m)
        if e
    ]
    return "*".join(parts) if parts else "1"


# -- matrix helpers --------------------------------------------------------

def _mat_mul(field: Field, A, B):
    n = len(A)
    return tuple(
        tuple(
            _dot(field, A[i], [B[k][j] for k in range(n)])
            for j in range(n)
        )
        for i in range(n)
    )


def _dot(field: Field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def _identity_mat(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class LinearAction:
    """An action of a finite group on V = k^N by invertible matrices.

    ``matrices`` maps group-element indices to N x N row-major matrices over
    the field; column j of the matrix of g is the image of e_j.  Any table
    is read as matrices on a generating set: a full table, a partial one,
    or none for the trivial group.  Every given entry is checked first: its
    index is a group element, its matrix is N x N, and element 0, if given,
    has the identity matrix.  Then the table is closed under right
    multiplication by the given elements, from rho(1) = I: each edge
    a -> a·g, a in G and g given, is one product rho(a)·rho(g), which
    assigns rho(a·g) the first time and must equal it every other time.
    An element never reached has no matrix, and the table is refused.

    This makes rho a homomorphism.  Every edge holds, so by induction on
    the length of a word w in the given elements, rho(a·w) = rho(a)·rho(w)
    for every a in G.  In a finite group every element of the subgroup
    the given elements generate is such a word (g^-1 = g^(|g| - 1)), and
    that subgroup is all of G, since the closure reached every element.
    Each given g keeps its matrix, the edge 1 -> g.  Invertibility
    follows: rho(g)·rho(g^-1) = rho(1) = I.

    ``columns[g][i]`` holds ^g x_i, column i of the matrix of g, as its
    (variable, scalar) pairs in variable order; every reader of the action
    reads them.  N is at most :data:`MAX_ACTION_DIM`.
    """

    def __init__(self, field: Field, group: FiniteGroup, dim: int, matrices):
        if dim < 0:
            raise ValueError(f"action dim must be nonnegative, got {dim}")
        if dim > MAX_ACTION_DIM:
            raise ActionTooLarge(f"action dim {dim} exceeds the cap of "
                                 f"{MAX_ACTION_DIM}")
        self.field = field
        self.group = group
        self.dim = dim
        given = {}
        for g, rows in matrices.items():
            g = int(g)
            if not (0 <= g < group.order):
                raise ValueError(f"group index {g} out of range")
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise DimensionMismatch(
                    f"matrix for element {g} is not {dim}x{dim}"
                )
            given[g] = tuple(tuple(r) for r in rows)
        ident = _identity_mat(dim)
        if given.pop(0, ident) != ident:
            raise ValueError(
                "identity element must act as the identity matrix")
        mats = {0: ident}
        frontier = [0]
        while frontier:
            reached = []
            for a in frontier:
                for g, mg in given.items():
                    b = group.mul(a, g)
                    mb = _mat_mul(field, mats[a], mg)
                    if b not in mats:
                        mats[b] = mb
                        reached.append(b)
                    elif mats[b] != mb:
                        raise ValueError(
                            f"matrices are not a homomorphism at ({a},{g})"
                        )
            frontier = reached
        missing = [g for g in group.elements if g not in mats]
        if missing:
            raise ValueError(f"the given matrices generate no matrix for "
                             f"group elements {missing}")
        self.matrices = tuple(mats[g] for g in group.elements)
        self.columns = tuple(
            tuple(tuple((k, M[k][i]) for k in range(dim) if M[k][i] != 0)
                  for i in range(dim))
            for M in self.matrices)
        self._monomial_memo: dict = {}
        self._wedge_memo: dict = {}

    @classmethod
    def from_config(cls, field, group, cfg: dict):
        """Build from a config block ``{dim, matrices: {g: [[entries]]}}``.

        Keys are integers written plainly ("1", not "01" or " 1"), each
        matrix a list of rows, each row a list of field strings; the table
        is read as matrices on a generating set, as by the constructor.
        """
        dim = cfg["dim"]
        if not is_json_int(dim):
            raise TypeError(f"action dim must be an integer, got {dim!r}")
        given = cfg.get("matrices", {})
        if not isinstance(given, dict):
            raise TypeError(f"action matrices must be an object, got "
                            f"{given!r}")
        mats = {}
        for key, rows in given.items():
            if str(int(key)) != str(key):
                raise ValueError(f"action matrix key {key!r} is not a plain "
                                 f"integer")
            if not isinstance(rows, list) or \
                    any(not isinstance(row, list) for row in rows):
                raise TypeError(f"action matrix {key!r} is not a list of "
                                f"rows")
            mats[key] = [[field.parse(v) for v in row] for row in rows]
        return cls(field, group, dim, mats)

    # -- the action -------------------------------------------------------

    def act_monomial(self, g: int, m: tuple) -> dict:
        """Image of the monomial x^m, as a polynomial (memoized)."""
        key = (g, m)
        memo = self._monomial_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        if sum(m) == 0:
            out = {m: 1}
        else:
            i = next(k for k, e in enumerate(m) if e)
            prev = list(m)
            prev[i] -= 1
            out = poly_mul(
                self.field,
                self.act_monomial(g, tuple(prev)),
                {var_exp(self.dim, k): s for k, s in self.columns[g][i]},
            )
        memo[key] = out
        return out

    def act_wedge(self, g: int, wedge: tuple) -> dict:
        """Image of e_{i1} ^ ... ^ e_{ij} as {sorted wedge: scalar}.

        Computed by expanding the exterior product of the image columns and
        sorting each resulting word with the sign of the sorting permutation.
        """
        key = (g, wedge)
        memo = self._wedge_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        f = self.field
        columns = self.columns[g]

        def wedged(acc, idx):
            # w ^ e_k for each word w of acc and each e_k in ^g e_idx
            for w, c in acc.items():
                for k, ck in columns[idx]:
                    if k in w:
                        continue
                    pos = 0
                    while pos < len(w) and w[pos] < k:
                        pos += 1
                    val = f.mul(c, ck)
                    yield (w[:pos] + (k,) + w[pos:],
                           f.neg(val) if (len(w) - pos) % 2 else val)

        acc = {(): 1}
        for idx in wedge:
            acc = f.accumulate({}, wedged(acc, idx))
        memo[key] = acc
        return acc
