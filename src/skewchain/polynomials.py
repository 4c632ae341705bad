"""Multivariate polynomials and matrix actions of a finite group.

A monomial in N variables is an exponent tuple of length N; a polynomial is
a dict mapping exponent tuples to nonzero scalars (the zero polynomial is
the empty dict).  Addition, negation and scaling are the sparse-vector
functions of :mod:`skewchain.fields`; this module adds the product
:func:`poly_mul`.  Iteration-sensitive code orders monomials by the graded
lexicographic key :func:`grlex_key` so runs are deterministic.

A :class:`LinearAction` stores one invertible matrix per group element,
columnwise (column j is the image of the basis vector e_j), and extends the
action to polynomials as algebra automorphisms and to wedge words of
distinct variables with the usual alternating signs.
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


#: The largest dimension N of V accepted.  An action stores and multiplies
#: N x N matrices for every pair of group elements, and the complexes grow
#: with powers of N, so a larger N would not finish; the bound is checked
#: before any matrix is built.
MAX_ACTION_DIM = 16


def _check_dim(dim: int) -> None:
    if dim > MAX_ACTION_DIM:
        raise ActionTooLarge(f"action dim {dim} exceeds the cap of "
                             f"{MAX_ACTION_DIM}")


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
    the field; column j of the matrix of g is the image of e_j.  The identity
    element may be omitted (it gets the identity matrix).  Construction
    verifies that the assignment is a group homomorphism, which for a finite
    group also forces every matrix to be invertible (the matrix of g^-1 is a
    two-sided inverse); the inverse identity is still checked explicitly.
    N is at most :data:`MAX_ACTION_DIM`.
    """

    def __init__(self, field: Field, group: FiniteGroup, dim: int, matrices):
        _check_dim(dim)
        self.field = field
        self.group = group
        self.dim = dim
        mats = {}
        for g, rows in matrices.items():
            g = int(g)
            if not (0 <= g < group.order):
                raise ValueError(f"group index {g} out of range")
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise DimensionMismatch(
                    f"matrix for element {g} is not {dim}x{dim}"
                )
            mats[g] = tuple(tuple(r) for r in rows)
        ident = _identity_mat(dim)
        mats.setdefault(0, ident)
        if mats[0] != ident:
            raise ValueError("identity element must act as the identity matrix")
        missing = [g for g in group.elements if g not in mats]
        if missing:
            raise ValueError(f"no matrix supplied for group elements {missing}")
        for g in group.elements:
            for h in group.elements:
                if _mat_mul(field, mats[g], mats[h]) != mats[group.mul(g, h)]:
                    raise ValueError(
                        f"matrices are not a homomorphism at ({g},{h})"
                    )
        for g in group.elements:
            if _mat_mul(field, mats[g], mats[group.inv(g)]) != ident:
                raise ValueError(f"matrix for {g} is not invertible")
        self.matrices = tuple(mats[g] for g in group.elements)
        self._monomial_memo: dict = {}
        self._wedge_memo: dict = {}

    @classmethod
    def from_generators(cls, field, group, dim, generator_matrices):
        """Extend matrices given on a generating set to the whole group."""
        _check_dim(dim)
        known = {0: _identity_mat(dim)}
        gens = {
            int(g): tuple(tuple(r) for r in rows)
            for g, rows in generator_matrices.items()
        }
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for g, mg in gens.items():
                    b = group.mul(a, g)
                    mb = _mat_mul(field, known[a], mg)
                    if b in known:
                        if known[b] != mb:
                            raise ValueError(
                                "generator matrices are inconsistent"
                            )
                    else:
                        known[b] = mb
                        nxt.append(b)
            frontier = nxt
        if len(known) != group.order:
            raise ValueError("generators do not generate the group")
        return cls(field, group, dim, known)

    @classmethod
    def from_config(cls, field, group, cfg: dict):
        """Build from a config block ``{dim, matrices: {g: [[entries]]}}``.

        Matrix entries are field strings.  If a matrix is supplied for every
        non-identity group element the assignment is used directly; a partial
        table is treated as matrices on a generating set and extended.
        """
        dim = cfg["dim"]
        if not is_json_int(dim):
            raise TypeError(f"action dim must be an integer, got {dim!r}")
        _check_dim(dim)
        given = cfg.get("matrices", {})
        if not isinstance(given, dict):
            raise TypeError(f"action matrices must be an object, got "
                            f"{given!r}")
        mats = {
            int(g): [[field.parse(v) for v in row] for row in rows]
            for g, rows in given.items()
        }
        if all(g in mats or g == 0 for g in group.elements):
            return cls(field, group, dim, mats)
        return cls.from_generators(field, group, dim, mats)

    # -- the action -------------------------------------------------------

    def column_poly(self, g: int, j: int) -> dict:
        """The image of the variable x_j as a linear polynomial."""
        M = self.matrices[g]
        out = {}
        for i in range(self.dim):
            if M[i][j] != 0:
                out[var_exp(self.dim, i)] = M[i][j]
        return out

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
                self.column_poly(g, i),
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
        M = self.matrices[g]

        def wedged(acc, idx):
            # w ^ e_k for each word w of acc and each k in column idx of M
            for w, c in acc.items():
                for k in range(self.dim):
                    ck = M[k][idx]
                    if ck == 0 or k in w:
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
