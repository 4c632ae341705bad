"""The skew group algebra S(V) ⋊ G.

For a finite group G acting linearly on V = k^N, the skew group algebra has
k-basis the pairs (monomial, group element) with multiplication

    (m1, g1) * (m2, g2) = m1 * (g1 . m2) ⊗ g1 g2,

where g1 . m2 is the polynomial image of m2 under the action.  Elements are
dicts mapping pairs ``(exponent tuple, group index)`` to nonzero scalars;
they add, negate and scale with the sparse-vector functions of
:mod:`skewchain.fields`, and multiply with :meth:`SkewAlgebra.mul`.

A :class:`SkewAlgebra` bundles the field, the group and the action, memoizes
basis-pair products (the hot path of every differential), and provides the
deterministic basis enumerations used by verification drivers.
"""

from __future__ import annotations

import itertools

from .fields import Field, SetupError
from .groups import FiniteGroup
from .polynomials import (
    LinearAction,
    format_monomial,
    grlex_key,
    monomial_mul,
    monomials_up_to,
)


class ContextMismatch(SetupError):
    """Raised when elements of two different skew algebras are combined."""


class SkewAlgebra:
    """Context object for S(V) ⋊ G: field + group + linear action."""

    def __init__(self, field: Field, group: FiniteGroup, action: LinearAction):
        if action.field != field or action.group != group:
            raise ContextMismatch("action was built over a different context")
        self.field = field
        self.group = group
        self.action = action
        self.nvars = action.dim
        self.zero_exp = (0,) * self.nvars
        #: basis pair acting as 1 = (constant monomial, identity element)
        self.unit_pair = (self.zero_exp, 0)
        #: the unit of each slot kind of complexes.layout, which a bar slot
        #: may not hold
        self.slot_units = {"pair": self.unit_pair, "group": 0,
                           "exp": self.zero_exp}
        self._pair_memo: dict = {}
        #: pi_s values on free bar tuples (see chainmaps._pi_s_terms)
        self._psi_memo: dict = {}
        #: awg images of free generators with at most 2 bar letters times
        #: a right group letter h, by (inner tuple, h), as (tag, pairs)
        #: tuples (see chainmaps.awg)
        self._awg_memo: dict = {}
        #: ezg images of free generators with at most 3 letters, by
        #: (cbars, dmid), as tuples of (slots, coeff) (see chainmaps.ezg)
        self._ezg_memo: dict = {}
        #: the sampling and enumeration pools, each a tuple built once
        self._pools: dict = {}
        #: shared by all parameter tables (see pbw.py): the Expansion of
        #: each pi image, and per free twisted generator E of X_{i,j} the
        #: Expansions of d E and iota(E), by (i, j)
        self._pi_image_cache: dict = {}
        self._iota_image_cache: dict = {}
        #: the PBW oracle's table-free data (see pbw._OracleFrame)
        self._oracle_frame = None

    def require_same(self, other: "SkewAlgebra") -> None:
        if self is other:
            return
        if (
            self.field != other.field
            or self.group != other.group
            or self.action.matrices != other.action.matrices
        ):
            raise ContextMismatch("elements belong to different skew algebras")

    # -- multiplication ---------------------------------------------------

    def mul_pairs(self, p: tuple, q: tuple):
        """Product of two basis pairs as a tuple of ((pair), scalar)."""
        key = (p, q)
        memo = self._pair_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        (m1, g1), (m2, g2) = p, q
        gh = self.group.mul(g1, g2)
        acted = self.action.act_monomial(g1, m2)
        out = tuple(
            ((monomial_mul(m1, m), gh), c)
            for m, c in acted.items()
        )
        memo[key] = out
        return out

    def mul(self, a: dict, b: dict) -> dict:
        """Product of two skew-algebra elements."""
        mul = self.field.mul
        return self.field.accumulate({}, (
            (pair, mul(mul(cp, cq), cc))
            for p, cp in a.items() for q, cq in b.items()
            for pair, cc in self.mul_pairs(p, q)))

    # -- embeddings and projections ---------------------------------------

    def unit(self) -> dict:
        return {self.unit_pair: 1}

    def of_poly(self, f: dict) -> dict:
        return {(m, 0): c for m, c in f.items()}

    def of_group_algebra(self, a: dict) -> dict:
        return {(self.zero_exp, g): c for g, c in a.items()}

    # -- deterministic enumerations ---------------------------------------

    def _pool(self, key, build):
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pools[key] = tuple(build())
        return pool

    def monomials_up_to(self, dmax: int, include_unit: bool = True):
        """Exponent tuples of degree <= dmax in grlex order, as a tuple."""
        return self._pool(("exp", dmax, include_unit), lambda: monomials_up_to(
            self.nvars, dmax, include_unit))

    def pairs_up_to(self, dmax: int, include_unit: bool = False):
        """Basis pairs (m, g), deg m <= dmax, grlex-then-group order, as a
        tuple."""
        def build():
            for m in self.monomials_up_to(dmax):
                for g in self.group.elements:
                    if include_unit or m != self.zero_exp or g != 0:
                        yield (m, g)
        return self._pool(("pair", dmax, include_unit), build)

    def wedges(self, j: int):
        """The wedges of degree j, increasing variable tuples, as a tuple."""
        return self._pool(("wedge", j), lambda: itertools.combinations(
            range(self.nvars), j))

    # -- display -----------------------------------------------------------

    def format_pair(self, p: tuple) -> str:
        m, g = p
        sm = format_monomial(m)
        if g == 0:
            return sm
        sg = self.group.label(g)
        return sg if sm == "1" else f"{sm}*{sg}"

    def format_element(self, a: dict) -> str:
        if not a:
            return "0"
        parts = []
        for p in sorted(a, key=lambda q: (grlex_key(q[0]), q[1])):
            c = self.field.format(a[p])
            parts.append(f"({c})*{self.format_pair(p)}")
        return " + ".join(parts)

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"<SkewAlgebra {self.field.descriptor}, |G|={self.group.order}, "
            f"N={self.nvars}>"
        )
