"""Finite groups as validated multiplication tables, and kG arithmetic.

A group element is its index into the element list; index 0 is always the
identity.  A group-algebra element over a field k is a dict mapping element
indices to nonzero scalars (the zero element is the empty dict), so
equality of dicts is equality in kG.  Addition, negation and scaling are
the sparse-vector functions of :mod:`skewchain.fields`.  The package
multiplies in kG only by a group element g, which relabels the support
through a row or column of ``FiniteGroup.table`` (see
:func:`skewchain.pbw.check_five`).
"""

from __future__ import annotations

import itertools

from .fields import SetupError, is_json_int


class NotAssociative(SetupError):
    """Raised when a multiplication table fails associativity."""


class NotLatinSquare(SetupError):
    """Raised when a multiplication table has a repeated row or column."""


class NoIdentity(SetupError):
    """Raised when index 0 does not act as a two-sided identity."""


class GroupTooLarge(ValueError):
    """Raised when a group's order exceeds :data:`MAX_GROUP_ORDER`."""


#: The largest group order accepted.  Validating a table checks
#: associativity on all |G|^3 triples, and the complexes and the PBW oracle
#: grow with powers of |G|, so a larger group would not finish; the bound
#: is checked before any table is built.
MAX_GROUP_ORDER = 120


def _check_order(order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise GroupTooLarge(f"group order {order} exceeds the cap of "
                            f"{MAX_GROUP_ORDER}")


class FiniteGroup:
    """A finite group presented by its full multiplication table.

    ``table[a][b]`` is the index of the product a*b.  Construction validates
    the table: square shape with entries in range, identity at index 0,
    Latin-square rows and columns, and associativity (checked on all
    triples, so the order is capped at :data:`MAX_GROUP_ORDER`).
    """

    __slots__ = ("order", "table", "inverse", "labels")

    def __init__(self, table, labels=None):
        n = len(table)
        _check_order(n)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        for row in table:
            for v in row:
                if not (is_json_int(v) and 0 <= v < n):
                    raise ValueError(f"table entry {v!r} out of range")
        if any(table[0][a] != a or table[a][0] != a for a in range(n)):
            raise NoIdentity("index 0 must be a two-sided identity")
        full = set(range(n))
        for a in range(n):
            if set(table[a]) != full:
                raise NotLatinSquare(f"row {a} is not a permutation")
            if {table[b][a] for b in range(n)} != full:
                raise NotLatinSquare(f"column {a} is not a permutation")
        for a in range(n):
            for b in range(n):
                tab = table[a][b]
                rowa = table[a]
                for c in range(n):
                    if table[tab][c] != rowa[table[b][c]]:
                        raise NotAssociative(
                            f"({a}*{b})*{c} != {a}*({b}*{c})"
                        )
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        inv = [None] * n
        for a in range(n):
            inv[a] = self.table[a].index(0)
        self.inverse = tuple(inv)
        if labels is None:
            labels = [f"g{a}" if a else "e" for a in range(n)]
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be distinct, one per element")
        self.labels = tuple(str(s) for s in labels)

    # -- basic operations -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def prod(self, elems) -> int:
        """Ordered product of a sequence of elements (empty product = 0)."""
        acc = 0
        for a in elems:
            acc = self.table[acc][a]
        return acc

    @property
    def elements(self):
        return range(self.order)

    def label(self, a: int) -> str:
        return self.labels[a]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<FiniteGroup order={self.order}>"


# -- standard families ----------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with elements 0..n-1 under addition mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    _check_order(n)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["e"] + [f"g{'^%d' % a if a > 1 else ''}" for a in range(1, n)]
    return FiniteGroup(table, labels)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; elements are one-line permutations in sorted order.

    The label of a permutation p is the string ``p(0)p(1)...p(n-1)``, so the
    identity ``01...`` sorts first.  Multiplication is composition,
    (p*q)(x) = p(q(x)).
    """
    order = 1
    for k in range(2, n + 1):  # n! with an early stop, never a huge product
        order *= k
        _check_order(order)
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    labels = ["".join(str(v) for v in p) for p in perms]
    return FiniteGroup(table, labels)


def product_of_cyclic_groups(orders) -> FiniteGroup:
    """Direct product Z/n1 x ... x Z/nk with componentwise addition."""
    orders = list(orders)
    if not orders or any(not is_json_int(n) or n < 1 for n in orders):
        raise ValueError("orders must be a nonempty list of positive ints")
    order = 1
    for n in orders:
        order *= n
        _check_order(order)
    elems = list(itertools.product(*[range(n) for n in orders]))
    index = {e: i for i, e in enumerate(elems)}
    table = [
        [
            index[tuple((a[k] + b[k]) % orders[k] for k in range(len(orders)))]
            for b in elems
        ]
        for a in elems
    ]
    labels = [",".join(str(v) for v in e) for e in elems]
    return FiniteGroup(table, labels)


def group_from_config(cfg: dict) -> FiniteGroup:
    """Build a group from its config block.

    Either ``{"family": "cyclic"|"symmetric", "n": k}``,
    ``{"family": "product_of_cyclics", "orders": [..]}``, or an explicit
    ``{"table": [[..]], "labels": [..]?}`` with 0-based indices and the
    identity at index 0.
    """
    if not isinstance(cfg, dict):
        raise TypeError(f"group block must be an object, got {cfg!r}")
    if "table" in cfg:
        return FiniteGroup(cfg["table"], cfg.get("labels"))
    family = cfg.get("family")
    if family in ("cyclic", "symmetric"):
        n = cfg["n"]
        if not is_json_int(n):
            raise TypeError(f"group size n must be an integer, got {n!r}")
        return cyclic_group(n) if family == "cyclic" else symmetric_group(n)
    if family == "product_of_cyclics":
        return product_of_cyclic_groups(cfg["orders"])
    raise ValueError(f"unknown group config {cfg!r}")

