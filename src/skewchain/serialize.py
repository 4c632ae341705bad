"""JSON configuration files and wire formats for the command-line tools.

A run is described by a single JSON document::

    {
      "field":  "Q"                         (or "GF(p)"),
      "group":  {"family": "cyclic", "n": 2}   (or explicit "table"),
      "action": {"dim": 2, "matrices": {"1": [["0","1"],["1","0"]]}},
      "params": {"kappa":  [{"i":0,"j":1,"value":[[0,"1"]]}],
                 "lambda": [{"g":1,"i":0,"value":[[1,"1"]]}]},
      "budgets": {"max_bar_degree":3, "max_poly_degree":2, "j_max":4,
                  "samples":100, "degree4_samples":200, "seed":0},
      "enumerate": {"kappa_candidates": [...], "lambda_candidates": [...],
                    "cap": 200000}
    }

All scalar entries are field strings understood by ``Field.parse``
("-2/3" over Q, "2" over GF(p)); group elements and variables are 0-based
indices; matrices are row-major with column j the image of e_j.  Every
``matrices`` table, full or partial, is read as matrices on a generating
set and closed under the group (:class:`~skewchain.polynomials.LinearAction`).
``params`` and ``enumerate`` are optional; omitted budgets take the
defaults above.

Chain elements travel as ``{"complex": ..., degree keys ..., "terms":
[{"slots": [...], "coeff": "..."}]}``.  The degree keys of each complex
are listed in ``_DEGREE_KEYS`` ("n" for barskew, "i" and "j" with "D" for
twisted, ...), and each slot is encoded by its kind in
:func:`skewchain.complexes.layout`: a "pair" is ``[[exponents], g]``, a
"group" slot a group index, an "exp" slot an exponent list and a "wedge"
a list of strictly increasing variable indices.  The codec reads such a
document into ``(tag, chain)`` and writes the part of a chain on one tag,
so an input whose terms are empty or cancel keeps its tag; a chain over
several tags, such as a map's output, travels as ``{"components": [...]}``,
one element per tag in tag order.

Reports are rendered with :func:`canonical_json` (sorted keys, no
whitespace) so identical (config, seed) runs produce byte-identical output.
"""

from __future__ import annotations

import json
from math import comb, prod

from .fields import field_from_descriptor, is_json_int
from .groups import (
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    group_from_config,
)
from .polynomials import LinearAction
from .skew import SkewAlgebra
from .complexes import (
    ChainElement,
    ShapeMismatch,
    expand_term,
    layout,
    term_s_degree,
    term_sort_key,
    wedge_degree,
)
from .pbw import PBWParams


#: The largest total polynomial degree of one input term.  The action
#: expands a monomial one degree at a time, and the outputs of the maps grow
#: with the products of the exponents, so a larger input would not finish.
MAX_TERM_DEGREE = 100

#: The largest ``max_bar_degree``: a term of bar degree n has n + 2 slots,
#: so on an algebra without variables, whose degrees have one input or
#: none, the work of ``verify`` grows with the square of n.
MAX_BAR_DEGREE = 100

#: The largest bound on the monomials of the action images of one input
#: term.  A group element g sends x^a to the product of (g·x_i)^(a_i); with
#: c_i nonzeros in column i of g, (g·x_i)^(a_i) has at most
#: C(a_i + c_i - 1, c_i - 1) monomials.  The bound of a term multiplies
#: these over its monomial slots, with c_i the most nonzeros in column i
#: of any group matrix.  It is 1 for a permutation action, whatever the
#: degree; a dense action on many variables passes 10^4 long before
#: MAX_TERM_DEGREE (at x0^14 on Q^6), and the work of the maps grows
#: with it.
MAX_ACTION_TERMS = 10 ** 4


class ConfigParseError(ValueError):
    """The run configuration document is structurally invalid."""


def _index(entry: dict, key: str) -> int:
    val = entry[key]
    if not is_json_int(val):
        raise TypeError(f"index {key!r} must be an integer, got {val!r}")
    return val


DEFAULT_BUDGETS = {
    "max_bar_degree": 3,
    "max_poly_degree": 2,
    "j_max": 4,
    "samples": 100,
    "degree4_samples": 200,
    "seed": 0,
}


class RunConfig:
    """A parsed run configuration: the algebra plus optional params/budgets."""

    def __init__(self, algebra: SkewAlgebra, params, budgets: dict,
                 enumerate_spec, raw: dict):
        self.algebra = algebra
        self.params = params
        self.budgets = budgets
        self.enumerate_spec = enumerate_spec
        self.raw = raw

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigParseError(f"config is not valid JSON: {e}") from e
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigParseError("config document must be a JSON object")
        for key in ("field", "group", "action"):
            if key not in doc:
                raise ConfigParseError(f"config is missing the {key!r} block")
        try:
            field = field_from_descriptor(doc["field"])
        except (TypeError, AttributeError) as e:
            raise ConfigParseError(f"bad field descriptor: {e}") from e
        except ValueError as e:
            # NonPrimeModulus carries its own meaning; re-raise unchanged.
            if type(e) is ValueError:
                raise ConfigParseError(str(e)) from e
            raise
        try:
            group = group_from_config(doc["group"])
        except (NotAssociative, NotLatinSquare, NoIdentity):
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigParseError(f"bad group block: {e}") from e
        try:
            action = LinearAction.from_config(field, group, doc["action"])
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigParseError(f"bad action block: {e}") from e
        algebra = SkewAlgebra(field, group, action)

        budgets = dict(DEFAULT_BUDGETS)
        extra = doc.get("budgets", {})
        if not isinstance(extra, dict):
            raise ConfigParseError("budgets must be an object")
        unknown = set(extra) - set(DEFAULT_BUDGETS)
        if unknown:
            raise ConfigParseError(f"unknown budget keys {sorted(unknown)}")
        for k, v in extra.items():
            if not is_json_int(v):
                raise ConfigParseError(f"budget {k!r} must be an integer")
            budgets[k] = v
        if any(budgets[k] <= 0 for k in
               ("max_bar_degree", "max_poly_degree", "j_max")):
            raise ConfigParseError("degree budgets must be positive")
        if budgets["max_bar_degree"] > MAX_BAR_DEGREE:
            raise ConfigParseError(
                f"max_bar_degree must be at most {MAX_BAR_DEGREE}")
        if budgets["samples"] < 0 or budgets["degree4_samples"] < 0:
            raise ConfigParseError("sample counts must be nonnegative")

        params = None
        if "params" in doc and doc["params"] is not None:
            params = params_from_config(algebra, doc["params"])

        enumerate_spec = doc.get("enumerate")
        if enumerate_spec is not None and not isinstance(enumerate_spec, dict):
            raise ConfigParseError("enumerate block must be an object")

        return cls(algebra, params, budgets, enumerate_spec, doc)


# -- deformation parameters ------------------------------------------------

def _ga_from_wire(field, pairs, what):
    """[[g, "coeff"], ...] -> group-algebra dict."""
    if not isinstance(pairs, list):
        raise ConfigParseError(f"{what}: value must be a list of [g, coeff]")
    out = []
    for entry in pairs:
        if (not isinstance(entry, list)) or len(entry) != 2:
            raise ConfigParseError(f"{what}: bad value entry {entry!r}")
        g, coeff = entry
        if not is_json_int(g):
            raise ConfigParseError(f"{what}: bad group index {g!r}")
        try:
            out.append((g, field.parse(coeff)))
        except (TypeError, ValueError) as e:
            raise ConfigParseError(f"{what}: bad coefficient {coeff!r}: {e}")
    return field.accumulate({}, out)


def params_from_config(alg: SkewAlgebra, cfg: dict) -> PBWParams:
    """Parse the ``params`` block into a :class:`PBWParams`."""
    if not isinstance(cfg, dict):
        raise ConfigParseError("params block must be an object")
    unknown = set(cfg) - {"kappa", "lambda"}
    if unknown:
        raise ConfigParseError(f"unknown params keys {sorted(unknown)}")
    for key in ("kappa", "lambda"):
        if not isinstance(cfg.get(key, []), list):
            raise ConfigParseError(f"params {key!r} must be a list of entries")
    kappa = {}
    for entry in cfg.get("kappa", []):
        try:
            i, j = _index(entry, "i"), _index(entry, "j")
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigParseError(f"bad kappa entry {entry!r}: {e}") from e
        value = _ga_from_wire(alg.field, entry.get("value", []),
                              f"kappa[{i},{j}]")
        if value:
            kappa[(i, j)] = value
    lam = {}
    for entry in cfg.get("lambda", []):
        try:
            g, i = _index(entry, "g"), _index(entry, "i")
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigParseError(f"bad lambda entry {entry!r}: {e}") from e
        value = _ga_from_wire(alg.field, entry.get("value", []),
                              f"lambda[{g},{i}]")
        if value:
            lam[(g, i)] = value
    try:
        return PBWParams(alg, kappa=kappa, lam=lam)
    except ValueError as e:
        raise ConfigParseError(f"bad params block: {e}") from e


def params_to_config(params: PBWParams) -> dict:
    """Inverse of :func:`params_from_config` (canonical ordering)."""
    field = params.alg.field
    kappa = [
        {"i": i, "j": j,
         "value": [[g, field.format(c)] for g, c in sorted(v.items())]}
        for (i, j), v in sorted(params.kappa.items())
    ]
    lam = [
        {"g": g, "i": i,
         "value": [[h, field.format(c)] for h, c in sorted(v.items())]}
        for (g, i), v in sorted(params.lam.items())
    ]
    return {"kappa": kappa, "lambda": lam}


# -- chain elements --------------------------------------------------------

#: The JSON keys of each complex's degrees, in tag order.
_DEGREE_KEYS = {"barskew": ("n",), "barg": ("i",), "bars": ("j",),
                "koszul": ("j",), "twisted": ("i", "j")}


def tag_to_json(tag) -> dict:
    keys = _DEGREE_KEYS.get(tag[0])
    if keys is None:
        raise ShapeMismatch(f"unknown complex tag {tag!r}")
    doc = {"complex": tag[0], **dict(zip(keys, tag[1:]))}
    if tag[0] == "twisted":
        doc["D"] = tag[3]
    return doc


def tag_from_json(doc: dict):
    try:
        kind = doc["complex"]
        keys = _DEGREE_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is not None:
            tail = (doc["D"],) if kind == "twisted" else ()
            if tail and tail[0] not in ("bar", "koszul"):
                raise ShapeMismatch(f"unknown D factor {tail[0]!r}")
            degrees = tuple(_index(doc, key) for key in keys)
            for key, degree in zip(keys, degrees):
                if degree < 0:
                    raise ValueError(f"degree {key!r} must be nonnegative, "
                                     f"got {degree}")
            return (kind, *degrees, *tail)
    except (KeyError, TypeError, ValueError) as e:
        raise ShapeMismatch(f"bad complex tag in element JSON: {e}") from e
    raise ShapeMismatch(f"unknown complex kind {kind!r}")


def _slot_from_json(alg, tag, pos, kind, val):
    what = f"{tag} slot {pos}"
    if kind == "pair":
        if (not isinstance(val, list)) or len(val) != 2:
            raise ShapeMismatch(f"{what}: expected [[exponents], g]")
        return (_slot_from_json(alg, tag, pos, "exp", val[0]),
                _slot_from_json(alg, tag, pos, "group", val[1]))
    if kind == "group":
        if not is_json_int(val) or not (0 <= val < alg.group.order):
            raise ShapeMismatch(f"{what}: bad group index {val!r}")
        return val
    if kind == "exp":
        if (not isinstance(val, list)) or len(val) != alg.nvars or \
                any(not is_json_int(e) or e < 0 for e in val):
            raise ShapeMismatch(f"{what}: expected {alg.nvars} nonnegative "
                                f"exponents, got {val!r}")
        return tuple(val)
    j = wedge_degree(tag)
    if (not isinstance(val, list)) or len(val) != j or \
            any(not is_json_int(w) for w in val) or \
            any(not (0 <= w < alg.nvars) for w in val) or \
            any(val[k] >= val[k + 1] for k in range(len(val) - 1)):
        raise ShapeMismatch(
            f"{what}: expected {j} strictly increasing variable indices, "
            f"got {val!r}"
        )
    return tuple(val)


def _slot_to_json(kind, val):
    if kind == "pair":
        return [list(val[0]), val[1]]
    return val if kind == "group" else list(val)


def element_from_json(alg: SkewAlgebra, doc: dict) -> tuple:
    """Parse element JSON into ``(tag, chain)``; terms are normalized (unit
    bar entries die), so the chain may have no part of the tag."""
    tag = tag_from_json(doc)
    terms = doc.get("terms", [])
    if not isinstance(terms, list):
        raise ShapeMismatch("terms must be a list")
    lay = layout(tag)
    n_slots = len(lay)
    out = ChainElement(alg)
    widths = [max(len(columns[i]) for columns in alg.action.columns)
              for i in range(alg.nvars)]
    for entry in terms:
        if not isinstance(entry, dict) or "slots" not in entry:
            raise ShapeMismatch(f"bad term entry {entry!r}")
        raw = entry["slots"]
        if (not isinstance(raw, list)) or len(raw) != n_slots:
            raise ShapeMismatch(
                f"{tag} expects {n_slots} slots, got {len(raw) if isinstance(raw, list) else raw!r}"
            )
        slots = tuple(_slot_from_json(alg, tag, pos, kind, val)
                      for pos, ((kind, _bar), val)
                      in enumerate(zip(lay, raw)))
        degree = term_s_degree(alg, tag, slots)
        if degree > MAX_TERM_DEGREE:
            raise ShapeMismatch(f"term degree {degree} exceeds the cap of "
                                f"{MAX_TERM_DEGREE}")
        monomials = [s[0] if kind == "pair" else s
                     for (kind, _bar), s in zip(lay, slots)
                     if kind in ("pair", "exp")]
        bound = prod(comb(a + c - 1, c - 1)
                     for m in monomials for a, c in zip(m, widths))
        if bound > MAX_ACTION_TERMS:
            raise ShapeMismatch(f"term action images of up to {bound} "
                                f"monomials exceed the cap of "
                                f"{MAX_ACTION_TERMS}")
        try:
            coeff = alg.field.parse(entry.get("coeff", "1"))
        except (TypeError, ValueError) as e:
            raise ShapeMismatch(f"bad coefficient in term {entry!r}: {e}")
        out.add_scaled(expand_term(alg, tag, slots, coeff))
    return tag, out


def element_to_json(tag, x: ChainElement) -> dict:
    """The part of the chain x on one tag, as element JSON."""
    doc = tag_to_json(tag)
    field = x.alg.field
    doc["terms"] = [
        {
            "slots": [_slot_to_json(kind, v)
                      for (kind, _bar), v in zip(layout(tag), slots)],
            "coeff": field.format(c),
        }
        for slots, c in sorted(x.parts.get(tag, {}).items(),
                               key=lambda kv: term_sort_key(kv[0]))
    ]
    return doc


def vector_to_json(x: ChainElement) -> dict:
    """Every part of the chain x, by tag, as element JSON."""
    return {"components": [element_to_json(tag, x) for tag in sorted(x.parts)]}


# -- canonical output ------------------------------------------------------

def canonical_json(obj) -> str:
    """Deterministic JSON rendering; byte-identical across equal runs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
