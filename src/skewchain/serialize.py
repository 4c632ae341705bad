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
indices; matrices are row-major with column j the image of e_j.  A partial
``matrices`` table is read as matrices on a generating set.  ``params`` and
``enumerate`` are optional; omitted budgets take the defaults above.

Chain elements travel as ``{"complex": ..., degree keys ..., "terms":
[{"slots": [...], "coeff": "..."}]}`` where the slot encoding follows the
complex: a bar-of-(S x| G) slot is ``[[exponents], g]``, a bar-of-kG slot is a
group index, a bar-of-S slot an exponent list, a Koszul factor
``[[exponents], [wedge indices], [exponents]]``, and a twisted term lists its
group slots first and then the D-factor slots.

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
    ChainVector,
    ShapeMismatch,
    expand_term,
    slot_count,
    term_monomials,
    term_s_degree,
)
from .pbw import PBWParams


#: The largest total polynomial degree of one input term.  The action
#: expands a monomial one degree at a time, and the outputs of the maps grow
#: with the products of the exponents, so a larger input would not finish.
MAX_TERM_DEGREE = 100

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

_D_SLOT_OFFSET = 2  # twisted terms carry i+2 group slots before the D factor


def tag_to_json(tag) -> dict:
    kind = tag[0]
    if kind == "barskew":
        return {"complex": "barskew", "n": tag[1]}
    if kind == "barg":
        return {"complex": "barg", "i": tag[1]}
    if kind == "bars":
        return {"complex": "bars", "j": tag[1]}
    if kind == "koszul":
        return {"complex": "koszul", "j": tag[1]}
    if kind == "twisted":
        return {"complex": "twisted", "i": tag[1], "j": tag[2], "D": tag[3]}
    raise ShapeMismatch(f"unknown complex tag {tag!r}")


def tag_from_json(doc: dict):
    try:
        kind = doc["complex"]
        if kind == "barskew":
            return ("barskew", _index(doc, "n"))
        if kind == "barg":
            return ("barg", _index(doc, "i"))
        if kind == "bars":
            return ("bars", _index(doc, "j"))
        if kind == "koszul":
            return ("koszul", _index(doc, "j"))
        if kind == "twisted":
            dkind = doc["D"]
            if dkind not in ("bar", "koszul"):
                raise ShapeMismatch(f"unknown D factor {dkind!r}")
            return ("twisted", _index(doc, "i"), _index(doc, "j"), dkind)
    except (KeyError, TypeError, ValueError) as e:
        raise ShapeMismatch(f"bad complex tag in element JSON: {e}") from e
    raise ShapeMismatch(f"unknown complex kind {kind!r}")


def _exps(alg, val, what):
    if (not isinstance(val, list)) or len(val) != alg.nvars or \
            any(not is_json_int(e) or e < 0 for e in val):
        raise ShapeMismatch(
            f"{what}: expected {alg.nvars} nonnegative exponents, got {val!r}"
        )
    return tuple(val)


def _gidx(alg, val, what):
    if not is_json_int(val) or not (0 <= val < alg.group.order):
        raise ShapeMismatch(f"{what}: bad group index {val!r}")
    return val


def _wedge(alg, val, j, what):
    if (not isinstance(val, list)) or len(val) != j or \
            any(not is_json_int(w) for w in val) or \
            any(not (0 <= w < alg.nvars) for w in val) or \
            any(val[k] >= val[k + 1] for k in range(len(val) - 1)):
        raise ShapeMismatch(
            f"{what}: expected {j} strictly increasing variable indices, "
            f"got {val!r}"
        )
    return tuple(val)


def _slot_from_json(alg, tag, pos, val):
    kind = tag[0]
    what = f"{tag} slot {pos}"
    if kind == "barskew":
        if (not isinstance(val, list)) or len(val) != 2:
            raise ShapeMismatch(f"{what}: expected [[exponents], g]")
        return (_exps(alg, val[0], what), _gidx(alg, val[1], what))
    if kind == "barg":
        return _gidx(alg, val, what)
    if kind == "bars":
        return _exps(alg, val, what)
    if kind == "koszul":
        if pos == 1:
            return _wedge(alg, val, tag[1], what)
        return _exps(alg, val, what)
    if kind == "twisted":
        i, j, dkind = tag[1], tag[2], tag[3]
        if pos < i + _D_SLOT_OFFSET:
            return _gidx(alg, val, what)
        if dkind == "koszul" and pos == i + _D_SLOT_OFFSET + 1:
            return _wedge(alg, val, j, what)
        return _exps(alg, val, what)
    raise ShapeMismatch(f"unknown complex tag {tag!r}")


def _slot_to_json(tag, pos, val):
    kind = tag[0]
    if kind == "barskew":
        return [list(val[0]), val[1]]
    if kind == "barg":
        return val
    if kind in ("bars", "koszul"):
        return list(val)
    if kind == "twisted":
        i = tag[1]
        return val if pos < i + _D_SLOT_OFFSET else list(val)
    raise ShapeMismatch(f"unknown complex tag {tag!r}")


def element_from_json(alg: SkewAlgebra, doc: dict) -> ChainElement:
    """Parse element JSON; terms are normalized (unit bar entries die)."""
    tag = tag_from_json(doc)
    terms = doc.get("terms", [])
    if not isinstance(terms, list):
        raise ShapeMismatch("terms must be a list")
    n_slots = slot_count(tag)
    out = ChainElement(alg, tag)
    widths = [max(sum(1 for row in mat if row[i] != 0)
                  for mat in alg.action.matrices)
              for i in range(alg.nvars)]
    for entry in terms:
        if not isinstance(entry, dict) or "slots" not in entry:
            raise ShapeMismatch(f"bad term entry {entry!r}")
        raw = entry["slots"]
        if (not isinstance(raw, list)) or len(raw) != n_slots:
            raise ShapeMismatch(
                f"{tag} expects {n_slots} slots, got {len(raw) if isinstance(raw, list) else raw!r}"
            )
        slots = tuple(
            _slot_from_json(alg, tag, pos, val) for pos, val in enumerate(raw)
        )
        degree = term_s_degree(alg, tag, slots)
        if degree > MAX_TERM_DEGREE:
            raise ShapeMismatch(f"term degree {degree} exceeds the cap of "
                                f"{MAX_TERM_DEGREE}")
        bound = prod(comb(a + c - 1, c - 1)
                     for m in term_monomials(tag, slots)
                     for a, c in zip(m, widths))
        if bound > MAX_ACTION_TERMS:
            raise ShapeMismatch(f"term action images of up to {bound} "
                                f"monomials exceed the cap of "
                                f"{MAX_ACTION_TERMS}")
        try:
            coeff = alg.field.parse(entry.get("coeff", "1"))
        except (TypeError, ValueError) as e:
            raise ShapeMismatch(f"bad coefficient in term {entry!r}: {e}")
        piece = expand_term(alg, tag, slots, coeff)
        alg.field.accumulate(out.terms, piece.terms.items())
    return out


def element_to_json(x: ChainElement) -> dict:
    doc = tag_to_json(x.tag)
    field = x.alg.field
    doc["terms"] = [
        {
            "slots": [_slot_to_json(x.tag, pos, v)
                      for pos, v in enumerate(slots)],
            "coeff": field.format(c),
        }
        for slots, c in x.sorted_terms()
    ]
    return doc


def vector_to_json(vec: ChainVector) -> dict:
    return {"components": [element_to_json(el) for el in vec.components()]}


# -- canonical output ------------------------------------------------------

def canonical_json(obj) -> str:
    """Deterministic JSON rendering; byte-identical across equal runs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
