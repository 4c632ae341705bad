"""Exact-arithmetic chain-level algebra for skew group algebras.

The package builds the bar and Koszul-type bimodule resolutions of a skew
group algebra S(V) ⋊ G over Q or GF(p), the group-twisted
Alexander-Whitney / Eilenberg-Zilber comparison maps between them, and
three independent decision procedures for the PBW property of quadratic
deformations determined by parameter maps (kappa, lambda).
"""

from .fields import (
    GF,
    QQ,
    DivisionByZero,
    Field,
    NonPrimeModulus,
    field_from_descriptor,
)
from .groups import (
    FiniteGroup,
    GroupTooLarge,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    cyclic_group,
    group_from_config,
    product_of_cyclic_groups,
    symmetric_group,
)
from .polynomials import (
    ActionTooLarge,
    DimensionMismatch,
    LinearAction,
    poly_mul,
)
from .skew import ContextMismatch, SkewAlgebra
from .complexes import (
    ChainElement,
    ShapeMismatch,
    bimodule_act,
    diff,
    expand_term,
)
from .chainmaps import (
    DegreeOutOfRange,
    awg,
    ezg,
    iota,
    iota_s,
    pi,
    pi_s,
)
from .cochains import Cochain, circle, coboundary
from .pbw import (
    MissingParams,
    PBWParams,
    PBWReport,
    SearchSpaceTooLarge,
    check_all,
    check_cohomological,
    check_five,
    enumerate_pbw,
    oracle_pbw,
)
from .serialize import ConfigParseError, RunConfig, canonical_json
from .verify import verify_chainmap

__version__ = "0.1.0"

__all__ = [
    "GF", "QQ", "Field", "field_from_descriptor",
    "DivisionByZero", "NonPrimeModulus",
    "FiniteGroup", "cyclic_group", "symmetric_group",
    "product_of_cyclic_groups", "group_from_config",
    "GroupTooLarge", "NoIdentity", "NotAssociative",
    "NotLatinSquare",
    "LinearAction", "poly_mul",
    "DimensionMismatch", "ActionTooLarge",
    "SkewAlgebra", "ContextMismatch",
    "ChainElement", "ShapeMismatch", "expand_term",
    "diff", "bimodule_act",
    "awg", "ezg", "iota_s", "pi_s", "iota", "pi",
    "verify_chainmap", "DegreeOutOfRange",
    "Cochain", "coboundary", "circle",
    "PBWParams", "PBWReport", "check_five", "check_cohomological",
    "oracle_pbw", "check_all", "enumerate_pbw",
    "MissingParams", "SearchSpaceTooLarge",
    "ConfigParseError", "RunConfig", "canonical_json",
    "__version__",
]
