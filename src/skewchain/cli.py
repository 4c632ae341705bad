"""Command-line driver: verify invariants, decide PBW, apply maps, enumerate.

Exit codes form the machine contract:

* 0 - all requested checks passed / the deformation is PBW,
* 1 - a check failed / the deformation is not PBW,
* 2 - the run could not be set up (bad config, bad shapes, missing data),
* 3 - the three PBW deciders disagree (a bug, reported loudly),
* 4 - an internal error: any other exception (a bug); the report carries
  an ``error`` object, as for exit 2, and the traceback goes to stderr.

Reports go to stdout as canonical JSON (and to ``--json PATH`` when given);
identical (config, seed) pairs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from .fields import NonPrimeModulus
from .groups import NoIdentity, NotAssociative, NotLatinSquare
from .polynomials import DimensionMismatch
from .skew import ContextMismatch
from .complexes import ShapeMismatch, diff
from .chainmaps import (
    MAP_DOMAINS,
    DegreeOutOfRange,
    map_by_name,
)
from .pbw import (
    MissingParams,
    SearchSpaceTooLarge,
    check_all,
    check_cohomological,
    check_five,
    enumerate_pbw,
    oracle_pbw,
)
from .serialize import (
    ConfigParseError,
    RunConfig,
    _ga_from_wire,
    canonical_json,
    element_from_json,
    element_to_json,
    is_json_int,
    params_to_config,
    vector_to_json,
)
from .verify import SUITES, run_suites

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DISAGREE = 3
EXIT_INTERNAL = 4

#: Everything that means "the run could not even be set up".
CONFIG_ERRORS = (
    ConfigParseError,
    NotAssociative,
    NotLatinSquare,
    NoIdentity,
    NonPrimeModulus,
    DimensionMismatch,
    ContextMismatch,
    ShapeMismatch,
    MissingParams,
    DegreeOutOfRange,
    SearchSpaceTooLarge,
    OSError,
)

VERIFY_SUITES = (*SUITES, "all")
PBW_METHODS = ("five", "cohomological", "oracle", "all")
MAP_NAMES = (*MAP_DOMAINS, "diff")


# -- verify ----------------------------------------------------------------

def run_verify(cfg: RunConfig, suite: str):
    """Run one (or all) verification suites; returns (report, exit code)."""
    checks = run_suites(cfg.algebra, cfg.budgets, suite)
    passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "suite": suite,
        "seed": cfg.budgets["seed"],
        "budgets": cfg.budgets,
        "checks": checks,
        "passed": passed,
    }
    return report, (EXIT_PASS if passed else EXIT_FAIL)


# -- pbw -------------------------------------------------------------------

def run_pbw(cfg: RunConfig, method: str):
    if cfg.params is None:
        raise MissingParams("config has no params block")
    alg = cfg.algebra
    params = cfg.params
    j_max = cfg.budgets["j_max"]
    if method == "all":
        reports, agree = check_all(alg, params, j_max=j_max)
        verdict = reports["five_conditions"].verdict
    else:
        decide = {"five": check_five, "oracle": oracle_pbw,
                  "cohomological": functools.partial(check_cohomological,
                                                     j_max=j_max)}[method]
        rep = decide(alg, params)
        reports, agree, verdict = {rep.method: rep}, True, rep.verdict
    report = {
        "command": "pbw",
        "method": method,
        "seed": cfg.budgets["seed"],
        "params": params_to_config(params),
        "verdict": verdict,
        "agree": agree,
        "reports": {k: r.to_json_dict() for k, r in reports.items()},
    }
    if not agree:
        return report, EXIT_DISAGREE
    return report, (EXIT_PASS if verdict else EXIT_FAIL)


# -- apply -----------------------------------------------------------------

#: The cap on the terms a map makes from one input term by permuting a
#: wedge (iota_s, iota) and shuffling letters (ezg, iota).
MAX_MAP_FACTOR = 10 ** 5


def map_factor(map_name: str, tag) -> int:
    """j! for iota_s on koszul(j), C(i+j, i) for ezg on twisted(i, j, bar),
    their product for iota on twisted(i, j, koszul), and 1 otherwise.

    The product is built one factor at a time and reads
    ``MAX_MAP_FACTOR + 1`` once it passes the cap, so a tag of huge degree
    costs a few steps.
    """
    i, j = tag[1:3] if tag[0] == "twisted" else (0, tag[1])
    factor = 1
    if map_name in ("iota_s", "iota"):
        for k in range(2, j + 1):
            factor *= k
            if factor > MAX_MAP_FACTOR:
                return MAX_MAP_FACTOR + 1
    if map_name in ("ezg", "iota"):
        binom = 1
        # C(i+j, k) for k = 1, 2, ...: it grows while k <= (i+j)/2
        for k in range(1, min(i, j) + 1):
            binom = binom * (i + j - k + 1) // k
            if factor * binom > MAX_MAP_FACTOR:
                return MAX_MAP_FACTOR + 1
        factor *= binom
    return factor


def run_apply(cfg: RunConfig, map_name: str, input_doc: dict):
    alg = cfg.algebra
    tag, x = element_from_json(alg, input_doc)
    family = f"twisted_{tag[3]}" if tag[0] == "twisted" else tag[0]
    if map_name == "diff":
        image = diff(x)
    elif family != MAP_DOMAINS[map_name]:
        raise ShapeMismatch(f"{map_name} is not defined on {tag}; "
                            f"expected a {MAP_DOMAINS[map_name]} element")
    else:
        bound = max(cfg.budgets["j_max"], 4)
        if map_name in ("pi_s", "pi") and tag[1] > bound:
            raise DegreeOutOfRange(f"{map_name} needs bar degree <= {bound}, "
                                   f"got {tag[1]}")
        # an empty input has an empty image, whatever its degrees
        if x.parts and map_factor(map_name, tag) > MAX_MAP_FACTOR:
            raise DegreeOutOfRange(
                f"{map_name} on {tag} makes more than {MAX_MAP_FACTOR} "
                f"terms per input term")
        image = map_by_name(map_name)(x)
    report = {
        "command": "apply",
        "map": map_name,
        "seed": cfg.budgets["seed"],
        "input": element_to_json(tag, x),
        "output": vector_to_json(image),
    }
    return report, EXIT_PASS


# -- enumerate -------------------------------------------------------------

def _candidates(alg, spec, key):
    """The group-algebra values listed under ``key`` of an enumerate block."""
    entries = spec.get(key, [])
    if not isinstance(entries, list):
        raise ConfigParseError(f"enumerate {key!r} must be a list")
    out = []
    for pos, entry in enumerate(entries):
        value = _ga_from_wire(alg.field, entry, f"{key}[{pos}]")
        if any(not 0 <= g < alg.group.order for g in value):
            raise ConfigParseError(f"{key}[{pos}]: group index out of range")
        out.append(value)
    return out


def run_enumerate(cfg: RunConfig):
    spec = cfg.enumerate_spec
    if spec is None:
        raise ConfigParseError("config has no enumerate block")
    alg = cfg.algebra
    unknown = set(spec) - {"kappa_candidates", "lambda_candidates", "cap"}
    if unknown:
        raise ConfigParseError(f"unknown enumerate keys {sorted(unknown)}")
    kcands, lcands = (_candidates(alg, spec, key)
                      for key in ("kappa_candidates", "lambda_candidates"))
    kwargs = {}
    if "cap" in spec:
        if not is_json_int(spec["cap"]):
            raise ConfigParseError("enumerate cap must be an integer")
        kwargs["cap"] = spec["cap"]
    found = enumerate_pbw(alg, kcands, lcands, **kwargs)
    report = {
        "command": "enumerate",
        "seed": cfg.budgets["seed"],
        "count": len(found),
        "results": [params_to_config(p) for p in found],
    }
    return report, EXIT_PASS


# -- entry point -----------------------------------------------------------

def _read_input_doc(path: str) -> dict:
    import json as _json

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return _json.loads(text)
    except ValueError as e:
        raise ShapeMismatch(f"input element is not valid JSON: {e}") from e


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skewchain",
        description="Exact verification of twisted-resolution chain maps "
                    "and PBW deformation checks for S(V) x| G.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed budget")
        p.add_argument("--max-degree", type=int, default=None,
                       help="override the max bar degree budget")
        p.add_argument("--json", default=None, metavar="PATH",
                       help="also write the report to this file")

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("suite", nargs="?", default="all", choices=VERIFY_SUITES)
    common(p)

    p = sub.add_parser("pbw", help="decide the PBW property")
    p.add_argument("method", nargs="?", default="all", choices=PBW_METHODS)
    common(p)

    p = sub.add_parser("apply", help="apply a chain map to an element")
    p.add_argument("map", choices=MAP_NAMES)
    common(p)
    p.add_argument("--input", default="-", metavar="PATH",
                   help="element JSON file ('-' = stdin)")

    p = sub.add_parser("enumerate", help="list parameters passing the "
                                         "five-condition check")
    common(p)
    return ap


def _error_report(command: str, e: Exception) -> dict:
    return {"command": command,
            "error": {"type": type(e).__name__, "detail": str(e)}}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigParseError("seed must be nonnegative")
            cfg.budgets["seed"] = args.seed
        if args.max_degree is not None:
            if args.max_degree <= 0:
                raise ConfigParseError("max degree must be positive")
            cfg.budgets["max_bar_degree"] = args.max_degree
        if args.command == "verify":
            report, code = run_verify(cfg, args.suite)
        elif args.command == "pbw":
            report, code = run_pbw(cfg, args.method)
        elif args.command == "apply":
            report, code = run_apply(cfg, args.map,
                                     _read_input_doc(args.input))
        else:
            report, code = run_enumerate(cfg)
    except CONFIG_ERRORS as e:
        report, code = _error_report(args.command, e), EXIT_CONFIG
    except Exception as e:  # last resort: no exception may exit as 1
        traceback.print_exc(file=sys.stderr)
        report, code = _error_report(args.command, e), EXIT_INTERNAL
    text = canonical_json(report)
    sys.stdout.write(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
