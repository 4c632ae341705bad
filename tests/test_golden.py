"""Golden CLI reports: recorded stdout bytes and exit codes, replayed.

Each case below is one ``skewchain`` invocation on a config document (and,
for ``apply``, an input element).  ``tests/golden/<case>.out`` holds the
exact bytes the CLI printed when the case was recorded, and
``tests/golden/exit_codes.json`` the exit codes.  The replay test runs every
case again and requires byte-identical stdout and the same exit code, so a
refactor that changes any canonical report shows up here.

Record again only when a report change is intended::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from skewchain.cli import main
from skewchain.fields import vec_scale
from skewchain.pbw import PBWParams
from skewchain.serialize import RunConfig, params_to_config

from helpers import (
    NONASSOCIATIVE_TABLE,
    full_support_table,
    neg_id_q_config_doc,
    swap_q_config_doc,
)

GOLDEN = Path(__file__).parent / "golden"

#: The budgets of the fast verify tests in test_cli.py.
SMALL_BUDGETS = {"max_bar_degree": 2, "max_poly_degree": 1,
                 "degree4_samples": 5, "samples": 5}

KAPPA_ONE = {"kappa": [{"i": 0, "j": 1, "value": [[0, "1"]]}]}

Z3_UNIPOTENT_GF3 = {
    "field": "GF(3)",
    "group": {"family": "cyclic", "n": 3},
    "action": {"dim": 2, "matrices": {"1": [["1", "1"], ["0", "1"]]}},
    "budgets": dict(SMALL_BUDGETS, seed=5),
}

V4_GF2 = {
    "field": "GF(2)",
    "group": {"family": "product_of_cyclics", "orders": [2, 2]},
    "action": {"dim": 3, "matrices": {
        "2": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
        "1": [["1", "0", "1"], ["0", "1", "1"], ["0", "0", "1"]]}},
}

S3_REFL_Q = {
    "field": "Q",
    "group": {"family": "symmetric", "n": 3},
    "action": {"dim": 2, "matrices": {
        "3": [["0", "-1"], ["1", "-1"]],
        "2": [["0", "1"], ["1", "0"]]}},
}

#: Z/3 acting trivially on GF(3)^3, with a PBW table whose lambda is
#: nonzero (tests/test_pbw.py, TestModularInstances).
Z3_TRIVIAL_GF3_N3_PBW = {
    "field": "GF(3)",
    "group": {"family": "cyclic", "n": 3},
    "action": {"dim": 3, "matrices": {
        g: [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        for g in ("1", "2")}},
    "params": {
        "kappa": [{"i": 0, "j": j, "value": [[1, "1"]]} for j in (1, 2)],
        "lambda": ([{"g": 1, "i": i, "value": [[0, "1"]]} for i in range(3)]
                   + [{"g": 2, "i": i, "value": [[1, "2"]]}
                      for i in range(3)])},
}

#: The Drinfeld Hecke table kappa(x0 ∧ x1) = r - r² on S3_REFL_Q, r and r²
#: the 3-cycles (group indices 3 and 4): PBW for all three deciders.
DRINFELD_HECKE = {"kappa": [{"i": 0, "j": 1, "value": [[3, "1"], [4, "-1"]]}]}

Z4_ROT_Q = {
    "field": "Q",
    "group": {"family": "cyclic", "n": 4},
    "action": {"dim": 2, "matrices": {"1": [["0", "-1"], ["1", "0"]]}},
}


def with_full_support(doc, seed, scales=None):
    """``doc`` with the params of ``helpers.full_support_table``.

    ``scales``, a pair of scalar strings, multiplies every kappa value by
    the first and every lambda value by the second.
    """
    alg = RunConfig.from_dict(doc).algebra
    params = full_support_table(alg, seed)
    if scales is not None:
        f = alg.field
        ck, cl = (f.parse(c) for c in scales)
        params = PBWParams(
            alg, {k: vec_scale(f, ck, v) for k, v in params.kappa.items()},
            {k: vec_scale(f, cl, v) for k, v in params.lam.items()})
    return dict(doc, params=params_to_config(params))


#: One input element per map, each in the map's domain and with more than
#: one term or a non-unit outer slot where the complex allows it.
APPLY_INPUTS = {
    "awg": {"complex": "barskew", "n": 2, "terms": [
        {"coeff": "1", "slots": [[[0, 0], 0], [[1, 0], 1], [[0, 1], 0],
                                 [[0, 0], 0]]},
        {"coeff": "1/2", "slots": [[[1, 0], 1], [[0, 0], 1], [[1, 1], 0],
                                   [[0, 1], 0]]}]},
    "ezg": {"complex": "twisted", "i": 1, "j": 2, "D": "bar", "terms": [
        {"coeff": "-3", "slots": [0, 1, 0, [0, 0], [1, 0], [0, 1],
                                  [0, 0]]},
        {"coeff": "1", "slots": [1, 1, 0, [1, 0], [1, 0], [1, 0],
                                 [0, 0]]}]},
    "iota_s": {"complex": "koszul", "j": 2, "terms": [
        {"coeff": "2", "slots": [[1, 0], [0, 1], [0, 1]]}]},
    "pi_s": {"complex": "bars", "j": 2, "terms": [
        {"coeff": "1", "slots": [[0, 0], [1, 0], [0, 1], [0, 0]]},
        {"coeff": "-1/3", "slots": [[1, 0], [0, 1], [1, 1], [0, 1]]}]},
    "iota": {"complex": "twisted", "i": 1, "j": 1, "D": "koszul", "terms": [
        {"coeff": "1", "slots": [0, 1, 1, [0, 1], [0], [1, 0]]}]},
    "pi": {"complex": "barskew", "n": 2, "terms": [
        {"coeff": "1", "slots": [[[0, 0], 0], [[0, 1], 0], [[1, 0], 1],
                                 [[0, 0], 0]]},
        {"coeff": "5", "slots": [[[1, 0], 0], [[0, 1], 0], [[1, 0], 0],
                                 [[0, 0], 0]]}]},
    "diff": {"complex": "twisted", "i": 1, "j": 2, "D": "koszul", "terms": [
        {"coeff": "1", "slots": [1, 1, 0, [1, 0], [0, 1], [0, 0]]}]},
}


def _cases():
    """case name -> (argv after the config, config doc, input doc)."""
    small = swap_q_config_doc(budgets=SMALL_BUDGETS)
    cases = {
        f"verify_{suite}_swap_q": (["verify", suite], small, None)
        for suite in ("complexes", "chainmaps", "splitting", "all")
    }
    cases["verify_all_z3_unipotent_gf3"] = (["verify", "all"],
                                            Z3_UNIPOTENT_GF3, None)
    for label, params in (("zero", {}), ("kappa_one", KAPPA_ONE)):
        for method in ("all", "oracle"):
            cases[f"pbw_{method}_{label}_swap_q"] = (
                ["pbw", method], swap_q_config_doc(params=params), None)
    for label, doc in (("z3_unipotent_gf3", Z3_UNIPOTENT_GF3),
                       ("v4_gf2", V4_GF2), ("z4_rot_q", Z4_ROT_Q),
                       ("s3_refl_q", S3_REFL_Q)):
        cases[f"pbw_oracle_full_{label}"] = (
            ["pbw", "oracle"], with_full_support(doc, 0), None)
    for method in ("all", "oracle"):
        cases[f"pbw_{method}_drinfeld_hecke_s3_refl_q"] = (
            ["pbw", method], dict(S3_REFL_Q, params=DRINFELD_HECKE), None)
    cases["pbw_all_full_z3_unipotent_gf3"] = (
        ["pbw", "all"], with_full_support(Z3_UNIPOTENT_GF3, 0), None)
    for label, doc in (("v4_gf2", V4_GF2), ("s3_refl_q", S3_REFL_Q)):
        cases[f"pbw_cohomological_full_{label}"] = (
            ["pbw", "cohomological"], with_full_support(doc, 0), None)
    # fractional coefficients, so that the Q witnesses carry fractions
    cases["pbw_cohomological_thirds_halves_s3_refl_q"] = (
        ["pbw", "cohomological"],
        with_full_support(S3_REFL_Q, 0, ("1/3", "1/2")), None)
    cases["pbw_cohomological_pbw_z3_trivial_gf3_n3"] = (
        ["pbw", "cohomological"], Z3_TRIVIAL_GF3_N3_PBW, None)
    for name, doc in APPLY_INPUTS.items():
        cases[f"apply_{name}_swap_q"] = (["apply", name],
                                         swap_q_config_doc(), doc)
    cases["enumerate_neg_id_q"] = (["enumerate"], neg_id_q_config_doc(
        enumerate={"kappa_candidates": [[], [[0, "1"]], [[1, "1"]]],
                   "lambda_candidates": [[], [[1, "1"]]]}), None)
    cases["setup_error_nonassociative"] = (["verify"], swap_q_config_doc(
        group={"family": "table", "table": NONASSOCIATIVE_TABLE}), None)
    return cases


CASES = _cases()


def run_case(name, tmp_path):
    """Run one case through ``cli.main``; returns (stdout, exit code)."""
    argv, config, element = CASES[name]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    argv = argv + ["--config", str(cfg)]
    if element is not None:
        inp = tmp_path / f"{name}.input.json"
        inp.write_text(json.dumps(element))
        argv += ["--input", str(inp)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    out, code = run_case(name, tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_every_golden_file_has_a_case():
    recorded = {p.stem for p in GOLDEN.glob("*.out")}
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert recorded == set(CASES) == set(codes)


def _record():  # pragma: no cover - run by hand, see the module docstring
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            out, codes[name] = run_case(name, Path(tmp))
            (GOLDEN / f"{name}.out").write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":  # pragma: no cover
    _record()
