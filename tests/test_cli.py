"""End-to-end tests for the ``skewchain`` command line.

Every test drives :func:`skewchain.cli.main` directly with an argv list and
parses the canonical JSON report captured from stdout.  Exit codes under
test: 0 = all checks passed / the deformation is PBW, 1 = a check failed /
the deformation is not PBW, 2 = the run could not even be set up (config,
input, or budget problems), 3 = the three PBW deciders disagree.
"""

import json
import time
from pathlib import Path

import pytest

from skewchain.cli import MAX_MAP_FACTOR, main, map_factor
from skewchain.pbw import PBWReport
from skewchain.polynomials import MAX_ACTION_DIM
from skewchain.serialize import (
    MAX_ACTION_TERMS,
    MAX_TERM_DEGREE,
    canonical_json,
)

from helpers import (
    NONASSOCIATIVE_TABLE,
    forbid_slot_lists,
    neg_id_q_config_doc,
    swap_q_config_doc,
)


ROOT = Path(__file__).resolve().parent.parent


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, argv):
    """Run the CLI; returns (exit code, parsed report, raw stdout)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


KAPPA_ONE = {"kappa": [{"i": 0, "j": 1, "value": [[0, "1"]]}]}
KAPPA_G = {"kappa": [{"i": 0, "j": 1, "value": [[1, "1"]]}]}

COMPLEXES_CHECKS = [
    "d2_barskew", "d2_barg", "d2_bars", "d2_koszul", "d2_twisted_bar",
    "d2_twisted_koszul", "d2_random_degree4", "bimodule_axioms",
    "diff_commutes_with_action", "group_scalar_compat",
]
CHAINMAP_CHECKS = [f"chainmap_{m}"
                   for m in ("awg", "ezg", "iota_s", "pi_s", "iota", "pi")]
SPLITTING_CHECKS = [
    "awg_ezg_identity", "splitting_worked_degree2", "pi_iota_identity",
    "pi_s_iota_s_identity", "iota_graded", "pi_graded",
]

#: Budgets small enough that a verify run takes well under a second.
SMALL_BUDGETS = {"max_bar_degree": 2, "max_poly_degree": 1,
                 "degree4_samples": 5, "samples": 5}

#: Bar degree 5, one above the default j_max (about 3 s for verify all).
DEGREE5_BUDGETS = dict(SMALL_BUDGETS, max_bar_degree=5, j_max=4)


def bars_doc(*mids):
    """The bar element 1 ⊗ x^{mids[0]} ⊗ ... ⊗ 1 of S over two variables."""
    return {"complex": "bars", "j": len(mids),
            "terms": [{"slots": [[0, 0], *mids, [0, 0]], "coeff": "1"}]}


class TestVerify:
    def test_complexes_suite_passes(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        code, rep, _ = run_cli(capsys, ["verify", "complexes",
                                        "--config", cfg])
        assert code == 0
        assert rep["command"] == "verify"
        assert rep["suite"] == "complexes"
        assert rep["seed"] == 0
        assert rep["passed"] is True
        assert [c["name"] for c in rep["checks"]] == COMPLEXES_CHECKS
        for c in rep["checks"]:
            assert c["checked"] > 0
            assert c["passed"] is True
            assert c["failures"] == []

    def test_all_suite_concatenates_the_three(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(budgets=SMALL_BUDGETS))
        code, rep, _ = run_cli(capsys, ["verify", "--config", cfg])
        assert code == 0
        assert rep["suite"] == "all"  # the default when no suite is given
        names = [c["name"] for c in rep["checks"]]
        assert names == COMPLEXES_CHECKS + CHAINMAP_CHECKS + SPLITTING_CHECKS

    def test_budget_defaults_echoed(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        _, rep, _ = run_cli(capsys, ["verify", "complexes", "--config", cfg])
        assert rep["budgets"] == {"max_bar_degree": 3, "max_poly_degree": 2,
                                  "j_max": 4, "samples": 100,
                                  "degree4_samples": 200, "seed": 0}

    def test_seed_and_max_degree_flags_override(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(budgets=SMALL_BUDGETS))
        code, rep, _ = run_cli(capsys, ["verify", "chainmaps", "--config",
                                        cfg, "--seed", "7",
                                        "--max-degree", "1"])
        assert code == 0
        assert rep["seed"] == 7
        assert rep["budgets"]["seed"] == 7
        assert rep["budgets"]["max_bar_degree"] == 1

    def test_failing_check_gives_exit_one(self, tmp_path, capsys,
                                          monkeypatch):
        # Fault injection: make the chain-map verifier report a failure so
        # the exit-1 path is exercised without breaking any real map.
        def broken(alg, family, rows, *args, **kw):
            return {name: (1, [{"injected": True}]) for name in rows}

        monkeypatch.setattr("skewchain.verify.check_family", broken)
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(budgets=SMALL_BUDGETS))
        code, rep, _ = run_cli(capsys, ["verify", "chainmaps",
                                        "--config", cfg])
        assert code == 1
        assert rep["passed"] is False
        bad = [c for c in rep["checks"] if not c["passed"]]
        assert bad and bad[0]["failures"] == [{"injected": True}]

    def test_splitting_alone_and_in_all_agree_beyond_j_max(self, tmp_path,
                                                           capsys):
        # The verify suites are bounded by max_bar_degree alone: a splitting
        # run must not depend on a degree bound raised by the suites that
        # ran before it in ``verify all``.
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(budgets=DEGREE5_BUDGETS))
        code_split, split, _ = run_cli(capsys, ["verify", "splitting",
                                                "--config", cfg])
        code_all, every, _ = run_cli(capsys, ["verify", "all",
                                              "--config", cfg])
        assert code_split == code_all == 0
        assert split["checks"] == every["checks"][-len(SPLITTING_CHECKS):]

    def test_bar_degree_past_the_input_cap_is_a_fast_setup_error(
            self, capsys, monkeypatch):
        # a barskew row on s3_perm_q at bar degree 4 has 59**4 = 12,117,361
        # degree-4 generators alone, past the cap of 10**6 inputs a check;
        # d2_barskew is the first in report order
        forbid_slot_lists(monkeypatch)
        cfg = str(ROOT / "perfbench" / "configs" / "s3_perm_q.json")
        start = time.monotonic()
        code, rep, _ = run_cli(capsys, ["verify", "all", "--config", cfg,
                                        "--max-degree", "4"])
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert rep["error"] == {
            "type": "DegreeOutOfRange",
            "detail": "d2_barskew would check more than 1000000 inputs; "
                      "lower the degree budgets"}

    @pytest.mark.parametrize("suite", ["complexes", "chainmaps", "splitting",
                                       "all"])
    def test_a_huge_poly_degree_is_a_fast_setup_error(self, suite, tmp_path,
                                                     capsys, monkeypatch):
        # C(10**6 + 2, 2) monomials per letter are counted, never listed
        forbid_slot_lists(monkeypatch)
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc(
            budgets={"max_poly_degree": 10 ** 6}))
        start = time.monotonic()
        code, rep, _ = run_cli(capsys, ["verify", suite, "--config", cfg])
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert rep["error"]["type"] == "DegreeOutOfRange"


    @pytest.mark.parametrize("degree", [101, 10 ** 5])
    @pytest.mark.parametrize("where", ["budget", "flag"])
    def test_bar_degree_past_its_cap_is_a_fast_setup_error(
            self, degree, where, tmp_path, capsys, monkeypatch):
        # With the trivial group and no variables every bar degree has one
        # input or none, so the input cap does not bound the work, which
        # grows with the square of the degree: 10**5 ran for minutes
        forbid_slot_lists(monkeypatch)
        budgets = {"max_bar_degree": degree} if where == "budget" else {}
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc(
            group={"family": "cyclic", "n": 1}, action={"dim": 0},
            budgets=budgets))
        flag = ["--max-degree", str(degree)] if where == "flag" else []
        start = time.monotonic()
        code, rep, _ = run_cli(capsys, ["verify", "all", "--config", cfg,
                                        *flag])
        assert time.monotonic() - start < 1.0
        assert code == 2
        name = "max_bar_degree" if where == "budget" else "max degree"
        assert rep["error"] == {"type": "ConfigParseError",
                                "detail": f"{name} must be at most 100"}

    @pytest.mark.parametrize("order,action", [
        (1, {"dim": 0}), (2, {"dim": 0, "matrices": {"1": []}}),
    ], ids=["trivial_group_no_variables", "no_variables"])
    def test_degenerate_algebras_pass_at_the_bar_degree_cap(
            self, order, action, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc(
            group={"family": "cyclic", "n": order}, action=action,
            budgets={"max_bar_degree": 100}))
        start = time.monotonic()
        code, rep, _ = run_cli(capsys, ["verify", "all", "--config", cfg])
        assert time.monotonic() - start < 10.0
        assert code == 0 and rep["passed"]
        assert rep["budgets"]["max_bar_degree"] == 100

    @pytest.mark.parametrize("order,action", [
        (1, {"dim": 2}), (1, {"dim": 0}),
        (2, {"dim": 0, "matrices": {"1": []}}),
    ], ids=["trivial_group", "trivial_group_no_variables", "no_variables"])
    def test_algebras_without_group_or_s_letters_pass(self, order, action,
                                                      tmp_path, capsys):
        # The sampled checks drew group letters from the trivial group and S
        # letters from no variables, an internal error (exit 4); such a
        # term now takes the largest degree that has terms.
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc(
            group={"family": "cyclic", "n": order}, action=action,
            budgets=SMALL_BUDGETS))
        code, rep, _ = run_cli(capsys, ["verify", "all", "--config", cfg])
        assert code == 0 and rep["passed"]


class TestPBW:
    def test_swap_kappa_one_fails_with_agreement(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(params=KAPPA_ONE))
        code, rep, _ = run_cli(capsys, ["pbw", "--config", cfg])
        assert code == 1          # not PBW, but the three methods agree
        assert rep["command"] == "pbw"
        assert rep["method"] == "all"
        assert rep["verdict"] is False
        assert rep["agree"] is True
        assert sorted(rep["reports"]) == ["cohomological", "five_conditions",
                                          "oracle"]
        assert rep["params"] == {
            "kappa": [{"i": 0, "j": 1, "value": [[0, "1"]]}],
            "lambda": [],
        }
        cond2 = rep["reports"]["five_conditions"]["per_condition"][1]
        assert cond2 == {"condition": 2, "holds": False,
                         "witness": {"g": 1, "u": 0, "v": 1,
                                     "defect": "(-2)*g"}}
        # check_all runs the oracle with early exit, so no dimension count.
        assert rep["reports"]["oracle"]["extras"]["dimension"] is None

    def test_neg_id_kappa_g_is_pbw(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         neg_id_q_config_doc(params=KAPPA_G))
        code, rep, _ = run_cli(capsys, ["pbw", "--config", cfg])
        assert code == 0
        assert rep["verdict"] is True
        assert rep["agree"] is True
        assert rep["reports"]["oracle"]["extras"]["dimension"] == 20

    @pytest.mark.parametrize("method,key", [
        ("five", "five_conditions"),
        ("cohomological", "cohomological"),
        ("oracle", "oracle"),
    ])
    def test_single_method_reports(self, tmp_path, capsys, method, key):
        cfg = write_json(tmp_path / "c.json",
                         neg_id_q_config_doc(params=KAPPA_G))
        code, rep, _ = run_cli(capsys, ["pbw", method, "--config", cfg])
        assert code == 0
        assert rep["method"] == method
        assert list(rep["reports"]) == [key]
        assert rep["reports"][key]["verdict"] is True
        assert rep["agree"] is True  # a single method cannot disagree

    def test_missing_params_block(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        code, rep, _ = run_cli(capsys, ["pbw", "--config", cfg])
        assert code == 2
        assert rep == {"command": "pbw",
                       "error": {"type": "MissingParams",
                                 "detail": "config has no params block"}}

    def test_low_j_max_rejected_by_cohomological(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(params=KAPPA_ONE,
                                           budgets={"j_max": 1}))
        code, rep, _ = run_cli(capsys, ["pbw", "cohomological",
                                        "--config", cfg])
        assert code == 2
        assert rep["error"]["type"] == "DegreeOutOfRange"
        assert "J_max >= 3" in rep["error"]["detail"]

    def test_disagreement_exits_three(self, tmp_path, capsys, monkeypatch):
        # Fault injection: fabricate a checker disagreement to pin down the
        # exit-3 contract (the honest checkers never disagree).
        def split_brain(alg, params, j_max=4):
            three = {
                "five_conditions": PBWReport("five", True),
                "cohomological": PBWReport("cohomological", False),
                "oracle": PBWReport("oracle", True),
            }
            return three, False

        monkeypatch.setattr("skewchain.cli.check_all", split_brain)
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(params=KAPPA_ONE))
        code, rep, _ = run_cli(capsys, ["pbw", "--config", cfg])
        assert code == 3
        assert rep["agree"] is False
        assert rep["reports"]["five_conditions"]["verdict"] is True
        assert rep["reports"]["cohomological"]["verdict"] is False

    def test_internal_error_exits_four(self, tmp_path, capsys, monkeypatch):
        # Fault injection: any exception outside the setup errors is an
        # internal error: exit 4 with a canonical JSON report on stdout,
        # not a traceback with exit 1.
        def crash(cfg, method):
            raise RuntimeError("injected fault")

        monkeypatch.setattr("skewchain.cli.run_pbw", crash)
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(params=KAPPA_ONE))
        code = main(["pbw", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == canonical_json(
            {"command": "pbw",
             "error": {"type": "RuntimeError", "detail": "injected fault"}})
        assert "RuntimeError: injected fault" in captured.err


class TestApply:
    # One full worked instance of the twisted shuffle lift, frozen end to
    # end: for the order-2 swap action, the bidegree-(1,1) generator
    # 1 (x) g (x) x_0 (x) 1 maps to 1 (x) g (x) ^g(x_0) (x) 1 minus
    # 1 (x) x_1 (x) g (x) 1 (the second shuffle moves the bar letter past
    # the group letter, twisting x_0 to x_1 and picking up a sign).
    EZG_INPUT = {"complex": "twisted", "i": 1, "j": 1, "D": "bar",
                 "terms": [{"slots": [0, 1, 0, [0, 0], [1, 0], [0, 0]],
                            "coeff": "1"}]}
    EZG_REPORT = {
        "command": "apply",
        "map": "ezg",
        "seed": 0,
        "input": {"D": "bar", "complex": "twisted", "i": 1, "j": 1,
                  "terms": [{"coeff": "1",
                             "slots": [0, 1, 0, [0, 0], [1, 0], [0, 0]]}]},
        "output": {"components": [
            {"complex": "barskew", "n": 2, "terms": [
                {"coeff": "1",
                 "slots": [[[0, 0], 0], [[0, 0], 1],
                           [[1, 0], 0], [[0, 0], 0]]},
                {"coeff": "-1",
                 "slots": [[[0, 0], 0], [[0, 1], 0],
                           [[0, 0], 1], [[0, 0], 0]]},
            ]},
        ]},
    }

    def test_ezg_worked_instance_from_file(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        inp = write_json(tmp_path / "el.json", self.EZG_INPUT)
        code, rep, _ = run_cli(capsys, ["apply", "ezg", "--config", cfg,
                                        "--input", inp])
        assert code == 0
        assert rep == self.EZG_REPORT

    def test_diff_reads_stdin_by_default(self, tmp_path, capsys,
                                         monkeypatch):
        import io

        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        doc = {"complex": "bars", "j": 1,
               "terms": [{"slots": [[0, 0], [1, 1], [0, 0]], "coeff": "1"}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, rep, _ = run_cli(capsys, ["apply", "diff", "--config", cfg])
        assert code == 0
        # d(1 (x) x0x1 (x) 1) = x0x1 (x) 1 - 1 (x) x0x1 in bar degree 0.
        assert rep["output"] == {"components": [
            {"complex": "bars", "j": 0, "terms": [
                {"coeff": "-1", "slots": [[0, 0], [1, 1]]},
                {"coeff": "1", "slots": [[1, 1], [0, 0]]},
            ]},
        ]}

    def test_wrong_domain_rejected(self, tmp_path, capsys, monkeypatch):
        import io

        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        doc = {"complex": "bars", "j": 1,
               "terms": [{"slots": [[0, 0], [1, 1], [0, 0]], "coeff": "1"}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, rep, _ = run_cli(capsys, ["apply", "awg", "--config", cfg])
        assert code == 2
        assert rep["error"]["type"] == "ShapeMismatch"
        assert "awg is not defined on" in rep["error"]["detail"]

    def test_fractional_tag_degree_rejected(self, tmp_path, capsys,
                                            monkeypatch):
        import io

        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        doc = {"complex": "bars", "j": 1.9,
               "terms": [{"slots": [[0, 0], [1, 1], [0, 0]], "coeff": "1"}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, rep, _ = run_cli(capsys, ["apply", "diff", "--config", cfg])
        assert code == 2
        assert rep["error"]["type"] == "ShapeMismatch"
        assert "must be an integer" in rep["error"]["detail"]

    def test_pi_s_beyond_degree_bound_is_a_setup_error(self, tmp_path,
                                                       capsys):
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(budgets={"j_max": 4}))
        inp = write_json(tmp_path / "el.json", bars_doc(*[[1, 0]] * 5))
        code, rep, _ = run_cli(capsys, ["apply", "pi_s", "--config", cfg,
                                        "--input", inp])
        assert code == 2
        assert rep["error"] == {"type": "DegreeOutOfRange",
                                "detail": "pi_s needs bar degree <= 4, got 5"}

    @pytest.mark.parametrize("dim,code", [(9, 2), (7, 0)])
    def test_iota_s_past_the_factor_cap_is_a_fast_setup_error(
            self, dim, code, tmp_path, capsys):
        # iota_s makes j! terms from 1 (x) x0^...^x_{j-1} (x) 1: 7! = 5,040
        # is within the cap of 10**5 and 9! = 362,880 is not
        cfg = write_json(tmp_path / "c.json", {
            "field": "GF(2)", "group": {"family": "cyclic", "n": 1},
            "action": {"dim": dim}})
        zero = [0] * dim
        inp = write_json(tmp_path / "el.json", {
            "complex": "koszul", "j": dim,
            "terms": [{"slots": [zero, list(range(dim)), zero]}]})
        start = time.monotonic()
        got, rep, _ = run_cli(capsys, ["apply", "iota_s", "--config", cfg,
                                       "--input", inp])
        assert got == code
        if code == 2:
            assert time.monotonic() - start < 1.0
            assert rep["error"] == {
                "type": "DegreeOutOfRange",
                "detail": f"iota_s on ('koszul', {dim}) makes more than "
                          f"100000 terms per input term"}
        else:
            (part,) = rep["output"]["components"]
            assert len(part["terms"]) == 5040

    def test_ezg_past_the_factor_cap_is_a_fast_setup_error(self, tmp_path,
                                                           capsys):
        # C(20, 10) = 184,756 shuffles of ten group and ten S letters
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        inp = write_json(tmp_path / "el.json", {
            "complex": "twisted", "i": 10, "j": 10, "D": "bar",
            "terms": [{"slots": [0] + [1] * 10 + [0, [0, 0]]
                       + [[1, 0]] * 10 + [[0, 0]]}]})
        start = time.monotonic()
        code, rep, _ = run_cli(capsys, ["apply", "ezg", "--config", cfg,
                                        "--input", inp])
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert rep["error"]["type"] == "DegreeOutOfRange"
        assert "makes more than 100000 terms" in rep["error"]["detail"]

    def test_map_factor(self):
        assert map_factor("iota_s", ("koszul", 4)) == 24
        assert map_factor("ezg", ("twisted", 3, 2, "bar")) == 10
        assert map_factor("iota", ("twisted", 3, 2, "koszul")) == 20
        assert map_factor("awg", ("barskew", 12)) == 1
        assert map_factor("pi_s", ("bars", 3)) == 1
        # past the cap the factor reads cap + 1 after a few steps, however
        # large the degrees: 10**9! is never formed
        cap = MAX_MAP_FACTOR
        assert map_factor("iota_s", ("koszul", 9)) == cap + 1
        assert map_factor("ezg", ("twisted", 10, 10, "bar")) == cap + 1
        assert map_factor("iota", ("twisted", 2, 8, "koszul")) == cap + 1
        huge = 10 ** 9
        start = time.monotonic()
        assert map_factor("iota_s", ("koszul", huge)) == cap + 1
        assert map_factor("ezg", ("twisted", huge, huge, "bar")) == cap + 1
        assert map_factor("iota", ("twisted", huge, huge, "koszul")) == cap + 1
        assert time.monotonic() - start < 0.1

    @pytest.mark.parametrize("map_name,doc", [
        ("iota_s", {"complex": "koszul", "j": 2000}),
        ("iota_s", {"complex": "koszul", "j": 10 ** 9, "terms": []}),
        ("ezg", {"complex": "twisted", "i": 10 ** 9, "j": 10 ** 9,
                 "D": "bar", "terms": []}),
        ("iota", {"complex": "twisted", "i": 8000, "j": 8000,
                  "D": "koszul"}),
        # two terms that cancel
        ("awg", {"complex": "barskew", "n": 1, "terms": [
            {"slots": [[[0, 0], 0], [[1, 0], 1], [[0, 0], 0]], "coeff": c}
            for c in ("1", "-1")]}),
    ])
    def test_empty_input_of_huge_degree_has_an_empty_image(
            self, map_name, doc, tmp_path, capsys):
        # the factor cap bounds the terms made per input term, so an input
        # without terms passes it at once; its echo keeps the tag
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        inp = write_json(tmp_path / "el.json", doc)
        start = time.monotonic()
        code, rep, _ = run_cli(capsys, ["apply", map_name, "--config", cfg,
                                        "--input", inp])
        assert time.monotonic() - start < 1.0
        assert code == 0
        assert rep["input"] == {**doc, "terms": []}
        assert rep["output"]["components"] == []

    @pytest.mark.parametrize("mids,terms", [
        (([40, 0], [0, 40]), 0),
        (([0, 40], [40, 0]), 1600),
    ], ids=["x0_then_x1", "x1_then_x0"])
    def test_pi_s_of_high_powers_is_fast(self, mids, terms, tmp_path,
                                         capsys):
        # Psi picks a decreasing variable per slot: none exists for
        # x0^40 ⊗ x1^40, and 40 · 40 exponent splits for x1^40 ⊗ x0^40.
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        inp = write_json(tmp_path / "el.json", bars_doc(*mids))
        start = time.monotonic()
        code, rep, _ = run_cli(capsys, ["apply", "pi_s", "--config", cfg,
                                        "--input", inp])
        assert time.monotonic() - start < 1.0
        assert code == 0
        assert sum(len(c["terms"])
                   for c in rep["output"]["components"]) == terms

    @pytest.mark.parametrize("map_name,doc,degree", [
        # act_monomial recursed once per degree: RecursionError, exit 4
        ("awg", {"complex": "barskew", "n": 1, "terms": [{"slots": [
            [[0, 0], 0], [[1500, 0], 1], [[0, 0], 0]]}]}, 1500),
        # ran for over a minute
        ("pi_s", bars_doc([3000000, 0]), 3000000),
    ], ids=["awg", "pi_s"])
    def test_input_degree_above_the_cap_is_a_setup_error(
            self, map_name, doc, degree, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        inp = write_json(tmp_path / "el.json", doc)
        start = time.monotonic()
        code, rep, _ = run_cli(capsys, ["apply", map_name, "--config", cfg,
                                        "--input", inp])
        assert time.monotonic() - start < 0.5
        assert code == 2
        assert rep["error"] == {
            "type": "ShapeMismatch",
            "detail": f"term degree {degree} exceeds the cap of "
                      f"{MAX_TERM_DEGREE}"}

    def test_input_degree_at_the_cap_is_applied(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        inp = write_json(tmp_path / "el.json",
                         bars_doc([MAX_TERM_DEGREE, 0]))
        code, _, _ = run_cli(capsys, ["apply", "diff", "--config", cfg,
                                      "--input", inp])
        assert code == 0

    def test_dense_action_image_above_the_cap_is_a_setup_error(
            self, tmp_path, capsys):
        # the reflection I - (2/6)·J of Q^6: every matrix entry is
        # nonzero, so x0^24 has up to C(29, 5) = 118,755 image monomials;
        # awg ran for 28 s and peaked at 435 MB at this degree
        dense = [["2/3" if r == c else "-1/3" for c in range(6)]
                 for r in range(6)]
        cfg = write_json(tmp_path / "c.json", {
            "field": "Q", "group": {"family": "cyclic", "n": 2},
            "action": {"dim": 6, "matrices": {"1": dense}}})
        unit = [[0] * 6, 0]
        inp = write_json(tmp_path / "el.json", {
            "complex": "barskew", "n": 1,
            "terms": [{"slots": [unit, [[24] + [0] * 5, 1], unit]}]})
        start = time.monotonic()
        code, rep, _ = run_cli(capsys, ["apply", "awg", "--config", cfg,
                                        "--input", inp])
        assert time.monotonic() - start < 0.5
        assert code == 2
        assert rep["error"] == {
            "type": "ShapeMismatch",
            "detail": f"term action images of up to 118755 monomials "
                      f"exceed the cap of {MAX_ACTION_TERMS}"}

    @pytest.mark.parametrize("map_name", ["awg", "pi"])
    def test_permutation_action_at_the_degree_cap_is_applied(
            self, map_name, tmp_path, capsys):
        # a permutation matrix has one nonzero per column: bound 1
        perm = {"2": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
                "3": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]}
        cfg = write_json(tmp_path / "c.json", {
            "field": "Q", "group": {"family": "symmetric", "n": 3},
            "action": {"dim": 3, "matrices": perm}})
        unit = [[0, 0, 0], 0]
        inp = write_json(tmp_path / "el.json", {
            "complex": "barskew", "n": 2,
            "terms": [{"slots": [unit, [[50, 30, 0], 1], [[0, 0, 20], 2],
                                 unit]}]})
        code, rep, _ = run_cli(capsys, ["apply", map_name, "--config", cfg,
                                        "--input", inp])
        assert code == 0
        assert rep["output"]["components"]

    def test_unparseable_input_element(self, tmp_path, capsys, monkeypatch):
        import io

        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        monkeypatch.setattr("sys.stdin", io.StringIO("{nope"))
        code, rep, _ = run_cli(capsys, ["apply", "awg", "--config", cfg])
        assert code == 2
        assert rep["error"]["type"] == "ShapeMismatch"
        assert "not valid JSON" in rep["error"]["detail"]


class TestEnumerate:
    def test_neg_id_all_four_candidates_pass(self, tmp_path, capsys):
        # For the sign action every single-wedge kappa table passes, so all
        # four candidates (including zero) survive, in candidate order.
        cfg = write_json(tmp_path / "c.json", neg_id_q_config_doc(
            enumerate={"kappa_candidates": [
                [], [[0, "1"]], [[1, "1"]], [[0, "1"], [1, "1"]],
            ]}))
        code, rep, _ = run_cli(capsys, ["enumerate", "--config", cfg])
        assert code == 0
        assert rep["command"] == "enumerate"
        assert rep["count"] == 4
        assert rep["results"] == [
            {"kappa": [], "lambda": []},
            {"kappa": [{"i": 0, "j": 1, "value": [[0, "1"]]}], "lambda": []},
            {"kappa": [{"i": 0, "j": 1, "value": [[1, "1"]]}], "lambda": []},
            {"kappa": [{"i": 0, "j": 1, "value": [[0, "1"], [1, "1"]]}],
             "lambda": []},
        ]

    def test_cap_exceeded(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc(
            enumerate={"kappa_candidates": [[], [[0, "1"]], [[1, "1"]]],
                       "lambda_candidates": [[], [[0, "1"]]],
                       "cap": 10}))
        code, rep, _ = run_cli(capsys, ["enumerate", "--config", cfg])
        assert code == 2
        assert rep["error"]["type"] == "SearchSpaceTooLarge"
        assert "12 assignments exceed the cap of 10" in rep["error"]["detail"]

    def test_missing_enumerate_block(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        code, rep, _ = run_cli(capsys, ["enumerate", "--config", cfg])
        assert code == 2
        assert rep["error"]["type"] == "ConfigParseError"
        assert "no enumerate block" in rep["error"]["detail"]


    @pytest.mark.parametrize("spec,detail", [
        ({"kappa_candidates": [[[2, "1"]]]},
         "kappa_candidates[0]: group index out of range"),
        ({"lambda_candidates": [[], [[-1, "1"]]]},
         "lambda_candidates[1]: group index out of range"),
        ({"kappa_candidates": 1},
         "enumerate 'kappa_candidates' must be a list"),
    ], ids=["kappa_index", "lambda_index", "not_a_list"])
    def test_bad_candidates_are_a_setup_error(self, spec, detail, tmp_path,
                                              capsys):
        # an out-of-range group index reached PBWParams (exit 4) and a
        # non-list was iterated
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(enumerate=spec))
        code, rep, _ = run_cli(capsys, ["enumerate", "--config", cfg])
        assert code == 2
        assert rep["error"] == {"type": "ConfigParseError", "detail": detail}


class TestConfigErrors:
    def test_nonassociative_table(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc(
            group={"family": "table", "table": NONASSOCIATIVE_TABLE}))
        code, rep, _ = run_cli(capsys, ["verify", "--config", cfg])
        assert code == 2
        assert rep == {"command": "verify",
                       "error": {"type": "NotAssociative",
                                 "detail": "(1*1)*2 != 1*(1*2)"}}

    def test_missing_config_file(self, tmp_path, capsys):
        code, rep, _ = run_cli(capsys, ["verify", "--config",
                                        str(tmp_path / "nope.json")])
        assert code == 2
        assert rep["error"]["type"] == "FileNotFoundError"

    def test_unparseable_config_file(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        code, rep, _ = run_cli(capsys, ["verify", "--config", str(p)])
        assert code == 2
        assert rep["error"]["type"] == "ConfigParseError"
        assert "not valid JSON" in rep["error"]["detail"]

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        code, rep, _ = run_cli(capsys, ["verify", "--config", cfg,
                                        "--seed", "-1"])
        assert code == 2
        assert rep["error"] == {"type": "ConfigParseError",
                                "detail": "seed must be nonnegative"}

    def test_zero_max_degree_flag(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        code, rep, _ = run_cli(capsys, ["verify", "--config", cfg,
                                        "--max-degree", "0"])
        assert code == 2
        assert rep["error"] == {"type": "ConfigParseError",
                                "detail": "max degree must be positive"}

    def test_unknown_suite_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus", "--config", cfg])
        assert exc.value.code == 2
        capsys.readouterr()  # swallow the argparse usage message

    def test_unknown_map_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        with pytest.raises(SystemExit) as exc:
            main(["apply", "bogus", "--config", cfg])
        assert exc.value.code == 2
        capsys.readouterr()


#: Hostile config values that once escaped as uncaught exceptions (exit 1)
#: or were silently truncated; each must be a setup error.
HOSTILE_CONFIGS = {
    "params_zero_denominator": {"params": {"kappa": [
        {"i": 0, "j": 1, "value": [[0, "1/0"]]}]}},
    "matrix_zero_denominator": {"params": {}, "action": {
        "dim": 2, "matrices": {"1": [["0", "1/0"], ["1", "0"]]}}},
    "group_index_string": {"params": {"kappa": [
        {"i": 0, "j": 1, "value": [["a", "1"]]}]}},
    "group_index_float": {"params": {"kappa": [
        {"i": 0, "j": 1, "value": [[1.7, "1"]]}]}},
    "group_index_bool": {"params": {"lambda": [
        {"g": True, "i": 0, "value": [[1, "1"]]}]}},
    "variable_index_float": {"params": {"kappa": [
        {"i": 0.0, "j": 1, "value": [[1, "1"]]}]}},
    "coefficient_not_a_string": {"params": {"kappa": [
        {"i": 0, "j": 1, "value": [[0, 1]]}]}},
    "matrix_entry_not_a_string": {"params": {}, "action": {
        "dim": 2, "matrices": {"1": [[0, 1], [1, 0]]}}},
    "group_size_float": {"params": {}, "group": {
        "family": "cyclic", "n": 2.9}},
    "group_order_bool": {"params": {}, "group": {
        "family": "product_of_cyclics", "orders": [True, 2]}},
    "action_dim_float": {"params": {}, "action": {
        "dim": 2.5, "matrices": {"1": [["0", "1"], ["1", "0"]]}}},
    # above polynomials.MAX_ACTION_DIM: rejected before any matrix is built
    "action_dim_huge": {"params": {}, "action": {
        "dim": 10 ** 5, "matrices": {"1": [["0", "1"], ["1", "0"]]}}},
    # exited 4 (an IndexError, or a ValueError in verify)
    "action_dim_negative": {"params": {}, "group": {
        "family": "cyclic", "n": 1}, "action": {"dim": -1}},
    # found by tests/test_fuzz_cli.py; each exited 4 (internal error)
    "group_block_list": {"params": {}, "group": [1, "a"]},
    "group_block_string": {"params": {}, "group": "x"},
    "action_matrices_not_an_object": {"params": {}, "action": {
        "dim": 2, "matrices": True}},
    "kappa_not_a_list": {"params": {"kappa": 1.5}},
    "lambda_null": {"params": {"lambda": None}},
    # each was silently read as another table, with exit 0: the rows "01"
    # and "10" as lists of one-character scalars, the keys "01" and " 1"
    # as element 1
    "matrix_rows_strings": {"params": {}, "action": {
        "dim": 2, "matrices": {"1": ["01", "10"]}}},
    "matrix_key_leading_zero": {"params": {}, "action": {
        "dim": 2, "matrices": {"01": [["0", "1"], ["1", "0"]]}}},
    "matrix_key_padded": {"params": {}, "action": {
        "dim": 2, "matrices": {" 1": [["0", "1"], ["1", "0"]]}}},
}


@pytest.mark.parametrize("name", sorted(HOSTILE_CONFIGS))
def test_hostile_config_value_is_a_setup_error(name, tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json",
                     swap_q_config_doc(**HOSTILE_CONFIGS[name]))
    code, rep, _ = run_cli(capsys, ["pbw", "five", "--config", cfg])
    assert code == 2
    assert rep["error"]["type"] == "ConfigParseError"


#: Action tables whose entries were read before they were checked: a
#: partial table went straight to the closure under the group.  The first
#: two exited 4 (an IndexError); the index -1 was read as element 2 and the
#: 2 x 3 matrix cut to 2 x 2, both with exit 0.
ROTATION = [["0", "-1"], ["1", "-1"]]
MALFORMED_ACTIONS = {
    "index_5_on_z2": (2, {"5": [["0", "1"], ["1", "0"]]},
                      "group index 5 out of range"),
    "short_matrix_on_z3": (3, {"1": [["0", "1"]]},
                           "matrix for element 1 is not 2x2"),
    "index_-1_on_z3": (3, {"-1": ROTATION}, "group index -1 out of range"),
    "wide_matrix_on_z3": (3, {"1": [["0", "-1", "0"], ["1", "-1", "0"]]},
                          "matrix for element 1 is not 2x2"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ACTIONS))
def test_malformed_action_table_is_a_fast_setup_error(name, tmp_path,
                                                      capsys):
    order, matrices, detail = MALFORMED_ACTIONS[name]
    cfg = write_json(tmp_path / "c.json", swap_q_config_doc(
        params={}, group={"family": "cyclic", "n": order},
        action={"dim": 2, "matrices": matrices}))
    start = time.monotonic()
    code, rep, _ = run_cli(capsys, ["pbw", "five", "--config", cfg])
    assert time.monotonic() - start < 0.5
    assert code == 2
    assert rep["error"] == {"type": "ConfigParseError",
                            "detail": f"bad action block: {detail}"}


#: Chain elements with a negative degree in their tag.  The first three
#: exited 4 (an IndexError); ezg made up a barskew(0) image and diff an
#: empty one, both with exit 0.  Each must be a setup error.
HOSTILE_ELEMENTS = {
    "awg_barskew_n_-2": ("awg", {"complex": "barskew", "n": -2,
                                 "terms": [{"slots": []}]}),
    "pi_barskew_n_-2": ("pi", {"complex": "barskew", "n": -2,
                               "terms": [{"slots": []}]}),
    "pi_s_bars_j_-2": ("pi_s", {"complex": "bars", "j": -2,
                                "terms": [{"slots": []}]}),
    "ezg_twisted_j_-1": ("ezg", {"complex": "twisted", "i": 0, "j": -1,
                                 "D": "bar",
                                 "terms": [{"slots": [0, 0, [0, 0]]}]}),
    "diff_barskew_n_-2": ("diff", {"complex": "barskew", "n": -2,
                                   "terms": [{"slots": []}]}),
    "iota_twisted_i_-1": ("iota", {"complex": "twisted", "i": -1, "j": 0,
                                   "D": "koszul",
                                   "terms": [{"slots": [0, [0, 0], [],
                                                        [0, 0]]}]}),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_ELEMENTS))
def test_hostile_element_is_a_setup_error(name, tmp_path, capsys):
    map_name, doc = HOSTILE_ELEMENTS[name]
    cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
    inp = write_json(tmp_path / "el.json", doc)
    code, rep, _ = run_cli(capsys, ["apply", map_name, "--config", cfg,
                                    "--input", inp])
    assert code == 2
    assert rep["error"]["type"] == "ShapeMismatch"
    assert "must be nonnegative" in rep["error"]["detail"]


@pytest.mark.parametrize("map_name", ["awg", "diff"])
def test_tag_of_degree_1e9_is_a_fast_setup_error(map_name, tmp_path,
                                                 capsys, monkeypatch):
    # the slot count is checked before any per-slot layout is built
    forbid_slot_lists(monkeypatch)
    unit = [[0, 0], 0]
    cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
    inp = write_json(tmp_path / "el.json", {
        "complex": "barskew", "n": 10 ** 9,
        "terms": [{"slots": [unit, unit, unit]}]})
    start = time.monotonic()
    code, rep, _ = run_cli(capsys, ["apply", map_name, "--config", cfg,
                                    "--input", inp])
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert rep["error"] == {
        "type": "ShapeMismatch",
        "detail": "('barskew', 1000000000) expects 1000000002 slots, got 3"}


@pytest.mark.parametrize("cap", ["abc", 1.7, True])
def test_enumerate_cap_must_be_an_integer(cap, tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", swap_q_config_doc(
        enumerate={"kappa_candidates": [[], [[0, "1"]]], "cap": cap}))
    code, rep, _ = run_cli(capsys, ["enumerate", "--config", cfg])
    assert code == 2
    assert rep["error"] == {"type": "ConfigParseError",
                            "detail": "enumerate cap must be an integer"}


@pytest.mark.parametrize("group", [
    {"family": "cyclic", "n": 1000},
    {"family": "symmetric", "n": 8},
    {"family": "product_of_cyclics", "orders": [10, 10, 10]},
    {"table": [[0]] * 121},
], ids=["cyclic", "symmetric", "product_of_cyclics", "table"])
def test_oversized_group_is_a_setup_error(group, tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", swap_q_config_doc(group=group))
    code, rep, _ = run_cli(capsys, ["pbw", "oracle", "--config", cfg])
    assert code == 2
    assert rep["error"]["type"] == "ConfigParseError"
    assert "exceeds the cap of 120" in rep["error"]["detail"]


@pytest.mark.parametrize("dim", [MAX_ACTION_DIM + 1, 10 ** 5])
def test_oversized_action_is_a_setup_error(dim, tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", swap_q_config_doc(
        group={"family": "cyclic", "n": 1}, action={"dim": dim}))
    code, rep, _ = run_cli(capsys, ["pbw", "five", "--config", cfg])
    assert code == 2
    assert rep["error"]["type"] == "ConfigParseError"
    assert f"action dim {dim} exceeds the cap of 16" in rep["error"]["detail"]


def test_oversized_modulus_is_a_setup_error(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", swap_q_config_doc(
        field="GF(3317044064679887385961981)"))
    code, rep, _ = run_cli(capsys, ["verify", "--config", cfg])
    assert code == 2
    assert rep["error"]["type"] == "ConfigParseError"
    assert "too large" in rep["error"]["detail"]


class TestReportOutput:
    def test_reports_are_byte_deterministic(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(budgets=SMALL_BUDGETS))
        argv = ["verify", "complexes", "--config", cfg, "--seed", "3"]
        _, _, out1 = run_cli(capsys, argv)
        _, _, out2 = run_cli(capsys, argv)
        assert out1 == out2
        assert out1.endswith("\n") and out1.count("\n") == 1

    def test_different_seed_changes_the_report(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         swap_q_config_doc(budgets=SMALL_BUDGETS))
        base = ["verify", "complexes", "--config", cfg]
        _, rep1, out1 = run_cli(capsys, base + ["--seed", "3"])
        _, rep2, out2 = run_cli(capsys, base + ["--seed", "4"])
        assert out1 != out2
        assert (rep1["seed"], rep2["seed"]) == (3, 4)

    def test_json_flag_duplicates_stdout(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        dest = tmp_path / "report.json"
        code, _, out = run_cli(capsys, ["verify", "complexes", "--config",
                                        cfg, "--json", str(dest)])
        assert code == 0
        assert dest.read_text() == out

    def test_json_flag_written_even_on_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", swap_q_config_doc())
        dest = tmp_path / "report.json"
        code, rep, out = run_cli(capsys, ["pbw", "--config", cfg,
                                          "--json", str(dest)])
        assert code == 2
        assert rep["error"]["type"] == "MissingParams"
        assert dest.read_text() == out

    def test_keys_sorted_and_compact(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json",
                         neg_id_q_config_doc(params=KAPPA_G))
        _, _, out = run_cli(capsys, ["pbw", "five", "--config", cfg])
        body = json.loads(out)
        assert out == json.dumps(body, sort_keys=True,
                                 separators=(",", ":")) + "\n"
