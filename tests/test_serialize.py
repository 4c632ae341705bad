"""Wire formats: run configurations, parameter tables, chain elements."""

import itertools
import json
import random

import pytest

from skewchain.complexes import (
    ChainElement,
    ShapeMismatch,
    expand_term,
    free_terms,
    random_barskew_slots,
    random_twisted_slots,
)
from skewchain.fields import NonPrimeModulus, QQ
from skewchain.groups import NoIdentity, NotAssociative, NotLatinSquare
from skewchain.pbw import PBWParams
from skewchain.serialize import (
    DEFAULT_BUDGETS,
    ConfigParseError,
    RunConfig,
    canonical_json,
    element_from_json,
    element_to_json,
    params_from_config,
    params_to_config,
    tag_from_json,
    tag_to_json,
    vector_to_json,
)

from skewchain.verify import random_term

from helpers import (
    NONASSOCIATIVE_TABLE,
    s3_perm_q,
    s3_refl_q,
    swap_q,
    swap_q_config_doc,
    v4_gf2,
    z3_unipotent_gf3,
)

Z, X0, X1 = (0, 0), (1, 0), (0, 1)
UNIT = (Z, 0)


class TestRunConfig:
    def test_minimal_document(self):
        cfg = RunConfig.from_dict(swap_q_config_doc())
        A = cfg.algebra
        assert A.field is QQ
        assert A.group.order == 2
        assert A.nvars == 2
        assert cfg.params is None
        assert cfg.budgets == DEFAULT_BUDGETS
        assert cfg.enumerate_spec is None

    def test_round_trips_through_file(self, tmp_path):
        doc = swap_q_config_doc(
            params={"kappa": [{"i": 0, "j": 1, "value": [[0, "1"]]}]},
            budgets={"seed": 7, "samples": 3},
        )
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        cfg = RunConfig.from_file(str(path))
        assert cfg.params.kappa == {(0, 1): {0: 1}}
        assert cfg.budgets["seed"] == 7
        assert cfg.budgets["samples"] == 3
        assert cfg.budgets["j_max"] == DEFAULT_BUDGETS["j_max"]

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"field": "Q",')
        with pytest.raises(ConfigParseError, match="not valid JSON"):
            RunConfig.from_file(str(path))

    def test_document_must_be_object(self):
        with pytest.raises(ConfigParseError, match="JSON object"):
            RunConfig.from_dict(["Q"])

    @pytest.mark.parametrize("missing", ["field", "group", "action"])
    def test_missing_blocks(self, missing):
        doc = swap_q_config_doc()
        del doc[missing]
        with pytest.raises(ConfigParseError, match=f"missing the '{missing}'"):
            RunConfig.from_dict(doc)

    def test_bad_field_descriptor(self):
        with pytest.raises(ConfigParseError):
            RunConfig.from_dict(swap_q_config_doc(field="R"))

    def test_nonprime_modulus_keeps_its_type(self):
        with pytest.raises(NonPrimeModulus):
            RunConfig.from_dict(swap_q_config_doc(field="GF(4)"))

    def test_group_table_errors_keep_their_types(self):
        doc = swap_q_config_doc(group={"table": NONASSOCIATIVE_TABLE})
        with pytest.raises(NotAssociative):
            RunConfig.from_dict(doc)
        doc = swap_q_config_doc(group={"table": [[0, 1], [1, 1]]})
        with pytest.raises(NotLatinSquare):
            RunConfig.from_dict(doc)
        doc = swap_q_config_doc(group={"table": [[1, 0], [0, 1]]})
        with pytest.raises(NoIdentity):
            RunConfig.from_dict(doc)

    def test_unknown_group_family(self):
        doc = swap_q_config_doc(group={"family": "dihedral", "n": 3})
        with pytest.raises(ConfigParseError, match="bad group block"):
            RunConfig.from_dict(doc)

    def test_bad_action_matrix(self):
        doc = swap_q_config_doc(
            action={"dim": 2, "matrices": {"1": [["0", "1"]]}}
        )
        with pytest.raises(ConfigParseError, match="bad action block"):
            RunConfig.from_dict(doc)

    def test_budget_validation(self):
        with pytest.raises(ConfigParseError, match="unknown budget keys"):
            RunConfig.from_dict(swap_q_config_doc(budgets={"depth": 3}))
        with pytest.raises(ConfigParseError, match="must be an integer"):
            RunConfig.from_dict(swap_q_config_doc(budgets={"seed": "0"}))
        with pytest.raises(ConfigParseError, match="must be an integer"):
            RunConfig.from_dict(swap_q_config_doc(budgets={"seed": True}))
        with pytest.raises(ConfigParseError, match="must be positive"):
            RunConfig.from_dict(
                swap_q_config_doc(budgets={"max_bar_degree": 0})
            )
        with pytest.raises(ConfigParseError, match="at most 100"):
            RunConfig.from_dict(
                swap_q_config_doc(budgets={"max_bar_degree": 101})
            )
        cfg = RunConfig.from_dict(
            swap_q_config_doc(budgets={"max_bar_degree": 100}))
        assert cfg.budgets["max_bar_degree"] == 100
        with pytest.raises(ConfigParseError, match="nonnegative"):
            RunConfig.from_dict(swap_q_config_doc(budgets={"samples": -1}))
        cfg = RunConfig.from_dict(swap_q_config_doc(budgets={"samples": 0}))
        assert cfg.budgets["samples"] == 0

    def test_enumerate_block_shape(self):
        cfg = RunConfig.from_dict(
            swap_q_config_doc(enumerate={"kappa_candidates": []})
        )
        assert cfg.enumerate_spec == {"kappa_candidates": []}
        with pytest.raises(ConfigParseError, match="enumerate block"):
            RunConfig.from_dict(swap_q_config_doc(enumerate=[1]))


class TestParamsWire:
    def test_duplicate_entries_accumulate_and_zeros_drop(self):
        A = swap_q()
        p = params_from_config(
            A,
            {"kappa": [{"i": 0, "j": 1,
                        "value": [[0, "1"], [0, "1"], [1, "0"]]}]},
        )
        assert p.kappa == {(0, 1): {0: 2}}
        q = params_from_config(
            A, {"kappa": [{"i": 0, "j": 1, "value": [[0, "1"], [0, "-1"]]}]}
        )
        assert q.is_zero()

    def test_bad_entries(self):
        A = swap_q()
        with pytest.raises(ConfigParseError, match="unknown params keys"):
            params_from_config(A, {"mu": []})
        with pytest.raises(ConfigParseError, match="bad kappa entry"):
            params_from_config(A, {"kappa": [{"i": 0}]})
        with pytest.raises(ConfigParseError, match="bad coefficient"):
            params_from_config(
                A, {"kappa": [{"i": 0, "j": 1, "value": [[0, "π"]]}]}
            )
        with pytest.raises(ConfigParseError, match="bad params block"):
            params_from_config(
                A, {"kappa": [{"i": 1, "j": 0, "value": [[0, "1"]]}]}
            )
        with pytest.raises(ConfigParseError, match="must be a list"):
            params_from_config(
                A, {"lambda": [{"g": 1, "i": 0, "value": {"0": "1"}}]}
            )

    @pytest.mark.parametrize("make", [swap_q, z3_unipotent_gf3, s3_refl_q],
                             ids=["swap_q", "z3_uni", "s3_refl"])
    def test_round_trip(self, make):
        A = make()
        rng = random.Random(41)
        for _ in range(10):
            p = PBWParams.random(A, rng)
            doc = params_to_config(p)
            back = params_from_config(A, doc)
            assert back.kappa == p.kappa and back.lam == p.lam
            # canonical ordering: both lists sorted by their index pairs
            assert [(e["i"], e["j"]) for e in doc["kappa"]] == \
                sorted((e["i"], e["j"]) for e in doc["kappa"])
            assert [(e["g"], e["i"]) for e in doc["lambda"]] == \
                sorted((e["g"], e["i"]) for e in doc["lambda"])
            assert canonical_json(doc) == canonical_json(
                params_to_config(back)
            )


class TestTags:
    @pytest.mark.parametrize("tag", [
        ("barskew", 3), ("barg", 2), ("bars", 1), ("koszul", 2),
        ("twisted", 1, 2, "bar"), ("twisted", 0, 1, "koszul"),
    ])
    def test_round_trip(self, tag):
        assert tag_from_json(tag_to_json(tag)) == tag

    def test_bad_tags(self):
        with pytest.raises(ShapeMismatch):
            tag_to_json(("spectral", 1))
        with pytest.raises(ShapeMismatch):
            tag_from_json({"complex": "spectral", "n": 1})
        with pytest.raises(ShapeMismatch):
            tag_from_json({"complex": "twisted", "i": 0, "j": 1, "D": "sym"})
        with pytest.raises(ShapeMismatch):
            tag_from_json({"complex": "barskew"})

    @pytest.mark.parametrize("doc", [
        {"complex": "barskew", "n": -1}, {"complex": "barg", "i": -2},
        {"complex": "bars", "j": -1}, {"complex": "koszul", "j": -1},
        {"complex": "twisted", "i": -1, "j": 0, "D": "bar"},
        {"complex": "twisted", "i": 0, "j": -1, "D": "koszul"},
    ])
    def test_negative_degrees(self, doc):
        with pytest.raises(ShapeMismatch, match="must be nonnegative"):
            tag_from_json(doc)


class TestElements:
    def roundtrip(self, A, el):
        (tag,) = el.parts
        doc = element_to_json(tag, el)
        assert element_from_json(A, doc) == (tag, el)
        return doc

    def test_barskew(self):
        A = swap_q()
        el = ChainElement.basis(A, ("barskew", 2),
                                ((X1, 1), (X0, 1), (Z, 1), UNIT))
        el.add_scaled(ChainElement.basis(
            A, ("barskew", 2), (UNIT, (X0, 0), (X1, 0), UNIT), coeff=-2
        ))
        doc = self.roundtrip(A, el)
        assert doc["complex"] == "barskew" and doc["n"] == 2

    def test_bars_koszul_barg(self):
        A = s3_refl_q()
        self.roundtrip(A, ChainElement.basis(A, ("bars", 2),
                                             (Z, (2, 0), X1, (0, 1))))
        self.roundtrip(A, ChainElement.basis(A, ("koszul", 2),
                                             (X0, (0, 1), Z)))
        self.roundtrip(A, ChainElement.basis(A, ("barg", 2), (1, 4, 5, 0)))

    def test_twisted_both_kinds(self):
        A = z3_unipotent_gf3()
        self.roundtrip(A, ChainElement.basis(
            A, ("twisted", 2, 1, "bar"), (0, 1, 2, 1, Z, X0, (1, 1))
        ))
        self.roundtrip(A, ChainElement.basis(
            A, ("twisted", 1, 2, "koszul"), (2, 1, 0, X0, (0, 1), Z)
        ))

    @pytest.mark.parametrize("make", [swap_q, s3_perm_q, v4_gf2],
                             ids=["swap_q", "s3_perm_q", "v4_gf2"])
    def test_round_trip_of_every_tag(self, make):
        # free terms and random terms whose outer slots are not units
        A = make()
        rng = random.Random(7)
        tags = [(kind, n) for kind in ("barskew", "barg", "bars", "koszul")
                for n in range(4)]
        tags += [("twisted", i, n - i, dkind) for n in range(4)
                 for i in range(n + 1) for dkind in ("bar", "koszul")]
        order = A.group.order
        for tag in tags:
            terms = list(itertools.islice(free_terms(A, tag, 2), 20))
            if not terms:
                continue
            kind = tag[0]
            for _ in range(10):
                if kind == "barskew":
                    slots = random_barskew_slots(A, tag[1], 2, rng,
                                                 free=False)
                elif kind == "twisted":
                    slots = random_twisted_slots(A, *tag[1:], 2, rng,
                                                 free=False)
                elif kind == "barg":
                    slots = ((rng.randrange(order),)
                             + tuple(rng.randrange(1, order)
                                     for _ in range(tag[1]))
                             + (rng.randrange(order),))
                else:
                    slots = random_term(A, kind, tag[1], 2, rng,
                                        free=False)[1]
                terms.append(slots)
            coeffs = [A.field.from_int(k % 3 + 1) for k in range(len(terms))]
            el = ChainElement(A, {tag: {slots: c for slots, c
                                        in zip(terms, coeffs) if c != 0}})
            assert element_from_json(A, element_to_json(tag, el)) == \
                (tag, el), tag

    def test_unit_bar_slots_die_on_parse(self):
        A = swap_q()
        tag, el = element_from_json(A, {
            "complex": "barg", "i": 1,
            "terms": [{"slots": [0, 0, 1], "coeff": "3"}],
        })
        assert tag == ("barg", 1) and el.is_zero()
        _tag, el2 = element_from_json(A, {
            "complex": "barskew", "n": 1,
            "terms": [{"slots": [[[0, 0], 1], [[0, 0], 0], [[0, 0], 0]],
                       "coeff": "1"}],
        })
        assert el2.is_zero()

    def test_coeff_defaults_to_one_and_accumulates(self):
        A = swap_q()
        _tag, el = element_from_json(A, {
            "complex": "bars", "j": 1,
            "terms": [{"slots": [[0, 0], [1, 0], [0, 0]]},
                      {"slots": [[0, 0], [1, 0], [0, 0]], "coeff": "1/2"}],
        })
        assert el.parts == {("bars", 1): {(Z, X0, Z): QQ.parse("3/2")}}

    def test_shape_errors(self):
        A = swap_q()
        with pytest.raises(ShapeMismatch, match="expects 3 slots"):
            element_from_json(A, {
                "complex": "bars", "j": 1,
                "terms": [{"slots": [[0, 0], [1, 0]]}],
            })
        with pytest.raises(ShapeMismatch, match="exponents"):
            element_from_json(A, {
                "complex": "bars", "j": 1,
                "terms": [{"slots": [[0, 0], [1], [0, 0]]}],
            })
        with pytest.raises(ShapeMismatch, match="group index"):
            element_from_json(A, {
                "complex": "barg", "i": 1,
                "terms": [{"slots": [0, 5, 0]}],
            })
        with pytest.raises(ShapeMismatch, match="group index"):
            element_from_json(A, {
                "complex": "barg", "i": 1,
                "terms": [{"slots": [0, True, 0]}],
            })
        with pytest.raises(ShapeMismatch, match="strictly increasing"):
            element_from_json(A, {
                "complex": "koszul", "j": 2,
                "terms": [{"slots": [[0, 0], [1, 0], [0, 0]]}],
            })
        with pytest.raises(ShapeMismatch, match="bad coefficient"):
            element_from_json(A, {
                "complex": "bars", "j": 1,
                "terms": [{"slots": [[0, 0], [1, 0], [0, 0]],
                           "coeff": "one"}],
            })
        with pytest.raises(ShapeMismatch, match="bad term entry"):
            element_from_json(A, {
                "complex": "bars", "j": 1, "terms": [[1, 2, 3]],
            })

    def test_serialization_is_canonical(self):
        # same element assembled in two different orders -> same bytes
        A = swap_q()
        a = expand_term(A, ("bars", 1), ({Z: 1, X0: 2}, X1, Z))
        b = expand_term(A, ("bars", 1), (X0, X1, Z), coeff=2)
        b.add_scaled(expand_term(A, ("bars", 1), (Z, X1, Z)))
        assert a == b
        assert canonical_json(element_to_json(("bars", 1), a)) == \
            canonical_json(element_to_json(("bars", 1), b))

    def test_vector_to_json(self):
        from skewchain.chainmaps import awg

        A = swap_q()
        x = ChainElement.basis(A, ("barskew", 1), (UNIT, (X0, 1), UNIT))
        doc = vector_to_json(awg(x))
        comps = doc["components"]
        assert [c["complex"] for c in comps] == ["twisted", "twisted"]
        assert {(c["i"], c["j"]) for c in comps} == {(0, 1), (1, 0)}
