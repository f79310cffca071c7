"""Case parsing, validation, and DC measurement-matrix assembly."""

import copy
import json
from importlib import resources

import numpy as np
import pytest
from oracles import dc_matrix

from gridrisk.attack import perturb_model
from gridrisk.network import (
    CaseValidationError,
    UnobservableError,
    build_model,
    bundled_case_names,
    load_bundled_case,
    load_case,
    load_case_file,
    matrix_rank,
    synthesize_measurements,
)

# hand-derived chain H (reference bus 1, states theta_2 theta_3, unit weights):
# rows follow the case's measurement plan
CHAIN3_H = np.array(
    [
        [-1.0, 0.0],  # flow_from line 1-2
        [1.0, -1.0],  # flow_from line 2-3
        [1.0, 0.0],  # flow_to line 1-2
        [-1.0, 1.0],  # flow_to line 2-3
        [-1.0, 0.0],  # injection bus 1
        [2.0, -1.0],  # injection bus 2
        [-1.0, 1.0],  # injection bus 3
    ]
)


def _chain3_doc() -> dict:
    return {
        "base_mva": 100.0,
        "buses": [{"id": 1, "reference": True}, {"id": 2}, {"id": 3}],
        "lines": [
            {"id": 1, "from": 1, "to": 2, "reactance": 1.0},
            {"id": 2, "from": 2, "to": 3, "reactance": 1.0},
        ],
        "measurements": [
            {"kind": "flow_from", "element": 1, "sigma": 0.02},
            {"kind": "flow_from", "element": 2, "sigma": 0.02},
            {"kind": "flow_to", "element": 1, "sigma": 0.02},
            {"kind": "flow_to", "element": 2, "sigma": 0.02},
            {"kind": "injection", "element": 1, "sigma": 0.02},
            {"kind": "injection", "element": 2, "sigma": 0.02},
            {"kind": "injection", "element": 3, "sigma": 0.02},
        ],
    }


def test_chain3_matrix_matches_hand_derivation(chain3):
    assert chain3.m == 7 and chain3.n == 2
    np.testing.assert_allclose(chain3.H, CHAIN3_H, atol=1e-12)


def test_ring4_weighted_rows(ring4):
    assert ring4.m == 12 and ring4.n == 3
    # line 1 joins the reference bus to bus 2 with weight 1/0.5
    np.testing.assert_allclose(ring4.H[0], [-2.0, 0.0, 0.0], atol=1e-12)
    # flow_to rows are the negated flow_from rows, in plan order
    np.testing.assert_allclose(ring4.H[4:8], -ring4.H[0:4], atol=1e-12)


def test_ieee14_shape_and_plan(ieee14):
    assert (ieee14.m, ieee14.n, ieee14.n_t) == (54, 13, 20)
    assert matrix_rank(ieee14.H) == 13
    kinds = [k for k, _ in ieee14.measurement_labels]
    assert kinds[:20] == ["flow_from"] * 20
    assert kinds[20:40] == ["flow_to"] * 20
    assert kinds[40:] == ["injection"] * 14
    np.testing.assert_array_equal(ieee14.injection_rows(), np.arange(40, 54))


def test_injection_rows_sum_incident_flows(ieee14):
    # a bus injection equals the sum of from-end flows on incident lines,
    # signed by orientation; spot-check via the incidence structure
    flows = ieee14.line_weights[:, None] * ieee14.incidence.T
    inj = ieee14.injection_rows()
    np.testing.assert_allclose(ieee14.H[inj], ieee14.line_map[inj] @ flows, atol=1e-12)


def test_model_matrices_match_per_row_builder():
    # the true and the attacker's H against a row-by-row DC build from the
    # case document, at the document's and at the perturbed reactances
    for name in bundled_case_names():
        doc = json.loads(
            resources.files("gridrisk.cases").joinpath(f"{name}.json").read_text())
        model = build_model(load_case(doc))
        np.testing.assert_allclose(model.H, dc_matrix(doc), rtol=1e-13, atol=0)
        for fraction, seed in ((0.2, 0), (0.5, 7), (0.9, 12)):
            factors = 1.0 + np.random.default_rng(seed).uniform(
                -fraction, fraction, size=len(doc["lines"]))
            reactances = [ln["reactance"] / f for ln, f in zip(doc["lines"], factors)]
            np.testing.assert_allclose(perturb_model(model, fraction, seed).H,
                                       dc_matrix(doc, reactances), rtol=1e-13, atol=0)


def test_bundled_names():
    assert bundled_case_names() == ("chain3", "ieee14", "ring4")
    with pytest.raises(CaseValidationError):
        load_bundled_case("missing")


def test_load_case_accepts_dict_and_str():
    doc = _chain3_doc()
    from_dict = build_model(load_case(doc))
    from_str = build_model(load_case(json.dumps(doc)))
    np.testing.assert_array_equal(from_dict.H, from_str.H)


def test_load_case_file(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(_chain3_doc()))
    assert build_model(load_case_file(path)).m == 7


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.__setitem__("base_mva", 0.0), "base_mva"),
        (lambda d: d.__setitem__("buses", []), "no buses"),
        (lambda d: d["buses"].append({"id": 1}), "duplicate bus"),
        (lambda d: d["buses"][1].__setitem__("reference", True), "reference"),
        (lambda d: d["buses"][0].pop("reference"), "reference"),
        (lambda d: d["lines"][0].__setitem__("to", 9), "endpoint"),
        (lambda d: d["lines"][0].__setitem__("to", 1), "coincide"),
        (lambda d: d["lines"][0].__setitem__("reactance", -1.0), "reactance"),
        (lambda d: d["lines"].append(dict(d["lines"][0])), "duplicate line"),
        (lambda d: d.__setitem__("measurements", []), "empty"),
        (lambda d: d["measurements"][0].__setitem__("kind", "voltage"), "kind"),
        (lambda d: d["measurements"][0].__setitem__("element", 7), "unknown line"),
        (lambda d: d["measurements"][4].__setitem__("element", 9), "unknown bus"),
        (lambda d: d["measurements"][0].__setitem__("sigma", 0.0), "sigma"),
        (lambda d: d.__setitem__("extra", 1), "unknown keys"),
        (lambda d: d["buses"][0].__setitem__("name", "x"), "unknown keys"),
        (lambda d: d["buses"][0].__setitem__("id", "x"), "integer, not str"),
        (lambda d: d["buses"][1].__setitem__("id", 1.5), "integer, not float"),
        (lambda d: d["measurements"][0].__setitem__("element", True),
         "integer, not bool"),
        (lambda d: d["measurements"][0].__setitem__("sigma", "abc"), "number, not str"),
        (lambda d: d["lines"][0].__setitem__("reactance", None),
         "number, not NoneType"),
        (lambda d: d.__setitem__("base_mva", True), "number, not bool"),
        (lambda d: d.__setitem__("buses", 5), "list, not int"),
        (lambda d: d["buses"].__setitem__(1, 5), "object, not int"),
        (lambda d: d["buses"][0].__setitem__("reference", "false"),
         "true or false, not str"),
    ],
)
def test_validation_rejects_bad_documents(mutate, fragment):
    doc = copy.deepcopy(_chain3_doc())
    mutate(doc)
    with pytest.raises(CaseValidationError, match=fragment):
        load_case(doc)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d, x: d.__setitem__("base_mva", x), "base_mva"),
        (lambda d, x: d["lines"][1].__setitem__("reactance", x), "reactance"),
        (lambda d, x: d["measurements"][3].__setitem__("sigma", x), "sigma"),
    ],
)
def test_validation_rejects_non_finite_numbers(mutate, fragment, bad):
    # json reads the Infinity and NaN literals, so the check must be explicit
    doc = copy.deepcopy(_chain3_doc())
    mutate(doc, bad)
    with pytest.raises(CaseValidationError, match=fragment):
        load_case(json.dumps(doc))


def test_not_json_rejected():
    with pytest.raises(CaseValidationError):
        load_case("{ not json")
    with pytest.raises(CaseValidationError):
        load_case(json.dumps([1, 2]))


def test_unobservable_plan_rejected():
    doc = _chain3_doc()
    doc["measurements"] = [{"kind": "flow_from", "element": 1, "sigma": 0.02}]
    with pytest.raises(UnobservableError):
        build_model(load_case(doc))


def test_model_arrays_are_locked(chain3):
    with pytest.raises(ValueError):
        chain3.H[0, 0] = 5.0
    with pytest.raises(ValueError):
        chain3.sigma[0] = 1.0


def test_matrix_rank_edge_cases():
    assert matrix_rank(np.zeros((3, 2))) == 0
    assert matrix_rank(np.eye(4)) == 4
    assert matrix_rank(np.ones((5, 3))) == 1


def test_synthesize_deterministic(chain3):
    x = np.array([0.1, -0.2])
    a = synthesize_measurements(chain3, x, seed=5)
    b = synthesize_measurements(chain3, x, seed=5)
    c = synthesize_measurements(chain3, x, seed=6)
    np.testing.assert_array_equal(a.z, b.z)
    assert not np.array_equal(a.z, c.z)


def test_synthesize_noise_scale_zero_is_exact(chain3):
    x = np.array([0.3, 0.7])
    snap = synthesize_measurements(chain3, x, seed=1, noise_scale=0.0)
    np.testing.assert_allclose(snap.z, chain3.H @ x, atol=0.0)


def test_synthesize_noise_magnitude(ieee14):
    x = np.zeros(ieee14.n)
    draws = np.stack(
        [synthesize_measurements(ieee14, x, seed=s).z for s in range(400)]
    )
    std = draws.std(axis=0)
    np.testing.assert_allclose(std, ieee14.sigma, rtol=0.25)


def test_synthesize_shape_check(chain3):
    with pytest.raises(ValueError):
        synthesize_measurements(chain3, np.zeros(3), seed=0)
