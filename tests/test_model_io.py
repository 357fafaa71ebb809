"""Bit-exact persistence round-trips for every model family, and the model
file against ``json.dumps``."""

import dataclasses
import functools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bsmguard.bsm import DataError, StandardizationParams
from bsmguard.ml import fit_family
from bsmguard.model_io import load_model, save_model

import reference


@functools.cache
def fitted(family):
    """The family's model fitted on ``reference.model_data()``, shared by this module's tests."""
    X, y = reference.model_data()
    return fit_family(family, reference.MODEL_PARAMS[family], X, y, seed=3)


@pytest.mark.parametrize("family", sorted(reference.MODEL_PARAMS))
def test_roundtrip_bit_exact_predictions(tmp_path, family):
    model = fitted(family)
    std = StandardizationParams(mean=(1.25, -0.5), stdev=(2.0, 0.125))
    path = tmp_path / "model.json"
    save_model(path, model, std, seed=3, test_fraction=0.2)

    loaded, std_back, seed_back, frac_back = load_model(path)
    assert std_back == std
    assert seed_back == 3
    assert frac_back == 0.2
    assert loaded.family == family
    assert loaded.params == model.params

    Q = np.random.default_rng(9).normal(0, 1.5, size=(50, 2))
    assert np.array_equal(loaded.predict_scores(Q), model.predict_scores(Q))


def test_saved_file_is_versioned_json(tmp_path):
    X, y = reference.model_data()
    model = fit_family("cart", reference.MODEL_PARAMS["cart"], X, y, seed=0)
    path = tmp_path / "model.json"
    save_model(path, model, StandardizationParams((0.0, 0.0), (1.0, 1.0)), 0, 0.2)
    text = path.read_text()
    assert '"format": "bsmguard-model"' in text
    assert '"version": 1' in text


def saved_doc(path, family):
    model = fitted(family)
    save_model(path, model, StandardizationParams((0.0, 0.0), (1.0, 1.0)), 3, 0.2)
    return json.loads(path.read_text())


# Where each family's file gets a non-finite number: a KNN training
# feature, the NN's output bias, a forest threshold, a standardizer mean.
NON_FINITE_SPOTS = {
    "knn": lambda doc: doc["payload"]["train_features"][3].__setitem__(1, float("nan")),
    "nn": lambda doc: doc["payload"].__setitem__("b_out", float("nan")),
    "rf": lambda doc: doc["payload"]["trees"][2].__setitem__("threshold", float("inf")),
    "cart": lambda doc: doc["standardizer"]["mean"].__setitem__(0, float("-inf")),
}


@pytest.mark.parametrize("family", sorted(NON_FINITE_SPOTS))
def test_non_finite_number_rejected(tmp_path, family):
    path = tmp_path / "model.json"
    doc = saved_doc(path, family)
    NON_FINITE_SPOTS[family](doc)
    path.write_text(json.dumps(doc))  # json writes NaN, Infinity, -Infinity
    with pytest.raises(DataError, match=f"{path}: non-finite number"):
        load_model(path)


# Where each family's payload gets an overflowing literal: a KNN training
# feature, an NN hidden weight, a forest node's impurity, a cart
# threshold. json reads 1e999 as inf without calling parse_constant.
MARK = 0.123456789
OVERFLOW_SPOTS = {
    "knn": lambda doc: doc["payload"]["train_features"][3].__setitem__(1, MARK),
    "nn": lambda doc: doc["payload"]["w_hidden"][1].__setitem__(0, MARK),
    "rf": lambda doc: doc["payload"]["trees"][2]["left"].__setitem__("impurity", MARK),
    "cart": lambda doc: doc["payload"]["tree"]["right"].__setitem__("threshold", MARK),
}


@pytest.mark.parametrize("spot", ["payload", "standardizer"])
@pytest.mark.parametrize("family", sorted(OVERFLOW_SPOTS))
def test_overflowing_literal_rejected(tmp_path, family, spot):
    path = tmp_path / "model.json"
    doc = saved_doc(path, family)
    if spot == "payload":
        OVERFLOW_SPOTS[family](doc)
    else:
        doc["standardizer"]["mean"][1] = MARK
    text = json.dumps(doc)
    assert text.count(repr(MARK)) == 1
    path.write_text(text.replace(repr(MARK), "1e999"))
    with pytest.raises(DataError, match=f"{path}: malformed model document.*finite"):
        load_model(path)


def off_zero_path_split(tree):
    """A split node that the all-zero row, load's one scoring probe, never reaches."""
    node = tree
    while "feature" in node:
        taken, other = ("left", "right") if 0.0 <= node["threshold"] else ("right", "left")
        if "feature" in node[other]:
            return node[other]
        node = node[taken]
    raise AssertionError("every split lies on the zero row's path")


@pytest.mark.parametrize("field, value", [
    ("feature", 2), ("feature", 7), ("feature", -1), ("feature", 1.0), ("feature", True),
    ("feature", "0"), ("threshold", None), ("threshold", "0.5"),
])
def test_tree_node_out_of_range_rejected(tmp_path, field, value):
    path = tmp_path / "model.json"
    doc = saved_doc(path, "cart")
    off_zero_path_split(doc["payload"]["tree"])[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"{path}: malformed model document"):
        load_model(path)


@pytest.mark.parametrize("label", [7, -1, 1.5, 1.0, True, "1", None])
def test_knn_label_not_zero_or_one_rejected(tmp_path, label):
    # knn counts only label 1 as attack, so any other label would score as clean.
    path = tmp_path / "model.json"
    doc = saved_doc(path, "knn")
    doc["payload"]["train_labels"][5] = label
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"{path}: malformed model document.*integers 0 or 1"):
        load_model(path)


@pytest.mark.parametrize("probs", [[0.0, 7.0], [-0.5, 1.5], [1.0], [0.5, 0.25, 0.25]])
def test_tree_leaf_probabilities_out_of_range_rejected(tmp_path, probs):
    # A leaf's second probability is the row's attack score, which must lie in [0, 1].
    path = tmp_path / "model.json"
    doc = saved_doc(path, "cart")
    leaf = off_zero_path_split(doc["payload"]["tree"])
    while "feature" in leaf:
        leaf = leaf["left"]
    leaf["probs"] = probs
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"{path}: malformed model document.*not two numbers in"):
        load_model(path)


@pytest.mark.parametrize("family", ["cart", "rf"])
@pytest.mark.parametrize("field, value, message", [
    ("counts", [1.0, 2.0, 3.0], "counts .* are not two finite numbers of at least 0"),
    ("counts", [1.0], "counts .* are not two finite numbers of at least 0"),
    ("counts", [-1.0, 2.0], "counts .* are not two finite numbers of at least 0"),
    ("n_samples", 2.5, "n_samples 2.5 is not a positive int"),
    ("n_samples", True, "n_samples True is not a positive int"),
    ("n_samples", 0, "n_samples 0 is not a positive int"),
    ("impurity", -7.0, "impurity -7.0 is not finite and at least 0"),
])
def test_tree_node_numbers_cart_fit_cannot_write_are_rejected(tmp_path, family, field, value,
                                                              message):
    # A split off the zero row's path, so load's scoring probe never reads it.
    path = tmp_path / "model.json"
    doc = saved_doc(path, family)
    payload = doc["payload"]
    off_zero_path_split(payload["tree"] if family == "cart" else payload["trees"][1])[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"{path}: malformed model document.*{message}"):
        load_model(path)


@pytest.mark.parametrize("params, message", [
    ({"k": True}, "knn parameter 'k': True is out of range"),
    ({"k": 2.5}, "knn parameter 'k': 2.5 is out of range"),
    ({"k": 5, "kk": 1}, r"unknown knn parameter 'kk'; did you mean 'k'\?"),
    ({"smote_k": 5}, "knn needs parameter 'k'"),
])
def test_params_the_grid_would_reject_are_rejected(tmp_path, params, message):
    # The checks ``train --grid`` applies: a bool k used to score as k=1.
    path = tmp_path / "model.json"
    doc = saved_doc(path, "knn")
    doc["params"] = params
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"{path}: malformed model document.*{message}"):
        load_model(path)


@pytest.mark.parametrize("family, edit, message", [
    ("nn", lambda p: p.__setitem__("b_hidden", p["b_hidden"][:1]),
     r"nn b_hidden has shape \(1,\), not \(10,\)"),
    ("nn", lambda p: p.__setitem__("b_hidden", p["b_hidden"][0]),
     r"nn b_hidden has shape \(\), not \(10,\)"),
    ("nn", lambda p: p.__setitem__("b_out", [[p["b_out"]]]),
     r"nn b_out has shape \(1, 1\), not \(\)"),
    ("knn", lambda p: p.__setitem__("train_features", [row[:1] for row in p["train_features"]]),
     r"knn train_features \(\d+, 1\) and train_labels \(\d+,\) are not \(n, 2\) and \(n,\)"),
    ("knn", lambda p: p.__setitem__("train_labels", p["train_labels"][:1]),
     r"knn train_features \(\d+, 2\) and train_labels \(1,\) are not \(n, 2\) and \(n,\)"),
], ids=["b_hidden-cut", "b_hidden-number", "b_out-nested", "features-cut", "labels-cut"])
def test_payload_arrays_of_the_wrong_shape_are_rejected(tmp_path, family, edit, message):
    # numpy broadcasts each of these, so the model would load and score.
    path = tmp_path / "model.json"
    doc = saved_doc(path, family)
    edit(doc["payload"])
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"{path}: malformed model document.*{message}"):
        load_model(path)


def test_nn_params_without_n_hidden_take_the_width_of_w_hidden(tmp_path):
    # A grid that does not set n_hidden trains at nn_train's default width.
    path = tmp_path / "model.json"
    doc = saved_doc(path, "nn")
    del doc["params"]["n_hidden"]
    path.write_text(json.dumps(doc))
    assert load_model(path)[0].state.w_hidden.shape == (2, 10)
    doc["payload"]["w_out"].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=rf"{path}: .*nn w_out has shape \(9,\), not \(10,\)"):
        load_model(path)


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError, match="not a bsmguard-model"):
        load_model(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "bsmguard-model", "version": 99}')
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_save_is_deterministic(tmp_path):
    X, y = reference.model_data(4)
    model = fit_family("rf", reference.MODEL_PARAMS["rf"], X, y, seed=5)
    std = StandardizationParams((0.0, 0.0), (1.0, 1.0))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_model(p1, model, std, 5, 0.2)
    save_model(p2, model, std, 5, 0.2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("family", sorted(reference.MODEL_PARAMS))
def test_labels_are_scores_cut_at_half(family):
    # evaluate_model takes labels from one scoring pass with this cut.
    model = fitted(family)
    Q = np.random.default_rng(9).normal(0, 1.5, size=(200, 2))
    labels = model.predict_labels(Q)
    assert 0 < labels.sum() < len(labels)
    assert labels.tolist() == (model.predict_scores(Q) > 0.5).astype(int).tolist()


def test_empty_forest_rejected(tmp_path):
    path = tmp_path / "model.json"
    doc = saved_doc(path, "rf")
    doc["payload"]["trees"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"{path}: malformed model document.*at least one tree"):
        load_model(path)


# ---------------------------------------------------------------------------
# The file against reference.model_text: json.dumps(indent=1, sort_keys=True)
# ---------------------------------------------------------------------------


DEEP_RF = {"n_trees": 6, "max_depth": 90, "min_split": 2, "min_leaf": 1}
STD = StandardizationParams(mean=(1.25, -0.5), stdev=(2.0, 0.125))

#: What ``save_model(path, model, STD, 3, 0.2)`` writes, by ``json.dumps``.
oracle_text = functools.partial(reference.model_text, std=STD, seed=3, test_fraction=0.2)


def overlap_model(family, params):
    X, y = reference.model_data(7, n=240)
    y = np.where(np.random.default_rng(8).random(len(y)) < 0.3, 1 - y, y)  # overlapping classes
    return fit_family(family, params, X, y, seed=3)


@functools.cache
def tree_model(family):
    return overlap_model(family, reference.MODEL_PARAMS[family])


@pytest.mark.parametrize("family, params",
                         [*sorted(reference.MODEL_PARAMS.items()), ("rf", DEEP_RF)])
def test_saved_file_is_json_dumps_of_the_oracle_doc(tmp_path, family, params):
    model = overlap_model(family, params)
    path = tmp_path / "model.json"
    save_model(path, model, STD, seed=3, test_fraction=0.2)
    assert path.read_text() == oracle_text(model)


# Keys and strings reach past ASCII: accents, CJK, astral characters, and
# the control characters json escapes, NUL (the trees' marker) among them.
TEXT = st.text(st.one_of(st.characters(), st.sampled_from("\x00\x1f\x7f\"\\\n\t\u00e9\u4e2d\U0001f600")),
               max_size=6)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7,
                     math.nan, math.inf, -math.inf]),
    TEXT,
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=16,
)


@given(st.sampled_from(["cart", "rf"]), st.dictionaries(TEXT, JSON_VALUES, max_size=4))
@example("rf", {"\u00e9\x1f\"": {"\U0001f600": [{}], "": ((), [1.5, -0.0, math.nan])}, "a": 2**64})
@example("cart", {"note": "\x000"})
@example("rf", {"\\u0000": 1})
def test_saved_file_is_json_dumps_of_the_oracle_doc_for_any_params(family, params):
    # The file is json's text with each tree in place, unless that text
    # holds the trees' marker escape, \u0000: then nothing is written.
    model = dataclasses.replace(tree_model(family), params=params)
    expected = oracle_text(model)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        if "\\u0000" in expected:
            with pytest.raises(ValueError, match="cannot hold a NUL"):
                save_model(path, model, STD, seed=3, test_fraction=0.2)
            assert not os.path.exists(path)
        else:
            save_model(path, model, STD, seed=3, test_fraction=0.2)
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == expected


@pytest.mark.parametrize("family", ["cart", "rf"])
@pytest.mark.parametrize("params, error", [
    # A NUL after the tree's place would take the tree's text without the guard.
    ({"note": "\x000"}, ValueError),
    ({"\x00": 1}, ValueError),
    ({"a": np.float32(1)}, TypeError),
    ({"a": [object()]}, TypeError),
    ({(1, 2): 3}, TypeError),
])
def test_what_a_model_document_cannot_hold_is_rejected_and_no_file_written(
        tmp_path, family, params, error):
    model = dataclasses.replace(tree_model(family), params=params)
    path = tmp_path / "model.json"
    with pytest.raises(error):
        save_model(path, model, STD, seed=3, test_fraction=0.2)
    assert not path.exists()
