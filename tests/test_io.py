"""File bytes and loader errors of the CSV and model codecs.

The references here are the straightforward forms of each file: a
``csv.writer`` loop over one decoded record per row, and ``json.dumps`` of
the whole model dict. The codecs write column by column and tree by tree,
and must give the same bytes.
"""

import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpforest.cli import main
from dpforest.data import (
    ContinuousFeature,
    Dataset,
    DiscreteFeature,
    FeatureSchema,
    load_dataset,
    save_dataset,
)
from dpforest.errors import DataValidationError
from dpforest.forest import (
    TrainConfig,
    build_forest,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_batch,
    save_model,
)
from dpforest.synth import generate, generate_preset


def reference_csv(path, data, predictions=None):
    """The row-by-row writer the codec replaces, kept as the byte reference."""
    schema = data.schema
    header = list(schema.feature_names)
    if data.has_labels:
        header.append(schema.label_column)
    if predictions is not None:
        header.append("prediction")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i, record in enumerate(data.records()):
            cells = [record.values[name] for name in schema.feature_names]
            if data.has_labels:
                cells.append(record.label)
            if predictions is not None:
                cells.append(schema.class_labels[int(predictions[i])])
            writer.writerow(cells)


def assert_same_bytes(tmp_path, data):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    save_dataset(data, str(ours))
    reference_csv(str(theirs), data)
    assert ours.read_bytes() == theirs.read_bytes()
    return ours


AWKWARD = ("plain", "a,b", 'say "hi"', " lead", "two\nlines", "cr\rhere", "")


@pytest.fixture
def awkward_schema():
    return FeatureSchema(
        features=(
            ContinuousFeature("x", -1e16, 1e16),
            DiscreteFeature("d", AWKWARD),
            ContinuousFeature("y,quoted", 0.0, 1.0),
        ),
        class_labels=("no", "ye,s", ""),
    )


def test_float_cells_match_csv_writer(tmp_path, awkward_schema):
    xs = [-0.0, 5e-324, 1e-05, 1e16, -1e16, 0.1, 1 / 3, 123456789.125, -5e-324]
    ys = [0.0, 1.0, -0.0, 0.5, 1e-300, 0.9999999999999999, 0.3, 2e-308, 1.0]
    n = len(xs)
    data = Dataset(
        awkward_schema,
        {"x": np.array(xs), "d": np.arange(n) % len(AWKWARD), "y,quoted": np.array(ys)},
        np.arange(n) % 3,
    )
    path = assert_same_bytes(tmp_path, data)
    back = load_dataset(str(path), awkward_schema)
    for name in ("x", "y,quoted"):
        assert back.column(name).tobytes() == data.column(name).tobytes()
    assert np.array_equal(back.column("d"), data.column("d"))
    assert np.array_equal(back.label_codes, data.label_codes)


def test_quoted_discrete_values_match_csv_writer(tmp_path, awkward_schema):
    n = 3000  # several blocks
    rng = np.random.default_rng(3)
    data = Dataset(
        awkward_schema,
        {"x": rng.uniform(-1e16, 1e16, n), "d": rng.integers(0, len(AWKWARD), n),
         "y,quoted": rng.uniform(0.0, 1.0, n)},
        rng.integers(0, 3, n),
    )
    path = assert_same_bytes(tmp_path, data)
    back = load_dataset(str(path), awkward_schema)
    assert [r for r in back.records()] == [r for r in data.records()]


def test_empty_and_unlabelled_datasets_match_csv_writer(tmp_path, awkward_schema):
    empty = Dataset(
        awkward_schema,
        {"x": np.empty(0), "d": np.empty(0, np.int32), "y,quoted": np.empty(0)},
        np.empty(0, np.int32),
    )
    path = assert_same_bytes(tmp_path, empty)
    assert len(load_dataset(str(path), awkward_schema)) == 0
    # one column and no label: csv.writer writes a lone empty cell as ""
    lone = FeatureSchema(features=(DiscreteFeature("d", AWKWARD),),
                         class_labels=("a", "b"))
    data = Dataset(lone, {"d": np.arange(len(AWKWARD))})
    path = assert_same_bytes(tmp_path, data)
    back = load_dataset(str(path), lone, require_label=False)
    assert np.array_equal(back.column("d"), data.column("d"))


def test_predict_output_matches_csv_writer(tmp_path):
    data_path, schema_path = tmp_path / "d.csv", tmp_path / "s.json"
    assert main(["gen", "--informative", "3", "--random", "1", "--n", "2400",
                 "--seed", "4", "--out", str(data_path),
                 "--schema-out", str(schema_path)]) == 0
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(data_path), "--schema", str(schema_path),
                 "--epsilon", "1.0", "--trees", "8", "--out", str(model_path)]) == 0
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(out)]) == 0
    model = load_model(str(model_path))
    loaded = load_dataset(str(data_path), model.schema)
    reference = tmp_path / "ref.csv"
    reference_csv(str(reference), loaded, predict_batch(model, loaded))
    assert out.read_bytes() == reference.read_bytes()


def _mixed_data(n, seed):
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(
        features=(
            DiscreteFeature("colour", ("red", "gr\"een", "blue, dark")),
            ContinuousFeature("size", 0.0, 10.0),
            DiscreteFeature("shape", ("étoile", "disc")),
        ),
        class_labels=("lo", "hi"),
    )
    columns = {"colour": rng.integers(0, 3, n), "size": rng.uniform(0, 10, n),
                "shape": rng.integers(0, 2, n)}
    labels = (columns["size"] > 5).astype(np.int32)
    return Dataset(schema, columns, labels)


def _discrete_data(n, seed):
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(
        features=tuple(DiscreteFeature(f"d{i}", ("a", "b", "c")) for i in range(4)),
        class_labels=("x", "y", "z"),
    )
    columns = {f"d{i}": rng.integers(0, 3, n) for i in range(4)}
    return Dataset(schema, columns, rng.integers(0, 3, n))


@pytest.mark.parametrize("budget_mode", ["disjoint", "split"])
@pytest.mark.parametrize("make", [
    lambda: generate(3, 1, 300, np.random.default_rng(1)),
    lambda: _discrete_data(300, 2),
    lambda: _mixed_data(300, 3),
], ids=["continuous", "discrete", "mixed"])
def test_model_bytes_match_json_dumps(tmp_path, make, budget_mode):
    data = make()
    model = build_forest(data, TrainConfig(epsilon=0.7, tau=4, seed=5,
                                           budget_mode=budget_mode))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    expected = json.dumps(model_to_dict(model), indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    assert model_to_dict(load_model(str(path))) == model_to_dict(model)


_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=6)


@st.composite
def datasets(draw):
    n_cont = draw(st.integers(0, 2))
    n_disc = draw(st.integers(0 if n_cont else 1, 2))
    names = draw(st.lists(_text.filter(bool), min_size=n_cont + n_disc + 1,
                          max_size=n_cont + n_disc + 1, unique=True))
    label_column, names = names[0], names[1:]
    features = []
    for name in names[:n_cont]:
        lower = draw(st.floats(-1e6, 1e6))
        upper = draw(st.floats(lower, 2e6).filter(lambda u: u > lower))
        features.append(ContinuousFeature(name, lower, upper))
    for name in names[n_cont:]:
        features.append(DiscreteFeature(
            name, tuple(draw(st.lists(_text, min_size=2, max_size=4, unique=True)))))
    labels = tuple(draw(st.lists(_text, min_size=2, max_size=3, unique=True)))
    schema = FeatureSchema(tuple(features), labels, label_column)
    n = draw(st.integers(0, 12))
    columns = {}
    for feat in features:
        if isinstance(feat, ContinuousFeature):
            columns[feat.name] = np.array(
                draw(st.lists(st.floats(feat.lower, feat.upper), min_size=n, max_size=n)),
                dtype=np.float64)
        else:
            columns[feat.name] = np.array(draw(st.lists(
                st.integers(0, len(feat.values) - 1), min_size=n, max_size=n)), dtype=np.int32)
    label_codes = None
    if draw(st.booleans()):
        label_codes = np.array(draw(st.lists(st.integers(0, len(labels) - 1),
                                             min_size=n, max_size=n)), dtype=np.int32)
    return Dataset(schema, columns, label_codes)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=datasets())
def test_save_load_round_trip_property(tmp_path, data):
    path = assert_same_bytes(tmp_path, data)
    back = load_dataset(str(path), data.schema, require_label=False)
    assert len(back) == len(data)
    for name in data.schema.feature_names:
        assert back.column(name).tobytes() == data.column(name).tobytes()
    assert back.has_labels == data.has_labels
    if data.has_labels:
        assert np.array_equal(back.label_codes, data.label_codes)


# --- loader errors: the first fault wins, even past the first block -------

SCHEMA = FeatureSchema(
    features=(
        ContinuousFeature("a", 0.0, 1.0),
        DiscreteFeature("d", ("p", "q")),
        ContinuousFeature("b", 0.0, 1.0),
    ),
    class_labels=("no", "yes"),
)
GOOD_ROW = ["0.5", "p", "0.5", "no"]


def _load_with(tmp_path, faults, n=2500, labelled=True):
    """Load an n-row CSV that holds GOOD_ROW except at the 1-based rows in
    ``faults``, whose cells are in schema order; return the error message.
    Unless ``labelled``, the file has no label column and rows no label."""
    header = ["b", "label", "a", "d"] if labelled else ["b", "a", "d"]  # not schema order
    path = tmp_path / "faulty.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in range(1, n + 1):
            cells = faults.get(row, GOOD_ROW[:len(header)])
            if len(cells) == len(header):
                by_name = dict(zip(["a", "d", "b", "label"], cells))
                cells = [by_name[name] for name in header]
            writer.writerow(cells)
    with pytest.raises(DataValidationError) as err:
        load_dataset(str(path), SCHEMA, require_label=labelled)
    prefix = f"{path}: "
    message = str(err.value)
    assert message.startswith(prefix)
    return message[len(prefix):]


def test_parse_error_before_later_ragged_row(tmp_path):
    message = _load_with(tmp_path, {
        1500: ["0.5", "p", "zero", "no"],
        2200: ["0.5", "p"],
    })
    assert message == "row 1500: feature 'b': cannot parse 'zero' as a number"


def test_ragged_row_before_later_parse_error(tmp_path):
    message = _load_with(tmp_path, {
        1200: ["0.5", "p"],
        2100: ["0.5", "p", "zero", "no"],
    })
    assert message == "row 1200: expected 4 cells, got 2"


def test_ragged_row_and_parse_error_in_one_block(tmp_path):
    assert _load_with(tmp_path, {
        1700: ["x", "p", "0.5", "no"],
        1701: ["0.5"],
    }) == "row 1700: feature 'a': cannot parse 'x' as a number"
    assert _load_with(tmp_path, {
        1700: ["0.5"],
        1701: ["x", "p", "0.5", "no"],
    }) == "row 1700: expected 4 cells, got 1"


def test_parse_errors_beat_earlier_value_errors(tmp_path):
    message = _load_with(tmp_path, {
        3: ["7.0", "p", "0.5", "no"],
        2400: ["0.5", "p", "--", "no"],
    })
    assert message == "row 2400: feature 'b': cannot parse '--' as a number"


def test_parse_errors_follow_schema_order_within_a_row(tmp_path):
    message = _load_with(tmp_path, {1100: ["first", "p", "second", "no"]})
    assert message == "row 1100: feature 'a': cannot parse 'first' as a number"


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
def test_non_finite_cells(tmp_path, cell):
    message = _load_with(tmp_path, {1800: ["0.5", "p", cell, "no"]})
    assert message == "row 1800: feature 'b': value is not finite"


def test_float_syntax_accepted_by_float_is_range_checked(tmp_path):
    message = _load_with(tmp_path, {1001: ["1_000", "p", "0.5", "no"]})
    assert message == "row 1001: feature 'a': value 1000.0 outside bounds [0.0, 1.0]"


def test_value_errors_go_row_by_row_in_schema_order(tmp_path):
    faults = {
        1300: ["0.5", "r", "0.5", "maybe"],
        1301: ["9.0", "p", "0.5", "no"],
    }
    assert _load_with(tmp_path, faults) == (
        "row 1300: feature 'd': value 'r' not in declared values"
    )
    faults[1300] = ["0.5", "p", "-1.0", "maybe"]
    assert _load_with(tmp_path, faults) == (
        "row 1300: feature 'b': value -1.0 outside bounds [0.0, 1.0]"
    )
    faults[1300] = ["0.5", "p", "0.5", "maybe"]
    assert _load_with(tmp_path, faults) == "row 1300: label 'maybe' not in class labels"
    faults[1200] = ["0.5", "s", "0.5", "no"]
    assert _load_with(tmp_path, faults) == (
        "row 1200: feature 'd': value 's' not in declared values"
    )


def test_value_errors_in_two_blocks_go_by_row_before_slot(tmp_path):
    message = _load_with(tmp_path, {
        999: ["0.5", "p", "0.5", "maybe"],
        1001: ["9.0", "p", "0.5", "no"],
    })
    assert message == "row 999: label 'maybe' not in class labels"


def test_ragged_row_beats_an_earlier_value_error_in_its_block(tmp_path):
    message = _load_with(tmp_path, {
        1200: ["9.0", "p", "0.5", "no"],
        1250: ["0.5", "p"],
    })
    assert message == "row 1250: expected 4 cells, got 2"


@pytest.mark.parametrize("faults,expected", [
    ({1000: ["9.0", "p", "0.5", "no"], 1001: ["0.5", "s", "0.5", "no"]},
     "row 1000: feature 'a': value 9.0 outside bounds [0.0, 1.0]"),
    ({1000: ["0.5", "s", "0.5", "no"], 1001: ["9.0", "p", "0.5", "no"]},
     "row 1000: feature 'd': value 's' not in declared values"),
])
def test_value_errors_either_side_of_the_block_edge(tmp_path, faults, expected):
    assert _load_with(tmp_path, faults) == expected


def test_value_error_in_a_file_without_labels(tmp_path):
    message = _load_with(tmp_path, {1500: ["0.5", "p", "2.0"], 1600: ["0.5", "z", "0.5"]},
                         labelled=False)
    assert message == "row 1500: feature 'b': value 2.0 outside bounds [0.0, 1.0]"


def test_bounds_are_inclusive(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("a,d,b,label\n0.0,p,1.0,no\n-0.0,q,0.0,yes\n1.0,p,1.0,no\n",
                    encoding="utf-8")
    data = load_dataset(str(path), SCHEMA)
    assert data.column("a").tolist() == [0.0, 0.0, 1.0]
    assert math.copysign(1.0, data.column("a")[1]) == -1.0


# --- the model loader builds tree nodes while it parses -------------------

def _saved_model(tmp_path, data, **config):
    model = build_forest(data, TrainConfig(epsilon=1.0, seed=3, **config))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    return model, path


def test_a_node_with_an_extra_member_still_loads(tmp_path):
    model, path = _saved_model(tmp_path, _mixed_data(200, 1), tau=2, depth_override=3)
    document = json.loads(path.read_text(encoding="utf-8"))
    document["trees"][0]["note"] = [1, 2]
    # a node-shaped value in an extra member is ignored like any other
    document["trees"][1]["note"] = {"kind": "leaf", "label": "neither"}
    path.write_text(json.dumps(document), encoding="utf-8")
    assert load_model(str(path)) == model


def test_discrete_values_named_like_node_keys_round_trip(tmp_path):
    # children {"kind": ..., "label": ...} have a leaf's keys, but hold nodes
    schema = FeatureSchema(
        features=(DiscreteFeature("kind", ("kind", "label")),
                  ContinuousFeature("label", 0.0, 1.0)),
        class_labels=("leaf", "kind"),
        label_column="feature",
    )
    rng = np.random.default_rng(6)
    data = Dataset(schema, {"kind": rng.integers(0, 2, 200), "label": rng.random(200)},
                   rng.integers(0, 2, 200))
    model, path = _saved_model(tmp_path, data, tau=3, depth_override=4)
    loaded = load_model(str(path))
    assert loaded == model
    again = tmp_path / "again.json"
    save_model(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


_LEAF = {"kind": "leaf", "label": "lo"}
_NODE_SHAPED = {
    "leaf": _LEAF,
    "split_cont": {"kind": "split_cont", "feature": "size", "split": 5.0,
                   "below": _LEAF, "at_or_above": _LEAF},
    "split_disc": {"kind": "split_disc", "feature": "shape",
                   "children": {"étoile": _LEAF, "disc": _LEAF}},
}


@pytest.mark.parametrize("kind", sorted(_NODE_SHAPED))
@pytest.mark.parametrize("where,message", [
    ("document", "unsupported model format version None (this build reads version 1)"),
    ("schema", "schema is missing key 'features'"),
    ("feature", "feature 'name' must be a string"),
    ("config", "model config is missing key 'depth'"),
])
def test_node_shaped_objects_outside_the_trees_keep_their_errors(tmp_path, kind, where,
                                                                 message):
    _, path = _saved_model(tmp_path, _mixed_data(100, 2), tau=2, depth_override=2)
    document = json.loads(path.read_text(encoding="utf-8"))
    node = _NODE_SHAPED[kind]
    if where == "document":
        document = node
    elif where == "feature":
        document["schema"]["features"][0] = node
    else:
        document[where] = node
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(DataValidationError) as err:
        load_model(str(path))
    assert str(err.value) == message
    with pytest.raises(DataValidationError) as err:
        model_from_dict(document)
    assert str(err.value) == message


def _tree(label="lo", split=5.0, cont_feature="size", disc_feature="shape",
          children=None, kind="split_disc", below=None):
    leaf = {"kind": "leaf", "label": label}
    cont = {"kind": "split_cont", "feature": cont_feature, "split": split,
            "below": leaf if below is None else below, "at_or_above": leaf}
    if children is None:
        children = {"étoile": cont, "disc": {"kind": "leaf", "label": "hi"}}
    return {"kind": kind, "feature": disc_feature, "children": children}


@pytest.mark.parametrize("tree,message", [
    (_tree(), None),
    (_tree(label="mid"), "leaf label 'mid' not in class labels"),
    (_tree(label=1), "leaf label 1 not in class labels"),
    (_tree(label=None), "leaf label None not in class labels"),
    (_tree(split="5"), "split for 'size' must be a number"),
    (_tree(split=math.inf), "split for 'size' must be finite"),
    (_tree(cont_feature="shape"), "feature 'shape' is not continuous"),
    (_tree(cont_feature=3), "tree node feature name must be a string"),
    (_tree(cont_feature="nope"), "unknown feature 'nope' in tree"),
    (_tree(disc_feature="size"), "feature 'size' is not discrete"),
    (_tree(children={"étoile": {"kind": "leaf", "label": "lo"}}),
     "children of 'shape' must cover exactly its declared values"),
    (_tree(children=[]), "children of 'shape' must cover exactly its declared values"),
    (_tree(kind="split"), "unknown tree node kind 'split'"),
    (_tree(below="leaf"), "tree node must be a JSON object"),
    (_tree(below=_tree()), "tree is nested deeper than the model depth"),
], ids=lambda value: None if isinstance(value, str) or value is None else "tree")
def test_every_check_refuses_nodes_built_while_parsing(tmp_path, tree, message):
    _, path = _saved_model(tmp_path, _mixed_data(100, 2), tau=2, depth_override=2)
    document = json.loads(path.read_text(encoding="utf-8"))
    document["trees"][0] = tree
    path.write_text(json.dumps(document), encoding="utf-8")
    if message is None:
        assert model_to_dict(load_model(str(path))) == document
        return
    with pytest.raises(DataValidationError, match="^" + re.escape(message) + "$"):
        load_model(str(path))
    with pytest.raises(DataValidationError, match="^" + re.escape(message) + "$"):
        model_from_dict(document)


def test_loading_a_deep_model_peaks_near_twice_its_file_size(tmp_path):
    data = generate_preset("SynthC", 400, np.random.default_rng(1))
    model, path = _saved_model(tmp_path, data, tau=4, depth_override=10)
    del model
    tracemalloc.start()
    try:
        load_model(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured on this 1.4 MB model: 2.79 times the file size when the file
    # was parsed to dicts and then copied to nodes, 2.00 times with the nodes
    # built while parsing, which leaves the file's bytes and text as the peak.
    assert peak < 2.4 * path.stat().st_size
