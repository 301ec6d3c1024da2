"""Property tests of the CLI's input paths.

A valid schema, CSV and model file are mutated, byte by byte and value by
value, and fed to ``depth``, ``train``, ``predict`` and ``eval``; ``audit``
gets mutated counts, and every command mutated flag values. Whatever the
input, a run must exit 0, 1 or 2, print at most one line on stderr, and
raise nothing. The model loader, which builds tree nodes while it parses,
must also give what the plain dict loader gives. Examples are drawn
deterministically, so a failure reproduces.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpforest.cli import main
from dpforest.errors import DataValidationError
from dpforest.forest import load_model, model_from_dict

SCHEMA = {
    "features": [
        {"name": "x", "kind": "continuous", "lower": 0.0, "upper": 10.0},
        {"name": "y", "kind": "continuous", "lower": -1.0, "upper": 1.0},
        {"name": "colour", "kind": "discrete", "values": ["red", "green", "blue"]},
    ],
    "label_column": "label",
    "class_labels": ["A", "B", "C"],
}
CSV = """\
x,y,colour,label
4.52,0.12,green,C
8.55,-0.62,blue,C
0.91,0.62,blue,B
6.16,-0.69,red,C
0.63,-0.93,red,A
8.4,0.42,green,B
4.0,0.69,green,A
1.18,-0.51,red,B
"""
TRAIN = ["--epsilon", "1.0", "--trees", "2", "--depth", "3", "--seed", "1"]

FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6,
)


@st.composite
def mutated_bytes(draw, data: bytes) -> bytes:
    """``data`` with one short span replaced by arbitrary bytes."""
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 16)))
    return data[:start] + draw(st.binary(max_size=16)) + data[end:]


@st.composite
def mutated_json(draw, document) -> bytes:
    """``document`` with one value replaced or one key or item deleted."""
    document = copy.deepcopy(document)
    parent, key, node = None, None, document
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent = node
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        node = node[key]
    if parent is None:
        document = draw(JSON_VALUES)
    elif draw(st.booleans()):
        parent[key] = draw(JSON_VALUES)
    else:
        del parent[key]
    return json.dumps(document).encode("utf-8")


@st.composite
def mutated_cells(draw, text: str) -> bytes:
    """``text`` with one CSV cell replaced by arbitrary text."""
    lines = text.splitlines()
    row = draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    cells[draw(st.integers(0, len(cells) - 1))] = draw(st.text(max_size=12))
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8")


@st.composite
def node_shaped(draw) -> dict:
    """An object with exactly the keys of one tree node kind."""
    leaf = {"kind": "leaf", "label": draw(st.sampled_from(SCHEMA["class_labels"])
                                          | JSON_VALUES)}
    kind = draw(st.sampled_from(["leaf", "split_cont", "split_disc"]))
    if kind == "leaf":
        return leaf
    feature = draw(st.sampled_from(["x", "colour"]) | JSON_VALUES)
    if kind == "split_cont":
        return {"kind": kind, "feature": feature, "split": draw(st.floats() | JSON_VALUES),
                "below": leaf, "at_or_above": leaf}
    return {"kind": kind, "feature": feature,
            "children": {value: leaf for value in ("red", "green", "blue")}}


@st.composite
def node_shaped_outside_trees(draw, document) -> bytes:
    """``document`` with a node-shaped object put anywhere but in its trees."""
    document = copy.deepcopy(document)
    node = draw(node_shaped())
    places, stack = [], [document]
    while stack:
        place = stack.pop()
        places.append(place)
        items = place.items() if isinstance(place, dict) else enumerate(place)
        stack.extend(child for key, child in items
                     if isinstance(child, (dict, list))
                     and not (place is document and key == "trees"))
    place = draw(st.sampled_from(places))
    if place is document and draw(st.booleans()):
        document = node
    elif isinstance(place, dict):
        place[draw(st.sampled_from(list(place)) | st.text(max_size=8))] = node
    elif place and draw(st.booleans()):
        place[draw(st.integers(0, len(place) - 1))] = node
    else:
        place.append(node)
    return json.dumps(document).encode("utf-8")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
    (root / "data.csv").write_text(CSV, encoding="utf-8")
    assert main(["train", "--data", str(root / "data.csv"),
                 "--schema", str(root / "schema.json"), *TRAIN,
                 "--out", str(root / "model.json")]) == 0
    model = json.loads((root / "model.json").read_text(encoding="utf-8"))
    return {"root": root, "schema": str(root / "schema.json"),
            "data": str(root / "data.csv"), "model": str(root / "model.json"),
            "model_document": model}


def run(argv) -> None:
    """One CLI run that must end in exit 0, 1 or 2 with one stderr line at most."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert err.getvalue().count("\n") <= 1, err.getvalue()


def write(files, name: str, content: bytes) -> str:
    path = files["root"] / name
    path.write_bytes(content)
    return str(path)


@FUZZ
@given(data=st.data())
def test_mutated_schema(files, data):
    valid = json.dumps(SCHEMA).encode("utf-8")
    content = data.draw(st.one_of(mutated_bytes(valid), mutated_json(SCHEMA)))
    schema = write(files, "mutated-schema.json", content)
    run(["depth", "--schema", schema])
    run(["train", "--data", files["data"], "--schema", schema, *TRAIN,
         "--out", str(files["root"] / "out-model.json")])


@FUZZ
@given(data=st.data())
def test_mutated_csv(files, data):
    content = data.draw(st.one_of(mutated_bytes(CSV.encode("utf-8")), mutated_cells(CSV)))
    csv_path = write(files, "mutated-data.csv", content)
    run(["train", "--data", csv_path, "--schema", files["schema"], *TRAIN,
         "--out", str(files["root"] / "out-model.json")])
    run(["predict", "--model", files["model"], "--data", csv_path,
         "--out", str(files["root"] / "out-predictions.csv")])


@FUZZ
@given(data=st.data())
def test_mutated_model(files, data):
    document = files["model_document"]
    valid = json.dumps(document).encode("utf-8")
    content = data.draw(st.one_of(mutated_bytes(valid), mutated_json(document),
                                  node_shaped_outside_trees(document)))
    model = write(files, "mutated-model.json", content)
    run(["predict", "--model", model, "--data", files["data"],
         "--out", str(files["root"] / "out-predictions.csv")])


EVAL = ["--epsilon", "1.0", "--trees", "2", "--depth", "3", "--folds", "2",
        "--repeats", "1"]


@FUZZ
@given(data=st.data())
def test_mutated_eval_inputs(files, data):
    valid = json.dumps(SCHEMA).encode("utf-8")
    schema, csv_path = files["schema"], files["data"]
    if data.draw(st.booleans()):
        content = data.draw(st.one_of(mutated_bytes(valid), mutated_json(SCHEMA)))
        schema = write(files, "mutated-schema.json", content)
    else:
        content = data.draw(st.one_of(mutated_bytes(CSV.encode("utf-8")),
                                      mutated_cells(CSV)))
        csv_path = write(files, "mutated-data.csv", content)
    run(["eval", "--data", csv_path, "--schema", schema, *EVAL,
         "--report", str(files["root"] / "out-report.json")])


# unbounded integers stay far inside the double range, so 10**400, a count
# past the double range, is drawn on purpose and given as an example
COUNTS = st.one_of(
    st.text(max_size=16),
    st.lists(st.tuples(st.text(max_size=3), st.integers() | st.just(10**400)),
             max_size=4).map(
        lambda pairs: ",".join(f"{label}:{count}" for label, count in pairs)),
)
# flag values: text without digits, and numbers at the edges of each type;
# digits come only from this list, so no draw asks for an hours-long run
FLAG_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6),
    st.sampled_from(["", "-1", "0", "1", "2", "-0", "1.5", "1e308", "1.8e308",
                     "5e-324", "nan", "inf", "-inf", "0x10", "1_0", " 2 ",
                     "9" * 30, "-" + "9" * 30, "smooth", "global", "split"]),
)


@FUZZ
@given(counts=COUNTS, epsilon=FLAG_VALUES,
       sensitivity=st.sampled_from(["smooth", "global"]))
@example(counts=f"A:{10**400},B:0", epsilon="1", sensitivity="smooth")
def test_mutated_audit_counts(counts, epsilon, sensitivity):
    run(["audit", "--counts", counts, "--epsilon", epsilon,
         "--sensitivity", sensitivity])


@FUZZ
@given(data=st.data())
def test_mutated_flag_values(files, data):
    root = files["root"]
    commands = {
        "depth": ["depth", "--schema", files["schema"]],
        "gen": ["gen", "--preset", "SynthA", "--n", "20", "--seed", "1",
                "--out", str(root / "out-gen.csv"),
                "--schema-out", str(root / "out-gen.schema.json")],
        "train": ["train", "--data", files["data"], "--schema", files["schema"],
                  *TRAIN, "--threads", "1", "--out", str(root / "out-model.json")],
        "predict": ["predict", "--model", files["model"], "--data", files["data"],
                    "--out", str(root / "out-predictions.csv")],
        "eval": ["eval", "--data", files["data"], "--schema", files["schema"], *EVAL,
                 "--report", str(root / "out-report.json")],
        "audit": ["audit", "--counts", "A:3,B:2", "--epsilon", "1.0"],
    }
    argv = list(commands[data.draw(st.sampled_from(sorted(commands)))])
    flags = [i for i, arg in enumerate(argv) if arg.startswith("--")]
    at = data.draw(st.sampled_from(flags))
    # a path is mutated in the file tests; a huge --repeats is a request
    # for that much work, not a fault
    if data.draw(st.booleans()) and argv[at] not in (
            "--schema", "--data", "--model", "--out", "--schema-out", "--report",
            "--repeats"):
        argv[at + 1] = data.draw(FLAG_VALUES)
    else:
        del argv[at:at + 2]
    run(argv)


def outcome(load):
    """What a loader returns, or the message of the data error it raises."""
    try:
        return load()
    except DataValidationError as exc:
        return f"data error: {exc}"


@FUZZ
@given(data=st.data())
def test_load_model_matches_the_dict_loader(files, data):
    document = files["model_document"]
    content = data.draw(st.one_of(mutated_json(document),
                                  node_shaped_outside_trees(document)))
    model = write(files, "mutated-model.json", content)
    with open(model, encoding="utf-8") as handle:
        document = json.load(handle)
    assert outcome(lambda: load_model(model)) == outcome(
        lambda: model_from_dict(document))
