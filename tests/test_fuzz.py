"""Property tests of the CLI's input paths.

A valid schema, CSV and model file are mutated, byte by byte and value by
value, and fed to ``depth``, ``train`` and ``predict``. Whatever the input,
a run must exit 0, 1 or 2, print at most one line on stderr, and raise
nothing. Examples are drawn deterministically, so a failure reproduces.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpforest.cli import main

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
    content = data.draw(st.one_of(mutated_bytes(valid), mutated_json(document)))
    model = write(files, "mutated-model.json", content)
    run(["predict", "--model", model, "--data", files["data"],
         "--out", str(files["root"] / "out-predictions.csv")])
