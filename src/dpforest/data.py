"""Feature schemas, datasets, and disjoint partitioning.

A schema declares the feature domains up front: continuous features carry
closed numeric bounds, discrete features an explicit value set. Datasets
are stored column wise (float64 for continuous features, integer codes for
discrete features and labels) and validate themselves against their schema
on construction, so every Dataset in circulation is known to be clean.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import DataValidationError


@dataclass(frozen=True)
class ContinuousFeature:
    """Numeric feature with a closed domain [lower, upper]."""

    name: str
    lower: float
    upper: float

    def __post_init__(self):
        if not self.name:
            raise DataValidationError("feature name must be non-empty")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DataValidationError(f"feature {self.name!r}: bounds must be finite")
        if not self.lower < self.upper:
            raise DataValidationError(
                f"feature {self.name!r}: lower bound {self.lower} must be "
                f"strictly below upper bound {self.upper}"
            )
        if not math.isfinite(self.upper - self.lower):
            raise DataValidationError(
                f"feature {self.name!r}: the width of [{self.lower}, {self.upper}] "
                "overflows a double"
            )


@dataclass(frozen=True)
class DiscreteFeature:
    """Categorical feature over a fixed, ordered value set."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise DataValidationError("feature name must be non-empty")
        if len(self.values) < 2:
            raise DataValidationError(
                f"feature {self.name!r}: needs at least two values"
            )
        if len(set(self.values)) != len(self.values):
            raise DataValidationError(f"feature {self.name!r}: duplicate values")


FeatureSpec = ContinuousFeature | DiscreteFeature


@dataclass(frozen=True)
class FeatureSchema:
    """Declared domains for every feature plus the label domain."""

    features: tuple[FeatureSpec, ...]
    class_labels: tuple[str, ...]
    label_column: str = "label"

    def __post_init__(self):
        if not self.features:
            raise DataValidationError("schema needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataValidationError("duplicate feature names in schema")
        if self.label_column in names:
            raise DataValidationError(
                f"label column {self.label_column!r} collides with a feature name"
            )
        if len(self.class_labels) < 2:
            raise DataValidationError("schema needs at least two class labels")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise DataValidationError("duplicate class labels in schema")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def continuous_features(self) -> tuple[ContinuousFeature, ...]:
        return tuple(f for f in self.features if isinstance(f, ContinuousFeature))

    def discrete_features(self) -> tuple[DiscreteFeature, ...]:
        return tuple(f for f in self.features if isinstance(f, DiscreteFeature))

    @property
    def num_continuous(self) -> int:
        return len(self.continuous_features())

    @property
    def num_discrete(self) -> int:
        return len(self.discrete_features())

    def feature(self, name: str) -> FeatureSpec:
        for f in self.features:
            if f.name == name:
                return f
        raise KeyError(name)

    def to_dict(self) -> dict:
        features = []
        for f in self.features:
            if isinstance(f, ContinuousFeature):
                features.append(
                    {"name": f.name, "kind": "continuous",
                     "lower": f.lower, "upper": f.upper}
                )
            else:
                features.append(
                    {"name": f.name, "kind": "discrete", "values": list(f.values)}
                )
        return {
            "features": features,
            "label_column": self.label_column,
            "class_labels": list(self.class_labels),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FeatureSchema":
        if not isinstance(obj, dict):
            raise DataValidationError("schema document must be a JSON object")
        try:
            raw_features = obj["features"]
            label_column = obj["label_column"]
            class_labels = obj["class_labels"]
        except KeyError as missing:
            raise DataValidationError(f"schema is missing key {missing}") from None
        if not isinstance(raw_features, list):
            raise DataValidationError("schema 'features' must be a list")
        features = tuple(map(_feature_from_dict, raw_features))
        if not isinstance(class_labels, list) or not all(
            isinstance(c, str) for c in class_labels
        ):
            raise DataValidationError("schema 'class_labels' must be a list of strings")
        if not isinstance(label_column, str):
            raise DataValidationError("schema 'label_column' must be a string")
        return cls(
            features=features,
            class_labels=tuple(class_labels),
            label_column=label_column,
        )


def _feature_from_dict(raw) -> FeatureSpec:
    if not isinstance(raw, dict):
        raise DataValidationError("each feature must be a JSON object")
    name = raw.get("name")
    kind = raw.get("kind")
    if not isinstance(name, str):
        raise DataValidationError("feature 'name' must be a string")
    if kind == "continuous":
        lower, upper = (finite_number(raw.get(bound), f"feature {name!r}: {bound!r}")
                        for bound in ("lower", "upper"))
        return ContinuousFeature(name, lower, upper)
    if kind == "discrete":
        values = raw.get("values")
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise DataValidationError(
                f"feature {name!r}: 'values' must be a list of strings"
            )
        return DiscreteFeature(name, tuple(values))
    raise DataValidationError(f"feature {name!r}: unknown kind {kind!r}")


def finite_number(value, what: str) -> float:
    """A JSON number as a finite float; ``what`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataValidationError(f"{what} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the largest double
        number = math.inf
    if not math.isfinite(number):
        raise DataValidationError(f"{what} must be finite")
    return number


@contextmanager
def _read_utf8(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """Open a text file; bytes that are not UTF-8 and bad CSV are data errors."""
    with open(path, "r", encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise DataValidationError(
                f"{path}: not valid UTF-8 ({exc.reason}, "
                f"byte 0x{exc.object[exc.start]:02x})"
            ) from None
        except csv.Error as exc:  # such as a cell over csv.field_size_limit()
            raise DataValidationError(f"{path}: not valid CSV: {exc}") from None


def read_json(path: str):
    """Parse a JSON file.

    Bytes that are not UTF-8, malformed JSON, integers with more digits
    than Python converts and JSON nested too deeply are data errors.
    """
    with _read_utf8(path) as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or the integer digit limit
        raise DataValidationError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise DataValidationError(f"{path}: JSON nested too deeply") from None


def write_json(path: str, document) -> None:
    """Write ``document`` as JSON indented by two spaces, plus a newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def load_schema(path: str) -> FeatureSchema:
    """Read a schema from a JSON file."""
    return FeatureSchema.from_dict(read_json(path))


def save_schema(schema: FeatureSchema, path: str) -> None:
    write_json(path, schema.to_dict())


@dataclass(frozen=True)
class Record:
    """One row, decoded to python values. Continuous floats, discrete strings."""

    values: Mapping[str, float | str]
    label: str | None = None


class Dataset:
    """Columnar, schema-validated record collection.

    Continuous columns are float64 arrays, discrete columns int32 code
    arrays indexing into the feature's declared value tuple, and labels an
    int32 code array over the schema's class labels (or None for unlabeled
    feature-only data). Construction re-validates everything, so slicing
    and loading share one set of guarantees.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        columns: Mapping[str, np.ndarray],
        label_codes: np.ndarray | None = None,
    ):
        self.schema = schema
        if set(columns) != set(schema.feature_names):
            raise DataValidationError("columns do not match schema feature names")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise DataValidationError("columns have differing lengths")
        n = lengths.pop() if lengths else 0

        self._columns: dict[str, np.ndarray] = {}
        for feat in schema.features:
            col = np.asarray(columns[feat.name])
            if isinstance(feat, ContinuousFeature):
                col = col.astype(np.float64, copy=False)
                if col.size and not np.all(np.isfinite(col)):
                    raise DataValidationError(
                        f"feature {feat.name!r}: non-finite value"
                    )
                if col.size and (col.min() < feat.lower or col.max() > feat.upper):
                    raise DataValidationError(
                        f"feature {feat.name!r}: value outside declared bounds"
                    )
            else:
                col = col.astype(np.int32, copy=False)
                if col.size and (col.min() < 0 or col.max() >= len(feat.values)):
                    raise DataValidationError(
                        f"feature {feat.name!r}: value code out of range"
                    )
            self._columns[feat.name] = col

        if label_codes is not None:
            label_codes = np.asarray(label_codes).astype(np.int32, copy=False)
            if len(label_codes) != n:
                raise DataValidationError("label column length mismatch")
            if label_codes.size and (
                label_codes.min() < 0 or label_codes.max() >= len(schema.class_labels)
            ):
                raise DataValidationError("label code out of range")
        self._labels = label_codes
        self._n = n

    def __len__(self) -> int:
        return self._n

    @property
    def has_labels(self) -> bool:
        return self._labels is not None

    @property
    def label_codes(self) -> np.ndarray:
        if self._labels is None:
            raise DataValidationError("dataset has no labels")
        return self._labels

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def label_counts(self) -> dict[str, int]:
        """Record count per class label, in schema label order."""
        tally = np.bincount(self.label_codes, minlength=len(self.schema.class_labels))
        return {c: int(tally[i]) for i, c in enumerate(self.schema.class_labels)}

    def record(self, index: int) -> Record:
        values: dict[str, float | str] = {}
        for feat in self.schema.features:
            cell = self._columns[feat.name][index]
            if isinstance(feat, ContinuousFeature):
                values[feat.name] = float(cell)
            else:
                values[feat.name] = feat.values[int(cell)]
        label = None
        if self._labels is not None:
            label = self.schema.class_labels[int(self._labels[index])]
        return Record(values=values, label=label)

    def records(self) -> Iterator[Record]:
        for i in range(self._n):
            yield self.record(i)

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices)
        columns = {name: col[indices] for name, col in self._columns.items()}
        labels = self._labels[indices] if self._labels is not None else None
        return Dataset(self.schema, columns, labels)


# rows read or written per block; bounds the per-row Python objects alive at once
_BLOCK_ROWS = 1000


def load_dataset(path: str, schema: FeatureSchema, *, require_label: bool = True) -> Dataset:
    """Load a CSV file against a schema.

    The header must name every schema feature exactly once, plus the
    schema's label column unless ``require_label`` is false and the column
    is absent. Unknown columns are rejected so that a mis-named column
    fails loudly instead of being ignored.

    Rows are read a block at a time and converted column by column. The
    error names the first fault: ragged rows and unparseable numbers in
    row order first, then value faults row by row, in schema order within
    a row and the label last. Row numbers are 1-based.
    """
    with _read_utf8(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            raise DataValidationError(f"{path}: duplicate column in header")
        positions = {name: i for i, name in enumerate(header)}
        for name in schema.feature_names:
            if name not in positions:
                raise DataValidationError(f"{path}: column {name!r} missing")
        has_label = schema.label_column in positions
        if require_label and not has_label:
            raise DataValidationError(
                f"{path}: label column {schema.label_column!r} missing"
            )
        expected = set(schema.feature_names)
        if has_label:
            expected.add(schema.label_column)
        unknown = [name for name in header if name not in expected]
        if unknown:
            raise DataValidationError(f"{path}: unknown column {unknown[0]!r}")

        # one slot per schema feature, then the label: its CSV column and,
        # for text, the code of each declared value
        slots: list[tuple[int, dict[str, int] | None]] = [
            (positions[f.name], None if isinstance(f, ContinuousFeature)
             else {v: i for i, v in enumerate(f.values)})
            for f in schema.features
        ]
        if has_label:
            slots.append((positions[schema.label_column],
                          {c: i for i, c in enumerate(schema.class_labels)}))
        blocks: list[list[np.ndarray]] = [[] for _ in slots]
        undeclared: list[tuple[int, str] | None] = [None] * len(slots)
        width, done = len(header), 0
        while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
            lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
            ragged = np.flatnonzero(lengths != width)
            if ragged.size:
                rows = rows[:ragged[0]]
            cells = list(zip(*rows)) or [()] * width
            unparsed: tuple[int, int] | None = None  # (row, slot) of the first
            for k, (column, lookup) in enumerate(slots):
                text = cells[column]
                if lookup is None:
                    try:
                        codes = np.fromiter(map(float, text), np.float64, len(text))
                    except ValueError:
                        row = next(i for i, cell in enumerate(text) if not _parses(cell))
                        if unparsed is None or row < unparsed[0]:
                            unparsed = (row, k)
                        continue
                else:
                    codes = np.fromiter(map(lookup.get, text, itertools.repeat(-1)),
                                        np.int32, len(text))
                    bad = np.flatnonzero(codes < 0)
                    if bad.size and undeclared[k] is None:
                        undeclared[k] = (done + int(bad[0]), text[bad[0]])
                blocks[k].append(codes)
            if unparsed is not None:
                row, k = unparsed
                raise DataValidationError(
                    f"{path}: row {done + row + 1}: feature "
                    f"{schema.features[k].name!r}: cannot parse "
                    f"{cells[slots[k][0]][row]!r} as a number"
                )
            if ragged.size:
                raise DataValidationError(
                    f"{path}: row {done + int(ragged[0]) + 1}: expected {width} "
                    f"cells, got {int(lengths[ragged[0]])}"
                )
            done += len(rows)

    arrays = [
        np.concatenate(parts) if parts
        else np.empty(0, np.float64 if lookup is None else np.int32)
        for parts, (_, lookup) in zip(blocks, slots)
    ]
    fault = _first_value_fault(schema, arrays, undeclared)
    if fault:
        raise DataValidationError(f"{path}: {fault}")
    try:
        return Dataset(
            schema,
            dict(zip(schema.feature_names, arrays)),
            arrays[-1] if has_label else None,
        )
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


def _first_value_fault(
    schema: FeatureSchema,
    arrays: list[np.ndarray],
    undeclared: list[tuple[int, str] | None],
) -> str | None:
    """The first value fault, row by row and in slot order within a row.

    Slots are the schema features, then the label if there is one.
    ``undeclared`` holds, per text slot, the first row whose text is not a
    declared value and that text.
    """
    faults: list[tuple[int, int, str]] = []  # (row, slot, message)
    for k, feat in enumerate(schema.features):
        if isinstance(feat, ContinuousFeature):
            values = arrays[k]
            bad = np.flatnonzero(~((values >= feat.lower) & (values <= feat.upper)))
            if bad.size:
                value = float(values[bad[0]])
                faults.append((int(bad[0]), k, (
                    f"feature {feat.name!r}: value is not finite"
                    if not math.isfinite(value) else
                    f"feature {feat.name!r}: value {value!r} outside "
                    f"bounds [{feat.lower}, {feat.upper}]"
                )))
        elif undeclared[k] is not None:
            row, text = undeclared[k]
            faults.append((row, k, f"feature {feat.name!r}: value {text!r} "
                                   f"not in declared values"))
    if len(undeclared) > len(schema.features) and undeclared[-1] is not None:
        row, text = undeclared[-1]
        faults.append((row, len(undeclared) - 1, f"label {text!r} not in class labels"))
    if not faults:
        return None
    row, _, message = min(faults)
    return f"row {row + 1}: {message}"


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# a CSV column: float values, or integer codes with the strings they index
CsvColumn = tuple[np.ndarray, Sequence[str] | None]


def csv_table(data: Dataset) -> tuple[list[str], list[CsvColumn]]:
    """Header and columns of a dataset's CSV form: the features, then the label."""
    schema = data.schema
    header = list(schema.feature_names)
    columns: list[CsvColumn] = [
        (data.column(f.name),
         None if isinstance(f, ContinuousFeature) else f.values)
        for f in schema.features
    ]
    if data.has_labels:
        header.append(schema.label_column)
        columns.append((data.label_codes, schema.class_labels))
    return header, columns


def write_csv(path: str, header: Sequence[str], columns: Sequence[CsvColumn]) -> None:
    """Write columns as CSV with the bytes ``csv.writer`` gives row by row.

    Float cells are ``float.__repr__``, which is what ``csv.writer`` writes.
    Each distinct string is quoted once by the csv module itself. Rows go
    out a block at a time, joined with "," and "\\r\\n".
    """
    lone = len(header) == 1
    tables = [
        None if names is None else [_csv_field(name, lone) for name in names]
        for _, names in columns
    ]
    n = len(columns[0][0])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(_csv_field(name, lone) for name in header) + "\r\n")
        for start in range(0, n, _BLOCK_ROWS):
            cells = [
                map(float.__repr__ if table is None else table.__getitem__,
                    values[start:start + _BLOCK_ROWS].tolist())
                for (values, _), table in zip(columns, tables)
            ]
            handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _csv_field(text: str, lone: bool) -> str:
    """``text`` as a ``csv.writer`` field; ``lone`` when it is the whole row.

    The distinction matters for the empty string alone: ``csv.writer``
    quotes a row of one empty field so it does not read back as no field.
    """
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text] if lone else [text, ""])
    return buffer.getvalue()[:-2 if lone else -3]


def save_dataset(data: Dataset, path: str) -> None:
    """Write a dataset back to CSV, one column per feature plus the label.

    Continuous cells use python's shortest round-trip float formatting, so
    a save/load cycle reproduces the dataset exactly.
    """
    write_csv(path, *csv_table(data))


def partition_disjoint(
    data: Dataset, tau: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Split the rows of ``data`` into ``tau`` disjoint random index blocks.

    A uniform permutation is cut into tau contiguous blocks; the first
    ``n mod tau`` blocks get one extra record, so sizes differ by at most
    one and every record lands in exactly one block. Callers cut a block's
    records with ``data.subset(block)`` when they use them, so only one
    subset need be alive at a time.
    """
    n = len(data)
    if tau < 1:
        raise ValueError("tau must be at least 1")
    if tau > n:
        raise ValueError(f"tau={tau} exceeds the {n} available records")
    return tuple(np.array_split(rng.permutation(n), tau))
