import numpy as np
import pytest

from dpforest.data import (
    ContinuousFeature,
    Dataset,
    DiscreteFeature,
    FeatureSchema,
    load_dataset,
    load_schema,
    partition_disjoint,
    save_dataset,
    save_schema,
)
from dpforest.errors import DataValidationError


def test_schema_rejects_bad_shapes():
    cont = ContinuousFeature("a", 0.0, 1.0)
    with pytest.raises(DataValidationError):
        FeatureSchema(features=(), class_labels=("x", "y"))
    with pytest.raises(DataValidationError):
        FeatureSchema(features=(cont, cont), class_labels=("x", "y"))
    with pytest.raises(DataValidationError):
        FeatureSchema(features=(cont,), class_labels=("x",))
    with pytest.raises(DataValidationError):
        FeatureSchema(features=(cont,), class_labels=("x", "x"))
    with pytest.raises(DataValidationError):
        FeatureSchema(features=(cont,), class_labels=("x", "y"), label_column="a")


def test_feature_domain_validation():
    with pytest.raises(DataValidationError):
        ContinuousFeature("a", 1.0, 1.0)
    with pytest.raises(DataValidationError):
        ContinuousFeature("a", 2.0, 1.0)
    with pytest.raises(DataValidationError):
        ContinuousFeature("a", 0.0, float("inf"))
    with pytest.raises(DataValidationError):
        DiscreteFeature("d", ("only",))
    with pytest.raises(DataValidationError):
        DiscreteFeature("d", ("x", "x"))


def test_schema_round_trip(tmp_path, mixed_schema):
    path = tmp_path / "schema.json"
    save_schema(mixed_schema, str(path))
    loaded = load_schema(str(path))
    assert loaded == mixed_schema
    assert loaded.num_continuous == 2
    assert loaded.num_discrete == 1


def test_schema_from_bad_json(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataValidationError):
        load_schema(str(path))
    path.write_text('{"features": [{"name": "a", "kind": "fuzzy"}]}', encoding="utf-8")
    with pytest.raises(DataValidationError):
        load_schema(str(path))


def test_dataset_round_trip(tmp_path, mixed_dataset):
    path = tmp_path / "data.csv"
    save_dataset(mixed_dataset, str(path))
    loaded = load_dataset(str(path), mixed_dataset.schema)
    assert len(loaded) == len(mixed_dataset)
    for original, back in zip(mixed_dataset.records(), loaded.records()):
        assert original == back
    # a second save produces identical bytes
    again = tmp_path / "again.csv"
    save_dataset(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_reports_row_and_feature(tmp_path, mixed_schema):
    path = _write(
        tmp_path,
        "age,color,weight,label\n10.0,red,0.0,yes\n20.0,purple,1.0,no\n",
    )
    with pytest.raises(DataValidationError) as err:
        load_dataset(path, mixed_schema)
    assert "row 2" in str(err.value)
    assert "color" in str(err.value)


def test_load_rejects_out_of_bounds_value(tmp_path, mixed_schema):
    path = _write(tmp_path, "age,color,weight,label\n150.0,red,0.0,yes\n")
    with pytest.raises(DataValidationError) as err:
        load_dataset(path, mixed_schema)
    assert "age" in str(err.value)


def test_load_rejects_unparseable_number(tmp_path, mixed_schema):
    path = _write(tmp_path, "age,color,weight,label\nabc,red,0.0,yes\n")
    with pytest.raises(DataValidationError) as err:
        load_dataset(path, mixed_schema)
    assert "row 1" in str(err.value)


def test_load_rejects_unknown_label(tmp_path, mixed_schema):
    path = _write(tmp_path, "age,color,weight,label\n10.0,red,0.0,maybe\n")
    with pytest.raises(DataValidationError) as err:
        load_dataset(path, mixed_schema)
    assert "maybe" in str(err.value)


def test_load_rejects_header_problems(tmp_path, mixed_schema):
    missing = _write(tmp_path, "age,color,label\n10.0,red,yes\n")
    with pytest.raises(DataValidationError) as err:
        load_dataset(missing, mixed_schema)
    assert "weight" in str(err.value)

    unknown = _write(
        tmp_path, "age,color,weight,extra,label\n10.0,red,0.0,1,yes\n"
    )
    with pytest.raises(DataValidationError) as err:
        load_dataset(unknown, mixed_schema)
    assert "extra" in str(err.value)

    duplicate = _write(tmp_path, "age,age,color,weight,label\n")
    with pytest.raises(DataValidationError):
        load_dataset(duplicate, mixed_schema)

    empty = _write(tmp_path, "")
    with pytest.raises(DataValidationError):
        load_dataset(empty, mixed_schema)


def test_load_rejects_ragged_rows(tmp_path, mixed_schema):
    path = _write(tmp_path, "age,color,weight,label\n10.0,red,0.0\n")
    with pytest.raises(DataValidationError) as err:
        load_dataset(path, mixed_schema)
    assert "row 1" in str(err.value)


def test_load_without_label_column(tmp_path, mixed_schema):
    path = _write(tmp_path, "age,color,weight\n10.0,red,0.0\n")
    with pytest.raises(DataValidationError):
        load_dataset(path, mixed_schema)
    data = load_dataset(path, mixed_schema, require_label=False)
    assert not data.has_labels
    assert data.record(0).label is None
    with pytest.raises(DataValidationError):
        data.label_codes


def test_label_column_tolerated_when_optional(tmp_path, mixed_schema):
    path = _write(tmp_path, "age,color,weight,label\n10.0,red,0.0,yes\n")
    data = load_dataset(path, mixed_schema, require_label=False)
    assert data.has_labels
    assert data.record(0).label == "yes"


def test_boundary_values_are_accepted(tmp_path, mixed_schema):
    path = _write(
        tmp_path,
        "age,color,weight,label\n0.0,red,-5.0,yes\n100.0,blue,5.0,no\n",
    )
    data = load_dataset(path, mixed_schema)
    assert len(data) == 2


def test_dataset_accessors(mixed_dataset):
    record = mixed_dataset.record(0)
    assert set(record.values) == {"age", "color", "weight"}
    assert record.label in ("no", "yes")
    counts = mixed_dataset.label_counts()
    assert sum(counts.values()) == len(mixed_dataset)
    assert list(counts) == ["no", "yes"]


def test_subset_selects_rows(mixed_dataset):
    picked = mixed_dataset.subset(np.array([3, 1, 4]))
    assert len(picked) == 3
    assert picked.record(0) == mixed_dataset.record(3)
    assert picked.record(2) == mixed_dataset.record(4)


def test_partition_sizes_differ_by_at_most_one(mixed_dataset):
    rng = np.random.default_rng(0)
    ten = mixed_dataset.subset(np.arange(10))
    blocks = partition_disjoint(ten, 3, rng)
    assert sorted(len(ten.subset(b)) for b in blocks) == [3, 3, 4]
    assert len(ten.subset(blocks[0])) == 4  # the remainder goes to the front


def test_partition_covers_everything_disjointly(mixed_dataset):
    blocks = partition_disjoint(mixed_dataset, 7, np.random.default_rng(5))
    seen = np.concatenate(blocks)
    assert sorted(seen.tolist()) == list(range(len(mixed_dataset)))
    total = sum(len(mixed_dataset.subset(b)) for b in blocks)
    assert total == len(mixed_dataset)


def test_partition_is_seeded(mixed_dataset):
    one = partition_disjoint(mixed_dataset, 4, np.random.default_rng(9))
    two = partition_disjoint(mixed_dataset, 4, np.random.default_rng(9))
    for a, b in zip(one, two):
        assert np.array_equal(a, b)
    other = partition_disjoint(mixed_dataset, 4, np.random.default_rng(10))
    assert any(
        not np.array_equal(a, b) for a, b in zip(one, other)
    )


def test_partition_rejects_bad_tau(mixed_dataset):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        partition_disjoint(mixed_dataset, 0, rng)
    with pytest.raises(ValueError):
        partition_disjoint(mixed_dataset, len(mixed_dataset) + 1, rng)
    # tau == n leaves one record per subset
    blocks = partition_disjoint(mixed_dataset, len(mixed_dataset), rng)
    assert all(len(mixed_dataset.subset(b)) == 1 for b in blocks)


def test_dataset_rejects_inconsistent_columns(mixed_schema):
    with pytest.raises(DataValidationError):
        Dataset(mixed_schema, {"age": np.array([1.0])})
    with pytest.raises(DataValidationError):
        Dataset(
            mixed_schema,
            {
                "age": np.array([1.0, 2.0]),
                "color": np.array([0]),
                "weight": np.array([0.0, 0.0]),
            },
        )
    with pytest.raises(DataValidationError):
        Dataset(
            mixed_schema,
            {
                "age": np.array([200.0]),
                "color": np.array([0]),
                "weight": np.array([0.0]),
            },
        )
    with pytest.raises(DataValidationError):
        Dataset(
            mixed_schema,
            {
                "age": np.array([1.0]),
                "color": np.array([7]),
                "weight": np.array([0.0]),
            },
        )
