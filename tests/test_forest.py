import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dpforest.budget import BudgetLedger
from dpforest.data import ContinuousFeature, FeatureSchema, Record
from dpforest.errors import DataValidationError
from dpforest.forest import (
    ForestModel,
    TrainConfig,
    build_forest,
    fill_leaf_labels,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_batch,
    predict_scores,
    save_model,
)
from dpforest.synth import generate
from dpforest.tree import Leaf, build_tree, iter_leaves


@pytest.fixture(scope="module")
def small_data():
    return generate(3, 2, 400, np.random.default_rng(10))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epsilon=1.0, tau=0)
    with pytest.raises(ValueError):
        TrainConfig(epsilon=1.0, depth_override=0)
    with pytest.raises(ValueError):
        TrainConfig(epsilon=1.0, sensitivity_mode="fuzzy")
    with pytest.raises(ValueError):
        TrainConfig(epsilon=1.0, budget_mode="everything")
    for epsilon in (math.nan, math.inf, True, "1.0", 10**400):
        with pytest.raises(ValueError, match="epsilon"):
            TrainConfig(epsilon=epsilon)
    for tau in (True, 1.0, 5.0):
        with pytest.raises(ValueError, match="tau"):
            TrainConfig(epsilon=1.0, tau=tau)
    for depth in (True, 2.0):
        with pytest.raises(ValueError, match="depth"):
            TrainConfig(epsilon=1.0, depth_override=depth)
    for seed in (1.0, False, None, -1):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(epsilon=1.0, seed=seed)
    integral = TrainConfig(epsilon=2)
    assert integral.epsilon == 2.0 and isinstance(integral.epsilon, float)


def test_build_forest_is_reproducible(small_data, tmp_path):
    config = TrainConfig(epsilon=1.0, tau=10, seed=21)
    one = build_forest(small_data, config)
    two = build_forest(small_data, config)
    assert model_to_dict(one) == model_to_dict(two)

    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(one, str(path_a))
    save_model(two, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_seed_changes_the_model(small_data):
    base = TrainConfig(epsilon=1.0, tau=5, seed=0)
    other = TrainConfig(epsilon=1.0, tau=5, seed=1)
    assert model_to_dict(build_forest(small_data, base)) != model_to_dict(
        build_forest(small_data, other)
    )


def test_ledger_composes_to_exactly_epsilon(small_data):
    for budget_mode in ("disjoint", "split"):
        ledger = BudgetLedger(0.3)
        config = TrainConfig(epsilon=0.3, tau=7, budget_mode=budget_mode, seed=2)
        build_forest(small_data, config, ledger)
        assert ledger.composed_cost() == Fraction(0.3)
        assert ledger.within_budget()
        assert len(ledger.entries) == 7


def test_disjoint_mode_uses_one_scope_per_tree(small_data):
    ledger = BudgetLedger(1.0)
    build_forest(small_data, TrainConfig(epsilon=1.0, tau=4, seed=0), ledger)
    assert len(ledger.scope_costs()) == 4
    ledger = BudgetLedger(1.0)
    build_forest(
        small_data,
        TrainConfig(epsilon=1.0, tau=4, budget_mode="split", seed=0),
        ledger,
    )
    assert len(ledger.scope_costs()) == 1


def test_forest_uses_derived_depth_by_default(small_data):
    model = build_forest(small_data, TrainConfig(epsilon=1.0, tau=3, seed=0))
    assert model.config.depth_override == 5  # five continuous features
    override = build_forest(
        small_data, TrainConfig(epsilon=1.0, tau=3, depth_override=2, seed=0)
    )
    assert override.config.depth_override == 2


def test_every_leaf_is_labeled(small_data):
    config = TrainConfig(epsilon=1.0, tau=8, depth_override=7, seed=4)
    model = build_forest(small_data, config)
    for tree in model.trees:
        for leaf in iter_leaves(tree):
            assert leaf.label in small_data.schema.class_labels


def test_fill_leaf_labels_rejects_filled_trees(small_data):
    rng = np.random.default_rng(0)
    tree = build_tree(small_data.schema, 3, rng)
    fill_leaf_labels(tree, small_data, 1.0, rng)
    with pytest.raises(ValueError):
        fill_leaf_labels(tree, small_data, 1.0, rng)


def test_fill_diagnostics_cover_every_leaf(small_data):
    rng = np.random.default_rng(1)
    tree = build_tree(small_data.schema, 6, rng)
    tree, diagnostics = fill_leaf_labels(tree, small_data, 0.5, rng)
    assert len(diagnostics) == sum(1 for _ in iter_leaves(tree))
    assert sum(d.record_count for d in diagnostics) == len(small_data)
    assert any(d.empty for d in diagnostics)
    for diag in diagnostics:
        assert diag.smooth_sensitivity == pytest.approx(math.exp(-diag.gap * 0.5))


def test_split_mode_diagnostics_use_the_per_query_epsilon(small_data):
    config = TrainConfig(
        epsilon=2.0, tau=4, budget_mode="split", depth_override=3, seed=6
    )
    model = build_forest(small_data, config, collect_diagnostics=True)
    per_query = 2.0 / 4
    for leaves in model.diagnostics:
        for diag in leaves:
            assert diag.smooth_sensitivity == pytest.approx(
                math.exp(-diag.gap * per_query)
            )


def test_diagnostics_are_opt_in(small_data):
    model = build_forest(small_data, TrainConfig(epsilon=1.0, tau=2, seed=0))
    assert model.diagnostics is None


def test_predict_majority_and_tie_break():
    schema = FeatureSchema(
        features=(ContinuousFeature("f", 0.0, 1.0),),
        class_labels=("first", "second"),
    )
    record = Record(values={"f": 0.5})
    model = ForestModel(
        schema=schema,
        trees=(Leaf("second"), Leaf("first")),
        config=TrainConfig(epsilon=1.0, tau=2, depth_override=1, seed=0),
    )
    assert predict(model, record) == "first"  # tie goes to the first listed label
    scores = predict_scores(model, record)
    assert scores == {"first": Fraction(1, 2), "second": Fraction(1, 2)}
    assert sum(scores.values()) == 1


def test_predict_scores_are_tau_denominator_fractions(small_data):
    model = build_forest(small_data, TrainConfig(epsilon=1.0, tau=10, seed=1))
    scores = predict_scores(model, small_data.record(0))
    assert sum(scores.values()) == 1
    for value in scores.values():
        assert value.denominator in (1, 2, 5, 10)  # divisors of tau


def test_batch_prediction_matches_scalar(small_data):
    model = build_forest(
        small_data, TrainConfig(epsilon=1.0, tau=9, depth_override=4, seed=5)
    )
    codes = predict_batch(model, small_data)
    labels = small_data.schema.class_labels
    for i in range(0, len(small_data), 17):
        assert labels[codes[i]] == predict(model, small_data.record(i))


def test_model_file_round_trip(small_data, tmp_path):
    config = TrainConfig(epsilon=0.5, tau=6, seed=11, budget_mode="split")
    model = build_forest(small_data, config)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert model_to_dict(loaded) == model_to_dict(model)
    assert np.array_equal(predict_batch(loaded, small_data), predict_batch(model, small_data))
    again = tmp_path / "model2.json"
    save_model(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_model_file_contains_no_leaf_statistics(small_data, tmp_path):
    model = build_forest(
        small_data,
        TrainConfig(epsilon=1.0, tau=5, seed=8),
        collect_diagnostics=True,
    )
    path = tmp_path / "model.json"
    save_model(model, str(path))
    document = json.loads(path.read_text(encoding="utf-8"))
    assert set(document) == {"format_version", "schema", "config", "trees"}

    def walk(node):
        if node["kind"] == "leaf":
            assert set(node) == {"kind", "label"}
            return
        if node["kind"] == "split_cont":
            assert set(node) == {"kind", "feature", "split", "below", "at_or_above"}
            walk(node["below"])
            walk(node["at_or_above"])
            return
        assert set(node) == {"kind", "feature", "children"}
        for child in node["children"].values():
            walk(child)

    assert len(document["trees"]) == 5
    for tree in document["trees"]:
        walk(tree)


def test_model_loader_rejects_bad_documents(small_data, tmp_path):
    model = build_forest(small_data, TrainConfig(epsilon=1.0, tau=2, seed=0))
    document = model_to_dict(model)

    bad_version = dict(document, format_version=99)
    with pytest.raises(DataValidationError):
        model_from_dict(bad_version)

    missing_config = {k: v for k, v in document.items() if k != "config"}
    with pytest.raises(DataValidationError):
        model_from_dict(missing_config)

    wrong_count = dict(document, trees=document["trees"][:1])
    with pytest.raises(DataValidationError):
        model_from_dict(wrong_count)

    bad_label = json.loads(json.dumps(document))
    node = bad_label["trees"][0]
    while node["kind"] != "leaf":
        node = node["below"] if "below" in node else next(iter(node["children"].values()))
    node["label"] = "never-a-class"
    with pytest.raises(DataValidationError):
        model_from_dict(bad_label)

    # one tree, so that a tau equal to 1 passes the tree count check
    one_tree = json.loads(json.dumps(document))
    one_tree["trees"] = one_tree["trees"][:1]
    one_tree["config"]["tau"] = 1
    for key, value, match in [
        ("epsilon", math.nan, "model config: epsilon"),
        ("epsilon", math.inf, "model config: epsilon"),
        ("epsilon", -math.inf, "model config: epsilon"),
        ("tau", True, "model config: tau"),
        ("tau", 1.0, "model config: tau"),
        ("seed", 0.0, "model config: seed"),
        ("seed", -1, "model config: seed must be a non-negative integer"),
        ("depth", None, "missing key 'depth'"),
    ]:
        bad_config = json.loads(json.dumps(one_tree))
        bad_config["config"][key] = value
        with pytest.raises(DataValidationError, match=match):
            model_from_dict(bad_config)
    # an integer epsilon loads as a float and is written back as one
    integral = json.loads(json.dumps(document))
    integral["config"]["epsilon"] = 1
    loaded = model_from_dict(integral)
    assert json.dumps(model_to_dict(loaded)) == json.dumps(document)


def test_unlabeled_leaves_never_serialize(small_data):
    model = build_forest(small_data, TrainConfig(epsilon=1.0, tau=2, seed=0))
    next(iter_leaves(model.trees[0])).label = None
    from dpforest.errors import InternalInvariantError

    with pytest.raises(InternalInvariantError):
        model_to_dict(model)


def test_build_forest_input_validation(small_data):
    from dpforest.data import Dataset

    with pytest.raises(ValueError):
        build_forest(small_data, TrainConfig(epsilon=1.0, tau=401, seed=0))
    unlabeled = generate(3, 0, 50, np.random.default_rng(0))
    features_only = Dataset(
        unlabeled.schema,
        {name: unlabeled.column(name) for name in unlabeled.schema.feature_names},
    )
    with pytest.raises(DataValidationError):
        build_forest(features_only, TrainConfig(epsilon=1.0, tau=2, seed=0))


def test_tau_equal_to_n_trains(small_data):
    tiny = small_data.subset(np.arange(12))
    config = TrainConfig(epsilon=1.0, tau=12, depth_override=2, seed=0)
    model = build_forest(tiny, config)
    assert len(model.trees) == 12


def test_leaf_cap_admits_the_largest_shapes_in_use():
    from dpforest.forest import MAX_FOREST_LEAVES, _check_leaf_count
    from dpforest.synth import PRESETS, get_preset
    from dpforest.tree import max_leaves, optimal_depth

    # every preset at its derived depth with the default 100 trees
    for preset in PRESETS.values():
        data = generate(preset.informative, preset.random, 4, np.random.default_rng(0))
        depth = optimal_depth(data.schema.num_continuous, data.schema.num_discrete)
        _check_leaf_count(data.schema, depth, 100)
    synthc = generate(get_preset("SynthC").informative, 0, 40, np.random.default_rng(0))
    # criterion 9: 30 trees at depth 12 on SynthC
    assert 30 * max_leaves(synthc.schema, 12) == 30 * 4096 <= MAX_FOREST_LEAVES
    with pytest.raises(ValueError, match=f"{30 * 2**40} leaves"):
        build_forest(synthc, TrainConfig(epsilon=1.0, tau=30, depth_override=40, seed=0))


def test_leaf_cap_states_the_count_of_a_huge_depth_as_a_power():
    from dpforest.forest import _check_leaf_count

    schema = FeatureSchema(
        features=(ContinuousFeature("a", 0.0, 1.0),), class_labels=("x", "y"))
    # the exact count, 2^(10^12) per tree, would not fit in memory
    with pytest.raises(ValueError, match=rf"up to {2 * 2**64} \* 2\^{10**12 - 64} leaves"):
        _check_leaf_count(schema, 10**12, 2)


def test_model_loader_checks_depth(small_data):
    model = build_forest(small_data, TrainConfig(epsilon=1.0, tau=2, seed=0))
    document = model_to_dict(model)
    shallow = json.loads(json.dumps(document))
    shallow["config"]["depth"] = 1
    with pytest.raises(DataValidationError, match="deeper than the model depth"):
        model_from_dict(shallow)
    # a declared depth far past the leaf cap loads: the trees are in the file
    deep = json.loads(json.dumps(document))
    deep["config"]["depth"] = 10**12
    assert model_from_dict(deep).trees == model.trees
    bad_depth = json.loads(json.dumps(document))
    bad_depth["config"]["depth"] = "deep"
    bad_depth["trees"] = [{"kind": "mystery"}] * 2
    with pytest.raises(DataValidationError, match="depth must be a positive integer"):
        model_from_dict(bad_depth)
