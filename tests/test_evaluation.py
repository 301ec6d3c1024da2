import gc
import json
import re
import weakref

import numpy as np
import pytest

from dpforest.data import ContinuousFeature, Dataset, FeatureSchema
from dpforest.errors import DataValidationError
from dpforest.evaluation import (
    _tied_ranks,
    accuracy,
    auc,
    collect_diagnostics,
    cross_validate,
    f1,
    least_frequent_label,
    report_to_dict,
    summarize_leaf_diagnostics,
)
from dpforest.forest import TrainConfig, build_forest
from dpforest.synth import generate

from conftest import pairwise_auc_oracle

# every class name the metric tests write, each with its integer code
NAMES = ("a", "b", "c", "n", "p", "zzz")
CODES = {name: code for code, name in enumerate(NAMES)}


def _on_codes(metric):
    """``metric`` fed label codes where the caller writes class names.

    Label lists become int64 arrays, as ``cross_validate`` passes them, and
    a label that ``least_frequent_label`` returns becomes a name again.
    """
    def encode(arg):
        if isinstance(arg, str):
            return CODES[arg]
        if isinstance(arg, (list, tuple)) and all(isinstance(x, str) for x in arg):
            return np.array([CODES[x] for x in arg], dtype=np.int64)
        return arg

    def call(*args, **kwargs):
        result = metric(*map(encode, args), **{k: encode(v) for k, v in kwargs.items()})
        return NAMES[result] if metric is least_frequent_label else result

    return call


def names_and_codes(metric):
    """Run a test once on ``metric`` itself and once on its code-fed form."""
    return pytest.mark.parametrize(
        metric.__name__, [metric, _on_codes(metric)], ids=["names", "codes"])


@names_and_codes(accuracy)
def test_accuracy(accuracy):
    assert accuracy(["a", "b", "a"], ["a", "b", "b"]) == pytest.approx(2 / 3)
    assert accuracy(["a"], ["a"]) == 1.0
    with pytest.raises(ValueError):
        accuracy(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        accuracy([], [])


@names_and_codes(least_frequent_label)
def test_least_frequent_label(least_frequent_label):
    assert least_frequent_label(["a", "a", "b"]) == "b"
    # a tie goes to the earliest label in the supplied order
    assert least_frequent_label(["a", "b"], order=("b", "a")) == "b"
    assert least_frequent_label(["a", "b"], order=("a", "b")) == "a"
    with pytest.raises(ValueError):
        least_frequent_label([])
    with pytest.raises(ValueError):
        least_frequent_label(["a", "b"], order=("a",))


@names_and_codes(auc)
def test_auc_hand_cases(auc):
    # pairwise: (0.9 vs 0.8) + (0.9 vs 0.1) + (0.8 vs 0.8 tie) + (0.8 vs 0.1)
    got = auc([0.9, 0.8, 0.8, 0.1], ["p", "n", "p", "n"], "p")
    assert got == pytest.approx(0.875)
    assert auc([0.9, 0.8, 0.2, 0.1], ["p", "p", "n", "n"], "p") == 1.0
    assert auc([0.1, 0.2, 0.8, 0.9], ["p", "p", "n", "n"], "p") == 0.0
    assert auc([0.5, 0.5, 0.5, 0.5], ["p", "p", "n", "n"], "p") == 0.5


@names_and_codes(auc)
def test_auc_matches_pairwise_definition(auc):
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 50))
        # coarse score grid so ties actually occur
        scores = rng.integers(0, 6, size=n) / 5.0
        truth = ["p" if rng.random() < 0.4 else "n" for _ in range(n)]
        if "p" not in truth or "n" not in truth:
            continue
        got = auc(scores.tolist(), truth, "p")
        want = pairwise_auc_oracle(scores.tolist(), truth, "p")
        assert got == pytest.approx(want, abs=1e-12)


@names_and_codes(auc)
def test_auc_validation(auc):
    with pytest.raises(ValueError):
        auc([0.1, 0.2], ["p", "p"], "p")
    with pytest.raises(ValueError):
        auc([0.1, 0.2, 0.3], ["a", "b", "c"], "a")
    with pytest.raises(ValueError):
        auc([0.1, 0.2], ["a", "b"], "zzz")
    with pytest.raises(ValueError):
        auc([0.1], ["a", "b"], "a")


@names_and_codes(f1)
def test_f1_hand_cases(f1):
    # tp=2 fp=1 fn=2: precision 2/3, recall 1/2, f1 = 4/7
    predictions = ["p", "p", "p", "n", "n", "n", "n"]
    truth = ["p", "p", "n", "p", "p", "n", "n"]
    assert f1(predictions, truth, "p") == pytest.approx(4 / 7)
    assert f1(["n", "n"], ["n", "n"], "p") == 0.0
    assert f1(["p", "p"], ["p", "p"], "p") == 1.0


def test_tied_ranks_match_the_loop_over_tie_groups():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 60):
        values = rng.integers(0, 4, size=n) / 3.0
        order = np.argsort(values, kind="mergesort")
        boundaries = np.flatnonzero(np.diff(values[order]) != 0) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        want = np.empty(n)
        for a, b in zip(starts, ends):
            want[order[a:b]] = (a + 1 + b) / 2.0
        assert _tied_ranks(values).tobytes() == want.tobytes()


def _forest_diagnostics(seed, sensitivity_mode, data, tau=4, depth=3, epsilon=0.5):
    config = TrainConfig(
        epsilon=epsilon,
        tau=tau,
        depth_override=depth,
        sensitivity_mode=sensitivity_mode,
        seed=seed,
    )
    model = build_forest(data, config, collect_diagnostics=True)
    return collect_diagnostics(model)


def test_global_sensitivity_flips_more_than_smooth():
    data = generate(3, 0, 240, np.random.default_rng(1))
    smooth, global_ = [], []
    for seed in range(30):
        smooth.append(_forest_diagnostics(seed, "smooth", data).flip_fraction)
        global_.append(_forest_diagnostics(seed, "global", data).flip_fraction)
    assert np.mean(global_) >= np.mean(smooth)


def test_empty_leaf_fraction_grows_with_forest_size():
    data = generate(3, 0, 600, np.random.default_rng(2))
    small, large = [], []
    for seed in range(30):
        small.append(
            _forest_diagnostics(seed, "smooth", data, tau=2, depth=6).empty_leaf_fraction_mean
        )
        large.append(
            _forest_diagnostics(seed, "smooth", data, tau=30, depth=6).empty_leaf_fraction_mean
        )
    assert np.mean(large) > np.mean(small)


def test_summarize_excludes_empty_leaves_from_flip_and_sensitivity():
    from dpforest.mechanism import QueryDiagnostics

    occupied = QueryDiagnostics(
        record_count=5, gap=2, smooth_sensitivity=0.2,
        preferred_labels=("a",), flipped=True,
    )
    empty = QueryDiagnostics(
        record_count=0, gap=0, smooth_sensitivity=1.0,
        preferred_labels=(), flipped=False,
    )
    report = summarize_leaf_diagnostics([[occupied, empty], [empty, empty]])
    assert report.empty_leaf_fraction_mean == pytest.approx(0.75)
    assert report.flip_fraction == 1.0
    assert report.mean_smooth_sensitivity == pytest.approx(0.2)


def test_summarize_reads_a_generator_like_a_list():
    data = generate(3, 0, 240, np.random.default_rng(4))
    config = TrainConfig(epsilon=1.0, tau=4, depth_override=5, seed=8)
    per_tree = build_forest(data, config, collect_diagnostics=True).diagnostics
    from_list = summarize_leaf_diagnostics(list(per_tree))
    assert summarize_leaf_diagnostics(leaves for leaves in per_tree) == from_list
    with pytest.raises(ValueError, match="no trees"):
        summarize_leaf_diagnostics(leaves for leaves in ())


def test_cross_validate_shapes_and_determinism():
    data = generate(3, 0, 300, np.random.default_rng(5))
    config = TrainConfig(epsilon=1.0, tau=5, depth_override=4, seed=9)
    metrics, diagnostics = cross_validate(data, config, folds=3, repeats=2)
    assert len(metrics.accuracy.samples) == 6
    assert metrics.auc is not None and len(metrics.auc.samples) == 6
    assert metrics.f1 is not None and len(metrics.f1.samples) == 6
    assert 0.0 <= metrics.accuracy.mean <= 1.0
    assert 0.0 <= diagnostics.empty_leaf_fraction_mean <= 1.0
    assert 0.0 <= diagnostics.flip_fraction <= 1.0

    again, _ = cross_validate(data, config, folds=3, repeats=2)
    assert again == metrics


def _reference_fold_blocks(n, folds, rng):
    """The fold cutter cross_validate used before it shared partition_disjoint."""
    perm = rng.permutation(n)
    base, extra = divmod(n, folds)
    blocks = []
    start = 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        blocks.append(perm[start:start + size])
        start += size
    return blocks


def _same_records(a, b):
    return all(np.array_equal(a.column(name), b.column(name))
               for name in a.schema.feature_names) and np.array_equal(
        a.label_codes, b.label_codes)


@pytest.mark.parametrize("n,folds,seed", [(300, 3, 9), (302, 4, 0), (50, 3, 7),
                                          (64, 5, 123)])
def test_cross_validate_folds_match_the_reference_cutter(monkeypatch, n, folds, seed):
    import dpforest.evaluation
    import dpforest.forest

    data = generate(3, 0, n, np.random.default_rng(seed))
    config = TrainConfig(epsilon=1.0, tau=2, depth_override=2, seed=seed)
    repeats = 2
    trained, tested = [], []
    build, vote = dpforest.evaluation.build_forest, dpforest.evaluation.vote_matrix

    def spy_build(train, *args, **kwargs):
        trained.append(train)
        return build(train, *args, **kwargs)

    def spy_vote(model, test):
        tested.append(test)
        return vote(model, test)

    monkeypatch.setattr(dpforest.evaluation, "build_forest", spy_build)
    for module in (dpforest.evaluation, dpforest.forest):
        monkeypatch.setattr(module, "vote_matrix", spy_vote)
    cross_validate(data, config, folds=folds, repeats=repeats)

    # one vote pass per fold serves both the predictions and the AUC scores
    assert len(tested) == len(trained) == folds * repeats
    cell = 0
    for repeat_seq in np.random.SeedSequence(seed).spawn(repeats):
        shuffle_seq = repeat_seq.spawn(folds + 1)[0]
        blocks = _reference_fold_blocks(n, folds, np.random.default_rng(shuffle_seq))
        for i in range(folds):
            train_idx = np.concatenate([blocks[j] for j in range(folds) if j != i])
            assert _same_records(tested[cell], data.subset(blocks[i]))
            assert _same_records(trained[cell], data.subset(train_idx))
            cell += 1


def test_cross_validate_keeps_one_forest_of_leaf_diagnostics(monkeypatch):
    import dpforest.evaluation
    import dpforest.forest

    data = generate(3, 0, 300, np.random.default_rng(5))
    config = TrainConfig(epsilon=1.0, tau=5, depth_override=4, seed=9)
    refs, live_at_entry, forest_leaves = [], [], []
    query, build = dpforest.forest.majority_label_query, dpforest.evaluation.build_forest

    def spy_query(*args, **kwargs):
        label, diag = query(*args, **kwargs)
        refs.append(weakref.ref(diag))
        return label, diag

    def spy_build(*args, **kwargs):
        gc.collect()
        live_at_entry.append(sum(ref() is not None for ref in refs))
        model = build(*args, **kwargs)
        forest_leaves.append(sum(len(leaves) for leaves in model.diagnostics))
        return model

    monkeypatch.setattr(dpforest.forest, "majority_label_query", spy_query)
    monkeypatch.setattr(dpforest.evaluation, "build_forest", spy_build)
    cross_validate(data, config, folds=3, repeats=2)

    assert len(live_at_entry) == 6
    assert max(live_at_entry) <= max(forest_leaves)


def test_cross_validate_multiclass_reports_accuracy_only():
    schema = FeatureSchema(
        features=(ContinuousFeature("f", -10.0, 10.0),),
        class_labels=("a", "b", "c"),
    )
    rng = np.random.default_rng(0)
    n = 90
    data = Dataset(
        schema,
        {"f": rng.uniform(-10, 10, size=n)},
        rng.integers(0, 3, size=n),
    )
    config = TrainConfig(epsilon=1.0, tau=2, depth_override=2, seed=1)
    metrics, _ = cross_validate(data, config, folds=3, repeats=1)
    assert metrics.auc is None
    assert metrics.f1 is None
    assert len(metrics.accuracy.samples) == 3


def test_cross_validate_validation():
    data = generate(3, 0, 50, np.random.default_rng(5))
    config = TrainConfig(epsilon=1.0, tau=2, depth_override=2, seed=0)
    with pytest.raises(ValueError):
        cross_validate(data, config, folds=1, repeats=1)
    with pytest.raises(ValueError):
        cross_validate(data, config, folds=51, repeats=1)
    with pytest.raises(ValueError):
        cross_validate(data, config, folds=2, repeats=0)


def test_cross_validate_refuses_a_one_class_binary_fold_before_training(monkeypatch):
    import dpforest.evaluation

    schema = FeatureSchema(
        features=(ContinuousFeature("f", 0.0, 1.0),), class_labels=("c0", "c1"))
    rng = np.random.default_rng(3)
    data = Dataset(schema, {"f": rng.uniform(0, 1, size=20)}, np.array([1] + [0] * 19))
    config = TrainConfig(epsilon=1.0, tau=2, depth_override=2, seed=4)
    built = []
    build = dpforest.evaluation.build_forest

    def spy_build(*args, **kwargs):
        built.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(dpforest.evaluation, "build_forest", spy_build)
    with pytest.raises(DataValidationError) as raised:
        cross_validate(data, config, folds=5, repeats=1)
    match = re.fullmatch(r"test fold (\d) of 5 in repeat 1 holds only class 'c0'; "
                         r"AUC needs both classes", str(raised.value))
    assert match is not None
    # every earlier fold was trained and scored, the failing one was not
    assert len(built) == int(match.group(1)) - 1


def test_report_to_dict_is_json_ready():
    data = generate(3, 0, 200, np.random.default_rng(6))
    config = TrainConfig(epsilon=1.0, tau=4, depth_override=3, seed=2)
    metrics, diagnostics = cross_validate(data, config, folds=2, repeats=1)
    document = report_to_dict(config, 2, 1, metrics, diagnostics)
    parsed = json.loads(json.dumps(document))
    assert parsed["folds"] == 2
    assert parsed["repeats"] == 1
    assert parsed["config"]["epsilon"] == 1.0
    assert len(parsed["metrics"]["accuracy"]["samples"]) == 2
    assert "empty_leaf_fraction" in parsed["diagnostics"]
    assert "flip_fraction" in parsed["diagnostics"]
    assert "mean_smooth_sensitivity" in parsed["diagnostics"]


def test_collect_diagnostics_requires_the_flag():
    data = generate(3, 0, 100, np.random.default_rng(7))
    model = build_forest(data, TrainConfig(epsilon=1.0, tau=2, seed=0))
    with pytest.raises(ValueError):
        collect_diagnostics(model)
