"""Acceptance checks.

Each test prints one summary line, so running this module with -v -s gives
a criterion-by-criterion scoreboard. The heavy scenarios share one large
generated dataset through a module fixture.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dpforest.budget import BudgetLedger
from dpforest.cli import main as cli_main
from dpforest.data import ContinuousFeature, DiscreteFeature, FeatureSchema, partition_disjoint
from dpforest.evaluation import collect_diagnostics, cross_validate
from dpforest.forest import TrainConfig, build_forest, predict_batch
from dpforest.mechanism import (
    exp_mechanism_select,
    neighbor_ratio_audit,
    score_labels,
    smooth_sensitivity,
)
from dpforest.synth import generate_preset
from dpforest.tree import (
    ContinuousSplit,
    DiscreteSplit,
    Leaf,
    build_tree,
    node_to_dict,
    optimal_depth,
)

from conftest import CountingDataset, mechanism_probs_oracle


def _report(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


@pytest.fixture(scope="module")
def large_synth():
    return generate_preset("SynthF", 30000, np.random.default_rng(11))


def test_criterion_01_depth_rule_reproduces_reference_rows():
    started = time.monotonic()
    rows = [
        (5, 0, 5), (10, 0, 8), (15, 0, 12), (15, 0, 12), (15, 0, 12),
        (10, 0, 8), (20, 0, 15), (4, 0, 4), (16, 0, 12), (10, 0, 8),
        (6, 8, 9), (0, 22, 11), (0, 16, 8), (0, 8, 4),
    ]
    mismatches = [
        (s, r, want, optimal_depth(s, r))
        for s, r, want in rows
        if optimal_depth(s, r) != want
    ]
    elapsed = time.monotonic() - started
    _report(
        1,
        not mismatches and elapsed < 1.0,
        f"depth rule exact on all {len(rows)} rows in {elapsed:.3f}s"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def _matches_cell(value, display):
    target = float(display)
    if "e" in display.lower():
        # tiny magnitudes are compared on the log scale
        return abs(math.log(value) - math.log(target)) <= 1e-3 * abs(math.log(target))
    if abs(value - target) <= 1e-3 * target:
        return True
    decimals = len(display.split(".")[1])
    return round(value, decimals) == target


def test_criterion_02_smooth_sensitivity_table():
    started = time.monotonic()
    table = {
        0: ("1.00000", "1.00000", "1.00000"),
        1: ("0.99004", "0.90483", "0.36788"),
        5: ("0.95122", "0.60653", "0.00674"),
        10: ("0.90483", "0.36788", "0.00005"),
        50: ("0.60653", "0.00674", "1.93e-22"),
        100: ("0.36788", "0.00005", "3.72e-44"),
        500: ("0.00674", "1.93e-22", "7.12e-218"),
    }
    epsilons = (0.01, 0.1, 1.0)
    failures = []
    for gap, cells in table.items():
        for epsilon, display in zip(epsilons, cells):
            value = smooth_sensitivity(gap, epsilon)
            if not _matches_cell(value, display):
                failures.append((gap, epsilon, display, value))
    elapsed = time.monotonic() - started
    _report(
        2,
        not failures and elapsed < 1.0,
        f"all 21 published cells reproduced in {elapsed:.3f}s"
        + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_03_selection_frequencies_match_analytic():
    started = time.monotonic()
    counts = {"A": 12, "B": 9, "C": 3}
    epsilon = 0.5
    scores = score_labels(counts)
    draws = 100000
    worst = 0.0
    details = []
    for mode, sensitivity in (
        ("smooth", smooth_sensitivity(3, epsilon)),
        ("global", 1.0),
    ):
        analytic = mechanism_probs_oracle(scores, epsilon, sensitivity)
        rng = np.random.default_rng(2024)
        seen = {label: 0 for label in counts}
        for _ in range(draws):
            seen[exp_mechanism_select(scores, sensitivity, epsilon, rng)] += 1
        gaps = {label: abs(seen[label] / draws - analytic[label]) for label in counts}
        worst = max(worst, max(gaps.values()))
        details.append(f"{mode} max dev {max(gaps.values()):.4f}")
    elapsed = time.monotonic() - started
    _report(
        3,
        worst <= 0.01 and elapsed < 10.0,
        f"{draws} draws per mode, {'; '.join(details)}, in {elapsed:.1f}s",
    )


def test_criterion_04_neighbor_audit():
    started = time.monotonic()
    worst_global = 0.0
    worst_smooth = 0.0
    violations = []
    for epsilon in (0.1, 1.0):
        for a in range(9):
            for b in range(9 - a):
                counts = {"A": a, "B": b}
                report = neighbor_ratio_audit(
                    counts, epsilon, sensitivity_mode="global"
                )
                worst_global = max(worst_global, report.max_log_ratio)
                if report.max_log_ratio > epsilon + 1e-12:
                    violations.append((epsilon, counts, report.max_log_ratio))
                smooth = neighbor_ratio_audit(
                    counts, epsilon, sensitivity_mode="smooth"
                )
                worst_smooth = max(worst_smooth, smooth.max_log_ratio)
    elapsed = time.monotonic() - started
    _report(
        4,
        not violations and elapsed < 5.0,
        f"global mode bounded by epsilon (worst {worst_global:.4f}); "
        f"smooth mode observed up to {worst_smooth:.4f} (reported, not asserted), "
        f"in {elapsed:.1f}s"
        + (f"; violations {violations}" if violations else ""),
    )


def _random_schema_and_data(rng):
    features = []
    n_cont = int(rng.integers(1, 5))
    n_disc = int(rng.integers(0, 4))
    for i in range(n_cont):
        lo = float(rng.uniform(-5, 5))
        features.append(ContinuousFeature(f"c{i}", lo, lo + float(rng.uniform(0.1, 8))))
    for i in range(n_disc):
        features.append(
            DiscreteFeature(f"d{i}", tuple(f"v{j}" for j in range(int(rng.integers(2, 5)))))
        )
    schema = FeatureSchema(features=tuple(features), class_labels=("x", "y"))
    n = 20
    columns = {}
    for feat in schema.features:
        if isinstance(feat, ContinuousFeature):
            columns[feat.name] = rng.uniform(feat.lower, feat.upper, size=n)
        else:
            columns[feat.name] = rng.integers(0, len(feat.values), size=n)
    return schema, CountingDataset(schema, columns, rng.integers(0, 2, size=n))


def _tree_is_valid(schema, node, bounds, used, depth_left):
    if isinstance(node, Leaf):
        return True
    if depth_left <= 0:
        return False
    if isinstance(node, ContinuousSplit):
        lo, hi = bounds[node.feature]
        if not lo < node.split < hi:
            return False
        narrowed = dict(bounds)
        narrowed[node.feature] = (lo, node.split)
        if not _tree_is_valid(schema, node.below, narrowed, used, depth_left - 1):
            return False
        narrowed[node.feature] = (node.split, hi)
        return _tree_is_valid(schema, node.at_or_above, narrowed, used, depth_left - 1)
    if isinstance(node, DiscreteSplit):
        if node.feature in used:
            return False
        if tuple(node.children) != schema.feature(node.feature).values:
            return False
        return all(
            _tree_is_valid(schema, child, bounds, used | {node.feature}, depth_left - 1)
            for child in node.children.values()
        )
    return False


def test_criterion_05_tree_building_never_reads_records():
    started = time.monotonic()
    rng = np.random.default_rng(404)
    total_reads = 0
    all_valid = True
    all_deterministic = True
    for _ in range(100):
        schema, counting = _random_schema_and_data(rng)
        depth = int(rng.integers(1, 7))
        seed = int(rng.integers(1 << 31))
        tree = build_tree(schema, depth, np.random.default_rng(seed))
        again = build_tree(schema, depth, np.random.default_rng(seed))
        all_deterministic &= node_to_dict(tree) == node_to_dict(again)
        bounds = {f.name: (f.lower, f.upper) for f in schema.continuous_features()}
        all_valid &= _tree_is_valid(schema, tree, bounds, frozenset(), depth)
        total_reads += counting.reads
    elapsed = time.monotonic() - started
    _report(
        5,
        total_reads == 0 and all_valid and all_deterministic and elapsed < 5.0,
        f"100 builds, {total_reads} record accesses, structures valid and "
        f"seed-deterministic, in {elapsed:.1f}s",
    )


def test_criterion_06_partition_and_exact_budget(large_synth):
    started = time.monotonic()
    blocks = partition_disjoint(large_synth, 100, np.random.default_rng(0))
    seen = np.concatenate(blocks)
    covers = sorted(seen.tolist()) == list(range(30000))
    disjoint = len(np.unique(seen)) == 30000

    exact = []
    for budget_mode in ("disjoint", "split"):
        ledger = BudgetLedger(1.0)
        config = TrainConfig(
            epsilon=1.0, tau=100, depth_override=4, budget_mode=budget_mode, seed=1
        )
        build_forest(large_synth, config, ledger)
        exact.append(ledger.composed_cost() == Fraction(1))
    elapsed = time.monotonic() - started
    _report(
        6,
        covers and disjoint and all(exact) and elapsed < 10.0,
        f"100 subsets cover 30000 records disjointly; composed cost exactly "
        f"epsilon in both budget modes; in {elapsed:.1f}s",
    )


def test_criterion_07_utility_on_balanced_synthetic(large_synth):
    started = time.monotonic()
    config = TrainConfig(epsilon=1.0, tau=100, seed=11)
    metrics, _ = cross_validate(large_synth, config, folds=10, repeats=1)
    baseline = max(large_synth.label_counts().values()) / len(large_synth)
    elapsed = time.monotonic() - started
    mean = metrics.accuracy.mean
    _report(
        7,
        mean >= 0.70 and mean >= baseline + 0.15 and elapsed < 300.0,
        f"10-fold accuracy {mean:.4f} (std {metrics.accuracy.std:.4f}) vs "
        f"baseline {baseline:.4f}, in {elapsed:.1f}s",
    )


def test_criterion_08_ablations(large_synth):
    started = time.monotonic()
    idx = np.random.default_rng(1).permutation(len(large_synth))
    train = large_synth.subset(idx[6000:])
    test = large_synth.subset(idx[:6000])
    truth = test.label_codes

    def run(seed, sensitivity_mode, budget_mode):
        config = TrainConfig(
            epsilon=1.0,
            tau=100,
            sensitivity_mode=sensitivity_mode,
            budget_mode=budget_mode,
            seed=seed,
        )
        model = build_forest(train, config, collect_diagnostics=True)
        acc = float(np.mean(predict_batch(model, test) == truth))
        return acc, collect_diagnostics(model).mean_smooth_sensitivity

    smooth_disjoint, global_disjoint, smooth_split = [], [], []
    for seed in range(10):
        smooth_disjoint.append(run(seed, "smooth", "disjoint"))
        global_disjoint.append(run(seed, "global", "disjoint"))
        smooth_split.append(run(seed, "smooth", "split"))

    acc = {
        "smooth": np.mean([r[0] for r in smooth_disjoint]),
        "global": np.mean([r[0] for r in global_disjoint]),
        "split": np.mean([r[0] for r in smooth_split]),
    }
    sens_disjoint = np.mean([r[1] for r in smooth_disjoint])
    sens_split = np.mean([r[1] for r in smooth_split])
    ok = (
        acc["smooth"] >= acc["global"] - 0.02
        and acc["smooth"] >= acc["split"] - 0.02
        and sens_disjoint <= sens_split
    )
    elapsed = time.monotonic() - started
    _report(
        8,
        ok and elapsed < 900.0,
        f"mean accuracy smooth/disjoint {acc['smooth']:.4f}, global/disjoint "
        f"{acc['global']:.4f}, smooth/split {acc['split']:.4f}; mean smooth "
        f"sensitivity disjoint {sens_disjoint:.4f} vs split {sens_split:.4f}; "
        f"10 seeds in {elapsed:.1f}s",
    )


def test_criterion_09_empty_leaves_grow_with_forest_size():
    started = time.monotonic()

    def empty_fraction(seed, tau):
        data = generate_preset("SynthC", 1000, np.random.default_rng(100 + seed))
        config = TrainConfig(epsilon=1.0, tau=tau, depth_override=12, seed=seed)
        model = build_forest(data, config, collect_diagnostics=True)
        return collect_diagnostics(model).empty_leaf_fraction_mean

    single = [empty_fraction(seed, 1) for seed in range(10)]
    forest = [empty_fraction(seed, 30) for seed in range(10)]
    mean_single = float(np.mean(single))
    mean_forest = float(np.mean(forest))
    elapsed = time.monotonic() - started
    _report(
        9,
        mean_forest > mean_single and mean_forest > 0.5 and mean_single > 0.5
        and elapsed < 300.0,
        f"depth-12 empty-leaf fraction {mean_forest:.4f} with 30 trees vs "
        f"{mean_single:.4f} with 1 tree (10 seeds), in {elapsed:.1f}s",
    )


def test_criterion_10_training_is_byte_reproducible(tmp_path):
    started = time.monotonic()
    data_path = tmp_path / "data.csv"
    schema_path = tmp_path / "schema.json"
    code = cli_main([
        "gen", "--preset", "SynthF", "--n", "3000", "--seed", "5",
        "--out", str(data_path), "--schema-out", str(schema_path),
    ])
    assert code == 0
    blobs = []
    for name, threads in (("a.json", "1"), ("b.json", "1"), ("c.json", "4")):
        out = tmp_path / name
        code = cli_main([
            "train", "--data", str(data_path), "--schema", str(schema_path),
            "--epsilon", "1.0", "--trees", "50", "--seed", "7",
            "--threads", threads, "--out", str(out),
        ])
        assert code == 0
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    elapsed = time.monotonic() - started
    _report(
        10,
        identical and elapsed < 120.0,
        f"three training runs (rerun and 4-thread) byte-identical, "
        f"in {elapsed:.1f}s",
    )
