import math
import signal
import tracemalloc

import numpy as np
import pytest

from dpforest.data import ContinuousFeature, DiscreteFeature, FeatureSchema, Record
from dpforest.errors import DataValidationError
from dpforest.synth import generate_preset
from dpforest.tree import (
    MIN_DOMAIN_WIDTH,
    ContinuousSplit,
    DiscreteSplit,
    Leaf,
    build_tree,
    expected_untested,
    iter_leaves,
    leaf_assignments,
    max_leaves,
    node_from_dict,
    node_to_dict,
    optimal_depth,
    route_record,
)

from conftest import CountingDataset


def reference_build_tree(schema, depth, rng):
    """The level-wise draw written out node by node, kept as the reference.

    Each node of a level carries its own bounds and spent discrete
    features. The level makes the same random calls as ``build_tree``: one
    ``rng.integers`` over every node's candidate count, one ``rng.random``
    over its continuous splits, then one more over the splits that landed
    on an endpoint, until none does. Returns the tree as ``node_to_dict``
    gives it.
    """
    root = {}
    bounds = {f.name: (f.lower, f.upper) for f in schema.continuous_features()}
    level = [(root, bounds, frozenset())]
    for _ in range(depth):
        drawn = []
        for node, bounds, spent in level:
            candidates = []
            for feat in schema.features:
                if isinstance(feat, ContinuousFeature):
                    lo, hi = bounds[feat.name]
                    if hi - lo > MIN_DOMAIN_WIDTH and math.nextafter(lo, hi) < hi:
                        candidates.append(feat)
                elif feat.name not in spent:
                    candidates.append(feat)
            if candidates:
                drawn.append((node, bounds, spent, candidates))
            else:
                node.update(kind="leaf", label=None)
        if not drawn:
            break
        picks = rng.integers([len(candidates) for *_, candidates in drawn])
        chosen = [candidates[int(i)] for (*_, candidates), i in zip(drawn, picks)]
        domains = [bounds[feat.name] for (_, bounds, _, _), feat in zip(drawn, chosen)
                   if isinstance(feat, ContinuousFeature)]
        splits = [lo + (hi - lo) * u
                  for (lo, hi), u in zip(domains, rng.random(len(domains)).tolist())]
        redraw = [i for i, ((lo, hi), s) in enumerate(zip(domains, splits))
                  if not lo < s < hi]
        while redraw:
            for i, u in zip(redraw, rng.random(len(redraw)).tolist()):
                lo, hi = domains[i]
                splits[i] = lo + (hi - lo) * u
            redraw = [i for i in redraw if not domains[i][0] < splits[i] < domains[i][1]]
        splits = iter(splits)
        level = []
        for (node, bounds, spent, _), feat in zip(drawn, chosen):
            if isinstance(feat, ContinuousFeature):
                lo, hi = bounds[feat.name]
                split = next(splits)
                below, at_or_above = {}, {}
                node.update(kind="split_cont", feature=feat.name, split=split,
                            below=below, at_or_above=at_or_above)
                level.append((below, {**bounds, feat.name: (lo, split)}, spent))
                level.append((at_or_above, {**bounds, feat.name: (split, hi)}, spent))
            else:
                children = {value: {} for value in feat.values}
                node.update(kind="split_disc", feature=feat.name, children=children)
                level.extend((child, bounds, spent | {feat.name})
                             for child in children.values())
    for node, *_ in level:
        node.update(kind="leaf", label=None)
    return root


def _schema(*features, labels=("x", "y")):
    return FeatureSchema(features=features, class_labels=labels)


REFERENCE_DRAWS = {
    "synthc-depth-12": (
        generate_preset("SynthC", 20, np.random.default_rng(0)).schema, 12),
    "discrete-only": (_schema(
        DiscreteFeature("p", ("a", "b")),
        DiscreteFeature("q", ("a", "b", "c", "d")),
        DiscreteFeature("r", ("a", "b", "c")),
    ), 4),
    "mixed-three-class": (_schema(
        ContinuousFeature("x", 0.0, 10.0),
        ContinuousFeature("y", -1.0, 1.0),
        DiscreteFeature("colour", ("red", "green", "blue")),
        DiscreteFeature("size", ("s", "m")),
        labels=("A", "B", "C"),
    ), 7),
    # never a candidate: narrower than MIN_DOMAIN_WIDTH from the start
    "narrower-than-min-width": (_schema(
        ContinuousFeature("tiny", 0.0, 0.5 * MIN_DOMAIN_WIDTH),
        DiscreteFeature("d", ("a", "b", "c")),
        ContinuousFeature("wide", 0.0, 1.0),
    ), 6),
    # a candidate at the root that runs out a few splits down each path
    "narrows-below-min-width": (_schema(
        DiscreteFeature("d", ("a", "b")),
        ContinuousFeature("thin", 0.0, 3e-12),
    ), 8),
    # where the split's rounding matters: a width near the double limit, a
    # narrow domain far from zero, and a range below zero
    "wide-domain": (_schema(
        ContinuousFeature("wide", -1e307, 1e307),
        DiscreteFeature("d", ("a", "b")),
    ), 8),
    "narrow-offset-domain": (_schema(
        ContinuousFeature("offset", 1e6, 1e6 + 1e-9),
        ContinuousFeature("unit", 0.0, 1.0),
    ), 6),
    "negative-range": (_schema(
        ContinuousFeature("neg", -7.5, -2.25),
        ContinuousFeature("far", -3e12, -1e12),
    ), 8),
}


@pytest.mark.parametrize("case", list(REFERENCE_DRAWS))
def test_build_tree_matches_the_reference_draw(case):
    schema, depth = REFERENCE_DRAWS[case]
    for seed in range(4):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        tree = build_tree(schema, depth, ours)
        assert node_to_dict(tree) == reference_build_tree(schema, depth, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("depth", [3, 4, 6, 9])
def test_build_tree_ends_when_no_double_lies_inside_a_domain(depth):
    """A domain a few doubles wide stops being a candidate, not a loop.

    ``[1e6, 1e6 + 1e-9]`` is nine doubles wide and so wider than
    MIN_DOMAIN_WIDTH; after a few splits a path reaches an interval with
    no double strictly inside, where no split can land.
    """
    schema, _ = REFERENCE_DRAWS["narrow-offset-domain"]

    def stop(signum, frame):
        raise TimeoutError(f"build_tree at depth {depth} did not return in 10 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        for seed in range(1, 6):
            tree = build_tree(schema, depth, np.random.default_rng(seed))
            bounds = {f.name: (f.lower, f.upper) for f in schema.continuous_features()}
            _check_structure(schema, tree, bounds, frozenset(), depth)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_expected_untested_values():
    assert expected_untested(5, 0) == 5.0
    assert expected_untested(5, 1) == 4.0
    assert expected_untested(5, 2) == pytest.approx(3.2)
    assert expected_untested(5, 3) == pytest.approx(2.56)
    assert expected_untested(1, 1) == 0.0


def test_expected_untested_decreases_with_depth():
    for s in (2, 3, 10, 25):
        values = [expected_untested(s, d) for d in range(12)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_expected_untested_validation():
    with pytest.raises(ValueError):
        expected_untested(0, 3)
    with pytest.raises(ValueError):
        expected_untested(5, -1)


def test_optimal_depth_reference_values():
    # continuous-only schemas
    assert optimal_depth(4, 0) == 4
    assert optimal_depth(5, 0) == 5
    assert optimal_depth(10, 0) == 8
    assert optimal_depth(15, 0) == 12
    assert optimal_depth(16, 0) == 12
    assert optimal_depth(20, 0) == 15
    # discrete-only schemas
    assert optimal_depth(0, 8) == 4
    assert optimal_depth(0, 16) == 8
    assert optimal_depth(0, 22) == 11
    # mixed
    assert optimal_depth(6, 8) == 9


def test_optimal_depth_validation():
    with pytest.raises(ValueError):
        optimal_depth(0, 0)
    with pytest.raises(ValueError):
        optimal_depth(-1, 2)
    assert optimal_depth(1, 0) == 2


def _random_schema(rng):
    features = []
    n_cont = int(rng.integers(1, 5))
    n_disc = int(rng.integers(0, 4))
    for i in range(n_cont):
        lo = float(rng.uniform(-10, 5))
        features.append(ContinuousFeature(f"c{i}", lo, lo + float(rng.uniform(0.5, 10))))
    for i in range(n_disc):
        arity = int(rng.integers(2, 5))
        features.append(DiscreteFeature(f"d{i}", tuple(f"v{j}" for j in range(arity))))
    rng.shuffle(features)
    return FeatureSchema(features=tuple(features), class_labels=("x", "y"))


def _check_structure(schema, node, bounds, used_discrete, depth_left):
    if isinstance(node, Leaf):
        return
    assert depth_left > 0, "path deeper than the depth bound"
    if isinstance(node, ContinuousSplit):
        lo, hi = bounds[node.feature]
        assert lo < node.split < hi
        narrowed = dict(bounds)
        narrowed[node.feature] = (lo, node.split)
        _check_structure(schema, node.below, narrowed, used_discrete, depth_left - 1)
        narrowed[node.feature] = (node.split, hi)
        _check_structure(
            schema, node.at_or_above, narrowed, used_discrete, depth_left - 1
        )
        return
    assert isinstance(node, DiscreteSplit)
    assert node.feature not in used_discrete, "discrete feature reused on a path"
    spec = schema.feature(node.feature)
    assert tuple(node.children) == spec.values
    for child in node.children.values():
        _check_structure(
            schema, child, bounds, used_discrete | {node.feature}, depth_left - 1
        )


def test_build_tree_structure_properties():
    rng = np.random.default_rng(123)
    for _ in range(25):
        schema = _random_schema(rng)
        depth = int(rng.integers(1, 7))
        tree = build_tree(schema, depth, rng)
        bounds = {f.name: (f.lower, f.upper) for f in schema.continuous_features()}
        _check_structure(schema, tree, bounds, frozenset(), depth)


def test_build_tree_peaks_below_twice_the_tree_it_returns():
    """The level draw's temporaries stay smaller than the tree they build.

    One depth-14 SynthC tree (16,384 leaves) holds 2.0 MiB. Its draw peaks
    at 1.83 times that in tracemalloc with the feature pick counting in the
    smallest type that holds the feature count, and at 2.33 times with
    int64 counts.
    """
    schema = generate_preset("SynthC", 1000, np.random.default_rng(0)).schema
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tree = build_tree(schema, 14, np.random.default_rng(5))
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(tree, ContinuousSplit)
    assert peak - start < 2.1 * (live - start)


def test_build_tree_touches_no_records(mixed_schema):
    data = CountingDataset(
        mixed_schema,
        {
            "age": np.array([10.0, 20.0]),
            "color": np.array([0, 1]),
            "weight": np.array([0.0, 1.0]),
        },
        np.array([0, 1]),
    )
    rng = np.random.default_rng(0)
    for _ in range(5):
        build_tree(mixed_schema, 6, rng)
    assert data.reads == 0


def test_build_tree_is_deterministic(mixed_schema):
    one = build_tree(mixed_schema, 5, np.random.default_rng(77))
    two = build_tree(mixed_schema, 5, np.random.default_rng(77))
    assert node_to_dict(one) == node_to_dict(two)
    other = build_tree(mixed_schema, 5, np.random.default_rng(78))
    assert node_to_dict(one) != node_to_dict(other)


def test_tree_stops_when_candidates_run_out():
    schema = FeatureSchema(
        features=(DiscreteFeature("d", ("p", "q", "r")),),
        class_labels=("x", "y"),
    )
    tree = build_tree(schema, 5, np.random.default_rng(0))
    assert isinstance(tree, DiscreteSplit)
    for child in tree.children.values():
        assert isinstance(child, Leaf)  # the only feature is spent


def test_continuous_features_can_repeat_with_nested_domains():
    schema = FeatureSchema(
        features=(ContinuousFeature("c", 0.0, 1.0),),
        class_labels=("x", "y"),
    )
    tree = build_tree(schema, 6, np.random.default_rng(4))
    assert sum(1 for _ in iter_leaves(tree)) == 2 ** 6


def test_route_record_boundary():
    tree = ContinuousSplit("f", 0.5, Leaf("low"), Leaf("high"))
    assert route_record(tree, Record(values={"f": 0.4999})).label == "low"
    assert route_record(tree, Record(values={"f": 0.5})).label == "high"
    assert route_record(tree, Record(values={"f": 0.5001})).label == "high"


def test_route_record_discrete():
    tree = DiscreteSplit("d", {"p": Leaf("one"), "q": Leaf("two")})
    assert route_record(tree, Record(values={"d": "q"})).label == "two"


def test_leaf_assignments_agree_with_scalar_routing(mixed_dataset):
    rng = np.random.default_rng(3)
    for _ in range(5):
        tree = build_tree(mixed_dataset.schema, 4, rng)
        leaves, ids = leaf_assignments(tree, mixed_dataset)
        assert len(ids) == len(mixed_dataset)
        for i in range(len(mixed_dataset)):
            leaf = route_record(tree, mixed_dataset.record(i))
            assert leaves[ids[i]] is leaf


def test_leaf_assignments_include_empty_leaves(mixed_dataset):
    tree = build_tree(mixed_dataset.schema, 6, np.random.default_rng(1))
    leaves, ids = leaf_assignments(tree, mixed_dataset)
    sizes = np.bincount(ids, minlength=len(leaves))
    assert len(leaves) == sum(1 for _ in iter_leaves(tree))
    assert sum(sizes) == len(mixed_dataset)
    assert any(sizes == 0)  # 60 records cannot fill 64+ leaves


def test_leaf_assignments_list_every_leaf_in_construction_order():
    rng = np.random.default_rng(5)
    data = generate_preset("SynthC", 50, rng)
    tree = build_tree(data.schema, 12, rng)
    leaves, _ = leaf_assignments(tree, data)
    expected = list(iter_leaves(tree))
    assert len(leaves) == len(expected)
    assert all(ours is theirs for ours, theirs in zip(leaves, expected))


def test_serialization_round_trip(mixed_schema):
    rng = np.random.default_rng(8)
    tree = build_tree(mixed_schema, 4, rng)
    for i, leaf in enumerate(iter_leaves(tree)):
        leaf.label = mixed_schema.class_labels[i % 2]
    blob = node_to_dict(tree)
    rebuilt = node_from_dict(blob, mixed_schema, 4)
    assert node_to_dict(rebuilt) == blob


def test_deserialization_validates(mixed_schema):
    with pytest.raises(DataValidationError):
        node_from_dict({"kind": "mystery"}, mixed_schema, 1)
    with pytest.raises(DataValidationError):
        node_from_dict({"kind": "leaf", "label": None}, mixed_schema, 1)
    with pytest.raises(DataValidationError):
        node_from_dict({"kind": "leaf", "label": "unknown"}, mixed_schema, 1)
    with pytest.raises(DataValidationError):
        node_from_dict(
            {"kind": "split_cont", "feature": "color", "split": 1.0,
             "below": {"kind": "leaf", "label": "no"},
             "at_or_above": {"kind": "leaf", "label": "no"}},
            mixed_schema, 1,
        )
    with pytest.raises(DataValidationError):
        node_from_dict(
            {"kind": "split_disc", "feature": "color",
             "children": {"red": {"kind": "leaf", "label": "no"}}},
            mixed_schema, 1,
        )


def test_build_tree_validation(mixed_schema):
    with pytest.raises(ValueError):
        build_tree(mixed_schema, 0, np.random.default_rng(0))


def test_max_leaves_takes_the_widest_levels_first(mixed_schema):
    continuous = FeatureSchema(
        features=(ContinuousFeature("a", 0.0, 1.0), ContinuousFeature("b", 0.0, 1.0)),
        class_labels=("x", "y"),
    )
    assert max_leaves(continuous, 1) == 2
    assert max_leaves(continuous, 12) == 4096
    assert max_leaves(continuous, 40) == 2**40
    # mixed_schema: color has 3 values, then binary continuous splits
    assert max_leaves(mixed_schema, 1) == 3
    assert max_leaves(mixed_schema, 4) == 3 * 2**3
    discrete = FeatureSchema(
        features=(DiscreteFeature("p", ("a", "b")), DiscreteFeature("q", ("a", "b", "c", "d"))),
        class_labels=("x", "y"),
    )
    assert max_leaves(discrete, 1) == 4
    assert max_leaves(discrete, 2) == 8
    assert max_leaves(discrete, 50) == 8  # paths end once every feature is used


def test_max_leaves_bounds_drawn_trees(mixed_schema):
    for seed in range(20):
        depth = 1 + seed % 6
        tree = build_tree(mixed_schema, depth, np.random.default_rng(seed))
        assert sum(1 for _ in iter_leaves(tree)) <= max_leaves(mixed_schema, depth)


def test_deserialization_enforces_depth(mixed_schema):
    leaf = {"kind": "leaf", "label": "no"}
    one = {"kind": "split_cont", "feature": "age", "split": 1.0,
           "below": leaf, "at_or_above": leaf}
    two = {"kind": "split_disc", "feature": "color",
           "children": {"red": one, "green": leaf, "blue": leaf}}
    assert node_from_dict(leaf, mixed_schema, 0) == Leaf("no")
    node_from_dict(two, mixed_schema, 2)
    with pytest.raises(DataValidationError, match="deeper"):
        node_from_dict(two, mixed_schema, 1)
    with pytest.raises(DataValidationError, match="deeper"):
        node_from_dict(one, mixed_schema, 0)
