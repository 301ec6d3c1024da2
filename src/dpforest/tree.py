"""Random decision trees built without looking at any data.

Structure is drawn from the schema alone: at each node a feature is picked
uniformly from the usable candidates, continuous features split at a
uniform point inside their current domain (and stay candidates deeper down
with the narrowed domain), discrete features branch once per value and are
spent for the rest of that path. Leaves start unlabeled; filling them is
the forest's job, because that is the only step that touches records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterator

import numpy as np

from .data import (ContinuousFeature, Dataset, FeatureSchema, FeatureSpec, Record,
                   finite_number)
from .errors import DataValidationError

# continuous domains narrower than this are numerically exhausted
MIN_DOMAIN_WIDTH = 1e-12


@dataclass(slots=True)
class Leaf:
    label: str | None = None


@dataclass(slots=True)
class ContinuousSplit:
    feature: str
    split: float
    below: "TreeNode"
    at_or_above: "TreeNode"


@dataclass(slots=True)
class DiscreteSplit:
    """One child per value, in the feature's declared value order."""

    feature: str
    children: dict[str, "TreeNode"] = field(default_factory=dict)


TreeNode = Leaf | ContinuousSplit | DiscreteSplit

# the members of each kind of node object in a model file
_NODE_KEYS = {
    "leaf": {"kind", "label"},
    "split_cont": {"kind", "feature", "split", "below", "at_or_above"},
    "split_disc": {"kind", "feature", "children"},
}


def expected_untested(num_continuous: int, depth: int) -> float:
    """Expected number of continuous features a random path never tests.

    Each of the ``depth`` uniform picks misses a given feature with
    probability (s-1)/s, so the expectation is s * ((s-1)/s) ** depth.
    """
    if num_continuous < 1:
        raise ValueError("need at least one continuous feature")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    s = float(num_continuous)
    return s * ((s - 1.0) / s) ** depth


def optimal_depth(num_continuous: int, num_discrete: int) -> int:
    """Tree depth heuristic balancing feature coverage against leaf dilution.

    For s continuous features, take one more than the smallest depth at
    which the expected number of untested features drops below s/2; deeper
    trees mostly re-test features while spreading the records thinner.
    Discrete features add ceil(r/2) levels since each is testable once.
    """
    if num_continuous < 0 or num_discrete < 0:
        raise ValueError("feature counts must be non-negative")
    if num_continuous + num_discrete == 0:
        raise ValueError("schema has no features")
    continuous_part = 0
    if num_continuous > 0:
        d = 0
        while expected_untested(num_continuous, d) >= num_continuous / 2.0:
            d += 1
        continuous_part = d + 1
    return continuous_part + (num_discrete + 1) // 2


def max_leaves(schema: FeatureSchema, depth: int) -> int:
    """Most leaves a tree of at most ``depth`` tests per path can have.

    A path tests each discrete feature at most once and continuous features
    any number of times, so the widest tree spends its first levels on the
    discrete features with the most values and the rest on binary
    continuous splits.
    """
    arities = sorted((len(f.values) for f in schema.discrete_features()),
                     reverse=True)[:depth]
    leaves = math.prod(arities)
    if schema.num_continuous:
        leaves *= 2 ** (depth - len(arities))
    return leaves


def build_tree(schema: FeatureSchema, depth: int, rng: np.random.Generator) -> TreeNode:
    """Draw a random tree of at most ``depth`` tests per path.

    Candidate features at a node are the continuous ones whose current
    domain is still wider than MIN_DOMAIN_WIDTH and holds a double strictly
    inside, plus the discrete ones not yet used on the path. A branch ends
    early when no candidates remain. This function never touches records;
    it reads only the schema and the random stream.

    The draw goes level by level. Each level picks every node's feature in
    one ``rng.integers`` call and every continuous split in one
    ``rng.random`` call, in the order of the level's nodes, and draws again
    only the splits that landed on an endpoint of their domain.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    features = schema.features
    continuous = np.array([isinstance(f, ContinuousFeature) for f in features])
    arity = np.array([2 if c else len(f.values) for f, c in zip(features, continuous)])
    # one row of domains per node of the level; a discrete feature's domain
    # is [0, 1] until a split on it collapses it to [0, 0]
    lo = np.array([[f.lower if c else 0.0 for f, c in zip(features, continuous)]])
    hi = np.array([[f.upper if c else 1.0 for f, c in zip(features, continuous)]])
    levels = []  # per level: node count, inner nodes, their features and splits
    # the feature pick's running counts never exceed the feature count; in
    # the smallest type that holds it they stay small on a deep tree's last level
    count_type = np.min_scalar_type(len(features))
    width = 1  # nodes in the level being drawn
    for level in range(depth):
        usable = (hi - lo > MIN_DOMAIN_WIDTH) & (np.nextafter(lo, hi) < hi)
        counts = usable.sum(axis=1)
        inner = np.flatnonzero(counts)
        if not inner.size:
            break
        picks = rng.integers(counts[inner])
        feat = (usable[inner].cumsum(axis=1, dtype=count_type) > picks[:, None]).argmax(axis=1)
        is_cont = continuous[feat]
        a, b = lo[inner, feat], hi[inner, feat]
        split = np.zeros(inner.size)  # a discrete node keeps 0: the bound that spends it
        redraw = np.flatnonzero(is_cont)
        while redraw.size:  # until no split sits on an endpoint of its domain
            # rng.uniform(a, b) computes this same double
            split[redraw] = a[redraw] + (b[redraw] - a[redraw]) * rng.random(redraw.size)
            redraw = redraw[~((a[redraw] < split[redraw]) & (split[redraw] < b[redraw]))]
        levels.append((width, inner, feat, split))
        fanout = arity[feat]
        width = int(fanout.sum())
        if level + 1 == depth:
            break  # the children are leaves and need no domains

        # children in node order: each takes its parent's domains, with the
        # split feature's narrowed to [lo, split) or [split, hi], or [0, 0]
        parent = np.repeat(inner, fanout)
        child_feat = np.repeat(feat, fanout)
        child_cut = np.repeat(split, fanout)
        upper = np.repeat(is_cont, fanout)
        upper[np.cumsum(fanout) - fanout] = False  # a split's first child is below it
        lo, hi = lo[parent], hi[parent]
        lo[upper, child_feat[upper]] = child_cut[upper]
        hi[~upper, child_feat[~upper]] = child_cut[~upper]

    del lo, hi, usable  # free the last level's domains before building its nodes
    # nest bottom-up: an inner node takes the next level's nodes in order
    below: list[TreeNode] = [Leaf() for _ in range(width)]
    for size, inner, feat, split in reversed(levels):
        nodes: list[TreeNode | None] = [None] * size
        children = iter(below)
        for i, f, cut in zip(inner.tolist(), feat.tolist(), split.tolist()):
            spec = features[f]
            if isinstance(spec, ContinuousFeature):
                nodes[i] = ContinuousSplit(spec.name, cut, next(children), next(children))
            else:
                nodes[i] = DiscreteSplit(spec.name, {v: next(children) for v in spec.values})
        below = [Leaf() if node is None else node for node in nodes]
    return below[0]


def route_record(root: TreeNode, record: Record) -> Leaf:
    """Walk a record to its leaf. Values below a split go left, the rest right."""
    node = root
    while not isinstance(node, Leaf):
        if isinstance(node, ContinuousSplit):
            value = record.values[node.feature]
            node = node.below if value < node.split else node.at_or_above
        else:
            node = node.children[record.values[node.feature]]
    return node


def iter_leaves(root: TreeNode) -> Iterator[Leaf]:
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        elif isinstance(node, ContinuousSplit):
            stack.append(node.at_or_above)
            stack.append(node.below)
        else:
            stack.extend(reversed(list(node.children.values())))


def leaf_assignments(root: TreeNode, data: Dataset) -> tuple[list[Leaf], np.ndarray]:
    """Route every record at once: the leaves, and each record's leaf index.

    Leaves come in construction order, empty ones included, and
    ``leaves[leaf_ids[i]]`` is ``route_record(root, data.record(i))``.
    Discrete children are taken in the feature's declared value order,
    which is the order of the record's value codes.
    """
    leaves: list[Leaf] = []
    leaf_ids = np.empty(len(data), dtype=np.intp)
    # an explicit stack: a recursive closure would hold every index array
    # in a reference cycle until the cyclic collector ran
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(len(data)))]
    while stack:
        node, idx = stack.pop()
        if not idx.size:  # no record gets here: only its leaves are listed
            leaves.extend(iter_leaves(node))
        elif isinstance(node, Leaf):
            leaf_ids[idx] = len(leaves)
            leaves.append(node)
        elif isinstance(node, ContinuousSplit):
            below = data.column(node.feature)[idx] < node.split
            stack.append((node.at_or_above, idx[~below]))
            stack.append((node.below, idx[below]))
        else:
            codes = data.column(node.feature)[idx]
            for code, child in reversed(list(enumerate(node.children.values()))):
                stack.append((child, idx[codes == code]))
    return leaves, leaf_ids


def node_to_dict(node: TreeNode) -> dict:
    """Serialize a tree to plain dicts. Only structure and leaf labels."""
    if isinstance(node, Leaf):
        return {"kind": "leaf", "label": node.label}
    if isinstance(node, ContinuousSplit):
        return {
            "kind": "split_cont",
            "feature": node.feature,
            "split": node.split,
            "below": node_to_dict(node.below),
            "at_or_above": node_to_dict(node.at_or_above),
        }
    return {
        "kind": "split_disc",
        "feature": node.feature,
        "children": {value: node_to_dict(child) for value, child in node.children.items()},
    }


def write_node_json(node: TreeNode, level: int, out: list[str]) -> None:
    """Append the text ``json.dumps(node_to_dict(node), indent=2)`` gives.

    ``level`` is the node's nesting level in the enclosing document, which
    sets the indentation. Every leaf must be labelled.
    """
    pad = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level + "}"
    if isinstance(node, Leaf):
        out.append(f'{{{pad}"kind": "leaf",{pad}"label": '
                   f'{encode_basestring_ascii(node.label)}{close}')
    elif isinstance(node, ContinuousSplit):
        out.append(f'{{{pad}"kind": "split_cont",{pad}"feature": '
                   f'{encode_basestring_ascii(node.feature)},{pad}"split": '
                   f'{float.__repr__(node.split)},{pad}"below": ')
        write_node_json(node.below, level + 1, out)
        out.append(f',{pad}"at_or_above": ')
        write_node_json(node.at_or_above, level + 1, out)
        out.append(close)
    else:
        out.append(f'{{{pad}"kind": "split_disc",{pad}"feature": '
                   f'{encode_basestring_ascii(node.feature)},{pad}"children": {{')
        inner = pad + "  "
        for i, (value, child) in enumerate(node.children.items()):
            out.append(f'{"," if i else ""}{inner}{encode_basestring_ascii(value)}: ')
            write_node_json(child, level + 2, out)
        out.append(pad + "}" + close)


def node_json_hook(obj: dict):
    """A ``json`` object hook that makes each node-shaped object a node.

    An object is node-shaped when its "kind" is a node kind and its keys
    are exactly that kind's keys. The node is not checked: ``node_from_dict``
    checks it. Any other object is returned as it is, so a discrete
    feature whose values are "kind" and "label" keeps its children dict:
    the "kind" there holds a node, not a string.
    """
    kind = obj.get("kind")
    if not isinstance(kind, str) or obj.keys() != _NODE_KEYS.get(kind):
        return obj
    if kind == "leaf":
        return Leaf(obj["label"])
    if kind == "split_cont":
        return ContinuousSplit(obj["feature"], obj["split"], obj["below"], obj["at_or_above"])
    return DiscreteSplit(obj["feature"], obj["children"])


def node_from_dict(obj, schema: FeatureSchema, depth: int) -> TreeNode:
    """Rebuild a tree from its serialized form, validating against the schema.

    ``obj`` holds dicts, or nodes that ``node_json_hook`` made, which are
    checked and kept. A tree with more than ``depth`` tests on a path is
    rejected. Leaf labels and feature names become the schema's strings.
    """
    features = {f.name: f for f in schema.features}
    return _node_from_dict(obj, features, {c: c for c in schema.class_labels}, depth)


def _node_from_dict(obj, features: dict[str, FeatureSpec], labels: dict[str, str],
                    depth: int) -> TreeNode:
    if isinstance(obj, dict):
        kind = obj.get("kind")
        if not isinstance(kind, str) or kind not in _NODE_KEYS:
            raise DataValidationError(f"unknown tree node kind {kind!r}")
        # a missing member reads as null and an extra one is ignored
        obj = node_json_hook({key: obj.get(key) for key in _NODE_KEYS[kind]})
    elif not isinstance(obj, TreeNode):
        raise DataValidationError("tree node must be a JSON object")
    if isinstance(obj, Leaf):
        label = obj.label
        if not isinstance(label, str) or label not in labels:
            raise DataValidationError(f"leaf label {label!r} not in class labels")
        obj.label = labels[label]
        return obj
    if depth < 1:
        raise DataValidationError("tree is nested deeper than the model depth")
    depth -= 1
    feature = obj.feature
    if not isinstance(feature, str):
        raise DataValidationError("tree node feature name must be a string")
    spec = features.get(feature)
    if spec is None:
        raise DataValidationError(f"unknown feature {feature!r} in tree")
    obj.feature = spec.name
    if isinstance(obj, ContinuousSplit):
        if not isinstance(spec, ContinuousFeature):
            raise DataValidationError(f"feature {feature!r} is not continuous")
        obj.split = finite_number(obj.split, f"split for {feature!r}")
        obj.below = _node_from_dict(obj.below, features, labels, depth)
        obj.at_or_above = _node_from_dict(obj.at_or_above, features, labels, depth)
        return obj
    if isinstance(spec, ContinuousFeature):
        raise DataValidationError(f"feature {feature!r} is not discrete")
    children = obj.children
    if not isinstance(children, dict) or set(children) != set(spec.values):
        raise DataValidationError(
            f"children of {feature!r} must cover exactly its declared values"
        )
    obj.children = {v: _node_from_dict(children[v], features, labels, depth)
                    for v in spec.values}
    return obj
