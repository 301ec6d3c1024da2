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

from .data import ContinuousFeature, Dataset, FeatureSchema, Record
from .errors import DataValidationError

# continuous domains narrower than this are numerically exhausted
MIN_DOMAIN_WIDTH = 1e-12


@dataclass
class Leaf:
    label: str | None = None


@dataclass
class ContinuousSplit:
    feature: str
    split: float
    below: "TreeNode"
    at_or_above: "TreeNode"


@dataclass
class DiscreteSplit:
    feature: str
    children: dict[str, "TreeNode"] = field(default_factory=dict)


TreeNode = Leaf | ContinuousSplit | DiscreteSplit


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
    domain is still wider than MIN_DOMAIN_WIDTH plus the discrete ones not
    yet used on the path. A branch ends early when no candidates remain.
    This function never touches records; it reads only the schema and the
    random stream.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    bounds = {f.name: (f.lower, f.upper) for f in schema.continuous_features()}
    unused_discrete = {f.name for f in schema.discrete_features()}

    def grow(level: int) -> TreeNode:
        if level == depth:
            return Leaf()
        candidates = []
        for feat in schema.features:
            if isinstance(feat, ContinuousFeature):
                lo, hi = bounds[feat.name]
                if hi - lo > MIN_DOMAIN_WIDTH:
                    candidates.append(feat)
            elif feat.name in unused_discrete:
                candidates.append(feat)
        if not candidates:
            return Leaf()
        feat = candidates[int(rng.integers(len(candidates)))]
        if isinstance(feat, ContinuousFeature):
            lo, hi = bounds[feat.name]
            split = float(rng.uniform(lo, hi))
            while not lo < split < hi:  # guard against landing on an endpoint
                split = float(rng.uniform(lo, hi))
            bounds[feat.name] = (lo, split)
            below = grow(level + 1)
            bounds[feat.name] = (split, hi)
            at_or_above = grow(level + 1)
            bounds[feat.name] = (lo, hi)
            return ContinuousSplit(feat.name, split, below, at_or_above)
        unused_discrete.remove(feat.name)
        children = {value: grow(level + 1) for value in feat.values}
        unused_discrete.add(feat.name)
        return DiscreteSplit(feat.name, children)

    return grow(0)


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


def leaf_assignments(root: TreeNode, data: Dataset) -> list[tuple[Leaf, np.ndarray]]:
    """Pair every leaf with the indices of the records routed to it.

    All leaves appear in construction order, empty ones with empty index
    arrays. Agrees with route_record on every record; the batch form just
    avoids walking the tree once per row.
    """
    value_codes = {
        f.name: {v: i for i, v in enumerate(f.values)}
        for f in data.schema.discrete_features()
    }
    out: list[tuple[Leaf, np.ndarray]] = []

    def visit(node: TreeNode, idx: np.ndarray) -> None:
        if isinstance(node, Leaf):
            out.append((node, idx))
            return
        if isinstance(node, ContinuousSplit):
            below_mask = data.column(node.feature)[idx] < node.split
            visit(node.below, idx[below_mask])
            visit(node.at_or_above, idx[~below_mask])
            return
        codes = data.column(node.feature)[idx]
        for value, child in node.children.items():
            visit(child, idx[codes == value_codes[node.feature][value]])

    visit(root, np.arange(len(data)))
    return out


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


def node_from_dict(obj, schema: FeatureSchema, depth: int) -> TreeNode:
    """Rebuild a tree from its serialized form, validating against the schema.

    A tree with more than ``depth`` tests on a path is rejected.
    """
    if not isinstance(obj, dict):
        raise DataValidationError("tree node must be a JSON object")
    kind = obj.get("kind")
    if kind in ("split_cont", "split_disc"):
        if depth < 1:
            raise DataValidationError("tree is nested deeper than the model depth")
        depth -= 1
    if kind == "leaf":
        label = obj.get("label")
        if label not in schema.class_labels:
            raise DataValidationError(f"leaf label {label!r} not in class labels")
        return Leaf(label=label)
    if kind == "split_cont":
        feature = obj.get("feature")
        spec = _feature_or_error(schema, feature)
        if not isinstance(spec, ContinuousFeature):
            raise DataValidationError(f"feature {feature!r} is not continuous")
        split = obj.get("split")
        if isinstance(split, bool) or not isinstance(split, (int, float)):
            raise DataValidationError(f"split for {feature!r} must be a number")
        if not math.isfinite(float(split)):
            raise DataValidationError(f"split for {feature!r} must be finite")
        return ContinuousSplit(
            feature=feature,
            split=float(split),
            below=node_from_dict(obj.get("below"), schema, depth),
            at_or_above=node_from_dict(obj.get("at_or_above"), schema, depth),
        )
    if kind == "split_disc":
        feature = obj.get("feature")
        spec = _feature_or_error(schema, feature)
        if isinstance(spec, ContinuousFeature):
            raise DataValidationError(f"feature {feature!r} is not discrete")
        children = obj.get("children")
        if not isinstance(children, dict) or set(children) != set(spec.values):
            raise DataValidationError(
                f"children of {feature!r} must cover exactly its declared values"
            )
        return DiscreteSplit(
            feature=feature,
            children={v: node_from_dict(children[v], schema, depth) for v in spec.values},
        )
    raise DataValidationError(f"unknown tree node kind {kind!r}")


def _feature_or_error(schema: FeatureSchema, name) -> ContinuousFeature:
    if not isinstance(name, str):
        raise DataValidationError("tree node feature name must be a string")
    try:
        return schema.feature(name)
    except KeyError:
        raise DataValidationError(f"unknown feature {name!r} in tree") from None
