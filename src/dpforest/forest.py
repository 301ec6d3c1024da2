"""Private forest training, prediction, and model files.

Training draws every tree structure from the schema alone, then fills each
leaf with one noisy majority query. Two ways of paying for those queries
are supported: "disjoint" trains each tree on its own slice of the data so
every query can spend the full budget (parallel composition), and "split"
trains every tree on all of the data with the budget divided evenly across
trees (sequential composition). Either way the composed cost recorded in
the ledger is exactly the configured epsilon.

Model files carry structure, leaf labels, and the training configuration.
They never contain record counts, vote margins, or any other per-leaf
diagnostic; those live only on the in-memory model and die with it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

import numpy as np

from .budget import BUDGET_MODES, DEFAULT_BUDGET_MODE, BudgetLedger
from .data import Dataset, FeatureSchema, Record, partition_disjoint, read_json
from .errors import DataValidationError, InternalInvariantError
from .mechanism import (DEFAULT_SENSITIVITY_MODE, SENSITIVITY_MODES, QueryDiagnostics,
                        _derive_leaf, majority_label_query)
from .tree import (
    TreeNode,
    build_tree,
    iter_leaves,
    leaf_assignments,
    max_leaves,
    node_from_dict,
    node_json_hook,
    node_to_dict,
    optimal_depth,
    route_record,
    write_node_json,
)

FORMAT_VERSION = 1

# most leaves a forest may be drawn with; admits every synthetic preset at
# its derived depth with the default 100 trees (SynthG: 100 * 2**15)
MAX_FOREST_LEAVES = 2**22


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run, including the seed.

    The same record travels from the CLI flags into the model file and
    back, so the checks here are also the model loader's checks. On a
    trained or loaded model ``depth_override`` is the depth the trees were
    drawn at. An integer epsilon is stored as a float.
    """

    epsilon: float
    tau: int = 100
    depth_override: int | None = None
    sensitivity_mode: str = DEFAULT_SENSITIVITY_MODE
    budget_mode: str = DEFAULT_BUDGET_MODE
    seed: int = 0

    def __post_init__(self):
        epsilon = self.epsilon
        if not (_is_int(epsilon) or isinstance(epsilon, float)) or not (
                0 < epsilon <= sys.float_info.max):
            raise ValueError("epsilon must be a positive finite number")
        object.__setattr__(self, "epsilon", float(epsilon))
        if not _is_int(self.tau) or self.tau < 1:
            raise ValueError("tau must be a positive integer")
        if self.depth_override is not None and (
                not _is_int(self.depth_override) or self.depth_override < 1):
            raise ValueError("depth must be a positive integer")
        if self.sensitivity_mode not in SENSITIVITY_MODES:
            raise ValueError(f"unknown sensitivity mode {self.sensitivity_mode!r}")
        if self.budget_mode not in BUDGET_MODES:
            raise ValueError(f"unknown budget mode {self.budget_mode!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass
class ForestModel:
    """Trees plus the config they were trained with, at their drawn depth."""

    schema: FeatureSchema
    trees: tuple[TreeNode, ...]
    config: TrainConfig
    # when collected: per tree, per leaf in construction order; not privacy safe
    diagnostics: tuple[tuple[QueryDiagnostics, ...], ...] | None = field(
        default=None, repr=False)


def fill_leaf_labels(
    tree: TreeNode,
    data: Dataset,
    epsilon: float,
    rng: np.random.Generator,
    *,
    sensitivity_mode: str = DEFAULT_SENSITIVITY_MODE,
) -> tuple[TreeNode, tuple[QueryDiagnostics, ...]]:
    """Give every leaf a label through one noisy majority query each.

    Routes the records once and counts every leaf's labels in one pass,
    then queries leaf by leaf in construction order, which is the order
    the random stream is consumed in. Empty leaves still get a query: with
    no records every label scores zero and the draw is uniform, so the
    filled tree leaks nothing about which regions were empty. The tree
    must not be filled already.
    """
    class_labels = data.schema.class_labels
    k = len(class_labels)
    leaves, leaf_ids = leaf_assignments(tree, data)
    counts = np.bincount(leaf_ids * k + data.label_codes, minlength=len(leaves) * k)
    diagnostics: list[QueryDiagnostics] = []
    for leaf, row in zip(leaves, counts.reshape(-1, k).tolist()):
        if leaf.label is not None:
            raise ValueError("tree already has leaf labels")
        label, diag = majority_label_query(
            dict(zip(class_labels, row)), epsilon, rng,
            sensitivity_mode=sensitivity_mode,
        )
        leaf.label = label
        diagnostics.append(diag)
    return tree, tuple(diagnostics)


def build_forest(
    data: Dataset,
    config: TrainConfig,
    ledger: BudgetLedger | None = None,
    *,
    collect_diagnostics: bool = False,
) -> ForestModel:
    """Train a forest of ``config.tau`` trees.

    All randomness flows from ``config.seed`` through one seed sequence:
    one child stream for the partition, one per tree. Trees are therefore
    independent of each other, and a rerun with the same config reproduces
    the model bit for bit.

    A ledger may be passed in to be inspected afterwards; otherwise an
    internal one guards the run. Either way the composed privacy cost must
    come out at exactly ``config.epsilon`` or training aborts.
    """
    if not data.has_labels:
        raise DataValidationError("training data must be labeled")
    n = len(data)
    if config.tau > n:
        raise ValueError(f"tau={config.tau} exceeds the {n} available records")

    schema = data.schema
    depth = (
        config.depth_override
        if config.depth_override is not None
        else optimal_depth(schema.num_continuous, schema.num_discrete)
    )
    _check_leaf_count(schema, depth, config.tau)
    if ledger is None:
        ledger = BudgetLedger(config.epsilon)

    root_seq = np.random.SeedSequence(config.seed)
    partition_seq, *tree_seqs = root_seq.spawn(config.tau + 1)

    # each tree's records, what each of its queries may spend, and the
    # ledger entries (scope, exact epsilon) that account for all trees
    epsilon_exact = Fraction(config.epsilon)
    if config.budget_mode == "disjoint":
        blocks = partition_disjoint(
            data, config.tau, np.random.default_rng(partition_seq)
        )
        # cut lazily, so one tree's subset is alive at a time
        subsets = (data.subset(block) for block in blocks)
        epsilon_per_query = config.epsilon
        spends = [(f"tree/{i}", epsilon_exact) for i in range(config.tau)]
    else:
        subsets = (data,) * config.tau
        epsilon_per_query = config.epsilon / config.tau
        if epsilon_per_query == 0.0:
            raise ValueError(
                f"epsilon {config.epsilon!r} split over {config.tau} trees rounds "
                "to a per-query epsilon of 0.0"
            )
        spends = [("training-data", epsilon_exact / config.tau)] * config.tau

    # leaves with equal counts share one answer within a forest only, so
    # the cache keeps the diagnostics of no forest but the last one trained
    _derive_leaf.cache_clear()
    trees, per_tree = [], []
    for tree_seq, subset in zip(tree_seqs, subsets):
        rng = np.random.default_rng(tree_seq)
        tree, diagnostics = fill_leaf_labels(
            build_tree(schema, depth, rng),
            subset,
            epsilon_per_query,
            rng,
            sensitivity_mode=config.sensitivity_mode,
        )
        trees.append(tree)
        if collect_diagnostics:
            per_tree.append(diagnostics)

    for scope, spend in spends:
        ledger.record(scope, spend)
    if ledger.composed_cost() != epsilon_exact or not ledger.within_budget():
        raise InternalInvariantError(
            f"privacy accounting drifted: composed cost {ledger.composed_cost()} "
            f"for budget {epsilon_exact}"
        )

    return ForestModel(
        schema=schema,
        trees=tuple(trees),
        config=replace(config, depth_override=depth),
        diagnostics=tuple(per_tree) if collect_diagnostics else None,
    )


def predict(model: ForestModel, record: Record) -> str:
    """Majority vote over the trees. Ties go to the first listed class label."""
    scores = predict_scores(model, record)
    # max keeps the first maximum, which is the schema-order tie break
    return max(scores, key=scores.get)


def predict_scores(model: ForestModel, record: Record) -> dict[str, Fraction]:
    """Per-label vote fractions as exact rationals summing to one."""
    votes = {label: 0 for label in model.schema.class_labels}
    for tree in model.trees:
        votes[route_record(tree, record).label] += 1
    return {label: Fraction(count, model.config.tau) for label, count in votes.items()}


def vote_matrix(model: ForestModel, data: Dataset) -> np.ndarray:
    """Vote counts per record and class label, in schema label order."""
    class_index = {label: i for i, label in enumerate(model.schema.class_labels)}
    votes = np.zeros((len(data), len(class_index)), dtype=np.int32)
    rows = np.arange(len(data))
    for tree in model.trees:
        leaves, leaf_ids = leaf_assignments(tree, data)
        leaf_codes = np.array([class_index[leaf.label] for leaf in leaves])
        votes[rows, leaf_codes[leaf_ids]] += 1
    return votes


def predict_batch(model: ForestModel, data: Dataset) -> np.ndarray:
    """Predicted label codes for every record. Matches predict row by row."""
    # argmax takes the first maximum, which is the schema-order tie break
    return np.argmax(vote_matrix(model, data), axis=1)


def _check_leaf_count(schema: FeatureSchema, depth: int, tau: int) -> None:
    # Past 64 binary levels a schema with a continuous feature is far over
    # the cap, so the rest of the count is stated as a power of two rather
    # than built as an integer that may have billions of digits.
    limit = schema.num_discrete + 64
    extra = depth - limit if schema.num_continuous and depth > limit else 0
    leaves = tau * max_leaves(schema, depth - extra)
    if leaves <= MAX_FOREST_LEAVES:
        return
    count = f"{leaves} * 2^{extra}" if extra else str(leaves)
    raise ValueError(f"{tau} trees of depth {depth} may have up to {count} leaves, "
                     f"over the limit of {MAX_FOREST_LEAVES}")


def _check_labelled(model: ForestModel) -> None:
    for tree in model.trees:
        for leaf in iter_leaves(tree):
            if leaf.label is None:
                raise InternalInvariantError("refusing to serialize unlabeled leaves")


def model_to_dict(model: ForestModel) -> dict:
    _check_labelled(model)
    return {
        "format_version": FORMAT_VERSION,
        "schema": model.schema.to_dict(),
        "config": {
            ("depth" if key == "depth_override" else key): value
            for key, value in asdict(model.config).items()
        },
        "trees": [node_to_dict(tree) for tree in model.trees],
    }


def save_model(model: ForestModel, path: str) -> None:
    """Write the model as JSON. Output bytes are a pure function of the model.

    The bytes are those of ``json.dumps(model_to_dict(model), indent=2)``
    plus a newline, written one tree at a time so the whole document never
    exists as one dict or one string.
    """
    _check_labelled(model)
    head = json.dumps(model_to_dict(replace(model, trees=())), indent=2)
    head = head[:-len("[]\n}")]  # the empty trees list closes the document
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head + "[")
        for i, tree in enumerate(model.trees):
            text = [",\n    " if i else "\n    "]
            write_node_json(tree, 2, text)
            handle.writelines(text)
        handle.write("\n  ]\n}\n" if model.trees else "]\n}\n")


def model_from_dict(obj: dict) -> ForestModel:
    if not isinstance(obj, dict):
        raise DataValidationError("model document must be a JSON object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise DataValidationError(
            f"unsupported model format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    schema = FeatureSchema.from_dict(obj.get("schema"))
    raw_config = obj.get("config")
    if not isinstance(raw_config, dict):
        raise DataValidationError("model 'config' must be a JSON object")
    # a model's trees were drawn at some depth: null is as bad as missing
    if raw_config.get("depth") is None:
        raise DataValidationError("model config is missing key 'depth'")
    try:
        config = TrainConfig(
            epsilon=raw_config["epsilon"],
            tau=raw_config["tau"],
            depth_override=raw_config["depth"],
            sensitivity_mode=raw_config["sensitivity_mode"],
            budget_mode=raw_config["budget_mode"],
            seed=raw_config["seed"],
        )
    except KeyError as missing:
        raise DataValidationError(f"model config is missing key {missing}") from None
    except ValueError as exc:
        raise DataValidationError(f"model config: {exc}") from None
    raw_trees = obj.get("trees")
    if not isinstance(raw_trees, list) or not raw_trees:
        raise DataValidationError("model 'trees' must be a non-empty list")
    if len(raw_trees) != config.tau:
        raise DataValidationError(
            f"model declares tau={config.tau} but contains {len(raw_trees)} trees"
        )
    depth = config.depth_override
    trees = tuple(node_from_dict(raw, schema, depth) for raw in raw_trees)
    return ForestModel(schema=schema, trees=trees, config=config)


def load_model(path: str) -> ForestModel:
    """Read a model file, building its tree nodes while the JSON is parsed.

    A file that this refuses is read again as plain dicts, so its error is
    the first one ``model_from_dict`` finds in them.
    """
    try:
        return model_from_dict(read_json(path, object_hook=node_json_hook))
    except DataValidationError:
        pass  # out of the handler, the refused document can be freed
    return model_from_dict(read_json(path))
