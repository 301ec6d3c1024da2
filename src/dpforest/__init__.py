"""Differentially private random decision forests.

Trees are drawn without ever reading the data; the only data-dependent
release is one noisy majority query per leaf, paid for out of an explicit
privacy budget. See the README for the full tour.
"""

from .budget import BudgetLedger, LedgerEntry
from .data import (
    ContinuousFeature,
    Dataset,
    DiscreteFeature,
    FeatureSchema,
    Record,
    load_dataset,
    load_schema,
    partition_disjoint,
    save_dataset,
    save_schema,
)
from .errors import DataValidationError, DPForestError, InternalInvariantError
from .evaluation import (
    DiagnosticsReport,
    MetricsReport,
    MetricSummary,
    accuracy,
    auc,
    collect_diagnostics,
    cross_validate,
    f1,
)
from .forest import (
    ForestModel,
    TrainConfig,
    build_forest,
    fill_leaf_labels,
    load_model,
    predict,
    predict_batch,
    predict_scores,
    save_model,
)
from .mechanism import (
    AuditReport,
    QueryDiagnostics,
    exp_mechanism_distribution,
    exp_mechanism_select,
    label_gap,
    local_sensitivity_at_distance,
    majority_label_query,
    neighbor_ratio_audit,
    score_labels,
    smooth_sensitivity,
)
from .synth import PRESETS, SynthPreset, generate, generate_preset, get_preset
from .tree import build_tree, expected_untested, optimal_depth, route_record

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BudgetLedger",
    "ContinuousFeature",
    "DPForestError",
    "DataValidationError",
    "Dataset",
    "DiagnosticsReport",
    "DiscreteFeature",
    "FeatureSchema",
    "ForestModel",
    "InternalInvariantError",
    "LedgerEntry",
    "MetricSummary",
    "MetricsReport",
    "PRESETS",
    "QueryDiagnostics",
    "Record",
    "SynthPreset",
    "TrainConfig",
    "accuracy",
    "auc",
    "build_forest",
    "build_tree",
    "collect_diagnostics",
    "cross_validate",
    "exp_mechanism_distribution",
    "exp_mechanism_select",
    "expected_untested",
    "f1",
    "fill_leaf_labels",
    "generate",
    "generate_preset",
    "get_preset",
    "label_gap",
    "load_dataset",
    "load_model",
    "load_schema",
    "local_sensitivity_at_distance",
    "majority_label_query",
    "neighbor_ratio_audit",
    "optimal_depth",
    "partition_disjoint",
    "predict",
    "predict_batch",
    "predict_scores",
    "route_record",
    "save_dataset",
    "save_model",
    "save_schema",
    "score_labels",
    "smooth_sensitivity",
]
