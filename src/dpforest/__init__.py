"""Differentially private random decision forests.

Trees are drawn without ever reading the data; the only data-dependent
release is one noisy majority query per leaf, paid for out of an explicit
privacy budget. See the README for the full tour.

Each public name is imported from its layer module on first use (PEP 562),
so ``import dpforest`` loads no layer and a command loads only the layers it
runs.
"""

import importlib

__version__ = "0.1.0"

# layer module -> the public names it defines
_LAYERS = {
    "budget": ("BudgetLedger", "LedgerEntry"),
    "data": ("ContinuousFeature", "Dataset", "DiscreteFeature", "FeatureSchema", "Record",
             "load_dataset", "load_schema", "partition_disjoint", "save_dataset",
             "save_schema"),
    "errors": ("DPForestError", "DataValidationError", "InternalInvariantError"),
    "evaluation": ("DiagnosticsReport", "MetricSummary", "MetricsReport", "accuracy", "auc",
                   "collect_diagnostics", "cross_validate", "f1"),
    "forest": ("ForestModel", "TrainConfig", "build_forest", "fill_leaf_labels", "load_model",
               "predict", "predict_batch", "predict_scores", "save_model"),
    "mechanism": ("AuditReport", "QueryDiagnostics", "exp_mechanism_distribution",
                  "exp_mechanism_select", "label_gap", "local_sensitivity_at_distance",
                  "majority_label_query", "neighbor_ratio_audit", "score_labels",
                  "smooth_sensitivity"),
    "synth": ("PRESETS", "SynthPreset", "generate", "generate_preset", "get_preset"),
    "tree": ("build_tree", "expected_untested", "optimal_depth", "route_record"),
}
_MODULE_OF = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _LAYERS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAYERS))
