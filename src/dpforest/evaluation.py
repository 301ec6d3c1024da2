"""Metrics and repeated cross-validation.

Binary metrics follow one convention throughout: the positive class is the
least frequent label in the ground truth (ties broken by the caller's
label order). AUC is computed from ranks with ties contributing half, so
it agrees with the pairwise comparison definition exactly. Labels may be
class names or integer codes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .data import Dataset, partition_disjoint
from .errors import DataValidationError
from .forest import (
    ForestModel,
    TrainConfig,
    build_forest,
    vote_matrix,
)
from .mechanism import QueryDiagnostics


def accuracy(predictions: Sequence, truth: Sequence) -> float:
    if len(predictions) != len(truth):
        raise ValueError("predictions and truth differ in length")
    if len(truth) == 0:
        raise ValueError("cannot score an empty evaluation set")
    return float(np.mean(np.asarray(predictions) == np.asarray(truth)))


def least_frequent_label(truth: Sequence, order: Sequence | None = None) -> str | int:
    """The rarest label in ``truth``; ties go to the earliest in ``order``."""
    if len(truth) == 0:
        raise ValueError("cannot pick a label from empty truth")
    labels, first, counts = np.unique(truth, return_index=True, return_counts=True)
    count = dict(zip(labels.tolist(), counts.tolist()))
    candidates = order if order is not None else labels[np.argsort(first)].tolist()
    present = [label for label in candidates if label in count]
    if len(present) != len(count):
        raise ValueError("order does not cover every label in truth")
    return min(present, key=count.__getitem__)  # min keeps the earliest of a tie


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the average of their positions."""
    _, group, sizes = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(sizes)
    return ((ends - sizes + 1 + ends) / 2.0)[group]


def auc(scores: Sequence[float], truth: Sequence, positive: str | int) -> float:
    """Probability a positive outranks a negative, ties counting half."""
    if len(scores) != len(truth):
        raise ValueError("scores and truth differ in length")
    truth = np.asarray(truth)
    # with counts np.unique sorts; without, on integers it pages in its
    # hash-table code, about 1.3 MB of resident memory per process
    if len(np.unique(truth, return_counts=True)[1]) > 2:
        raise ValueError("AUC is only defined for binary problems")
    is_positive = truth == positive
    n_pos = int(is_positive.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present in truth")
    ranks = _tied_ranks(np.asarray(scores, dtype=np.float64))
    rank_sum = float(ranks[is_positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def f1(predictions: Sequence, truth: Sequence, positive: str | int) -> float:
    """Harmonic mean of precision and recall; zero when both degenerate."""
    if len(predictions) != len(truth):
        raise ValueError("predictions and truth differ in length")
    if len(truth) == 0:
        raise ValueError("cannot score an empty evaluation set")
    predicted = np.asarray(predictions) == positive
    actual = np.asarray(truth) == positive
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float
    samples: tuple[float, ...]


@dataclass(frozen=True)
class MetricsReport:
    accuracy: MetricSummary
    auc: MetricSummary | None
    f1: MetricSummary | None


@dataclass(frozen=True)
class DiagnosticsReport:
    """Aggregate leaf-query behavior over one or more trained forests."""

    empty_leaf_fraction_mean: float
    empty_leaf_fraction_std: float
    flip_fraction: float
    mean_smooth_sensitivity: float


def _summary(samples: Sequence[float]) -> MetricSummary:
    values = np.asarray(samples, dtype=np.float64)
    return MetricSummary(
        mean=float(values.mean()),
        std=float(values.std()),
        samples=tuple(float(v) for v in values),
    )


def summarize_leaf_diagnostics(
    per_tree: Iterable[Sequence[QueryDiagnostics]],
) -> DiagnosticsReport:
    """Aggregate per-leaf query diagnostics.

    The empty-leaf fraction is summarized per tree (mean and std across
    trees). Flip fraction and mean smooth sensitivity are pooled over
    non-empty leaves only; empty leaves are uniform draws with sensitivity
    pinned at one, and including them would drown the signal. Trees may
    arrive from a generator, so none need outlive its turn.
    """
    empty_fractions = []
    flips = 0
    occupied = 0
    sensitivity_total = 0.0
    for leaves in per_tree:
        if not leaves:
            raise ValueError("tree with no leaves in diagnostics")
        empties = sum(1 for d in leaves if d.empty)
        empty_fractions.append(empties / len(leaves))
        for diag in leaves:
            if diag.empty:
                continue
            occupied += 1
            flips += int(diag.flipped)
            sensitivity_total += diag.smooth_sensitivity
    if not empty_fractions:
        raise ValueError("no trees to summarize")
    fractions = np.asarray(empty_fractions)
    return DiagnosticsReport(
        empty_leaf_fraction_mean=float(fractions.mean()),
        empty_leaf_fraction_std=float(fractions.std()),
        flip_fraction=flips / occupied if occupied else float("nan"),
        mean_smooth_sensitivity=(
            sensitivity_total / occupied if occupied else float("nan")
        ),
    )


def collect_diagnostics(model: ForestModel) -> DiagnosticsReport:
    if model.diagnostics is None:
        raise ValueError("model was built without collect_diagnostics")
    return summarize_leaf_diagnostics(model.diagnostics)


def cross_validate(
    data: Dataset,
    config: TrainConfig,
    *,
    folds: int = 10,
    repeats: int = 10,
) -> tuple[MetricsReport, DiagnosticsReport]:
    """Repeated k-fold cross-validation without stratification.

    Every repeat reshuffles, cuts the data into near-equal folds with
    ``partition_disjoint``, and trains one forest per held-out fold with a
    fresh seed derived from ``config.seed``. Binary tasks
    additionally report AUC and F1 for the least frequent class of each
    test fold, so a binary test fold that holds one class is a data error,
    raised before that fold's forest is trained; multiclass tasks report
    accuracy only. Each forest's leaf diagnostics are summarized as it is
    trained, not kept to the end.
    """
    n = len(data)
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if folds > n:
        raise ValueError("more folds than records")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    class_labels = data.schema.class_labels
    binary = len(class_labels) == 2

    master = np.random.SeedSequence(config.seed)
    accuracy_samples: list[float] = []
    auc_samples: list[float] = []
    f1_samples: list[float] = []

    def trained_diagnostics() -> Iterator[tuple[QueryDiagnostics, ...]]:
        # trains and scores every cell, then yields its trees' diagnostics
        for repeat, repeat_seq in enumerate(master.spawn(repeats)):
            shuffle_seq, *cell_seqs = repeat_seq.spawn(folds + 1)
            blocks = partition_disjoint(data, folds, np.random.default_rng(shuffle_seq))
            for fold_index in range(folds):
                test = data.subset(blocks[fold_index])
                truth_codes = test.label_codes
                if binary and np.all(truth_codes == truth_codes[0]):
                    raise DataValidationError(
                        f"test fold {fold_index + 1} of {folds} in repeat "
                        f"{repeat + 1} holds only class "
                        f"{class_labels[truth_codes[0]]!r}; AUC needs both classes")
                train_idx = np.concatenate(
                    [blocks[i] for i in range(folds) if i != fold_index]
                )
                cell_seed = int(cell_seqs[fold_index].generate_state(1, np.uint64)[0])
                cell_config = replace(config, seed=cell_seed)
                model = build_forest(
                    data.subset(train_idx),
                    cell_config,
                    collect_diagnostics=True,
                )
                votes = vote_matrix(model, test)
                # argmax takes the first maximum, which is the schema-order tie break
                predicted_codes = np.argmax(votes, axis=1)
                accuracy_samples.append(accuracy(predicted_codes, truth_codes))
                if binary:
                    positive = least_frequent_label(truth_codes, order=range(2))
                    scores = votes[:, positive] / config.tau
                    auc_samples.append(auc(scores, truth_codes, positive))
                    f1_samples.append(f1(predicted_codes, truth_codes, positive))
                yield from model.diagnostics

    diagnostics = summarize_leaf_diagnostics(trained_diagnostics())
    metrics = MetricsReport(
        accuracy=_summary(accuracy_samples),
        auc=_summary(auc_samples) if binary else None,
        f1=_summary(f1_samples) if binary else None,
    )
    return metrics, diagnostics


def report_to_dict(
    config: TrainConfig,
    folds: int,
    repeats: int,
    metrics: MetricsReport,
    diagnostics: DiagnosticsReport,
) -> dict:
    """Assemble the evaluation report in its JSON shape."""
    return {
        "config": asdict(config),
        "folds": folds,
        "repeats": repeats,
        "metrics": asdict(metrics),
        "diagnostics": diagnostics_to_dict(diagnostics),
    }


def diagnostics_to_dict(diagnostics: DiagnosticsReport) -> dict:
    """The leaf diagnostics in the JSON shape of reports and ``--diagnostics``."""
    return {
        "empty_leaf_fraction": {
            "mean": diagnostics.empty_leaf_fraction_mean,
            "std": diagnostics.empty_leaf_fraction_std,
        },
        "flip_fraction": diagnostics.flip_fraction,
        "mean_smooth_sensitivity": diagnostics.mean_smooth_sensitivity,
    }
