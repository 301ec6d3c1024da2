"""Noisy majority voting via the exponential mechanism.

The release primitive is a single categorical query: given per-label record
counts inside one leaf, release a label. Selection probabilities follow

    P(label) proportional to exp(eps * u(label) / (2 * sensitivity))

where u scores each label 0 or 1. Two sensitivity regimes are supported:
the global sensitivity of u (which is 1), and a smooth upper bound on the
local sensitivity that decays with the margin of the vote. For a count
vector whose largest entry exceeds the runner-up by g, the local
sensitivity at distance k is 0 for k < g and 1 afterwards, so the smooth
bound works out to exp(-g * eps).

All selection code is written so that enormous exponents degrade gracefully:
weights are computed relative to the top score, and callers in extreme
regimes can pass the sensitivity in log space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

GLOBAL_SENSITIVITY = 1.0

SENSITIVITY_MODES = ("smooth", "global")
DEFAULT_SENSITIVITY_MODE = "smooth"

MAX_AUDIT_RECORDS = 1000  # most records neighbor_ratio_audit enumerates around

_LEAF_CACHE_SIZE = 1024  # distinct count rows whose derived weights are kept

# exp(x) overflows a double just above 709.78; exponent magnitudes beyond
# that saturate the corresponding weight at zero.
_MAX_FINITE_EXPONENT_LOG = 709.0


def _vote(counts: Mapping[str, int]) -> tuple[dict[str, float], int]:
    """Checks the counts once; ``score_labels`` and ``label_gap`` from one sort."""
    if len(counts) < 2:
        raise ValueError("need counts for at least two labels")
    for label, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"count for label {label!r} must be an integer")
        if value < 0:
            raise ValueError(f"count for label {label!r} is negative")
    first, second = sorted(counts.values(), reverse=True)[:2]
    scores = {label: 1.0 if first and count == first else 0.0
              for label, count in counts.items()}
    return scores, int(first) - int(second)


def _check_epsilon(epsilon: float) -> None:
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError("epsilon must be positive and finite")


def label_gap(counts: Mapping[str, int]) -> int:
    """Margin of the vote: largest count minus second largest."""
    return _vote(counts)[1]


def local_sensitivity_at_distance(gap: int, distance: int) -> float:
    """Local sensitivity of the 0/1 score at a given dataset distance.

    Changing fewer records than the vote margin cannot move any label in
    or out of the argmax set, so the score function is flat there.
    """
    if gap < 0:
        raise ValueError("gap must be non-negative")
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return 0.0 if distance < gap else 1.0


def smooth_sensitivity(gap: int, epsilon: float) -> float:
    """Smooth upper bound on local sensitivity, exp(-gap * epsilon).

    Equals max over distances k of exp(-k * epsilon) * LS(k); the maximum
    sits at k = gap, the first distance where the local sensitivity jumps
    to one. May underflow to 0.0 for very large gap * epsilon; callers that
    need the extreme regime should work with log_smooth_sensitivity.
    """
    return math.exp(log_smooth_sensitivity(gap, epsilon))


def log_smooth_sensitivity(gap: int, epsilon: float) -> float:
    """Natural log of smooth_sensitivity, exact for any gap."""
    if gap < 0:
        raise ValueError("gap must be non-negative")
    _check_epsilon(epsilon)
    return -float(gap) * epsilon


def score_labels(counts: Mapping[str, int]) -> dict[str, float]:
    """Score every label 0 or 1.

    The labels tied for the largest count score 1. When no records are
    present every score is zero and selection degenerates to uniform.
    """
    return _vote(counts)[0]


def _log_weights(
    scores: Mapping[str, float],
    sensitivity: float | None,
    epsilon: float,
    log_sensitivity: float | None,
) -> dict[str, float]:
    """Log selection weights, normalised so the best score has weight one.

    Shifting by the top score keeps every exponent non-positive, which is
    what makes the computation stable: the worst that can happen to a
    trailing label is underflow to zero weight. A log sensitivity of -inf
    (a sensitivity below the double floor) gives every trailing label
    weight zero.
    """
    if not scores:
        raise ValueError("scores must not be empty")
    _check_epsilon(epsilon)
    for label, score in scores.items():
        if not math.isfinite(score):
            raise ValueError(f"score for label {label!r} is not finite")
    if log_sensitivity is None:
        if sensitivity is None:
            raise ValueError("sensitivity is required")
        if not math.isfinite(sensitivity) or sensitivity <= 0.0:
            raise ValueError("sensitivity must be positive and finite")
    elif math.isnan(log_sensitivity) or log_sensitivity == math.inf:
        raise ValueError("log_sensitivity must be finite or -inf")

    top = max(scores.values())
    out = {}
    for label, score in scores.items():
        shortfall = top - score
        if shortfall == 0.0:
            out[label] = 0.0
        elif log_sensitivity is not None:
            product = epsilon * shortfall / 2.0
            # a product that underflows to zero is taken apart in log space
            log_product = math.log(product) if product else (
                math.log(epsilon) + math.log(shortfall) - math.log(2.0))
            log_exponent = log_product - log_sensitivity
            if log_exponent > _MAX_FINITE_EXPONENT_LOG:
                out[label] = -math.inf
            else:
                out[label] = -math.exp(log_exponent)
        else:
            out[label] = -epsilon * shortfall / (2.0 * sensitivity)
    return out


def _normalize(log_weights: dict[str, float]) -> dict[str, float]:
    """Log probabilities from log weights."""
    log_total = math.log(math.fsum(math.exp(lw) for lw in log_weights.values()))
    return {label: lw - log_total for label, lw in log_weights.items()}


def _draw(log_weights: dict[str, float], rng: np.random.Generator) -> str:
    """One label drawn with one ``rng.random()``, walking labels in order."""
    weights = [math.exp(lw) for lw in log_weights.values()]
    return _walk(tuple(log_weights), weights, math.fsum(weights), rng)


def _walk(labels: Sequence[str], weights: Sequence[float], total: float,
          rng: np.random.Generator) -> str:
    """The label whose cumulative weight first exceeds ``rng.random() * total``."""
    threshold = rng.random() * total
    acc = 0.0
    for label, weight in zip(labels, weights):
        acc += weight
        if threshold < acc:
            return label
    # float accumulation can leave threshold == total; fall to the last label
    return label


def exp_mechanism_distribution(
    scores: Mapping[str, float],
    sensitivity: float | None,
    epsilon: float,
    *,
    log_sensitivity: float | None = None,
) -> dict[str, float]:
    """Exact selection probabilities of the exponential mechanism."""
    log_p = exp_mechanism_log_distribution(
        scores, sensitivity, epsilon, log_sensitivity=log_sensitivity
    )
    return {label: math.exp(lp) for label, lp in log_p.items()}


def exp_mechanism_log_distribution(
    scores: Mapping[str, float],
    sensitivity: float | None,
    epsilon: float,
    *,
    log_sensitivity: float | None = None,
) -> dict[str, float]:
    """Log selection probabilities. Finite down to the double floor.

    A label whose exponent magnitude exceeds the largest double reports
    -inf; its probability is beyond anything a float could express.
    """
    return _normalize(_log_weights(scores, sensitivity, epsilon, log_sensitivity))


def exp_mechanism_select(
    scores: Mapping[str, float],
    sensitivity: float | None,
    epsilon: float,
    rng: np.random.Generator,
    *,
    log_sensitivity: float | None = None,
) -> str:
    """Draw one label from the exponential mechanism.

    Iteration follows the insertion order of ``scores``, so callers that
    build score dicts in a fixed label order get reproducible draws from a
    seeded generator. When ``log_sensitivity`` is given it takes precedence
    over ``sensitivity``; pass it when the sensitivity itself would
    underflow a double.
    """
    return _draw(_log_weights(scores, sensitivity, epsilon, log_sensitivity), rng)


@dataclass(frozen=True)
class QueryDiagnostics:
    """Side information about one majority query. Not privacy safe.

    These values are derived from the raw counts and exist only for
    evaluation and debugging. They must never be released alongside the
    label or stored in a model file.
    """

    record_count: int
    gap: int
    smooth_sensitivity: float
    preferred_labels: tuple[str, ...]
    flipped: bool

    @property
    def empty(self) -> bool:
        return self.record_count == 0


def _leaf_log_weights(
    scores: dict[str, float], log_smooth: float, epsilon: float, sensitivity_mode: str
) -> dict[str, float]:
    """One leaf's log selection weights under a sensitivity mode.

    ``log_smooth`` is the leaf's log smooth sensitivity. The release draws
    from these weights and the audit normalises them, so the audit
    measures exactly what the release samples.
    """
    if sensitivity_mode == "smooth":
        return _log_weights(scores, None, epsilon, log_smooth)
    if sensitivity_mode == "global":
        return _log_weights(scores, GLOBAL_SENSITIVITY, epsilon, None)
    raise ValueError(f"unknown sensitivity mode {sensitivity_mode!r}")


def majority_label_query(
    counts: Mapping[str, int],
    epsilon: float,
    rng: np.random.Generator,
    *,
    sensitivity_mode: str = DEFAULT_SENSITIVITY_MODE,
) -> tuple[str, QueryDiagnostics]:
    """Release a noisy majority label for one leaf.

    Returns the released label together with diagnostics computed from the
    raw counts (margin, smooth sensitivity at this query's epsilon, the
    true winners, and whether the release missed them). The diagnostics are
    for offline analysis only.
    """
    rows = tuple(counts.items())
    derive = (_cached_leaf_release if _cacheable(rows, epsilon, sensitivity_mode)
              else _leaf_release)
    labels, weights, total, record_count, gap, smooth, preferred = derive(
        rows, epsilon, sensitivity_mode)
    label = _walk(labels, weights, total, rng)
    diag = QueryDiagnostics(
        record_count=record_count,
        gap=gap,
        smooth_sensitivity=smooth,
        preferred_labels=preferred,
        flipped=bool(preferred) and label not in preferred,
    )
    return label, diag


def _leaf_release(rows: tuple[tuple[str, int], ...], epsilon: float,
                  sensitivity_mode: str) -> tuple:
    """Everything one leaf query derives from its counts, checked.

    The labels in order, their weights and the weights' total, then the
    record count, gap, smooth sensitivity and preferred labels of the
    diagnostics. Holds no label drawn and no diagnostics object.
    """
    counts = dict(rows)
    scores, gap = _vote(counts)
    log_smooth = log_smooth_sensitivity(gap, epsilon)
    log_weights = _leaf_log_weights(scores, log_smooth, epsilon, sensitivity_mode)
    weights = tuple(math.exp(lw) for lw in log_weights.values())
    return (tuple(log_weights), weights, math.fsum(weights), int(sum(counts.values())),
            gap, math.exp(log_smooth),
            tuple(lab for lab, s in scores.items() if s == 1.0))


def _cacheable(rows: tuple, epsilon: float, sensitivity_mode: str) -> bool:
    """Whether equal cache keys mean equal inputs.

    ``True == 1 == 1.0`` as keys, so a cached ``{"a": 1}`` would answer
    ``{"a": True}``, which must be refused. Only str labels, int counts, a
    float epsilon and a known mode qualify; anything else is derived afresh.
    """
    if type(epsilon) is not float or sensitivity_mode not in SENSITIVITY_MODES:
        return False
    for label, count in rows:
        if type(label) is not str or type(count) is not int:
            return False
    return True


# training repeats few distinct rows (most leaves are empty), so a bounded
# cache serves nearly every query; a refused row raises and is not stored
_cached_leaf_release = functools.lru_cache(maxsize=_LEAF_CACHE_SIZE)(_leaf_release)


@dataclass(frozen=True)
class AuditReport:
    """Worst-case output ratios against every add/remove-one neighbour."""

    epsilon: float
    sensitivity_mode: str
    max_log_ratio: float
    worst_neighbor: dict | None
    per_label_ratios: dict[str, float]

    def to_dict(self) -> dict:
        def encode(value: float):
            return value if math.isfinite(value) else repr(value)

        return {
            "epsilon": self.epsilon,
            "sensitivity_mode": self.sensitivity_mode,
            "max_log_ratio": encode(self.max_log_ratio),
            "worst_neighbor": self.worst_neighbor,
            "per_label_ratios": {
                label: encode(ratio) for label, ratio in self.per_label_ratios.items()
            },
        }


def neighbor_ratio_audit(
    counts: Mapping[str, int],
    epsilon: float,
    *,
    sensitivity_mode: str = DEFAULT_SENSITIVITY_MODE,
) -> AuditReport:
    """Measure output probability ratios against all one-record neighbours.

    For every dataset reachable by adding or removing a single record, the
    analytic selection distributions are compared label by label and the
    largest absolute log ratio is reported. This is a measurement tool: it
    reports what the mechanism does and asserts nothing about it. Under the
    smooth sensitivity regime the reported maximum can exceed epsilon.

    Ratios whose magnitude exceeds the double range are reported as inf.
    """
    def log_distribution(table: Mapping[str, int]) -> dict[str, float]:
        scores, gap = _vote(table)
        log_smooth = log_smooth_sensitivity(gap, epsilon)
        return _normalize(
            _leaf_log_weights(scores, log_smooth, epsilon, sensitivity_mode))

    base = log_distribution(counts)
    total = sum(counts.values())
    if total > MAX_AUDIT_RECORDS:
        raise ValueError(
            f"refusing to audit {total} records (limit {MAX_AUDIT_RECORDS}); "
            "the audit enumerates neighbours exhaustively"
        )

    per_label = {label: 0.0 for label in counts}
    max_ratio = 0.0
    worst = None
    for change, step in (("add", 1), ("remove", -1)):
        for changed_label in counts:
            if counts[changed_label] + step < 0:
                continue
            neighbor_counts = dict(counts)
            neighbor_counts[changed_label] += step
            other = log_distribution(neighbor_counts)
            for label in counts:
                a = base[label]
                b = other[label]
                if math.isinf(a) and math.isinf(b):
                    ratio = math.inf
                else:
                    ratio = abs(a - b)
                if ratio > per_label[label]:
                    per_label[label] = ratio
                if ratio > max_ratio:
                    max_ratio = ratio
                    worst = {
                        "change": change,
                        "label": changed_label,
                        "counts": neighbor_counts,
                    }
    return AuditReport(
        epsilon=epsilon,
        sensitivity_mode=sensitivity_mode,
        max_log_ratio=max_ratio,
        worst_neighbor=worst,
        per_label_ratios=per_label,
    )
