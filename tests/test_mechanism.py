import dataclasses
import json
import math

import numpy as np
import pytest

from dpforest.mechanism import (
    AuditReport,
    exp_mechanism_distribution,
    exp_mechanism_log_distribution,
    exp_mechanism_select,
    label_gap,
    local_sensitivity_at_distance,
    log_smooth_sensitivity,
    majority_label_query,
    neighbor_ratio_audit,
    score_labels,
    smooth_sensitivity,
)

from conftest import mechanism_probs_oracle


def reference_leaf_log_weights(counts, epsilon, sensitivity_mode):
    """One leaf's 0/1 scores, vote margin and log weights, written out in full.

    Kept as the reference for ``majority_label_query`` and
    ``neighbor_ratio_audit``: the same float operations in the same order,
    with no validation, so the package's release, diagnostics and audit
    must match it bit for bit.
    """
    top = max(counts.values())
    scores = {label: 1.0 if top and count == top else 0.0
              for label, count in counts.items()}
    first, second = sorted(counts.values(), reverse=True)[:2]
    gap = first - second
    log_sensitivity = -float(gap) * epsilon
    top_score = max(scores.values())
    log_weights = {}
    for label, score in scores.items():
        shortfall = top_score - score
        if shortfall == 0.0:
            log_weights[label] = 0.0
        elif sensitivity_mode == "smooth":
            log_exponent = math.log(epsilon * shortfall / 2.0) - log_sensitivity
            log_weights[label] = (-math.inf if log_exponent > 709.0
                                  else -math.exp(log_exponent))
        else:
            log_weights[label] = -epsilon * shortfall / (2.0 * 1.0)
    return scores, gap, log_weights


def reference_majority_label_query(counts, epsilon, rng, sensitivity_mode):
    """The released label and the diagnostics as a tuple of their fields."""
    scores, gap, log_weights = reference_leaf_log_weights(
        counts, epsilon, sensitivity_mode)
    weights = {label: math.exp(lw) for label, lw in log_weights.items()}
    threshold = rng.random() * math.fsum(weights.values())
    acc = 0.0
    for label, weight in weights.items():
        acc += weight
        if threshold < acc:
            break
    preferred = tuple(lab for lab, s in scores.items() if s == 1.0)
    return label, (sum(counts.values()), gap, math.exp(-float(gap) * epsilon),
                   preferred, bool(preferred) and label not in preferred)


def reference_neighbor_ratio_audit(counts, epsilon, sensitivity_mode):
    def log_distribution(table):
        _, _, log_weights = reference_leaf_log_weights(table, epsilon, sensitivity_mode)
        log_total = math.log(math.fsum(math.exp(lw) for lw in log_weights.values()))
        return {label: lw - log_total for label, lw in log_weights.items()}

    base = log_distribution(counts)
    per_label = {label: 0.0 for label in counts}
    max_ratio, worst = 0.0, None
    for change, step in (("add", 1), ("remove", -1)):
        for changed in counts:
            if counts[changed] + step < 0:
                continue
            neighbor = dict(counts)
            neighbor[changed] += step
            other = log_distribution(neighbor)
            for label in counts:
                a, b = base[label], other[label]
                ratio = math.inf if math.isinf(a) and math.isinf(b) else abs(a - b)
                per_label[label] = max(per_label[label], ratio)
                if ratio > max_ratio:
                    max_ratio = ratio
                    worst = {"change": change, "label": changed, "counts": neighbor}
    return AuditReport(epsilon, sensitivity_mode, max_ratio, worst, per_label)


REFERENCE_COUNTS = [
    # no records
    {"a": 0, "b": 0},
    {"a": 0, "b": 0, "c": 0},
    {"a": 0, "b": 0, "c": 0, "d": 0},
    # ties at the top
    {"a": 3, "b": 3},
    {"a": 5, "b": 5, "c": 1},
    {"a": 0, "b": 7, "c": 7, "d": 2},
    {"a": 4, "b": 4, "c": 4, "d": 4},
    # one leader
    {"a": 1, "b": 0},
    {"a": 9, "b": 4},
    {"a": 2, "b": 30, "c": 1},
    {"a": 0, "b": 0, "c": 0, "d": 1},
    {"a": 6, "b": 1, "c": 5, "d": 0},
    # wide margins
    {"a": 0, "b": 17},
    {"a": 60, "b": 0, "c": 3},
    {"a": 150, "b": 2, "c": 0, "d": 1},
    {"a": 400, "b": 0},
    {"a": 3, "b": 403, "c": 0},
    {"a": 1, "b": 0, "c": 401, "d": 1},
    # at epsilon 1 the neighbours fall either side of the exp(709) saturation
    {"a": 0, "b": 709},
]
REFERENCE_EPSILONS = (1e-3, 0.04, 1.0, 30.0)


@pytest.mark.parametrize("mode", ["smooth", "global"])
@pytest.mark.parametrize("epsilon", REFERENCE_EPSILONS)
def test_leaf_query_matches_the_reference(mode, epsilon):
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    for counts in REFERENCE_COUNTS:
        for _ in range(5):
            label, diag = majority_label_query(counts, epsilon, ours,
                                               sensitivity_mode=mode)
            assert (label, dataclasses.astuple(diag)) == reference_majority_label_query(
                counts, epsilon, theirs, mode)
        assert ours.bit_generator.state == theirs.bit_generator.state
        report = neighbor_ratio_audit(counts, epsilon, sensitivity_mode=mode)
        assert report.to_dict() == reference_neighbor_ratio_audit(
            counts, epsilon, mode).to_dict()


# one stream through repeated rows, as training sends them: the same table
# again and again, as Python and as numpy integers, and empty tables between
REPEATED_COUNTS = [
    {"a": 0, "b": 0},
    {"a": 0, "b": 0},
    {"a": 4, "b": 1},
    {"a": np.int64(4), "b": np.int64(1)},
    {"a": 4, "b": 1},
    {"a": 0, "b": 0},
    {"b": 1, "a": 4},
    {"a": 0, "b": 0, "c": 0},
    {"a": 2, "b": 2, "c": 0},
    {"a": np.int64(2), "b": 2, "c": np.int64(0)},
    {"a": 2, "b": 2, "c": 0},
    {"a": 0, "b": 0, "c": 0},
    {"a": 0, "b": 0},
    {"a": 0, "b": 900},
    {"a": 0, "b": 900},
]


@pytest.mark.parametrize("mode", ["smooth", "global"])
@pytest.mark.parametrize("epsilon", REFERENCE_EPSILONS)
def test_leaf_query_matches_the_reference_on_repeated_rows(mode, epsilon):
    ours, theirs = np.random.default_rng(12), np.random.default_rng(12)
    for _ in range(3):
        for counts in REPEATED_COUNTS:
            label, diag = majority_label_query(counts, epsilon, ours,
                                               sensitivity_mode=mode)
            assert type(diag.record_count) is int and type(diag.gap) is int
            assert (label, dataclasses.astuple(diag)) == reference_majority_label_query(
                counts, epsilon, theirs, mode)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_leaf_query_refuses_bad_counts_after_a_good_row():
    rng = np.random.default_rng(0)
    for mode in ("smooth", "global"):
        majority_label_query({"A": 1, "B": 0}, 1.0, rng, sensitivity_mode=mode)
        for bad in ({"A": True, "B": 0}, {"A": 1.0, "B": 0}, {"A": 1, "B": -1}):
            with pytest.raises(ValueError, match="count for label"):
                majority_label_query(bad, 1.0, rng, sensitivity_mode=mode)
        for epsilon in (math.nan, -1.0, 0.0):
            with pytest.raises(ValueError, match="epsilon"):
                majority_label_query({"A": 1, "B": 0}, epsilon, rng,
                                     sensitivity_mode=mode)
    majority_label_query({"A": 1, "B": 0}, 1.0, rng)
    with pytest.raises(ValueError, match="unknown sensitivity mode"):
        majority_label_query({"A": 1, "B": 0}, 1.0, rng, sensitivity_mode="other")
    with pytest.raises(ValueError, match="unknown sensitivity mode"):
        majority_label_query({"A": 1, "B": 0}, 1.0, rng, sensitivity_mode=["smooth"])


def test_leaf_query_returns_the_labels_it_was_given():
    # True == 1 as a key: an answer kept for one table must not serve the other
    rng = np.random.default_rng(0)
    assert majority_label_query({1: 5, 0: 0}, 30.0, rng)[0] == 1
    label, diag = majority_label_query({True: 5, False: 0}, 30.0, rng)
    assert label is True and diag.preferred_labels[0] is True


def test_label_gap():
    assert label_gap({"a": 5, "b": 2}) == 3
    assert label_gap({"a": 2, "b": 2}) == 0
    assert label_gap({"a": 5, "b": 5, "c": 1}) == 0
    assert label_gap({"a": 0, "b": 0}) == 0


def test_label_gap_rejects_bad_counts():
    with pytest.raises(ValueError):
        label_gap({"a": 3})
    with pytest.raises(ValueError):
        label_gap({"a": 3, "b": -1})
    with pytest.raises(ValueError):
        label_gap({"a": 3, "b": 1.5})
    with pytest.raises(ValueError):
        label_gap({"a": 3, "b": True})


def test_local_sensitivity_is_a_step_at_the_gap():
    for gap in (0, 1, 3, 7):
        for distance in range(12):
            expected = 0.0 if distance < gap else 1.0
            assert local_sensitivity_at_distance(gap, distance) == expected


def test_smooth_sensitivity_is_max_of_discounted_local():
    for gap in (0, 1, 2, 5, 17, 50):
        for epsilon in (0.01, 0.1, 1.0):
            brute = max(
                math.exp(-k * epsilon) * local_sensitivity_at_distance(gap, k)
                for k in range(gap + 20)
            )
            assert smooth_sensitivity(gap, epsilon) == brute


def test_smooth_sensitivity_validation():
    with pytest.raises(ValueError):
        smooth_sensitivity(-1, 1.0)
    with pytest.raises(ValueError):
        smooth_sensitivity(3, 0.0)
    with pytest.raises(ValueError):
        smooth_sensitivity(3, float("nan"))


def test_score_labels_marks_the_largest_counts():
    counts = {"a": 4, "b": 7, "c": 7}
    assert score_labels(counts) == {"a": 0.0, "b": 1.0, "c": 1.0}
    empty = {"a": 0, "b": 0}
    assert score_labels(empty) == {"a": 0.0, "b": 0.0}


def test_distribution_matches_high_precision_oracle():
    cases = [
        ({"a": 1.0, "b": 0.0, "c": 0.0}, 0.5, 1.0),
        ({"a": 1.0, "b": 0.0, "c": 0.0}, 1.0, math.exp(-3)),
        ({"a": 1.0, "b": 1.0, "c": 0.0}, 2.0, 0.25),
        ({"a": 0.0, "b": 0.0}, 1.0, math.exp(-1)),
    ]
    for scores, epsilon, sensitivity in cases:
        got = exp_mechanism_distribution(scores, sensitivity, epsilon)
        want = mechanism_probs_oracle(scores, epsilon, sensitivity)
        for label in scores:
            assert got[label] == pytest.approx(want[label], abs=1e-12)
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)


def test_equal_scores_give_exact_uniform():
    dist = exp_mechanism_distribution({"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}, 1.0, 0.1)
    assert all(p == 0.25 for p in dist.values())


def test_log_sensitivity_path_agrees_with_direct():
    scores = {"a": 1.0, "b": 0.0, "c": 0.0}
    direct = exp_mechanism_distribution(scores, math.exp(-20), 1.0)
    logged = exp_mechanism_distribution(scores, None, 1.0, log_sensitivity=-20.0)
    for label in scores:
        assert direct[label] == pytest.approx(logged[label], rel=1e-12)


def test_extreme_margins_are_stable():
    # sensitivity far below the double floor must not overflow or NaN
    scores = {"a": 1.0, "b": 0.0}
    log_sens = -1e9 * 100.0
    dist = exp_mechanism_distribution(scores, None, 100.0, log_sensitivity=log_sens)
    assert dist["a"] == 1.0
    assert dist["b"] == 0.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert exp_mechanism_select(scores, None, 100.0, rng, log_sensitivity=log_sens) == "a"
    log_dist = exp_mechanism_log_distribution(
        scores, None, 100.0, log_sensitivity=log_sens
    )
    assert log_dist["a"] == 0.0
    assert log_dist["b"] == -math.inf


def test_smooth_mode_takes_every_positive_finite_epsilon():
    # a sensitivity below the double floor leaves all the weight on the leader
    dist = exp_mechanism_distribution({"a": 1.0, "b": 0.0}, None, 1.0,
                                      log_sensitivity=-math.inf)
    assert dist == {"a": 1.0, "b": 0.0}
    counts = {"a": 5, "b": 1}
    for epsilon in (1e308, 1.7e308):
        label, diag = majority_label_query(counts, epsilon, np.random.default_rng(0))
        assert (label, diag.smooth_sensitivity) == ("a", 0.0)
        report = neighbor_ratio_audit(counts, epsilon)
        assert report.per_label_ratios == {"a": 0.0, "b": math.inf}
    # epsilon * shortfall / 2 underflows: the draw is uniform
    log_dist = exp_mechanism_log_distribution(
        {"a": 1.0, "b": 0.0}, None, 5e-324,
        log_sensitivity=log_smooth_sensitivity(4, 5e-324))
    assert log_dist == {"a": -math.log(2.0), "b": -math.log(2.0)}
    _, diag = majority_label_query(counts, 5e-324, np.random.default_rng(0))
    assert diag.smooth_sensitivity == 1.0
    assert neighbor_ratio_audit(counts, 5e-324).max_log_ratio == 0.0


def test_select_frequencies_match_distribution():
    scores = {"a": 1.0, "b": 0.0, "c": 0.0}
    epsilon, sensitivity = 1.0, math.exp(-1)
    want = mechanism_probs_oracle(scores, epsilon, sensitivity)
    rng = np.random.default_rng(7)
    draws = 30000
    seen = {label: 0 for label in scores}
    for _ in range(draws):
        seen[exp_mechanism_select(scores, sensitivity, epsilon, rng)] += 1
    for label in scores:
        assert seen[label] / draws == pytest.approx(want[label], abs=0.015)


def test_select_is_deterministic_for_a_seed():
    scores = {"a": 1.0, "b": 0.0}
    first = [
        exp_mechanism_select(scores, 1.0, 0.1, np.random.default_rng(3))
        for _ in range(1)
    ]
    second = [
        exp_mechanism_select(scores, 1.0, 0.1, np.random.default_rng(3))
        for _ in range(1)
    ]
    assert first == second
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    seq_a = [exp_mechanism_select(scores, 1.0, 0.1, rng_a) for _ in range(200)]
    seq_b = [exp_mechanism_select(scores, 1.0, 0.1, rng_b) for _ in range(200)]
    assert seq_a == seq_b


def test_mechanism_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        exp_mechanism_select({}, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        exp_mechanism_select({"a": 1.0}, 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        exp_mechanism_select({"a": 1.0}, -2.0, 1.0, rng)
    with pytest.raises(ValueError):
        exp_mechanism_select({"a": 1.0}, None, 1.0, rng)
    with pytest.raises(ValueError):
        exp_mechanism_select({"a": 1.0}, 1.0, 0.0, rng)
    with pytest.raises(ValueError):
        exp_mechanism_select({"a": 1.0}, 1.0, float("nan"), rng)
    with pytest.raises(ValueError):
        exp_mechanism_select({"a": float("nan")}, 1.0, 1.0, rng)
    for log_sensitivity in (math.nan, math.inf):
        with pytest.raises(ValueError, match="log_sensitivity"):
            exp_mechanism_select({"a": 1.0, "b": 0.0}, None, 1.0, rng,
                                 log_sensitivity=log_sensitivity)


def test_majority_query_diagnostics():
    rng = np.random.default_rng(1)
    counts = {"a": 9, "b": 4}
    label, diag = majority_label_query(counts, 1.0, rng)
    assert label in counts
    assert diag.record_count == 13
    assert diag.gap == 5
    assert diag.smooth_sensitivity == pytest.approx(math.exp(-5.0))
    assert diag.preferred_labels == ("a",)
    assert diag.flipped == (label != "a")
    assert not diag.empty


def test_majority_query_on_empty_counts_is_uniform():
    rng = np.random.default_rng(2)
    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    seen = {label: 0 for label in counts}
    draws = 8000
    for _ in range(draws):
        label, diag = majority_label_query(counts, 0.5, rng)
        seen[label] += 1
        assert diag.empty
        assert diag.gap == 0
        assert diag.preferred_labels == ()
        assert not diag.flipped
    for label in counts:
        assert seen[label] / draws == pytest.approx(0.25, abs=0.02)


def test_query_smooth_sensitivity_uses_the_query_epsilon():
    rng = np.random.default_rng(5)
    counts = {"a": 30, "b": 10}
    _, diag = majority_label_query(counts, 0.01, rng)
    assert diag.smooth_sensitivity == pytest.approx(math.exp(-20 * 0.01))


def test_audit_global_mode_stays_within_epsilon():
    for epsilon in (0.1, 1.0):
        for a in range(5):
            for b in range(5):
                report = neighbor_ratio_audit(
                    {"a": a, "b": b}, epsilon, sensitivity_mode="global"
                )
                assert report.max_log_ratio <= epsilon + 1e-12


def test_audit_smooth_mode_reports_the_worked_example():
    counts = {"a": 3, "b": 2}
    report = neighbor_ratio_audit(counts, 1.0, sensitivity_mode="smooth")
    # base distribution from the definition
    base = mechanism_probs_oracle({"a": 1.0, "b": 0.0}, 1.0, math.exp(-1.0))
    assert base["a"] == pytest.approx(0.7956, abs=5e-4)
    # worst neighbour adds an "a", doubling the margin and crushing P(b)
    bumped = mechanism_probs_oracle({"a": 1.0, "b": 0.0}, 1.0, math.exp(-2.0))
    expected = abs(math.log(base["b"]) - math.log(bumped["b"]))
    assert report.max_log_ratio == pytest.approx(expected, rel=1e-9)
    assert report.max_log_ratio > 1.0  # exceeds epsilon: that is the finding
    assert report.worst_neighbor == {
        "change": "add",
        "label": "a",
        "counts": {"a": 4, "b": 2},
    }


def test_audit_report_shape_and_serialization():
    report = neighbor_ratio_audit({"x": 2, "y": 1}, 0.5, sensitivity_mode="global")
    assert set(report.per_label_ratios) == {"x", "y"}
    document = report.to_dict()
    parsed = json.loads(json.dumps(document))
    assert parsed["epsilon"] == 0.5
    assert parsed["sensitivity_mode"] == "global"
    assert set(parsed) == {
        "epsilon",
        "sensitivity_mode",
        "max_log_ratio",
        "worst_neighbor",
        "per_label_ratios",
    }


def test_audit_refuses_large_totals():
    with pytest.raises(ValueError):
        neighbor_ratio_audit({"a": 600, "b": 600}, 1.0)
    # right at the cap is fine
    neighbor_ratio_audit({"a": 500, "b": 500}, 1.0, sensitivity_mode="global")
