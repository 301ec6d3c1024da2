"""Synthetic binary classification benchmarks.

Each class is a Gaussian cluster centered on its own vertex of the
{-1,+1}^k hypercube, pushed through one shared random linear mix so no
single feature separates the classes on its own. Extra noise features are
independent standard normals. Feature bounds in the emitted schema are the
observed column ranges widened by five percent on each side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ContinuousFeature, Dataset, FeatureSchema

CLASS_LABELS = ("c0", "c1")

# most cells one dataset may draw, n * features plus the informative mix:
# about 200 times the 30,000 x 10 of the largest benchmark set, and at
# 512 MiB of float64 per copy, small enough for the few copies a draw holds
MAX_CELLS = 2**26


@dataclass(frozen=True)
class SynthPreset:
    name: str
    informative: int
    random: int


PRESETS = {
    p.name: p
    for p in (
        SynthPreset("SynthA", 5, 0),
        SynthPreset("SynthB", 10, 0),
        SynthPreset("SynthC", 15, 0),
        SynthPreset("SynthD", 10, 5),
        SynthPreset("SynthE", 5, 10),
        SynthPreset("SynthF", 5, 5),
        SynthPreset("SynthG", 10, 10),
    )
}


def get_preset(name: str) -> SynthPreset:
    for preset in PRESETS.values():
        if preset.name.lower() == name.lower():
            return preset
    known = ", ".join(PRESETS)
    raise ValueError(f"unknown preset {name!r} (known: {known})")


def generate(
    informative: int, random_features: int, n: int, rng: np.random.Generator
) -> Dataset:
    """Draw a balanced two-class dataset with n records.

    The two cluster centers are distinct hypercube vertices drawn without
    replacement; the mixing matrix is drawn once and applied to both
    classes. Rows arrive in shuffled order. n must be even so the classes
    balance exactly.
    """
    if informative < 1:
        raise ValueError("need at least one informative feature")
    if random_features < 0:
        raise ValueError("random feature count must be non-negative")
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and at least 2")
    cells = n * (informative + random_features) + informative**2
    if cells > MAX_CELLS:
        raise ValueError(f"{n} records of {informative + random_features} features "
                         f"draw {cells} cells, over the limit of {MAX_CELLS}")

    k = informative
    center_a = rng.integers(0, 2, size=k) * 2 - 1
    center_b = center_a.copy()
    while np.array_equal(center_b, center_a):
        center_b = rng.integers(0, 2, size=k) * 2 - 1
    mixing = rng.standard_normal((k, k))

    half = n // 2
    blocks = []
    for center in (center_a, center_b):
        cluster = rng.standard_normal((half, k)) + center
        blocks.append(cluster @ mixing)
    informative_block = np.vstack(blocks)
    labels = np.repeat(np.array([0, 1], dtype=np.int32), half)

    if random_features:
        noise_block = rng.standard_normal((n, random_features))
        matrix = np.hstack([informative_block, noise_block])
    else:
        matrix = informative_block

    order = rng.permutation(n)
    matrix = matrix[order]
    labels = labels[order]

    m = k + random_features
    lows = matrix.min(axis=0)
    highs = matrix.max(axis=0)
    pad = 0.05 * (highs - lows)
    features = tuple(
        ContinuousFeature(f"f{i}", float(lows[i] - pad[i]), float(highs[i] + pad[i]))
        for i in range(m)
    )
    schema = FeatureSchema(features=features, class_labels=CLASS_LABELS)
    columns = {f"f{i}": matrix[:, i].copy() for i in range(m)}
    return Dataset(schema, columns, labels)


def generate_preset(name: str, n: int, rng: np.random.Generator) -> Dataset:
    preset = get_preset(name)
    return generate(preset.informative, preset.random, n, rng)
