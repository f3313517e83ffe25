"""Direct synthetic-signature generation for classifier-level tests.

Each class is described by a small set of informative feature indices
holding class-specific target values (plus Gaussian jitter); every other
feature is uniform noise.  This models the structure the real extractor
produces - a per-class artifact embedded in otherwise uninformative
statistics - without running the flow simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from netdiag.features import Signature
from netdiag.preprocess import SignatureDatabase
from netdiag.rng import SplitMix64, derive_seed

VALUE_CLIP = 1e6


@dataclass(frozen=True)
class ClassArtifactSpec:
    m: int
    informative: tuple[tuple[int, float], ...]  # (feature index, target value)
    jitter: float
    label: int
    noise_low: float = 0.0
    noise_high: float = 1.0

    def __post_init__(self):
        idx = [i for i, _ in self.informative]
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate informative indices")
        for i in idx:
            if not 0 <= i < self.m:
                raise ValueError(f"informative index {i} outside [0, {self.m})")

    def shifted(self, offsets: dict[int, float]) -> "ClassArtifactSpec":
        """Perturb informative targets, e.g. to emulate distribution shift."""
        moved = tuple((i, t + offsets.get(i, 0.0)) for i, t in self.informative)
        return replace(self, informative=moved)


def _uniform_in(rng: SplitMix64, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.uniform()


def _normal(rng: SplitMix64, mu: float, sigma: float) -> float:
    """Box-Muller transform on two uniform draws."""
    u1 = max(rng.uniform(), 1e-300)
    u2 = rng.uniform()
    return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def generate_synthetic_signature(spec: ClassArtifactSpec, seed: int) -> Signature:
    rng = SplitMix64(seed)
    values = np.empty(spec.m, dtype=np.float64)
    for i in range(spec.m):
        values[i] = _uniform_in(rng, spec.noise_low, spec.noise_high)
    for i, target in spec.informative:
        values[i] = target + (_normal(rng, 0.0, spec.jitter) if spec.jitter > 0 else 0.0)
    np.clip(values, 0.0, VALUE_CLIP, out=values)
    return Signature(values=values, defined=(True,) * spec.m)


def synthetic_database(
    specs: list[ClassArtifactSpec],
    n_per_class: int,
    seed: int,
    fault_registry: dict[str, int] | None = None,
) -> SignatureDatabase:
    """Raw database of n_per_class draws from each class spec; its labels
    are client labels when it has a fault registry."""
    m = specs[0].m
    rows = []
    labels = []
    for spec in specs:
        if spec.m != m:
            raise ValueError("class specs disagree on dimension")
        for i in range(n_per_class):
            sig = generate_synthetic_signature(spec, derive_seed(seed, "row", spec.label, i))
            rows.append(sig.values)
            labels.append(spec.label)
    return SignatureDatabase(
        feature_names=tuple(f"s{i}" for i in range(m)),
        X=np.vstack(rows),
        y=np.asarray(labels, dtype=np.int64),
        catalog_version=f"synthetic-m{m}",
        fault_registry=fault_registry,
    )
