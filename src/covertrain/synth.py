"""Deterministic synthetic task pairs: a separable secret task plus a
confusable cover pool whose separating direction is rotated away from the
secret one. Desk-scale stand-in for large feature-extracted corpora."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, Dataset, RngState, check_counts


@dataclass(frozen=True)
class SyntheticSpec:
    """Two Gaussian blobs per task. The secret task separates along the
    first axis; the cover task separates along a direction rotated by
    `angle` radians in the first coordinate plane. Counts are per class.
    `covertrain synth` offers one option per field, in this order, with the
    field's default and type and the `help` in its metadata."""

    dim: int = 2
    secret_separation: float = 6.0
    secret_std: float = 1.0
    secret_count: int = 80
    secret_test_count: int = 100
    cover_separation: float = 5.0
    cover_std: float = 1.3
    cover_count: int = 100
    angle: float = field(default=math.pi / 2, metadata={
        "help": "Radians between the two separating directions."})
    seed: int = 0

    def __post_init__(self):
        check_counts(self, dim=1, secret_count=2, secret_test_count=1, cover_count=2)
        if self.dim < 2 and self.angle % math.pi != 0.0:
            raise DataError("rotation needs at least two dimensions")
        if self.secret_std < 0 or self.cover_std < 0:
            raise DataError("blob std must be nonnegative")


def _direction(dim: int, angle: float) -> np.ndarray:
    u = np.zeros(dim)
    u[0] = math.cos(angle)
    if dim > 1:
        u[1] = math.sin(angle)
    return u


def _two_blobs(
    gen: np.random.Generator,
    direction: np.ndarray,
    separation: float,
    std: float,
    count: int,
    role: str,
) -> Dataset:
    dim = direction.shape[0]
    center = 0.5 * separation * direction
    pos = center + std * gen.standard_normal((count, dim))
    neg = -center + std * gen.standard_normal((count, dim))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(count, dtype=int), -np.ones(count, dtype=int)])
    return Dataset(X, y, role=role)


def generate(spec: SyntheticSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Returns (secret_train, cover_pool, secret_test), all seeded from
    spec.seed via independent child streams, so regeneration is exact and
    train/test are disjoint draws."""
    rng = RngState(spec.seed)
    u = _direction(spec.dim, 0.0)
    v = _direction(spec.dim, spec.angle)
    secret_train = _two_blobs(
        rng.child(0).generator, u, spec.secret_separation, spec.secret_std,
        spec.secret_count, "secret_set",
    )
    secret_test = _two_blobs(
        rng.child(1).generator, u, spec.secret_separation, spec.secret_std,
        spec.secret_test_count, "test_set",
    )
    cover_pool = _two_blobs(
        rng.child(2).generator, v, spec.cover_separation, spec.cover_std,
        spec.cover_count, "camouflage_pool",
    )
    return secret_train, cover_pool, secret_test


def acceptance_spec(seed: int) -> SyntheticSpec:
    """The 2-D family used by the quantitative acceptance suite: a cleanly
    separable secret task and an overlapping cover pool (n = 200) whose
    separating direction is orthogonal to the secret one. The cover blobs
    overlap enough that boundary-shaping subsets exist, while their own
    label structure keeps selected subsets measurably short of the oracle."""
    return SyntheticSpec(seed=seed)
