"""Deterministic train/val/test splits of an item list."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rules import integer, numbers

__all__ = [
    "SplitSpec",
    "split",
    "split_sizes",
]


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        numbers(self, ("train_fraction", "val_fraction"), 0, 1)
        if self.train_fraction + self.val_fraction > 1.0:
            raise ValueError("train and val fractions must not exceed 1 combined")
        integer("seed", self.seed, 0)


def split_sizes(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    """Deterministic (train, val, test) sizes: train rounds up, val down."""
    if n < 0:
        raise ValueError("n must be non-negative")
    train = math.ceil(spec.train_fraction * n)
    val = min(math.floor(spec.val_fraction * n), n - train)
    return train, val, n - train - val


def split(items: Sequence, spec: SplitSpec) -> tuple[list, list, list]:
    """Shuffle items with the spec seed and cut into train/val/test."""
    seq = list(items)
    order = np.random.default_rng(spec.seed).permutation(len(seq))
    shuffled = [seq[i] for i in order]
    n_train, n_val, _ = split_sizes(len(seq), spec)
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )
