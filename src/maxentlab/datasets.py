"""Labeled feature datasets and their CSV form."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass(eq=False)
class LabeledDataset:
    """N feature vectors with integer class labels and a corruption mask.

    ``noise_mask[i]`` is True when label i was deliberately corrupted by
    :func:`maxentlab.training.inject_label_noise`.
    """

    features: np.ndarray            # (N, d) float64
    labels: np.ndarray              # (N,) int64
    noise_mask: np.ndarray = field(default=None)  # (N,) bool

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.noise_mask is None:
            self.noise_mask = np.zeros(self.labels.shape[0], dtype=bool)
        else:
            self.noise_mask = np.asarray(self.noise_mask, dtype=bool)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {self.features.shape}")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.noise_mask.shape != (n,):
            raise ShapeError(
                f"inconsistent dataset sizes: features {self.features.shape}, "
                f"labels {self.labels.shape}, mask {self.noise_mask.shape}"
            )
        if n and self.labels.min() < 0:
            raise ShapeError("labels must be non-negative")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices)
        return LabeledDataset(self.features[idx], self.labels[idx], self.noise_mask[idx])

    def copy(self) -> "LabeledDataset":
        return LabeledDataset(self.features.copy(), self.labels.copy(), self.noise_mask.copy())

    def content_bytes(self) -> bytes:
        """Canonical byte serialization, used for reproducibility checks."""
        return self.features.tobytes() + self.labels.tobytes() + self.noise_mask.tobytes()


# Rows converted to Python numbers, and formatted into one chunk of text, at a
# time by ``dataset_csv_chunks``: enough to amortise ``tolist`` and the writes,
# few enough that the text held at once stays small whatever the dataset size.
_EXPORT_BLOCK = 1024


def dataset_csv_chunks(dataset: LabeledDataset) -> Iterator[str]:
    """The export CSV ``label,f0,f1,...,f{d-1}`` as chunks of text, each ending in a newline.

    The header line comes first, then one chunk per ``_EXPORT_BLOCK`` rows.
    A chunk's Python numbers and lines are freed before it is yielded, so a
    writer that takes the chunks in turn holds one chunk's text at a time.
    """
    yield "label," + ",".join(f"f{j}" for j in range(dataset.dim)) + "\n"
    for lo in range(0, dataset.size, _EXPORT_BLOCK):
        hi = lo + _EXPORT_BLOCK
        yield _csv_rows(dataset.labels[lo:hi], dataset.features[lo:hi])


def _csv_rows(labels: np.ndarray, features: np.ndarray) -> str:
    """Rows ``label,f0,...`` with a newline after each.

    Features are written as ``repr`` of Python floats, the shortest string
    that reads back to the same float64. ``tolist`` makes those floats for
    the whole block at once, instead of one numpy scalar per value.
    """
    rows = zip(labels.tolist(), features.tolist())
    lines = [f"{label}," + ",".join(map(repr, row)) for label, row in rows]
    lines.append("")
    return "\n".join(lines)
