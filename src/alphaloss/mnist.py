"""IDX-format MNIST ingestion and the binary 1-versus-7 task.

The IDX container is big-endian: images files carry magic 2051 then count,
rows, cols as u32 and raw u8 pixels; label files carry magic 2049, count, and
one u8 digit per item.  Parsing is bit-exact (serializing back reproduces the
input) and gzip inputs are detected by their two-byte prefix.

The binary task keeps digits 1 (label +1) and 7 (label -1), normalizes pixels
to [0, 1], appends a constant bias feature, subsamples to a 12,500-row
balanced training pool and a 2,050-row balanced test set, and splits the pool
into 11,500 training and 1,000 validation rows with both classes balanced.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .logreg import LabeledDataset, row_norms

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049

POSITIVE_DIGIT = 1
NEGATIVE_DIGIT = 7
TRAIN_POOL_PER_CLASS = 6250
TEST_PER_CLASS = 1025
VALIDATION_PER_CLASS = 500

TRAIN_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")
TEST_FILES = ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


class IdxFormatError(ValueError):
    """Malformed IDX payload: bad magic, truncation, trailing bytes, bad label."""


class InsufficientClassError(ValueError):
    """Not enough samples of a digit to reach the required split sizes."""


@dataclass(frozen=True)
class IdxImages:
    count: int
    rows: int
    cols: int
    pixels: np.ndarray  # (count, rows*cols) uint8

    def __post_init__(self):
        if self.count < 0 or self.rows < 1 or self.cols < 1:
            raise ValueError("count must be >= 0 and rows/cols positive")
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.shape != (self.count, self.rows * self.cols):
            raise ValueError(f"pixels shape {px.shape} != ({self.count}, {self.rows * self.cols})")
        object.__setattr__(self, "pixels", px)


@dataclass(frozen=True)
class BinaryTaskSplit:
    train: LabeledDataset
    validation: LabeledDataset
    test: LabeledDataset


def _idx_payload(data: bytes, magic: int, ndim: int, what: str) -> tuple[list[int], np.ndarray]:
    """Check an IDX header and payload size; return the ndim sizes and a payload view."""
    size, head = len(data), 4 * (1 + ndim)
    if size < head:
        raise IdxFormatError(f"{what} header needs {head} bytes, got {size}")
    found, *sizes = struct.unpack(f">{1 + ndim}I", data[:head])
    if found != magic:
        raise IdxFormatError(f"wrong magic for {what}: expected {magic}, got {found}")
    expected = head + math.prod(sizes)
    if size < expected:
        raise IdxFormatError(f"truncated {what} payload: expected {expected} bytes, got {size}")
    if size > expected:
        raise IdxFormatError(f"{size - expected} trailing bytes after {what} payload")
    return sizes, np.frombuffer(data, dtype=np.uint8, offset=head)


def load_idx_images(data: bytes) -> IdxImages:
    (count, rows, cols), payload = _idx_payload(data, IMAGES_MAGIC, 3, "images")
    return IdxImages(count, rows, cols, payload.reshape(count, rows * cols).copy())


def dump_idx_images(images: IdxImages) -> bytes:
    header = struct.pack(">IIII", IMAGES_MAGIC, images.count, images.rows, images.cols)
    return header + images.pixels.tobytes()


def load_idx_labels(data: bytes) -> np.ndarray:
    labels = _idx_payload(data, LABELS_MAGIC, 1, "labels")[1].copy()
    if labels.size and labels.max() > 9:
        raise IdxFormatError(f"label byte {labels.max()} outside 0..9")
    return labels


def dump_idx_labels(labels: np.ndarray) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", LABELS_MAGIC, labels.size) + labels.tobytes()


def read_idx_bytes(path: str) -> bytes:
    """Read a file, transparently decompressing gzip (0x1f 0x8b prefix)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"\x1f\x8b":
        return gzip.decompress(data)
    return data


def _resolve(directory: str, name: str) -> str:
    for candidate in (name, name + ".gz"):
        path = os.path.join(directory, candidate)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(f"neither {name} nor {name}.gz found in {directory}")


def load_mnist_dir(directory: str):
    """Load the four standard files; returns (images, labels, test_images, test_labels)."""
    images = load_idx_images(read_idx_bytes(_resolve(directory, TRAIN_FILES[0])))
    labels = load_idx_labels(read_idx_bytes(_resolve(directory, TRAIN_FILES[1])))
    test_images = load_idx_images(read_idx_bytes(_resolve(directory, TEST_FILES[0])))
    test_labels = load_idx_labels(read_idx_bytes(_resolve(directory, TEST_FILES[1])))
    return images, labels, test_images, test_labels


def _class_indices(labels: np.ndarray, digit: int, needed: int, what: str) -> np.ndarray:
    idx = np.flatnonzero(labels == digit)
    if idx.size < needed:
        raise InsufficientClassError(
            f"{what} has {idx.size} samples of digit {digit}, need {needed}"
        )
    return idx


def _labeled_rows(images: IdxImages, pos_rows: np.ndarray, neg_rows: np.ndarray) -> tuple:
    """Features and +-1 labels of the given image rows, written into one buffer.

    Pixels land as exact uint8 -> float64 casts and are divided by 255 in
    place; the last column is the constant bias feature, stored as 255 so the
    one division over the whole buffer leaves it exactly 1.
    """
    rows = np.concatenate([pos_rows, neg_rows])
    features = np.empty((rows.size, images.pixels.shape[1] + 1))
    features[:, :-1] = images.pixels[rows]
    features[:, -1] = 255.0
    features /= 255.0
    labels = np.concatenate(
        [np.ones(pos_rows.size, dtype=np.int64), -np.ones(neg_rows.size, dtype=np.int64)]
    )
    return features, labels


def build_binary_task(
    images: IdxImages,
    labels: np.ndarray,
    test_images: IdxImages,
    test_labels: np.ndarray,
    seed: int,
) -> BinaryTaskSplit:
    """Construct the balanced 1-vs-7 task from parsed MNIST train and test sets.

    Each class is subsampled (seeded, sorted-index selection) to exactly
    ``TRAIN_POOL_PER_CLASS`` pool rows and ``TEST_PER_CLASS`` test rows; a
    seeded shuffle then holds out ``VALIDATION_PER_CLASS`` rows per class.
    Identical inputs and seed reproduce the splits bit for bit.
    """
    if images.count != labels.size:
        raise ValueError(f"{images.count} train images but {labels.size} labels")
    if test_images.count != test_labels.size:
        raise ValueError(f"{test_images.count} test images but {test_labels.size} labels")

    rng = np.random.default_rng(seed)
    picks = {}
    for digit, source_labels, needed, what in (
        (POSITIVE_DIGIT, labels, TRAIN_POOL_PER_CLASS, "train set"),
        (NEGATIVE_DIGIT, labels, TRAIN_POOL_PER_CLASS, "train set"),
        (POSITIVE_DIGIT, test_labels, TEST_PER_CLASS, "test set"),
        (NEGATIVE_DIGIT, test_labels, TEST_PER_CLASS, "test set"),
    ):
        idx = _class_indices(source_labels, digit, needed, what)
        picks[(digit, what)] = np.sort(rng.choice(idx, size=needed, replace=False))

    n_train = TRAIN_POOL_PER_CLASS - VALIDATION_PER_CLASS
    # composing each sorted pick with its permutation gives the corpus rows of a split
    pool_pos = picks[(POSITIVE_DIGIT, "train set")][rng.permutation(TRAIN_POOL_PER_CLASS)]
    pool_neg = picks[(NEGATIVE_DIGIT, "train set")][rng.permutation(TRAIN_POOL_PER_CLASS)]
    parts = (
        _labeled_rows(images, pool_pos[:n_train], pool_neg[:n_train]),
        _labeled_rows(images, pool_pos[n_train:], pool_neg[n_train:]),
        _labeled_rows(
            test_images,
            picks[(POSITIVE_DIGIT, "test set")],
            picks[(NEGATIVE_DIGIT, "test set")],
        ),
    )
    radius = float(max(row_norms(features).max() for features, _ in parts))
    train, validation, test = (
        LabeledDataset(features=features, labels=labels, feature_radius=radius)
        for features, labels in parts
    )
    return BinaryTaskSplit(train=train, validation=validation, test=test)
