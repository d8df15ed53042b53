"""IDX-format MNIST ingestion and the binary 1-versus-7 task.

The IDX container is big-endian: images files carry magic 2051 then count,
rows, cols as u32 and raw u8 pixels; label files carry magic 2049, count, and
one u8 digit per item.  The reader returns the payload bytes unchanged,
refuses a file whose size differs from what its header declares, and detects
gzip inputs by their two-byte prefix.

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
import zlib
from dataclasses import dataclass

import numpy as np

from .logreg import LabeledDataset

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
    """Malformed IDX payload or gzip stream: bad magic, truncation, trailing bytes, bad label."""


class InsufficientClassError(ValueError):
    """Not enough samples of a digit to reach the required split sizes."""


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
        raise IdxFormatError(f"trailing bytes past the {expected} bytes the {what} header declares")
    return sizes, np.frombuffer(data, dtype=np.uint8, offset=head)


def load_idx_images(data: bytes) -> np.ndarray:
    """The images of an IDX file as an owned (count, rows, cols) uint8 array."""
    (count, rows, cols), payload = _idx_payload(data, IMAGES_MAGIC, 3, "images")
    if rows < 1 or cols < 1:
        raise IdxFormatError(f"images of {rows}x{cols} pixels: rows and cols must be positive")
    return payload.reshape(count, rows, cols).copy()


def load_idx_labels(data: bytes) -> np.ndarray:
    labels = _idx_payload(data, LABELS_MAGIC, 1, "labels")[1].copy()
    if labels.size and labels.max() > 9:
        raise IdxFormatError(f"label byte {labels.max()} outside 0..9")
    return labels


def read_idx_bytes(path: str) -> bytes:
    """Read a file, transparently decompressing gzip (0x1f 0x8b prefix).

    A gzip stream is inflated one byte past the size its IDX header declares
    and no further, so the parser sees any trailing data without the rest
    being inflated.  A truncated or corrupt gzip stream raises
    :class:`IdxFormatError` naming the file.
    """
    with open(path, "rb") as fh:
        if fh.peek(2)[:2] != b"\x1f\x8b":
            return fh.read()
        try:
            with gzip.GzipFile(fileobj=fh) as stream:
                # magic is 0, 0, the element type, the number of u32 sizes
                chunks = [stream.read(4)]
                ndim = chunks[0][3] if len(chunks[0]) == 4 else 0
                chunks.append(stream.read(4 * ndim))
                if len(chunks[1]) == 4 * ndim:
                    # in bounded chunks: one read allocates all it asks for up front
                    left = math.prod(struct.unpack(f">{ndim}I", chunks[1])) + 1
                    while chunk := stream.read(min(left, 2**20)):
                        chunks.append(chunk)
                        left -= len(chunk)
                return b"".join(chunks)
        except (EOFError, zlib.error, gzip.BadGzipFile) as err:
            raise IdxFormatError(f"{path}: corrupt or truncated gzip data ({err})") from err


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


def _labeled_rows(images: np.ndarray, pos_rows: np.ndarray, neg_rows: np.ndarray) -> tuple:
    """Features and +-1 labels of the given image rows, written into one buffer.

    Pixels are divided by 255 in float64 straight into the buffer; the last
    column is the constant bias feature 1.
    """
    pixels = images.reshape(len(images), -1)
    rows = np.concatenate([pos_rows, neg_rows])
    features = np.empty((rows.size, pixels.shape[1] + 1))
    np.divide(pixels[rows], 255.0, out=features[:, :-1])
    features[:, -1] = 1.0
    return features, np.repeat([1.0, -1.0], [pos_rows.size, neg_rows.size])


def build_binary_task(
    images: np.ndarray,
    labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    seed: int,
) -> BinaryTaskSplit:
    """Construct the balanced 1-vs-7 task from parsed MNIST train and test sets.

    Each class is subsampled (seeded, sorted-index selection) to exactly
    ``TRAIN_POOL_PER_CLASS`` pool rows and ``TEST_PER_CLASS`` test rows; a
    seeded shuffle then holds out ``VALIDATION_PER_CLASS`` rows per class.
    Identical inputs and seed reproduce the splits bit for bit.
    """
    if len(images) != labels.size:
        raise ValueError(f"{len(images)} train images but {labels.size} labels")
    if len(test_images) != test_labels.size:
        raise ValueError(f"{len(test_images)} test images but {test_labels.size} labels")

    rng = np.random.default_rng(seed)
    train_pos, train_neg, test_pos, test_neg = (
        np.sort(rng.choice(_class_indices(source, digit, needed, what), size=needed, replace=False))
        for digit, source, needed, what in (
            (POSITIVE_DIGIT, labels, TRAIN_POOL_PER_CLASS, "train set"),
            (NEGATIVE_DIGIT, labels, TRAIN_POOL_PER_CLASS, "train set"),
            (POSITIVE_DIGIT, test_labels, TEST_PER_CLASS, "test set"),
            (NEGATIVE_DIGIT, test_labels, TEST_PER_CLASS, "test set"),
        )
    )

    n_train = TRAIN_POOL_PER_CLASS - VALIDATION_PER_CLASS
    # composing each sorted pick with its permutation gives the corpus rows of a split
    pool_pos = train_pos[rng.permutation(TRAIN_POOL_PER_CLASS)]
    pool_neg = train_neg[rng.permutation(TRAIN_POOL_PER_CLASS)]
    parts = (
        _labeled_rows(images, pool_pos[:n_train], pool_neg[:n_train]),
        _labeled_rows(images, pool_pos[n_train:], pool_neg[n_train:]),
        _labeled_rows(test_images, test_pos, test_neg),
    )
    train, validation, test = (
        LabeledDataset(features=features, labels=labels) for features, labels in parts
    )
    return BinaryTaskSplit(train=train, validation=validation, test=test)
