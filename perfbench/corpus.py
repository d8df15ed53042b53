"""MNIST-shaped IDX corpus for the sweep-mnist workload, generated from a seed.

The real MNIST files cannot be fetched, so the benchmark writes its own:
28x28 uint8 images of 1s, 7s and two distractor digits at the full-task
class counts.  Images are written plain and labels gzipped, so that both read
paths of ``alphaloss.mnist.read_idx_bytes`` run.

The 1 and 7 classes overlap on purpose: every image blends its own stroke
pattern with some of the other digit's, and a few are dominated by it.  With
separable classes every (alpha, lr) reaches accuracy 1 and the sweep output
could not reveal a wrong model.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import struct

import numpy as np

ROWS = COLS = 28
TRAIN_COUNTS = {1: 6742, 7: 6265, 3: 500, 0: 493}
TEST_COUNTS = {1: 1135, 7: 1028, 3: 100, 0: 100}
FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte.gz",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte.gz",
)


def _templates() -> dict[int, np.ndarray]:
    one = np.zeros((ROWS, COLS))
    one[4:24, 13:16] = 1.0
    seven = np.zeros((ROWS, COLS))
    seven[3:6, 6:22] = 1.0
    for i in range(16):
        start = max(0, 18 - i)
        seven[6 + i, start : start + 3] = 1.0
    square = np.zeros((ROWS, COLS))
    square[8:20, 8:20] = 1.0
    ring = square.copy()
    ring[11:17, 11:17] = 0.0
    return {1: one, 7: seven, 3: square, 0: ring}


def _render(rng: np.random.Generator, counts: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    templates = _templates()
    digits = np.concatenate([np.full(c, d, dtype=np.uint8) for d, c in counts.items()])
    digits = digits[rng.permutation(digits.size)]
    own = np.stack([templates[d] for d in (1, 7, 3, 0)])
    # Each 1 borrows strokes from a 7 and vice versa; distractors borrow from a 1.
    other = np.stack([templates[d] for d in (7, 1, 1, 1)])
    slot = np.zeros(10, dtype=np.int64)
    slot[[1, 7, 3, 0]] = np.arange(4)
    slot = slot[digits]
    mix = rng.beta(1.0, 5.0, size=digits.size)[:, None, None]
    ink = rng.uniform(120.0, 230.0, size=digits.size)[:, None, None]
    shift = rng.integers(-2, 3, size=(digits.size, 2))
    img = ink * ((1.0 - mix) * own[slot] + mix * other[slot])
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            sel = (shift[:, 0] == dy) & (shift[:, 1] == dx)
            img[sel] = np.roll(img[sel], (dy, dx), axis=(1, 2))
    img += rng.uniform(0.0, 70.0, size=img.shape)
    pixels = np.clip(img, 0, 255).astype(np.uint8).reshape(digits.size, ROWS * COLS)
    return pixels, digits


def _idx_images(pixels: np.ndarray) -> bytes:
    return struct.pack(">IIII", 2051, pixels.shape[0], ROWS, COLS) + pixels.tobytes()


def _idx_labels(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 2049, labels.size) + labels.astype(np.uint8).tobytes()


def write_corpus(directory: str, seed: int) -> str:
    """Write the four IDX files into ``directory``; returns their joint sha256."""
    rng = np.random.default_rng([seed, 0x4D4E4953])
    train_pixels, train_labels = _render(rng, TRAIN_COUNTS)
    test_pixels, test_labels = _render(rng, TEST_COUNTS)
    payloads = (
        _idx_images(train_pixels),
        gzip.compress(_idx_labels(train_labels), mtime=0),
        _idx_images(test_pixels),
        gzip.compress(_idx_labels(test_labels), mtime=0),
    )
    digest = hashlib.sha256()
    for name, data in zip(FILES, payloads):
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
        digest.update(data)
    return digest.hexdigest()
