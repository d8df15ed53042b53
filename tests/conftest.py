import gzip
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from alphaloss import Alpha, LabeledDataset, LinearModel, empirical_gradient
from alphaloss.logreg import row_norms

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")

A1 = Alpha(1.0)
A2 = Alpha(2)
AINF = Alpha(math.inf)

# The posteriors 0.1..0.9 without the excluded 1/2.
ETA_GRID = [e / 10 for e in range(1, 10) if e != 5]


def naive_margin_loss(alpha_value, z):
    """Direct textbook formula, independent of the stable implementation.

    Valid for |z| well below the exp overflow threshold.
    """
    s = 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))
    if alpha_value == 1:
        return -np.log(s)
    if math.isinf(alpha_value):
        return 1.0 - s
    return alpha_value / (alpha_value - 1.0) * (1.0 - s ** (1.0 - 1.0 / alpha_value))


def grid_minimize_conditional_risk(alpha_value, eta, step):
    """Brute-force oracle: argmin and min of the conditional risk on a grid over [-50, 50]."""
    grid = np.linspace(-50.0, 50.0, int(round(100.0 / step)) + 1)
    risks = eta * naive_margin_loss(alpha_value, grid) + (1.0 - eta) * naive_margin_loss(
        alpha_value, -grid
    )
    i = int(np.argmin(risks))
    return float(grid[i]), float(risks[i])


def random_instance(rng, d, n, radius=1.0):
    """Random dataset with rows scaled into the given ball, plus a random model."""
    x = rng.normal(size=(n, d))
    x *= radius / max(row_norms(x).max(), 1e-12) * rng.uniform(0.5, 1.0)
    y = rng.choice([-1, 1], size=n)
    data = LabeledDataset(x, y)
    w = rng.normal(size=d) * 0.4
    return data, LinearModel(w)


def kkt_terms(alpha, model, data, radius):
    """The multiplier -w . grad / |w| (0 inside the ball) and the KKT residual
    |grad + multiplier * w / |w|| of a model, from ``empirical_gradient``."""
    w = model.weights
    grad = empirical_gradient(alpha, model, data)
    norm = float(np.linalg.norm(w))
    if norm < radius * (1.0 - 1e-12):
        return 0.0, float(np.linalg.norm(grad))
    multiplier = -float(w @ grad) / norm
    return multiplier, float(np.linalg.norm(grad + multiplier * w / norm))


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MNIST_ENV = "ALPHALOSS_MNIST_DIR"


def find_real_mnist():
    """Directory with the four official IDX files, or None."""
    candidates = [os.environ.get(MNIST_ENV), os.path.join(os.path.dirname(__file__), "data", "mnist")]
    for directory in candidates:
        if not directory or not os.path.isdir(directory):
            continue
        names = set(os.listdir(directory))
        needed = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                  "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
        if all(n in names or n + ".gz" in names for n in needed):
            return directory
    return None


@pytest.fixture(scope="session")
def real_mnist_dir():
    directory = find_real_mnist()
    if directory is None:
        pytest.skip(f"real MNIST IDX files not available (set {MNIST_ENV})")
    return directory


def forbid(monkeypatch, target, name, what):
    """Patch ``target.name`` so that any call fails with AssertionError(what)."""

    def fail(*args, **kwargs):
        raise AssertionError(what)

    monkeypatch.setattr(target, name, fail)


def damaged_gzip(raw: bytes, damage: str) -> bytes:
    """The gzip stream of raw bytes, damaged in one of three ways.

    "truncated" cuts it in half, so it ends early (EOFError).  "corrupt" flips
    a byte of the code-length table that opens the deflate block after the
    10-byte gzip header, so it does not inflate (zlib.error).  "crc" flips a
    byte of the trailing CRC-32, so it inflates but fails its check
    (gzip.BadGzipFile).
    """
    z = gzip.compress(raw, mtime=0)
    if damage == "truncated":
        return z[: len(z) // 2]
    at = {"corrupt": 12, "crc": len(z) - 8}[damage]
    return z[:at] + bytes([z[at] ^ 0xFF]) + z[at + 1 :]


def images_bytes(count=3, rows=2, cols=2, magic=2051, pixels=None, pad=b""):
    """An IDX images file: its big-endian header, then the pixel bytes and any padding."""
    if pixels is None:
        pixels = bytes(range(count * rows * cols))
    return struct.pack(">IIII", magic, count, rows, cols) + pixels + pad


def labels_bytes(values, magic=2049, pad=b""):
    """An IDX labels file: its big-endian header, one byte per value, then any padding."""
    return struct.pack(">II", magic, len(values)) + bytes(values) + pad


def _render_digit(rng, digit, rows, cols):
    img = rng.integers(0, 30, size=(rows, cols), dtype=np.int64)
    if digit == 1:
        img[4:24, 13:16] += rng.integers(180, 250)
    elif digit == 7:
        img[3:6, 6:22] += rng.integers(180, 250)
        for i in range(16):
            img[6 + i, max(0, 18 - i) : max(0, 18 - i) + 3] += 170
    else:
        img[8:20, 8:20] += rng.integers(60, 160)
    return np.clip(img, 0, 255).astype(np.uint8).ravel()


def synthetic_corpus(train_counts, test_counts, seed=1234, rows=28, cols=28):
    """A fake MNIST-shaped corpus with learnable 1/7 patterns.

    The first two pixels of every image carry its corpus index (test images
    offset by 0x8000) so that split membership can be traced exactly.
    """
    rng = np.random.default_rng(seed)

    def build(counts, tag_offset):
        digits = np.concatenate([np.full(c, d, dtype=np.uint8) for d, c in counts.items()])
        digits = digits[rng.permutation(digits.size)]
        images = np.empty((digits.size, rows * cols), dtype=np.uint8)
        for i, digit in enumerate(digits):
            images[i] = _render_digit(rng, int(digit), rows, cols)
            tag = i + tag_offset
            images[i, 0] = tag // 256
            images[i, 1] = tag % 256
        return images.reshape(digits.size, rows, cols), digits

    train_images, train_labels = build(train_counts, 0)
    test_images, test_labels = build(test_counts, 0x8000)
    return train_images, train_labels, test_images, test_labels


FULL_TRAIN_COUNTS = {1: 6742, 7: 6265, 3: 500, 0: 493}
FULL_TEST_COUNTS = {1: 1135, 7: 1028, 3: 100, 0: 100}


@pytest.fixture(scope="session")
def synthetic_full_corpus():
    return synthetic_corpus(FULL_TRAIN_COUNTS, FULL_TEST_COUNTS)


@pytest.fixture(scope="session")
def synthetic_mnist_dir(tmp_path_factory, synthetic_full_corpus):
    """The synthetic corpus written as IDX files (labels gzipped)."""
    train_images, train_labels, test_images, test_labels = synthetic_full_corpus
    directory = tmp_path_factory.mktemp("mnist")
    (directory / "train-images-idx3-ubyte").write_bytes(
        images_bytes(*train_images.shape, pixels=train_images.tobytes()))
    (directory / "train-labels-idx1-ubyte.gz").write_bytes(gzip.compress(labels_bytes(train_labels)))
    (directory / "t10k-images-idx3-ubyte").write_bytes(
        images_bytes(*test_images.shape, pixels=test_images.tobytes()))
    (directory / "t10k-labels-idx1-ubyte.gz").write_bytes(gzip.compress(labels_bytes(test_labels)))
    return str(directory)
