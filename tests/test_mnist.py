import gzip
import re
import struct
import zlib

import numpy as np
import pytest

from alphaloss import (
    IdxFormatError,
    InsufficientClassError,
    build_binary_task,
    load_idx_images,
    load_idx_labels,
    load_mnist_dir,
    read_idx_bytes,
)
from conftest import (
    FULL_TEST_COUNTS,
    damaged_gzip,
    images_bytes,
    labels_bytes,
    synthetic_corpus,
    traced_peak,
)


class TestIdxImages:
    def test_parse_fields(self):
        imgs = load_idx_images(images_bytes())
        assert imgs.shape == (3, 2, 2)
        assert imgs.dtype == np.uint8
        assert imgs[1, 0, 0] == 4

    def test_parsed_arrays_are_owned_and_writable(self):
        arrays = (load_idx_images(images_bytes()), load_idx_labels(labels_bytes([1, 7])))
        for array in arrays:
            assert array.flags.owndata and array.flags.writeable

    def test_round_trip_exact(self):
        payload = ((np.arange(60) * 37) % 251).astype(np.uint8).tobytes()
        imgs = load_idx_images(images_bytes(count=5, rows=3, cols=4, pixels=payload))
        assert imgs.shape == (5, 3, 4)
        assert imgs.tobytes() == payload

    def test_empty_file_is_valid(self):
        imgs = load_idx_images(images_bytes(count=0, rows=28, cols=28, pixels=b""))
        assert imgs.shape == (0, 28, 28)

    def test_wrong_magic(self):
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx_images(images_bytes(magic=2049))

    @pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0), (0, 0)])
    def test_empty_image_shape_rejected(self, rows, cols):
        with pytest.raises(IdxFormatError, match="positive"):
            load_idx_images(images_bytes(count=3, rows=rows, cols=cols, pixels=b""))

    def test_truncated(self):
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_images(images_bytes()[:-1])
        with pytest.raises(IdxFormatError, match="header"):
            load_idx_images(b"\x00\x00\x08\x03")

    def test_trailing_bytes(self):
        with pytest.raises(IdxFormatError, match="trailing"):
            load_idx_images(images_bytes(pad=b"\x00"))


class TestIdxLabels:
    def test_parse(self):
        labels = load_idx_labels(labels_bytes([0, 9, 1, 7]))
        assert np.array_equal(labels, np.array([0, 9, 1, 7], dtype=np.uint8))

    def test_round_trip(self):
        labels = load_idx_labels(labels_bytes([1, 7, 1, 7, 3]))
        assert labels.shape == (5,)
        assert labels.tobytes() == bytes([1, 7, 1, 7, 3])

    def test_empty(self):
        assert load_idx_labels(labels_bytes([])).size == 0

    def test_wrong_magic(self):
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx_labels(labels_bytes([1], magic=2051))

    def test_label_out_of_range(self):
        with pytest.raises(IdxFormatError, match="outside"):
            load_idx_labels(labels_bytes([12]))

    def test_truncated_and_trailing(self):
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_labels(labels_bytes([1, 2, 3])[:-2])
        with pytest.raises(IdxFormatError, match="trailing"):
            load_idx_labels(labels_bytes([1]) + b"\x05")


class TestFileReading:
    def test_gzip_detection(self, tmp_path):
        raw = images_bytes()
        plain = tmp_path / "plain"
        plain.write_bytes(raw)
        zipped = tmp_path / "zipped"
        zipped.write_bytes(gzip.compress(raw))
        assert read_idx_bytes(str(plain)) == raw
        assert read_idx_bytes(str(zipped)) == raw

    @pytest.mark.parametrize("damage, cause", [
        ("truncated", "end-of-stream marker"),
        ("corrupt", "Error -3 while decompressing"),
        ("crc", "CRC check failed"),
    ])
    def test_damaged_gzip_names_the_file(self, tmp_path, damage, cause):
        zipped = tmp_path / "zipped"
        digits = np.random.default_rng(0).integers(0, 10, 5000).tolist()
        zipped.write_bytes(damaged_gzip(labels_bytes(digits), damage))
        expected = f"^{re.escape(str(zipped))}: corrupt or truncated gzip"
        with pytest.raises(IdxFormatError, match=expected) as err:
            read_idx_bytes(str(zipped))
        assert cause in str(err.value)

    @pytest.mark.parametrize("head, padding_mb, cause", [
        # a 51 KB stream declaring 10 labels that would inflate to 50 MB
        (struct.pack(">II", 2049, 10) + bytes(10), 50, "trailing"),
        # 18 bytes declaring 2^32 - 1 labels, and images above 2^63 bytes
        (struct.pack(">II", 2049, 2**32 - 1) + bytes(10), 0, "truncated"),
        (struct.pack(">IIII", 2051, *[2**32 - 1] * 3) + bytes(10), 0, "truncated"),
    ])
    def test_gzip_inflates_no_further_than_its_header_declares(self, tmp_path, head, padding_mb, cause):
        packer = zlib.compressobj(9, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
        chunks = [packer.compress(head)] + [packer.compress(bytes(2**20)) for _ in range(padding_mb)]
        zipped = tmp_path / "data.gz"
        zipped.write_bytes(b"".join(chunks) + packer.flush())
        load = load_idx_labels if head[3] == 1 else load_idx_images
        raised, peak = traced_peak(pytest.raises, IdxFormatError,
                                   lambda: load(read_idx_bytes(str(zipped))))
        raised.match(cause)
        assert peak < 2 * 2**20, f"peak {peak} bytes"

    def test_load_mnist_dir_resolves_gz(self, synthetic_mnist_dir):
        images, labels, test_images, test_labels = load_mnist_dir(synthetic_mnist_dir)
        assert images.shape == (labels.size, 28, 28)
        assert test_images.shape == (test_labels.size, 28, 28)

    def test_load_mnist_dir_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="train-images"):
            load_mnist_dir(str(tmp_path))


def _tags(dataset):
    return set(
        (np.rint(dataset.features[:, 0] * 255) * 256 + np.rint(dataset.features[:, 1] * 255))
        .astype(int)
        .tolist()
    )


@pytest.fixture(scope="module")
def split(synthetic_full_corpus):
    return build_binary_task(*synthetic_full_corpus, seed=0)


class TestBuildBinaryTask:
    def test_exact_sizes(self, split):
        assert split.train.n == 11_500
        assert split.validation.n == 1_000
        assert split.test.n == 2_050

    def test_class_balance(self, split):
        for part in (split.train, split.validation, split.test):
            pos = int(np.sum(part.labels == 1))
            neg = int(np.sum(part.labels == -1))
            assert abs(pos - neg) <= 1

    def test_only_binary_labels(self, split):
        for part in (split.train, split.validation, split.test):
            assert set(np.unique(part.labels)) == {-1, 1}

    def test_feature_ranges(self, split):
        for part in (split.train, split.validation, split.test):
            assert part.dim == 785
            assert np.all(part.features[:, -1] == 1.0)
            assert part.features[:, :-1].min() >= 0.0
            assert part.features[:, :-1].max() <= 1.0

    def test_splits_are_row_major(self, split):
        # MNIST is wide (785 columns): its matvecs read each image as one
        # contiguous row, the layout that measured fastest for the sweep
        for part in (split.train, split.validation, split.test):
            assert part.features.flags.c_contiguous

    def test_train_validation_disjoint_partition(self, split):
        train_tags = _tags(split.train)
        val_tags = _tags(split.validation)
        assert len(train_tags) == 11_500
        assert len(val_tags) == 1_000
        assert not train_tags & val_tags
        # test rows come from the test corpus only (offset tag space)
        assert all(tag >= 0x8000 for tag in _tags(split.test))

    def test_deterministic(self, synthetic_full_corpus, split):
        again = build_binary_task(*synthetic_full_corpus, seed=0)
        assert np.array_equal(split.train.features, again.train.features)
        assert np.array_equal(split.train.labels, again.train.labels)
        assert np.array_equal(split.validation.features, again.validation.features)
        assert np.array_equal(split.test.features, again.test.features)

    def test_seed_changes_selection(self, synthetic_full_corpus, split):
        other = build_binary_task(*synthetic_full_corpus, seed=1)
        assert not np.array_equal(split.train.features, other.train.features)

    def test_insufficient_class_count(self):
        corpus = synthetic_corpus({1: 6742, 7: 50}, FULL_TEST_COUNTS, seed=3)
        with pytest.raises(InsufficientClassError, match="digit 7"):
            build_binary_task(*corpus, seed=0)

    def test_count_label_mismatch(self, synthetic_full_corpus):
        images, labels, test_images, test_labels = synthetic_full_corpus
        with pytest.raises(ValueError, match="labels"):
            build_binary_task(images, labels[:-1], test_images, test_labels, seed=0)
        with pytest.raises(ValueError, match="test images but"):
            build_binary_task(images, labels, test_images, test_labels[:-1], seed=0)


def pooled_build(images, labels, test_images, test_labels, seed):
    """The task built as class pools -> hstack -> row gathers -> vstack, as an oracle.

    Returns (features, labels) for train, validation and test.
    """
    rng = np.random.default_rng(seed)
    picks = [
        np.sort(rng.choice(np.flatnonzero(source == digit), size=needed, replace=False))
        for digit, source, needed in (
            (1, labels, 6250), (7, labels, 6250), (1, test_labels, 1025), (7, test_labels, 1025)
        )
    ]

    def pool(imgs, idx):
        pixels = imgs.reshape(len(imgs), -1)[idx].astype(float) / 255.0
        return np.hstack([pixels, np.ones((idx.size, 1))])

    pool_pos, pool_neg = pool(images, picks[0]), pool(images, picks[1])
    test_pos, test_neg = pool(test_images, picks[2]), pool(test_images, picks[3])
    perm_pos, perm_neg = rng.permutation(6250), rng.permutation(6250)

    def assemble(pos, neg):
        lab = np.concatenate([np.ones(pos.shape[0], dtype=np.int64), -np.ones(neg.shape[0], dtype=np.int64)])
        return np.vstack([pos, neg]), lab

    return (
        assemble(pool_pos[perm_pos[:5750]], pool_neg[perm_neg[:5750]]),
        assemble(pool_pos[perm_pos[5750:]], pool_neg[perm_neg[5750:]]),
        assemble(test_pos, test_neg),
    )


class TestBuildMatchesPooledConstruction:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical(self, synthetic_full_corpus, seed):
        split = build_binary_task(*synthetic_full_corpus, seed=seed)
        expected = pooled_build(*synthetic_full_corpus, seed=seed)
        for part, (features, labels) in zip((split.train, split.validation, split.test), expected):
            assert part.features.dtype == np.float64
            assert part.features.flags.c_contiguous
            assert part.features.shape == features.shape
            assert np.array_equal(part.features, features)
            assert np.array_equal(part.labels, labels)


class TestBuildMemory:
    def test_peak_near_output_size(self, synthetic_full_corpus):
        """Allocations during the build peak at most 1.25x the bytes it returns."""
        split, peak = traced_peak(build_binary_task, *synthetic_full_corpus, 0)
        parts = (split.train, split.validation, split.test)
        returned = sum(part.features.nbytes + part.labels.nbytes for part in parts)
        assert peak <= 1.25 * returned, f"peak {peak / returned:.2f}x the returned bytes"


@pytest.mark.usefixtures("real_mnist_dir")
class TestRealMnist:
    def test_official_counts_and_split(self, real_mnist_dir):
        images, labels, test_images, test_labels = load_mnist_dir(real_mnist_dir)
        assert images.shape == (60_000, 28, 28)
        assert labels.size == 60_000
        assert test_images.shape == (10_000, 28, 28)
        split = build_binary_task(images, labels, test_images, test_labels, seed=0)
        assert (split.train.n, split.validation.n, split.test.n) == (11_500, 1_000, 2_050)
