import gzip
import struct

import numpy as np
import pytest

from conftest import (OVERSIZED_EMBEDDINGS, write_idx_images,
                      write_idx_labels)
from cyclicff.data import (Dataset, FusionMode, fuse_inputs, iter_batches,
                           load_embeddings, load_mnist_idx, neutral_fusion,
                           save_embeddings, split, synth_blobs)
from cyclicff.numerics import make_rng


@pytest.fixture
def rng():
    return make_rng(0, "negative-labels")


class TestDataset:
    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range(self, label):
        with pytest.raises(ValueError, match="out of range"):
            Dataset(np.zeros((2, 4)), np.array([0, label]), 3)


class TestFuseInputs:
    def test_overlay_mnist_convention(self, rng):
        feats = make_rng(1, 0).uniform(0.1, 1.0, size=(5, 784))
        labels = np.array([3, 0, 9, 1, 7])
        fb = fuse_inputs(feats, labels, 10, FusionMode("overlay"), rng)
        assert fb.h_pos.shape == (5, 784)
        np.testing.assert_array_equal(fb.h_pos[0, :10],
                                      np.eye(10)[3])
        # Pixels past the overlay untouched.
        np.testing.assert_array_equal(fb.h_pos[:, 10:], feats[:, 10:])
        np.testing.assert_array_equal(fb.h_neg[:, 10:], feats[:, 10:])

    def test_concat_newsgroup_convention(self, rng):
        feats = np.zeros((3, 768))
        fb = fuse_inputs(feats, np.array([0, 5, 19]), 20,
                         FusionMode("concat"), rng)
        assert fb.h_pos.shape == (3, 788)
        np.testing.assert_array_equal(fb.h_pos[:, :768], feats)

    def test_imdb_neutral_row(self, rng):
        feats = np.ones((2, 768))
        fb = fuse_inputs(feats, np.array([0, 1]), 2, FusionMode("concat"), rng)
        assert fb.h_neu.shape == (2, 770)
        np.testing.assert_array_equal(fb.h_neu[:, -2:], 0.5)

    def test_negative_never_true(self, rng):
        feats = np.zeros((500, 4))
        labels = make_rng(2, 0).integers(0, 3, size=500)
        fb = fuse_inputs(feats, labels, 3, FusionMode("concat"), rng)
        neg_labels = np.argmax(fb.h_neg[:, 4:], axis=1)
        assert np.all(neg_labels != labels)

    def test_negatives_resampled_per_call(self, rng):
        feats = np.zeros((200, 4))
        labels = np.zeros(200, dtype=np.int64)
        a = fuse_inputs(feats, labels, 10, FusionMode("concat"), rng)
        b = fuse_inputs(feats, labels, 10, FusionMode("concat"), rng)
        assert not np.array_equal(a.h_neg, b.h_neg)

    def test_neutral_independent_of_label(self, rng):
        feats = np.tile(np.arange(6.0), (2, 1))
        fb = fuse_inputs(feats, np.array([0, 2]), 3, FusionMode("concat"), rng)
        np.testing.assert_array_equal(fb.h_neu[0], fb.h_neu[1])
        np.testing.assert_array_equal(
            fb.h_neu, neutral_fusion(feats, 3, FusionMode("concat")))

    def test_too_few_classes(self, rng):
        with pytest.raises(ValueError):
            fuse_inputs(np.zeros((1, 4)), np.array([0]), 1,
                        FusionMode("concat"), rng)

    def test_overlay_needs_width(self, rng):
        with pytest.raises(ValueError):
            fuse_inputs(np.zeros((1, 4)), np.array([0]), 10,
                        FusionMode("overlay"), rng)


class TestMnistIdx:
    def test_round_trip(self, tmp_path):
        images = make_rng(0, 0).integers(0, 256, size=(3, 28, 28),
                                         dtype=np.uint8)
        labels = np.array([1, 2, 3], dtype=np.uint8)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        d = load_mnist_idx(ip, lp)
        assert d.n_samples == 3 and d.dim == 784 and d.n_classes == 10
        np.testing.assert_allclose(
            d.features, images.reshape(3, 784) / 255.0)
        np.testing.assert_array_equal(d.labels, labels)

    def test_gzip_supported(self, tmp_path):
        images = np.zeros((3, 28, 28), dtype=np.uint8)
        labels = np.zeros(3, dtype=np.uint8)
        ip, lp = tmp_path / "img.gz", tmp_path / "lab.gz"
        write_idx_images(ip, images, gz=True)
        write_idx_labels(lp, labels, gz=True)
        d = load_mnist_idx(ip, lp)
        np.testing.assert_array_equal(d.features, np.zeros((3, 784)))

    def test_bad_magic(self, tmp_path):
        ip = tmp_path / "img"
        ip.write_bytes(struct.pack(">iiii", 1234, 1, 28, 28) + b"\0" * 784)
        lp = tmp_path / "lab"
        write_idx_labels(lp, np.zeros(1, dtype=np.uint8))
        with pytest.raises(ValueError, match="magic"):
            load_mnist_idx(ip, lp)

    def test_truncated(self, tmp_path):
        ip = tmp_path / "img"
        ip.write_bytes(struct.pack(">iiii", 2051, 2, 28, 28) + b"\0" * 100)
        lp = tmp_path / "lab"
        write_idx_labels(lp, np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError, match="truncated"):
            load_mnist_idx(ip, lp)

    def test_gzip_header_beyond_stream(self, tmp_path):
        # A gzip stream's length is not known before it is read; the sizes
        # in the header are unsigned.
        ip, lp = tmp_path / "img.gz", tmp_path / "lab.gz"
        with gzip.open(ip, "wb") as f:
            f.write(struct.pack(">IIII", 2051, 2**32 - 1, 28, 28) + b"\0" * 9)
        write_idx_labels(lp, np.zeros(2, dtype=np.uint8), gz=True)
        with pytest.raises(ValueError,
                           match="IDX images: truncated, 9 of 3367254359280"):
            load_mnist_idx(ip, lp)

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_every_truncation_and_trailing_byte_rejected(self, tmp_path, gz):
        # Truncations cut the file as stored; the extra byte goes after the
        # data, inside the gzip stream for a gzip file.
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, np.arange(12, dtype=np.uint8).reshape(3, 2, 2),
                         gz=gz)
        write_idx_labels(lp, np.array([0, 1, 2]), gz=gz)
        for path in (ip, lp):
            good = path.read_bytes()
            longer = (gzip.compress(gzip.decompress(good) + b"\0") if gz
                      else good + b"\0")
            for bad in [good[:n] for n in range(len(good))] + [longer]:
                path.write_bytes(bad)
                with pytest.raises(ValueError, match="IDX"):
                    load_mnist_idx(ip, lp)
            path.write_bytes(good)

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, np.zeros((3, 28, 28), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError, match="labels"):
            load_mnist_idx(ip, lp)


class TestEmbeddingFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        feats = make_rng(5, 0).standard_normal((7, 16)).astype(np.float32)
        d = Dataset(feats.astype(np.float64), np.arange(7) % 3, 3, "x")
        p = tmp_path / "emb.bin"
        save_embeddings(d, p)
        d2 = load_embeddings(p)
        np.testing.assert_array_equal(d.features, d2.features)
        np.testing.assert_array_equal(d.labels, d2.labels)
        assert d2.n_classes == 3
        # Second save is byte-identical.
        p2 = tmp_path / "emb2.bin"
        save_embeddings(d2, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_empty_payload_valid(self, tmp_path):
        d = Dataset(np.zeros((0, 768)), np.zeros(0, dtype=np.int64), 20)
        p = tmp_path / "emb.bin"
        save_embeddings(d, p)
        d2 = load_embeddings(p)
        assert d2.n_samples == 0 and d2.dim == 768 and d2.n_classes == 20

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_embeddings(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"CNNE" + struct.pack("<IIII", 1, 4, 8, 2) + b"\0" * 10)
        with pytest.raises(ValueError, match="truncated"):
            load_embeddings(p)

    def test_every_truncation_and_trailing_byte_rejected(self, tmp_path):
        d = Dataset(np.ones((3, 2)), np.array([0, 1, 0]), 2)
        p = tmp_path / "emb.bin"
        save_embeddings(d, p)
        good = p.read_bytes()
        for bad in [good[:n] for n in range(len(good))] + [good + b"\0"]:
            p.write_bytes(bad)
            with pytest.raises(ValueError, match="embeddings"):
                load_embeddings(p)

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7FA00000, 0xFF800000],
                             ids=["quiet-nan", "signaling-nan", "-inf"])
    def test_non_finite_features_rejected(self, tmp_path, bits):
        d = Dataset(np.ones((3, 2)), np.array([0, 1, 0]), 2)
        p = tmp_path / "emb.bin"
        save_embeddings(d, p)
        raw = bytearray(p.read_bytes())
        raw[28:32] = struct.pack("<I", bits)  # feature (1, 0)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError,
                           match="embeddings: non-finite features"):
            load_embeddings(p)

    def test_every_bit_flip_rejected_or_round_trips(self, tmp_path):
        # A flipped bit is either a ValueError or a dataset that saves and
        # loads back to the same values.
        feats = make_rng(6, 0).standard_normal((6, 4)).astype(np.float32)
        d = Dataset(feats.astype(np.float64), np.arange(6) % 3, 3)
        p, again = tmp_path / "emb.bin", tmp_path / "again.bin"
        save_embeddings(d, p)
        good = p.read_bytes()

        def values(e):
            return (e.n_classes, e.features.shape, e.features.tobytes(),
                    e.labels.tobytes())

        rejected = 0
        for bit in range(8 * len(good)):
            bad = bytearray(good)
            bad[bit // 8] ^= 1 << (bit % 8)
            p.write_bytes(bytes(bad))
            try:
                loaded = load_embeddings(p)
            except ValueError:
                rejected += 1
                continue
            save_embeddings(loaded, again)
            assert values(load_embeddings(again)) == values(loaded), bit
        assert 0 < rejected < 8 * len(good)

    def test_header_beyond_file(self, tmp_path):
        p = tmp_path / "emb.bin"
        p.write_bytes(OVERSIZED_EMBEDDINGS)
        with pytest.raises(ValueError, match="embeddings: truncated, 0 of"):
            load_embeddings(p)


class TestSynthBlobs:
    def test_separable_least_squares_oracle(self):
        d = synth_blobs(200, 10, 2, 6.0, make_rng(0, 100))
        x = np.hstack([d.features, np.ones((d.n_samples, 1))])
        y = 2.0 * d.labels - 1.0
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        err = np.mean(np.sign(x @ w) != y)
        assert err < 0.01

    def test_no_signal_at_zero_separation(self):
        d = synth_blobs(500, 10, 2, 0.0, make_rng(0, 100))
        x = np.hstack([d.features, np.ones((d.n_samples, 1))])
        y = 2.0 * d.labels - 1.0
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        err = np.mean(np.sign(x @ w) != y)
        assert 0.35 < err < 0.65

    def test_deterministic(self):
        a = synth_blobs(10, 5, 2, 1.0, make_rng(9, 100))
        b = synth_blobs(10, 5, 2, 1.0, make_rng(9, 100))
        np.testing.assert_array_equal(a.features, b.features)

    def test_too_many_classes(self):
        with pytest.raises(ValueError):
            synth_blobs(10, 3, 5, 1.0, make_rng(0, 0))


class TestSplitAndBatch:
    def test_split_sizes_disjoint(self):
        d = synth_blobs(50, 4, 2, 1.0, make_rng(0, 100))
        train, val = split(d, 0.2, make_rng(0, "data-shuffle"))
        assert train.n_samples == 80 and val.n_samples == 20

    def test_batch_sizes(self):
        d = synth_blobs(40, 4, 2, 1.0, make_rng(0, 100))
        sizes = [len(lab) for _, lab in
                 iter_batches(d, 32, make_rng(0, "data-shuffle"))]
        assert sizes == [32, 32, 16]

    def test_val_fraction_zero(self):
        d = synth_blobs(10, 4, 2, 1.0, make_rng(0, 100))
        train, val = split(d, 0.0, make_rng(0, "data-shuffle"))
        assert val.n_samples == 0 and train.n_samples == 20

    def test_epochs_reshuffle(self):
        # The fit loop draws every epoch's order from one generator.
        d = synth_blobs(64, 4, 2, 1.0, make_rng(0, 100))
        rng = make_rng(0, "data-shuffle")
        first = next(iter_batches(d, 128, rng))[1]
        second = next(iter_batches(d, 128, rng))[1]
        assert not np.array_equal(first, second)

    def test_bad_params(self):
        d = synth_blobs(10, 4, 2, 1.0, make_rng(0, 100))
        with pytest.raises(ValueError):
            split(d, 1.0, make_rng(0, 0))
        with pytest.raises(ValueError):
            list(iter_batches(d, 0, make_rng(0, 0)))
