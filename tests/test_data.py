import copy
import gzip
import io
import re
import struct

import numpy as np
import pytest

from conftest import (OVERSIZED_EMBEDDINGS, fifo_serving, peak_bytes,
                      write_idx_images, write_idx_labels)
from cyclicff import data
from cyclicff.data import (READ_PIECE, Dataset, FusionMode, fuse_inputs,
                           iter_batches, load_embeddings, load_mnist_idx,
                           neutral_fusion, read_array, save_embeddings,
                           split, synth_blobs)
from cyclicff.graph import GeneratorSpec, generate
from cyclicff.network import build_network, predict
from cyclicff.numerics import make_rng
from cyclicff.training import BPChainMLP


@pytest.fixture
def rng():
    return make_rng(0, "negative-labels")


class TestDataset:
    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range(self, label):
        with pytest.raises(ValueError, match="out of range"):
            Dataset(np.zeros((2, 4)), np.array([0, label]), 3)

    @pytest.mark.parametrize("labels", [
        [0.5, 1.5, 0.0], [-0.5, 0.0, 1.0], [0.0, np.nan, 1.0],
        [True, False, True]], ids=["half", "minus-half", "nan", "bool"])
    def test_labels_must_be_integers(self, labels):
        # Cast to int64 later, 0.5 and 1.5 trained as 0 and 1.
        labels = np.array(labels)
        with pytest.raises(ValueError, match=re.escape(
                f"Dataset: need integer labels, got {labels.dtype}")):
            Dataset(np.zeros((3, 4)), labels, 2)

    def test_labels_must_be_1d(self):
        # A column of labels would broadcast `preds != labels` to n x n.
        with pytest.raises(ValueError, match=re.escape(
                "Dataset: need 2-D features and 1-D labels, got shapes "
                "(4, 3) and (4, 1)")):
            Dataset(np.zeros((4, 3)), np.array([[0], [1], [0], [1]]), 2)

    @pytest.mark.parametrize("shape", [(4,), (4, 3, 1)])
    def test_features_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                "Dataset: need 2-D features and 1-D labels, got shapes "
                f"{shape} and (4,)")):
            Dataset(np.zeros(shape), np.array([0, 1, 0, 1]), 2)

    def test_non_finite_check_holds_no_mask(self):
        # 20000 x 784 float64 features; a one-byte-per-value mask would be
        # 15 MiB.
        features = np.zeros((20000, 784))
        labels = np.zeros(20000, dtype=np.int64)
        assert peak_bytes(Dataset, features, labels, 10) < 1 << 20

    def test_subsets_of_a_checked_dataset_are_not_rescanned(self,
                                                            monkeypatch):
        # The rows were checked when the dataset was made; the public
        # constructor still checks everything it is given.
        d = synth_blobs(20, 4, 2, 1.0, make_rng(0, 0))
        calls = []
        for name in ("check_finite", "check_labels"):
            real = getattr(data, name)
            monkeypatch.setattr(data, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        train, val = split(d, 0.25, make_rng(0, "data-shuffle"))
        head = d.subset(slice(0, 3))
        assert calls == []
        assert (train.n_samples, val.n_samples, head.n_samples) == (30, 10, 3)
        np.testing.assert_array_equal(head.features, d.features[:3])
        assert (head.n_classes, head.name) == (d.n_classes, d.name)

        features = d.features.copy()
        features[5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite features"):
            Dataset(features, d.labels, 2)
        with pytest.raises(ValueError, match="label out of range"):
            Dataset(d.features, d.labels + 1, 2)
        assert calls == ["check_labels", "check_finite", "check_labels"]


def _net_4_dim():
    return build_network(generate(GeneratorSpec("complete", 2)), 4, 3, 2,
                         1.0, 2, make_rng(0, "weights"))


@pytest.mark.parametrize("shape", [(4,), (2, 2, 4)], ids=["1-D", "3-D"])
@pytest.mark.parametrize("what,call", [
    ("predict", lambda x: predict(_net_4_dim(), x)),
    ("fuse_inputs", lambda x: fuse_inputs(
        x, np.zeros(len(x), dtype=np.int64), 2, FusionMode("overlay"),
        make_rng(0, 0))),
    ("neutral_fusion", lambda x: neutral_fusion(x, 2, FusionMode())),
    ("BPChainMLP.predict",
     lambda x: BPChainMLP(4, 3, 2, make_rng(0, 0)).predict(x)),
], ids=["predict", "fuse_inputs", "neutral_fusion", "BPChainMLP.predict"])
def test_features_not_2d_rejected(what, call, shape):
    with pytest.raises(ValueError, match=re.escape(
            f"{what}: need 2-D features, got shape {shape}")):
        call(np.zeros(shape))


class TrickleStream(io.RawIOBase):
    """A stream that gives at most `step` bytes per read, like a pipe."""

    def __init__(self, data: bytes, step: int):
        self.data, self.pos, self.step = data, 0, step

    def readable(self):
        return True

    def readinto(self, b):
        k = min(len(b), self.step, len(self.data) - self.pos)
        b[:k] = self.data[self.pos:self.pos + k]
        self.pos += k
        return k


class TestReadArray:
    @pytest.mark.parametrize("dtype", ["u1", "<u2", "<f4", "<f8"])
    @pytest.mark.parametrize("step", [1, 7])
    def test_short_reads_give_the_stored_array(self, dtype, step):
        want = make_rng(3, 0).integers(0, 200, (5, 6)).astype(dtype)
        stream = TrickleStream(want.tobytes() + b"tail", step)
        got = read_array(stream, (5, 6), dtype, "x")
        assert got.dtype == np.dtype(dtype) and got.flags.writeable
        np.testing.assert_array_equal(got, want)
        assert stream.read() == b"tail"

    def test_crosses_pieces_and_growth(self):
        want = make_rng(4, 0).integers(0, 256, 40 * READ_PIECE + 5,
                                       dtype=np.uint8)
        got = read_array(TrickleStream(want.tobytes(), 100_003),
                         (len(want),), np.uint8, "x")
        np.testing.assert_array_equal(got, want)

    def test_claim_beyond_stream_holds_at_most_twice_what_arrived(self):
        # The buffer grows only as bytes arrive, so a header claiming a
        # terabyte costs what the file holds, not what it claims.
        data = bytes(3 * READ_PIECE + 1)

        def read():
            with pytest.raises(ValueError, match=(
                    f"x: truncated, {len(data)} of {2**40} bytes read")):
                read_array(io.BytesIO(data), (2**40,), np.uint8, "x")

        assert peak_bytes(read) < 2 * len(data)

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_holds_the_payload_once(self, tmp_path, gz):
        # 8 MiB of float32; the peak counts the returned array, and for a
        # gzip stream one piece's temporaries and the decompressor's state.
        want = (np.arange(8 << 18) % 251).astype("<f4").reshape(-1, 1024)
        path = tmp_path / "payload"

        def opener(p, mode):
            return gzip.open(p, mode, compresslevel=1) if gz else open(p, mode)

        with opener(path, "wb") as f:
            f.write(want)
        with opener(path, "rb") as f:
            peak = peak_bytes(read_array, f, want.shape, "<f4", "x")
        assert peak < 1.1 * want.nbytes
        with opener(path, "rb") as f:
            np.testing.assert_array_equal(
                read_array(f, want.shape, "<f4", "x"), want)


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

    def test_neutral_fusion_overlay_needs_width(self):
        # The rule fuse_inputs applies, not numpy's broadcast error.
        with pytest.raises(ValueError, match=re.escape(
                "overlay needs dim >= n_classes, got dim 2 < 3")):
            neutral_fusion(np.zeros((2, 2)), 3, FusionMode("overlay"))

    @pytest.mark.parametrize("labels,message", [
        ([0, -1], "label out of range"), ([0, 3], "label out of range"),
        ([], "empty batch"), ([0.5, 1.5], "need integer labels, got float64"),
        ([0, np.nan], "need integer labels, got float64"),
        ([True, False], "need integer labels, got bool")],
        ids=["minus-one", "n-classes", "empty", "half", "nan", "bool"])
    def test_bad_batch_rejected_before_drawing(self, rng, labels, message):
        untouched = copy.deepcopy(rng)
        with pytest.raises(ValueError, match=f"^fuse_inputs: {message}"):
            fuse_inputs(np.zeros((len(labels), 4)), np.array(labels), 3,
                        FusionMode("concat"), rng)
        assert rng.random() == untouched.random()

    @pytest.mark.parametrize("mode", ["concat", "overlay"])
    @pytest.mark.parametrize("rows", [3, 7])
    def test_row_count_must_match_labels(self, rng, mode, rows):
        # Was numpy's concatenate or broadcast error, after the draw.
        untouched = copy.deepcopy(rng)
        with pytest.raises(ValueError, match=re.escape(
                f"fuse_inputs: {rows} feature rows for 5 labels")):
            fuse_inputs(np.zeros((rows, 4)), np.zeros(5, dtype=np.int64), 3,
                        FusionMode(mode), rng)
        assert rng.random() == untouched.random()


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

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_loads_from_pipe(self, tmp_path, gz):
        # Over 1 MiB of pixels, so the payload arrives in many pieces.
        rng = make_rng(8, 0)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, rng.integers(0, 256, (1500, 28, 28),
                                          dtype=np.uint8), gz=gz)
        write_idx_labels(lp, rng.integers(0, 10, 1500), gz=gz)
        want = load_mnist_idx(ip, lp)
        with fifo_serving(tmp_path / "img.fifo", ip.read_bytes()) as ipipe, \
                fifo_serving(tmp_path / "lab.fifo", lp.read_bytes()) as lpipe:
            got = load_mnist_idx(ipipe, lpipe)
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_load_holds_the_payload_and_features_once(self, tmp_path):
        # The uint8 payload and its float64 features; the non-finite check
        # of the features holds no mask.
        images = make_rng(3, 0).integers(0, 256, size=(2000, 28, 28),
                                         dtype=np.uint8)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, images)
        write_idx_labels(lp, np.arange(2000) % 10)
        peak = peak_bytes(load_mnist_idx, ip, lp)
        assert peak < 1.05 * (images.nbytes + 8 * images.size)

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

    def test_file_bytes_match_layout(self, tmp_path):
        # Column-major features and strided labels are written in row order.
        feats = make_rng(6, 0).standard_normal((9, 5))
        d = Dataset(np.asfortranarray(feats), (np.arange(18) % 4)[::2], 4)
        p = tmp_path / "emb.bin"
        save_embeddings(d, p)
        assert p.read_bytes() == (
            b"CNNE" + struct.pack("<IIII", 1, 9, 5, 4)
            + feats.astype("<f4").tobytes()
            + d.labels.astype("<u2").tobytes())

    def test_save_copies_the_payload_once(self, tmp_path):
        # The float32 features, plus `isfinite`'s one-byte-per-value mask;
        # the arrays are written through the buffer interface, not copied
        # again into bytes.
        d = synth_blobs(500, 768, 4, 1.0, make_rng(7, 0))
        payload = d.n_samples * (4 * d.dim + 2)
        peak = peak_bytes(save_embeddings, d, tmp_path / "emb.bin")
        assert peak < 1.3 * payload

    def test_save_holds_no_mask(self, tmp_path):
        # The float32 features alone; the non-finite check of the float32
        # copy holds no mask.
        d = synth_blobs(500, 768, 4, 1.0, make_rng(7, 0))
        payload = d.n_samples * (4 * d.dim + 2)
        peak = peak_bytes(save_embeddings, d, tmp_path / "emb.bin")
        assert peak < 1.1 * payload

    def test_loads_from_pipe(self, tmp_path):
        d = synth_blobs(300, 500, 2, 1.0, make_rng(9, 0))
        p = tmp_path / "emb.bin"
        save_embeddings(d, p)
        want = load_embeddings(p)
        with fifo_serving(tmp_path / "emb.fifo", p.read_bytes()) as pipe:
            got = load_embeddings(pipe)
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.n_classes == want.n_classes

    def test_empty_payload_valid(self, tmp_path):
        d = Dataset(np.zeros((0, 768)), np.zeros(0, dtype=np.int64), 20)
        p = tmp_path / "emb.bin"
        save_embeddings(d, p)
        d2 = load_embeddings(p)
        assert d2.n_samples == 0 and d2.dim == 768 and d2.n_classes == 20

    @pytest.mark.parametrize("what", ["label", "feature"])
    def test_unwritable_value_rejected_before_open(self, tmp_path, what):
        # A u16 label holds at most 65535; float32 at most about 3.4e38.
        features, labels = np.zeros((3, 4)), np.array([0, 1, 2])
        if what == "label":
            labels[2], n_classes = 70000, 70001
            message = "label above 65535"
        else:
            features[1, 2], n_classes = 1e39, 3
            message = "feature not finite in float32"
        p = tmp_path / "emb.bin"
        with pytest.raises(ValueError, match=message):
            save_embeddings(Dataset(features, labels, n_classes), p)
        assert not p.exists()

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

    def test_features_scanned_once(self, tmp_path, monkeypatch):
        # A finite float32 widens to a finite float64, so Dataset's scan of
        # the float64 features is the only one needed.
        p = tmp_path / "emb.bin"
        save_embeddings(synth_blobs(5, 4, 2, 1.0, make_rng(0, 0)), p)
        calls = []
        real = data.check_finite

        def counting(a, message):
            calls.append(a.dtype)
            real(a, message)

        monkeypatch.setattr(data, "check_finite", counting)
        load_embeddings(p)
        assert calls == [np.float64]

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


def per_class_synth_blobs(n_per_class, dim, n_classes, separation, rng):
    """The former `synth_blobs`: one draw per class, shifted by its
    centre, then concatenated."""
    features, labels = [], []
    for c in range(n_classes):
        center = np.zeros(dim)
        center[c] = separation
        features.append(rng.standard_normal((n_per_class, dim)) + center)
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    return np.concatenate(features), np.concatenate(labels)


class TestSynthBlobs:
    @pytest.mark.parametrize("shape", [(80, 784, 10, 4.0), (2000, 20, 4, 6.0),
                                       (0, 5, 2, 1.0), (1, 1, 1, 0.0),
                                       (7, 9, 3, 2.5)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_equals_per_class_draws(self, shape, seed):
        d = synth_blobs(*shape, make_rng(seed, 100))
        features, labels = per_class_synth_blobs(*shape, make_rng(seed, 100))
        assert np.array_equal(d.features, features)
        assert np.array_equal(d.labels, labels)
        assert d.labels.dtype == labels.dtype

    @pytest.mark.parametrize("args,message", [
        ((10, 4, 0, 1.0), "n_classes is 0, need >= 1"),
        ((-1, 4, 2, 1.0), "n_per_class is -1, need >= 0"),
        ((10, 4, 2, float("nan")), "separation is nan, must be >= 0"),
        ((10, 4, 2, -1.0), "separation is -1.0, must be >= 0"),
    ], ids=["no-classes", "negative-rows", "nan-separation",
            "negative-separation"])
    def test_bad_args_rejected_before_drawing(self, args, message):
        rng = make_rng(0, 100)
        with pytest.raises(ValueError, match=re.escape(message)):
            synth_blobs(*args, rng)
        assert np.array_equal(rng.random(4), make_rng(0, 100).random(4))

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

    @pytest.mark.parametrize("n_per_class,val_fraction,counts", [
        (1, 0.9, "2 rows, 2 to validation"),
        (5, 0.96, "10 rows, 10 to validation"),
        (0, 0.2, "0 rows, 0 to validation"),
    ], ids=["all-rows", "rounded-up", "empty"])
    def test_no_training_rows_rejected_before_draw(self, n_per_class,
                                                   val_fraction, counts):
        d = synth_blobs(n_per_class, 4, 2, 1.0, make_rng(0, 100))
        rng = make_rng(0, "data-shuffle")
        with pytest.raises(ValueError, match=re.escape(
                f"split: val_fraction {val_fraction} leaves no training "
                f"rows: {counts}")):
            split(d, val_fraction, rng)
        # Nothing was drawn: the generator goes on as a fresh one does.
        np.testing.assert_array_equal(
            rng.integers(0, 2**62, 8),
            make_rng(0, "data-shuffle").integers(0, 2**62, 8))

    def test_bad_params(self):
        d = synth_blobs(10, 4, 2, 1.0, make_rng(0, 100))
        with pytest.raises(ValueError):
            split(d, 1.0, make_rng(0, 0))
        with pytest.raises(ValueError):
            list(iter_batches(d, 0, make_rng(0, 0)))
