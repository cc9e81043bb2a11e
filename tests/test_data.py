import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpnet.core import RidgeConfig, TargetGenSpec
from fpnet.data import (PIXEL_SCALE, Dataset, few_shot_subsample, load_idx,
                        one_hot, read_idx_images, read_idx_labels,
                        synthetic_gaussian_task, write_idx)
from fpnet.errors import DataConsistencyError, IdxFormatError
from fpnet.layers import LayerSpec, fit_network, predict
from fpnet.linalg import SeededRng
from fpnet.metrics import accuracy


def _image_file(path, images):
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    path.write_bytes(struct.pack(">iiii", 0x00000803, n, h, w)
                     + images.tobytes())


def _label_file(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    path.write_bytes(struct.pack(">ii", 0x00000801, labels.shape[0])
                     + labels.tobytes())


def _random_pixels(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=(n, 28, 28),
                                                dtype=np.uint8)


def _idx_pair(tmp_path, pixels, classes=10):
    """Image and label files of ``pixels``, labelled 0, 1, ... in turn."""
    img, lab = tmp_path / "img", tmp_path / "lab"
    _image_file(img, pixels)
    _label_file(lab, np.arange(len(pixels)) % classes)
    return img, lab


class TestLoadIdx:
    def test_single_image_byte_scaling(self, tmp_path):
        img, lab = tmp_path / "img", tmp_path / "lab"
        _image_file(img, np.array([[[0, 255], [0, 255]]]))
        _label_file(lab, np.array([1]))  # class count inferred as 2
        ds = load_idx(img, lab)
        assert ds.x.shape == (1, 1, 2, 2)
        assert_allclose(ds.x[0, 0], [[0.0, 1.0], [0.0, 1.0]])
        assert_allclose(ds.y, [[0.0, 1.0]])

    def test_wrong_magic_rejected(self, tmp_path):
        img = tmp_path / "img"
        img.write_bytes(struct.pack(">iiii", 0x00000802, 1, 2, 2) + b"\0" * 4)
        lab = tmp_path / "lab"
        _label_file(lab, np.array([0]))
        with pytest.raises(IdxFormatError) as exc:
            load_idx(img, lab)
        assert exc.value.offset == 0

    def test_truncated_payload_reports_offset(self, tmp_path):
        img = tmp_path / "img"
        blob = struct.pack(">iiii", 0x00000803, 2, 2, 2) + b"\0" * 5
        img.write_bytes(blob)
        with pytest.raises(IdxFormatError) as exc:
            read_idx_images(img)
        assert exc.value.offset == len(blob)

    def test_trailing_bytes_rejected(self, tmp_path):
        img = tmp_path / "img"
        img.write_bytes(struct.pack(">iiii", 0x00000803, 1, 1, 1)
                        + b"\x7f" + b"junk")
        with pytest.raises(IdxFormatError):
            read_idx_images(img)

    def test_count_mismatch_between_files(self, tmp_path):
        img, lab = tmp_path / "img", tmp_path / "lab"
        _image_file(img, np.zeros((3, 2, 2), dtype=np.uint8))
        _label_file(lab, np.array([0, 1]))
        with pytest.raises(DataConsistencyError):
            load_idx(img, lab)

    def test_write_read_round_trip_bit_exact(self, tmp_path):
        rng = SeededRng(11)
        pixels = np.rint(
            (rng.standard_normal((5, 1, 4, 3)) * 40 + 128).clip(0, 255)
        ).astype(np.uint8)
        img, lab = tmp_path / "img", tmp_path / "lab"
        _image_file(img, pixels[:, 0])
        _label_file(lab, np.array([0, 1, 2, 1, 0]))
        ds = load_idx(img, lab)
        img2, lab2 = tmp_path / "img2", tmp_path / "lab2"
        write_idx(ds, img2, lab2)
        assert img2.read_bytes() == img.read_bytes()
        assert lab2.read_bytes() == lab.read_bytes()
        back = load_idx(img2, lab2)
        assert np.asarray(back.x).tobytes() == np.asarray(ds.x).tobytes()
        assert back.x[1:4].tobytes() == ds.x[1:4].tobytes()
        assert back.y.tobytes() == ds.y.tobytes()

    def test_write_back_loaded_pixels_as_bytes(self, tmp_path):
        # Pixels are written as the bytes they hold, with no float64 copy
        img, lab = _idx_pair(tmp_path, _random_pixels(2000, 4))
        ds = load_idx(img, lab)
        img2, lab2 = tmp_path / "img2", tmp_path / "lab2"
        tracemalloc.start()
        try:
            write_idx(ds, img2, lab2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img2.read_bytes() == img.read_bytes()
        assert lab2.read_bytes() == lab.read_bytes()
        assert peak < 2 * img.stat().st_size

    def test_pixels_bit_identical_to_scaled_bytes(self, tmp_path):
        pixels = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        img, lab = tmp_path / "img", tmp_path / "lab"
        _image_file(img, pixels)
        _label_file(lab, np.array([0, 1, 2, 3]))
        x = load_idx(img, lab).x
        ref = pixels.astype(np.float64)[:, None] * PIXEL_SCALE
        for got, want in ((np.asarray(x), ref), (x[1:3], ref[1:3])):
            assert got.flags.c_contiguous and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_below_ten_times_file(self, tmp_path):
        # the float64 images are 8x the pixel bytes; no second copy is held
        pixels = np.random.default_rng(3).integers(
            0, 256, size=(2000, 28, 28), dtype=np.uint8)
        img, lab = tmp_path / "img", tmp_path / "lab"
        _image_file(img, pixels)
        _label_file(lab, np.arange(2000) % 10)
        del pixels
        tracemalloc.start()
        try:
            load_idx(img, lab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * img.stat().st_size

    def test_peak_memory_below_twice_file(self, tmp_path):
        # the pixels stay the file's bytes, read once and never copied
        img, lab = _idx_pair(tmp_path, _random_pixels(2000, 3))
        tracemalloc.start()
        try:
            load_idx(img, lab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * img.stat().st_size

    def test_labels_reader_plain_vector(self, tmp_path):
        lab = tmp_path / "lab"
        _label_file(lab, np.array([3, 0, 2]))
        assert list(read_idx_labels(lab)) == [3, 0, 2]


def _small_conv_specs():
    return [LayerSpec("conv2d", 4, (5, 5), 1, "relu",
                      TargetGenSpec(q_seed=1, u_seed=2)),
            LayerSpec("global_avg_pool"), LayerSpec("output")]


class TestPixels:
    """IDX images kept as uint8 read exactly as the float64 images would."""

    def test_indexing_bit_identical_to_scaled_pixels(self, tmp_path):
        pixels = _random_pixels(30, 4)
        ds = load_idx(*_idx_pair(tmp_path, pixels, classes=3))
        ref = pixels.astype(np.float64)[:, None] * PIXEL_SCALE
        assert ds.x.shape == ref.shape and ds.x.ndim == 4 and len(ds.x) == 30
        picks = np.array([29, 3, 3, 0, 17])
        for key in (slice(None), slice(5, 12), slice(1, None, 4), 7, picks,
                    (2, 0)):
            got = ds.x[key]
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == ref[key].tobytes()
        sub = few_shot_subsample(ds, 4, SeededRng(5))
        want = few_shot_subsample(Dataset(ref, ds.y, ds.class_names), 4,
                                  SeededRng(5))
        assert sub.x.dtype == np.float64 and sub.x.tobytes() == want.x.tobytes()

    @pytest.mark.parametrize("specs", [
        _small_conv_specs(),
        [LayerSpec("dense", 16, activation="relu",
                   target=TargetGenSpec(q_seed=3, u_seed=4)),
         LayerSpec("output")]], ids=["conv", "dense"])
    def test_fit_and_predict_match_float64_images(self, tmp_path, specs):
        pixels = _random_pixels(200, 6)
        idx = load_idx(*_idx_pair(tmp_path, pixels))
        plain = Dataset(pixels.astype(np.float64)[:, None] * PIXEL_SCALE,
                        idx.y, idx.class_names)
        a = fit_network(specs, idx, batch_size=64)
        b = fit_network(specs, plain, batch_size=64)
        for la, lb in zip(a.layers, b.layers):
            for f in ("w", "q", "u"):
                ma, mb = getattr(la, f), getattr(lb, f)
                assert (ma is None and mb is None) or np.array_equal(ma, mb)
        assert np.array_equal(predict(a, idx.x)[0], predict(b, plain.x)[0])

    def test_load_fit_predict_memory_grows_by_bytes_only(self, tmp_path):
        # a float64 copy of the images would add 8 bytes a pixel, 6272 a
        # sample; labels, one-hot rows, kept pooled activations and scores
        # add under 256 bytes a sample besides the 784 pixel bytes
        peaks = []
        for n in (2000, 8000):
            img, lab = _idx_pair(tmp_path, _random_pixels(n, 7))
            tracemalloc.start()
            try:
                ds = load_idx(img, lab)
                predict(fit_network(_small_conv_specs(), ds), ds.x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 6000 * (784 + 256)


# Each reader and the header of its well-formed file: 2 images of 3 x 2
# pixels, or 2 labels.
READERS = {"image": (read_idx_images, (0x00000803, 2, 3, 2)),
           "label": (read_idx_labels, (0x00000801, 2))}
FILE_END, PAYLOAD_END = "file end", "payload end"


def _pack(header):
    return struct.pack(f">{len(header)}i", *header)


def _with(i, value):
    """A file builder that sets header field ``i`` to ``value``."""
    def build(header, payload):
        return _pack([value if j == i else h for j, h in enumerate(header)])
    return build


# case -> (file from the well-formed header and payload, offset that the
# IdxFormatError reports); PAYLOAD_END is the well-formed file's length
IDX_FAULTS = {
    "bad magic": (_with(0, 0x00000802), 0),
    "negative count": (_with(1, -1), 4),
    "truncated magic": (lambda h, p: _pack(h)[:3], 3),
    "truncated dimensions": (lambda h, p: _pack(h)[:6], 6),
    "truncated payload": (lambda h, p: _pack(h) + p[:-1], FILE_END),
    "missing payload": (lambda h, p: _pack(h), FILE_END),
    "trailing bytes": (lambda h, p: _pack(h) + p + b"\0\0", PAYLOAD_END),
}
IMAGE_FAULTS = {
    "zero rows": (_with(2, 0), 4),
    "zero cols": (_with(3, 0), 4),
}


class TestIdxFaults:
    @pytest.mark.parametrize("what, case", [
        *(("image", c) for c in sorted({**IDX_FAULTS, **IMAGE_FAULTS})),
        *(("label", c) for c in sorted(IDX_FAULTS)),
    ])
    def test_fault_raises_at_offset(self, tmp_path, what, case):
        reader, header = READERS[what]
        build, offset = {**IDX_FAULTS, **IMAGE_FAULTS}[case]
        payload = bytes(range(int(np.prod(header[1:]))))
        blob = build(header, payload)
        path = tmp_path / "file"
        path.write_bytes(blob)
        with pytest.raises(IdxFormatError) as exc:
            reader(path)
        want = {FILE_END: len(blob),
                PAYLOAD_END: len(_pack(header) + payload)}.get(offset, offset)
        assert exc.value.offset == want

    @pytest.mark.parametrize("what", sorted(READERS))
    def test_well_formed_file_reads(self, tmp_path, what):
        reader, header = READERS[what]
        size = int(np.prod(header[1:]))
        path = tmp_path / "file"
        path.write_bytes(_pack(header) + bytes(range(size)))
        got = reader(path)
        assert got.shape == header[1:] and got.dtype == np.uint8
        assert got.ravel().tolist() == list(range(size))


class TestOneHot:
    def test_basic(self):
        assert_allclose(one_hot(np.array([0, 2]), 3),
                        [[1, 0, 0], [0, 0, 1]])

    def test_class_count_inferred(self):
        assert one_hot(np.array([1, 4])).shape == (2, 5)

    def test_dataset_rejects_soft_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 2)), np.array([[0.5, 0.5]]), ["a", "b"])

    def test_dataset_rejects_multi_hot(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 2)), np.array([[1.0, 1.0]]), ["a", "b"])


class TestFewShot:
    def _ds(self, per_class=(6, 6, 6)):
        labels = np.concatenate([np.full(k, c) for c, k in enumerate(per_class)])
        x = np.arange(labels.size, dtype=np.float64).reshape(-1, 1)
        return Dataset(x, one_hot(labels, len(per_class)),
                       [str(c) for c in range(len(per_class))])

    def test_exact_counts(self):
        sub = few_shot_subsample(self._ds(), 2, SeededRng(0))
        assert sub.n == 6
        assert [int(k) for k in sub.y.sum(axis=0)] == [2, 2, 2]

    def test_one_per_class(self):
        sub = few_shot_subsample(self._ds(), 1, SeededRng(0))
        assert sub.n == 3
        assert sorted(sub.labels.tolist()) == [0, 1, 2]

    def test_full_take_is_identity_subset(self):
        ds = self._ds()
        sub = few_shot_subsample(ds, 6, SeededRng(0))
        assert np.array_equal(sub.x, ds.x)
        assert np.array_equal(sub.y, ds.y)

    def test_deterministic_per_seed(self):
        a = few_shot_subsample(self._ds(), 3, SeededRng(9))
        b = few_shot_subsample(self._ds(), 3, SeededRng(9))
        c = few_shot_subsample(self._ds(), 3, SeededRng(10))
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_order_within_class_preserved(self):
        sub = few_shot_subsample(self._ds(), 4, SeededRng(3))
        for c in range(3):
            rows = sub.x[sub.labels == c, 0]
            assert np.all(np.diff(rows) > 0)

    def test_insufficient_class_named(self):
        ds = self._ds(per_class=(6, 2, 6))
        with pytest.raises(ValueError, match="1"):
            few_shot_subsample(ds, 4, SeededRng(0))


class TestSyntheticTask:
    def test_zero_separation_is_chance(self):
        rng = SeededRng(21)
        train = synthetic_gaussian_task(2000, 8, 4, 0.0, rng)
        test = synthetic_gaussian_task(2000, 8, 4, 0.0, rng)
        net = fit_network([LayerSpec("output", ridge=RidgeConfig(lam=1.0))],
                          train)
        scores, _ = predict(net, test.x)
        assert abs(accuracy(scores, test.y) - 0.25) <= 0.05

    def test_wide_separation_nearest_mean(self):
        ds = synthetic_gaussian_task(200, 2, 2, 6.0, SeededRng(22))
        means = np.stack([ds.x[ds.labels == c].mean(axis=0) for c in (0, 1)])
        d = np.linalg.norm(ds.x[:, None, :] - means[None], axis=2)
        assert np.mean(np.argmin(d, axis=1) == ds.labels) >= 0.99

    def test_balanced_classes(self):
        ds = synthetic_gaussian_task(10, 4, 3, 1.0, SeededRng(23))
        counts = ds.y.sum(axis=0)
        assert counts.max() - counts.min() <= 1.0
        assert ds.n == 10

    def test_class_means_on_basis_directions(self):
        ds = synthetic_gaussian_task(40000, 3, 3, 5.0, SeededRng(24))
        for c in range(3):
            mean = ds.x[ds.labels == c].mean(axis=0)
            want = np.zeros(3)
            want[c] = 5.0
            assert np.linalg.norm(mean - want) < 0.05

    def test_deterministic_per_seed(self):
        a = synthetic_gaussian_task(50, 4, 2, 1.0, SeededRng(25))
        b = synthetic_gaussian_task(50, 4, 2, 1.0, SeededRng(25))
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_too_many_classes_for_dim(self):
        with pytest.raises(ValueError):
            synthetic_gaussian_task(10, 2, 3, 1.0, SeededRng(26))
        # separation 0 needs no mean directions, any class count works
        synthetic_gaussian_task(10, 2, 3, 0.0, SeededRng(26))


@pytest.mark.fmnist
class TestImageCorpus:
    def test_train_split_shape(self, fmnist):
        train, test = fmnist
        assert train.x.shape == (60000, 1, 28, 28)
        assert train.label_dim == 10
        assert test.x.shape == (10000, 1, 28, 28)
        x = np.asarray(train.x)
        assert float(x.min()) >= 0.0 and float(x.max()) <= 1.0
