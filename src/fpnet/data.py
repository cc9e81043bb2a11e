"""Datasets: IDX image files, few-shot subsampling, synthetic tasks, CSV export.

IDX is the classic big-endian binary layout used by the common handwritten
digit and fashion image benchmarks: a magic number, big-endian int32
dimensions, then raw unsigned bytes. Images load as ``Pixels``: the
file's bytes, kept as uint8 and shaped (N, 1, rows, cols), which become
float64 scaled by 1/255 only for the rows a caller indexes, one batch at a
time. Labels become one-hot rows over max_label + 1 classes.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataConsistencyError, IdxFormatError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
PIXEL_SCALE = 1.0 / 255.0


class Pixels:
    """Read-only images kept as uint8, read as float64 scaled to [0, 1].

    raw : (N, rows, cols) uint8 pixels; the object is shaped
        (N, 1, rows, cols), one channel, and holds raw without a copy.

    Indexing returns a fresh float64 array, ``raw[key] * PIXEL_SCALE``, so
    only the rows indexed are ever converted: batches of a fit or a
    prediction cost 8 bytes a pixel for that batch alone. ``np.asarray``
    converts every image.
    """

    def __init__(self, raw):
        self._raw = raw[:, None]
        self.shape, self.ndim = self._raw.shape, self._raw.ndim

    def __len__(self):
        return len(self._raw)

    def __getitem__(self, key):
        return np.multiply(self._raw[key], PIXEL_SCALE, dtype=np.float64)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("Pixels convert to float64 only by copying")
        x = self[:]
        return x if dtype is None else x.astype(dtype, copy=False)


def as_samples(x):
    """``x`` as a float64 array, or as it is if it is ``Pixels``, which
    convert per batch."""
    return x if isinstance(x, Pixels) else np.asarray(x, dtype=np.float64)


@dataclass
class Dataset:
    """Samples x, strict one-hot labels y, and one name per class.

    x is a float64 array, or ``Pixels`` for images loaded from IDX files.
    """

    x: np.ndarray | Pixels
    y: np.ndarray
    class_names: list

    def __post_init__(self):
        self.x = as_samples(self.x)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim < 2:
            raise ValueError("x needs a leading sample axis plus features")
        if self.y.ndim != 2 or self.y.shape[0] != self.x.shape[0]:
            raise ValueError("y must be (n_samples, n_classes) aligned with x")
        onehot = np.isin(self.y, (0.0, 1.0)).all() and (self.y.sum(axis=1) == 1.0).all()
        if not onehot:
            raise ValueError("y must be exactly one-hot")
        self.class_names = [str(c) for c in self.class_names]
        if len(self.class_names) != self.y.shape[1]:
            raise ValueError("need one class name per label column")

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def label_dim(self):
        return self.y.shape[1]

    @property
    def labels(self):
        return np.argmax(self.y, axis=1)


def _read_exact(buf, offset, count, path):
    if len(buf) < offset + count:
        raise IdxFormatError(f"{path}: file truncated", offset=len(buf))
    return buf[offset:offset + count]


def _read_idx(path, magic, what):
    """Raw uint8 array of an IDX file with magic ``magic``, whose low byte
    counts the dimensions: the sample count (>= 0), then positive extents."""
    with open(path, "rb") as fh:
        # slices of a memoryview share the file's bytes, so the payload
        # array below is the only copy of them
        buf = memoryview(fh.read())
    (found,) = struct.unpack(">i", _read_exact(buf, 0, 4, path))
    if found != magic:
        raise IdxFormatError(
            f"{path}: bad {what} magic 0x{found & 0xffffffff:08x}", offset=0)
    ndim = magic & 0xff
    dims = struct.unpack(f">{ndim}i", _read_exact(buf, 4, 4 * ndim, path))
    if dims[0] < 0 or any(d <= 0 for d in dims[1:]):
        raise IdxFormatError(f"{path}: bad dimensions {dims}", offset=4)
    start, size = 4 + 4 * ndim, math.prod(dims)
    payload = _read_exact(buf, start, size, path)
    if len(buf) != start + size:
        raise IdxFormatError(f"{path}: trailing bytes after {what} data",
                             offset=start + size)
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def read_idx_images(path):
    """Raw (N, rows, cols) uint8 pixels from an IDX image file."""
    return _read_idx(path, IMAGE_MAGIC, "image")


def read_idx_labels(path):
    """Raw (N,) uint8 labels from an IDX label file."""
    return _read_idx(path, LABEL_MAGIC, "label")


def one_hot(labels, n_classes=None):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    if n_classes is None:
        n_classes = int(labels.max()) + 1 if labels.size else 0
    if n_classes < 1:
        raise ValueError("need at least one class")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("label outside [0, n_classes)")
    y = np.zeros((labels.shape[0], n_classes))
    y[np.arange(labels.shape[0]), labels] = 1.0
    return y


def load_idx(images_path, labels_path):
    """Load an IDX image/label pair as a Dataset.

    x is ``Pixels`` over the image file's bytes, with a single channel
    axis: (N, 1, rows, cols), 1 byte a pixel in memory, scaled to [0, 1]
    as float64 only for the rows that are indexed. The class count is
    max_label + 1 and class names are the digit strings.
    """
    imgs = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if imgs.shape[0] != labels.shape[0]:
        raise DataConsistencyError(
            f"{imgs.shape[0]} images but {labels.shape[0]} labels")
    if imgs.shape[0] == 0:
        raise DataConsistencyError("empty dataset")
    y = one_hot(labels)
    return Dataset(Pixels(imgs), y, [str(i) for i in range(y.shape[1])])


def write_idx(ds, images_path, labels_path):
    """Write a Dataset back to canonical IDX image and label files.

    Pixels are recovered as round(x * 255); loading a written pair
    reproduces the original files byte for byte.
    """
    x = ds.x
    if x.ndim == 4 and x.shape[1] == 1:
        x = x[:, 0]
    if x.ndim != 3:
        raise ValueError("write_idx needs single-channel image data")
    pixels = np.rint(x / PIXEL_SCALE)
    if pixels.min() < 0 or pixels.max() > 255:
        raise ValueError("pixel values leave the byte range")
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", IMAGE_MAGIC, x.shape[0], x.shape[1],
                             x.shape[2]))
        fh.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", LABEL_MAGIC, ds.n))
        fh.write(ds.labels.astype(np.uint8).tobytes())


def few_shot_subsample(ds, n_per_class, rng):
    """Pick n_per_class samples of every class, without replacement.

    Output keeps class blocks in class order and original order within
    each block. A class with fewer than n_per_class members raises
    ValueError naming it.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    labels = ds.labels
    picks = []
    for c in range(ds.label_dim):
        members = np.nonzero(labels == c)[0]
        if members.shape[0] < n_per_class:
            raise ValueError(
                f"class {ds.class_names[c]!r} has only {members.shape[0]} "
                f"samples, need {n_per_class}")
        chosen = rng.subset_without_replacement(members, n_per_class)
        picks.append(np.sort(chosen))
    sel = np.concatenate(picks)
    return Dataset(ds.x[sel], ds.y[sel], ds.class_names)


def synthetic_gaussian_task(n, dim, classes, separation, rng):
    """Balanced Gaussian blobs: class c is N(separation * e_c, I).

    More classes than dimensions is only solvable with zero separation and
    is rejected otherwise. Rows are shuffled (deterministically per rng).
    """
    n, dim, classes = int(n), int(dim), int(classes)
    if n < classes or dim < 1 or classes < 1:
        raise ValueError("need n >= classes >= 1 and dim >= 1")
    if classes > dim and separation > 0:
        raise ValueError(
            f"{classes} separated classes do not fit in {dim} dimensions")
    counts = [n // classes + (1 if c < n % classes else 0)
              for c in range(classes)]
    labels = np.repeat(np.arange(classes), counts)
    x = rng.standard_normal((n, dim))
    if separation != 0.0:
        for c in range(classes):
            x[labels == c, c] += separation
    order = rng.permutation(n)
    return Dataset(x[order], one_hot(labels[order], classes),
                   [str(c) for c in range(classes)])
