"""Dataset ingestion, label corruption, subsampling, and a synthetic fallback.

A ``Dataset`` is a single split (inputs, integer labels) plus enough
provenance to rebuild it: a source tag and a log of the mutations applied
to the pristine source.  Replaying the log must reproduce the dataset
bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import make_rng
from .models import FFReluNet, init_ff

MNIST1D_DIM = 40
MNIST1D_TRAIN_N = 4000
MNIST1D_TEST_N = 1000
CIFAR_DIM = 3 * 32 * 32
CIFAR_RECORD_BYTES = 1 + CIFAR_DIM

_SHUFFLE_LABEL_STREAM = 0xA1FA
_SUBSAMPLE_STREAM = 0x50B5
_SYNTH_STREAM = 0x5F4B

# MNIST1D row cache: the directory beside each CSV, and the version of what
# an entry holds and how it was parsed (bump it when either changes).
_CACHE_DIR = "__liptrack_cache__"
_CACHE_VERSION = 1


@dataclass
class Dataset:
    """One split of a labelled dataset, immutable after construction."""

    inputs: np.ndarray
    labels: np.ndarray
    split: str
    source: str
    num_classes: int = 10
    mutations: tuple = ()

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("inputs must be (n, d) and labels (n,)")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError(f"{self.inputs.shape[0]} inputs vs {self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels out of range [0, {self.num_classes})")
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")
        self.inputs.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def provenance(self) -> dict:
        return {"source": self.source, "split": self.split,
                "mutations": [dict(m) for m in self.mutations]}

    def _derive(self, inputs, labels, mutation: dict) -> "Dataset":
        return Dataset(inputs, labels, self.split, self.source, self.num_classes,
                       self.mutations + (mutation,))


@dataclass
class DataPair:
    """Train and test splits together, the unit the training loop consumes."""

    train: Dataset
    test: Dataset

    def __post_init__(self):
        if self.train.dim != self.test.dim:
            raise ValueError(f"train dim {self.train.dim} vs test dim {self.test.dim}")

    @property
    def train_x(self):
        return self.train.inputs

    @property
    def train_y(self):
        return self.train.labels

    @property
    def test_x(self):
        return self.test.inputs

    @property
    def test_y(self):
        return self.test.labels

    @property
    def num_classes(self) -> int:
        return self.train.num_classes


# ---------------------------------------------------------------------------
# Loaders


def _read_mnist1d_csv(path: Path, expect_split_column: bool) -> dict[str, tuple]:
    """Parse one CSV, or load its rows from the cache; returns ``(labels,
    inputs)`` arrays by split name.

    Header must be exactly ``label,x0..x39`` (with a leading ``split``
    column in single-file form).  ``np.loadtxt`` reads the rows after it.
    A file it rejects goes to the row parser, which accepts what ``csv``
    with ``int()`` labels and ``float()`` features accepts (quoted fields,
    say), and fails on the first malformed row with its row number so bad
    exports are easy to locate.

    Rows that ``np.loadtxt`` read are kept in ``__liptrack_cache__/`` beside
    the CSV, as ``<csv name>.<key>.npy``, where the key is the SHA-256 of the
    file's bytes, its form (split column or not) and ``_CACHE_VERSION``.  The
    same bytes then load from that entry without a parse: they passed the
    header and blank-line checks when it was written.  An entry that fails
    to load is parsed again and rewritten; a cache that cannot be written
    is skipped.  Writing an entry deletes the CSV's older ones.
    """
    header = ((["split"] if expect_split_column else []) + ["label"]
              + [f"x{i}" for i in range(MNIST1D_DIM)])
    # A longer split name is cut to six characters, which equal neither
    # "train" nor "test".
    fields = np.dtype(([("split", "U6")] if expect_split_column else [])
                      + [("label", np.int64), ("x", np.float64, MNIST1D_DIM)])
    entry = _cache_entry(path, expect_split_column)
    rows = _load_cached_rows(entry, fields)
    if rows is None:
        rows = _loadtxt_rows(path, header, fields)
        if rows is None:
            return _parse_mnist1d_rows(path, len(header), expect_split_column)
        # Kept only when the bytes are still those the key was made from, so
        # a file replaced during the parse leaves no entry.
        if _cache_entry(path, expect_split_column) == entry:
            _write_cached_rows(entry, rows)
    return _grouped(rows["split"] if expect_split_column else None, rows["label"], rows["x"])


def _loadtxt_rows(path: Path, expected_header: list, fields: np.dtype) -> np.ndarray | None:
    """The rows of a CSV by one ``np.loadtxt`` call; None when it rejects
    them or a split is unknown."""
    with open(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != expected_header:
            raise ValueError(f"{path}:1: bad header {header[:4]}..., expected {expected_header[:4]}...")
        # The blank-line check reads the body whole, and np.loadtxt then reads
        # the rows again from the handle, without a copy.  Freeing the body
        # also lifts glibc's dynamic trim threshold, without which the
        # training that usually follows trims and re-grows the heap on every
        # SGD step.
        body = fh.read()
        # np.loadtxt would skip a blank line ("\n\n" after universal newlines)
        # and warn on an empty body; the row parser rejects the one and
        # returns no rows for the other.
        if not body or body[0] == "\n" or "\n\n" in body:
            return None
        fh.seek(0)
        next(fh)  # the header, one line since it matched
        try:
            rows = np.loadtxt(fh, dtype=fields, delimiter=",", quotechar='"',
                              comments=None, ndmin=1)
        except ValueError:
            return None
    if "split" in fields.names and not np.isin(rows["split"], ("train", "test")).all():
        return None
    return rows


def _cache_entry(path: Path, expect_split_column: bool) -> Path:
    """The cache entry of the CSV's current bytes.  They are read whole and
    freed on return, before any entry loads: as with the body in
    ``_loadtxt_rows``, freeing a multi-MB block lifts glibc's trim threshold."""
    key = hashlib.sha256(f"{_CACHE_VERSION}:{int(expect_split_column)}:".encode())
    key.update(path.read_bytes())
    return path.parent / _CACHE_DIR / f"{path.name}.{key.hexdigest()}.npy"


def _load_cached_rows(entry: Path, fields: np.dtype) -> np.ndarray | None:
    """The rows an entry holds, or None when it cannot be read as them.

    They are mapped, not read: the datasets copy them out, and the map goes
    with the last view.  Entries are only ever replaced, never rewritten in
    place, so a mapped one cannot shrink.
    """
    try:
        rows = np.load(entry, mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError, EOFError):  # an empty file raises EOFError
        return None
    return rows if rows.dtype == fields and rows.ndim == 1 else None


def _write_cached_rows(entry: Path, rows: np.ndarray) -> None:
    """Write ``entry`` through a temporary file and delete the CSV's older
    entries; an OSError leaves the rest undone."""
    # Created as open() creates a file (mode 0o666 less the umask), unlike a
    # tempfile, so the entry serves every user who can read the CSV.
    tmp = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
    try:
        entry.parent.mkdir(exist_ok=True)
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as fh:
            np.save(fh, rows, allow_pickle=False)
        os.replace(tmp, entry)
        csv_name = entry.name.rsplit(".", 2)[0]
        for old in entry.parent.glob("*.npy"):
            if old != entry and old.name.rsplit(".", 2)[0] == csv_name:
                old.unlink(missing_ok=True)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _grouped(splits, labels: np.ndarray, inputs: np.ndarray) -> dict[str, tuple]:
    if splits is None:
        return {"all": (labels, inputs)}
    splits = np.asarray(splits)
    return {s: (labels[splits == s], inputs[splits == s]) for s in ("train", "test")}


def _parse_mnist1d_rows(path: Path, columns: int, expect_split_column: bool) -> dict[str, tuple]:
    """Row by row with ``csv``, ``int()`` and ``float()``; the first bad
    row fails with its row number."""
    splits, labels, feats = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rownum, row in enumerate(reader, start=2):
            if len(row) != columns:
                raise ValueError(f"{path}:{rownum}: {len(row)} columns, expected {columns}")
            if expect_split_column and row[0] not in ("train", "test"):
                raise ValueError(f"{path}:{rownum}: unknown split {row[0]!r}")
            body = row[1:] if expect_split_column else row
            try:
                labels.append(int(body[0]))
                feats.append([float(v) for v in body[1:]])
            except ValueError:
                raise ValueError(f"{path}:{rownum}: non-numeric value") from None
            splits.append(row[0])
    return _grouped(splits if expect_split_column else None, np.array(labels, dtype=np.int64),
                    np.array(feats, dtype=np.float64).reshape(-1, MNIST1D_DIM))


def load_mnist1d(path) -> tuple[Dataset, Dataset]:
    """Load the 4000/1000 sample CSV export.

    ``path`` is either a directory holding ``train.csv`` and ``test.csv``
    (header ``label,x0..x39``) or a single CSV with a leading ``split``
    column.  Counts are enforced exactly; values are kept as-is with no
    normalization.
    """
    path = Path(path)
    if path.is_dir():
        parts = {}
        for split in ("train", "test"):
            f = path / f"{split}.csv"
            if not f.exists():
                raise FileNotFoundError(f"{f}: missing split file")
            parts[split] = _read_mnist1d_csv(f, expect_split_column=False)["all"]
    else:
        parts = _read_mnist1d_csv(path, expect_split_column=True)
    expected = {"train": MNIST1D_TRAIN_N, "test": MNIST1D_TEST_N}
    out = []
    for split in ("train", "test"):
        labels, inputs = parts[split]
        if len(labels) != expected[split]:
            raise ValueError(f"{path}: {len(labels)} {split} rows, expected {expected[split]}")
        out.append(Dataset(inputs, labels, split, "mnist1d"))
    return out[0], out[1]


def read_cifar_batch(path) -> tuple[np.ndarray, np.ndarray]:
    """One CIFAR-10 binary batch: 3073-byte records, label byte then R,G,B planes."""
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        raise ValueError(f"{path}: length {len(raw)} is not a positive multiple of {CIFAR_RECORD_BYTES}")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = arr[:, 0].astype(np.int64)
    inputs = arr[:, 1:].astype(np.float64) / 255.0
    return inputs, labels


def load_cifar10(dirpath) -> tuple[Dataset, Dataset]:
    """Load the standard binary batches from a directory; pixels scaled to [0, 1]."""
    dirpath = Path(dirpath)
    train_parts = [read_cifar_batch(dirpath / f"data_batch_{i}.bin") for i in range(1, 6)]
    test_x, test_y = read_cifar_batch(dirpath / "test_batch.bin")
    train_x = np.concatenate([p[0] for p in train_parts])
    train_y = np.concatenate([p[1] for p in train_parts])
    if train_x.shape[0] != 50000 or test_x.shape[0] != 10000:
        raise ValueError(f"{dirpath}: got {train_x.shape[0]}/{test_x.shape[0]} samples, expected 50000/10000")
    return (Dataset(train_x, train_y, "train", "cifar10"),
            Dataset(test_x, test_y, "test", "cifar10"))


# ---------------------------------------------------------------------------
# Mutations


def shuffle_labels(d: Dataset, alpha: float, seed: int) -> Dataset:
    """Permute the labels of a random ⌊αN⌋-subset of positions.

    Permuting within the subset keeps the label marginals exact; a label
    may land back on its own position by chance.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    n = len(d)
    k = int(alpha * n)
    rng = make_rng(seed, _SHUFFLE_LABEL_STREAM)
    labels = d.labels.copy()
    if k > 0:
        idx = rng.choice(n, size=k, replace=False)
        labels[idx] = labels[idx][rng.permutation(k)]
    return d._derive(d.inputs, labels,
                     {"kind": "shuffle_labels", "alpha": float(alpha), "seed": int(seed)})


def subsample(d: Dataset, n: int, seed: int) -> Dataset:
    """Keep n uniformly chosen samples, preserving original order."""
    if not 0 < n <= len(d):
        raise ValueError(f"subsample size {n} not in [1, {len(d)}]")
    rng = make_rng(seed, _SUBSAMPLE_STREAM)
    idx = np.sort(rng.choice(len(d), size=n, replace=False))
    return d._derive(d.inputs[idx], d.labels[idx],
                     {"kind": "subsample", "n": int(n), "seed": int(seed)})


def replay_mutations(d: Dataset, log) -> Dataset:
    """Apply a recorded mutation log to a pristine split."""
    for m in log:
        if m["kind"] == "shuffle_labels":
            d = shuffle_labels(d, m["alpha"], m["seed"])
        elif m["kind"] == "subsample":
            d = subsample(d, m["n"], m["seed"])
        else:
            raise ValueError(f"unknown mutation kind {m['kind']!r}")
    return d


# ---------------------------------------------------------------------------
# Synthetic fallback


def synthetic_teacher(d: int, num_classes: int, seed: int) -> FFReluNet:
    """The fixed labelling net behind :func:`synthetic_fallback`."""
    return init_ff(d, [32], num_classes, seed)


def synthetic_fallback(n_train: int, n_test: int, d: int = MNIST1D_DIM,
                       num_classes: int = 10, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Offline stand-in dataset: Gaussian inputs, labels from a random teacher.

    Inputs are standard normal; labels are the argmax output of a fixed
    width-32 zero-bias ReLU net drawn from the same seed.  Everything is
    deterministic per seed, so fixtures never need to ship data files.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if n_train < 1 or n_test < 1:
        raise ValueError(f"split sizes must be positive, got {n_train}/{n_test}")
    rng = make_rng(seed, _SYNTH_STREAM)
    teacher = synthetic_teacher(d, num_classes, seed)
    x = rng.standard_normal((n_train + n_test, d))
    labels = np.argmax(teacher.forward(x), axis=1).astype(np.int64)
    meta = {"kind": "synthetic", "n_train": int(n_train), "n_test": int(n_test),
            "d": int(d), "num_classes": int(num_classes), "seed": int(seed)}
    train = Dataset(x[:n_train], labels[:n_train], "train", "synthetic", num_classes, (meta,))
    test = Dataset(x[n_train:], labels[n_train:], "test", "synthetic", num_classes, (meta,))
    return train, test
