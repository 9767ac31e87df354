import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptrack import datasets
from liptrack.datasets import (
    DataPair,
    Dataset,
    load_cifar10,
    load_mnist1d,
    read_cifar_batch,
    replay_mutations,
    shuffle_labels,
    subsample,
    synthetic_fallback,
    synthetic_teacher,
)
from liptrack.linalg import make_rng


def small_dataset(n=20, d=6, k=4, seed=0) -> Dataset:
    rng = make_rng(seed, 99)
    return Dataset(rng.standard_normal((n, d)), rng.integers(0, k, size=n),
                   "train", "unit-test", num_classes=k)


# ---------------------------------------------------------------------------
# Dataset / DataPair basics


def test_dataset_arrays_are_read_only():
    d = small_dataset()
    with pytest.raises(ValueError):
        d.inputs[0, 0] = 1.0
    with pytest.raises(ValueError):
        d.labels[0] = 1


def test_dataset_validation():
    x = np.zeros((4, 3))
    y = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        Dataset(np.zeros(4), y, "train", "t")
    with pytest.raises(ValueError, match="inputs vs"):
        Dataset(x, y[:3], "train", "t")
    with pytest.raises(ValueError, match="out of range"):
        Dataset(x, y + 10, "train", "t")
    with pytest.raises(ValueError, match="split"):
        Dataset(x, y, "validation", "t")


def test_dataset_len_dim_provenance():
    d = small_dataset(n=20, d=6)
    assert len(d) == 20
    assert d.dim == 6
    assert d.provenance() == {"source": "unit-test", "split": "train", "mutations": []}


def test_data_pair_dim_mismatch():
    a = small_dataset(d=6)
    b = Dataset(np.zeros((3, 7)), np.zeros(3, dtype=np.int64), "test", "t")
    with pytest.raises(ValueError, match="dim"):
        DataPair(a, b)


def test_data_pair_properties():
    train, test = synthetic_fallback(10, 5, d=8, num_classes=3, seed=1)
    pair = DataPair(train, test)
    assert pair.train_x is train.inputs
    assert pair.train_y is train.labels
    assert pair.test_x is test.inputs
    assert pair.test_y is test.labels
    assert pair.num_classes == 3


# ---------------------------------------------------------------------------
# Synthetic fallback


def test_synthetic_fallback_deterministic_and_labelled_by_teacher():
    a_train, a_test = synthetic_fallback(30, 10, d=8, num_classes=3, seed=7)
    b_train, b_test = synthetic_fallback(30, 10, d=8, num_classes=3, seed=7)
    assert np.array_equal(a_train.inputs, b_train.inputs)
    assert np.array_equal(a_train.labels, b_train.labels)
    assert np.array_equal(a_test.inputs, b_test.inputs)
    c_train, _ = synthetic_fallback(30, 10, d=8, num_classes=3, seed=8)
    assert not np.array_equal(a_train.inputs, c_train.inputs)

    teacher = synthetic_teacher(8, 3, seed=7)
    want = np.argmax(teacher.forward(a_train.inputs), axis=1)
    assert np.array_equal(a_train.labels, want)

    assert a_train.inputs.shape == (30, 8)
    assert a_test.inputs.shape == (10, 8)
    assert a_train.split == "train" and a_test.split == "test"
    assert a_train.source == "synthetic"
    meta = a_train.provenance()["mutations"]
    assert meta == [{"kind": "synthetic", "n_train": 30, "n_test": 10,
                     "d": 8, "num_classes": 3, "seed": 7}]


def test_synthetic_fallback_validation():
    with pytest.raises(ValueError, match="classes"):
        synthetic_fallback(10, 5, d=4, num_classes=1, seed=0)
    with pytest.raises(ValueError, match="positive"):
        synthetic_fallback(0, 5, d=4, num_classes=3, seed=0)


# ---------------------------------------------------------------------------
# Mutations


def test_shuffle_labels_identity_at_zero():
    d = small_dataset()
    out = shuffle_labels(d, 0.0, seed=3)
    assert np.array_equal(out.labels, d.labels)
    assert out.inputs is d.inputs
    assert out.provenance()["mutations"] == [
        {"kind": "shuffle_labels", "alpha": 0.0, "seed": 3}]


def test_shuffle_labels_full_alpha_permutes_all():
    d = small_dataset(n=50)
    out = shuffle_labels(d, 1.0, seed=5)
    assert not np.array_equal(out.labels, d.labels)
    assert np.array_equal(np.sort(out.labels), np.sort(d.labels))
    assert np.array_equal(out.inputs, d.inputs)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_shuffle_labels_preserves_marginals(alpha, seed):
    d = small_dataset(n=40)
    out = shuffle_labels(d, alpha, seed)
    assert np.array_equal(np.bincount(out.labels, minlength=4),
                          np.bincount(d.labels, minlength=4))


def test_shuffle_labels_deterministic_and_validated():
    d = small_dataset(n=60)
    a = shuffle_labels(d, 0.5, seed=9)
    b = shuffle_labels(d, 0.5, seed=9)
    assert np.array_equal(a.labels, b.labels)
    with pytest.raises(ValueError, match="alpha"):
        shuffle_labels(d, 1.5, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        shuffle_labels(d, -0.1, seed=0)


def test_subsample_preserves_order():
    d = small_dataset(n=30)
    out = subsample(d, 12, seed=2)
    assert len(out) == 12
    # Kept rows appear in their original relative order.
    pos = [int(np.flatnonzero((d.inputs == row).all(axis=1))[0]) for row in out.inputs]
    assert pos == sorted(pos)
    assert np.array_equal(out.labels, d.labels[pos])
    assert out.provenance()["mutations"] == [{"kind": "subsample", "n": 12, "seed": 2}]


def test_subsample_validation():
    d = small_dataset(n=10)
    with pytest.raises(ValueError, match="subsample size"):
        subsample(d, 0, seed=0)
    with pytest.raises(ValueError, match="subsample size"):
        subsample(d, 11, seed=0)
    full = subsample(d, 10, seed=0)
    assert np.array_equal(full.inputs, d.inputs)


def test_replay_mutations_reproduces_chain():
    base = small_dataset(n=40)
    derived = shuffle_labels(subsample(base, 25, seed=4), 0.3, seed=11)
    log = derived.provenance()["mutations"]
    replayed = replay_mutations(base, log)
    assert np.array_equal(replayed.inputs, derived.inputs)
    assert np.array_equal(replayed.labels, derived.labels)
    assert replayed.mutations == derived.mutations
    with pytest.raises(ValueError, match="mutation kind"):
        replay_mutations(base, [{"kind": "rotate"}])


# ---------------------------------------------------------------------------
# MNIST1D CSV contract


def write_mnist1d_rows(path, rows, with_split, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n"):
    header = (["split"] if with_split else []) + ["label"] + [f"x{i}" for i in range(40)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=quoting, lineterminator=lineterminator)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def make_rows(n, split, seed, mixed=False):
    """Rows of repr() floats; ``mixed`` writes every fourth feature as a
    25-digit decimal (exponents up to ±300) and every ninth as a nan/inf token."""
    rng = make_rng(seed, 101)
    out = []
    for _ in range(n):
        label = int(rng.integers(0, 10))
        feats = [repr(float(v)) for v in rng.standard_normal(40)]
        if mixed:
            for j in range(0, 40, 4):
                feats[j] = f"{rng.standard_normal():.25f}e{int(rng.integers(-300, 300))}"
            for j in range(1, 40, 9):
                feats[j] = ["nan", "-inf", "inf", "-nan", "Infinity"][int(rng.integers(0, 5))]
        out.append(([split] if split else []) + [str(label)] + feats)
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def load_fast_and_by_rows(monkeypatch, path):
    """``load_mnist1d(path)`` with the row parser switched off, and the row
    parser's ``(labels, inputs)`` by split for the same file(s)."""
    parse_rows = datasets._parse_mnist1d_rows

    def by_rows(split):
        if path.is_dir():
            return parse_rows(path / f"{split}.csv", 41, False)["all"]
        return parse_rows(path, 42, True)[split]

    def refuse(csv_path, *args):
        raise AssertionError(f"{csv_path}: np.loadtxt left it to the row parser")

    want = {split: by_rows(split) for split in ("train", "test")}
    with monkeypatch.context() as m:
        m.setattr(datasets, "_parse_mnist1d_rows", refuse)
        loaded = load_mnist1d(path)
    return loaded, want


def test_load_mnist1d_directory_round_trip(tmp_path):
    train_rows = make_rows(4000, None, seed=0)
    test_rows = make_rows(1000, None, seed=1)
    write_mnist1d_rows(tmp_path / "train.csv", train_rows, with_split=False)
    write_mnist1d_rows(tmp_path / "test.csv", test_rows, with_split=False)
    train, test = load_mnist1d(tmp_path)
    assert train.inputs.shape == (4000, 40)
    assert test.inputs.shape == (1000, 40)
    assert train.source == "mnist1d" and test.split == "test"
    # repr() of a float round-trips exactly, so loaded values are bit-equal.
    assert train.inputs[17, 3] == float(train_rows[17][4])
    assert train.labels[17] == int(train_rows[17][0])


def test_load_mnist1d_single_file_matches_directory(tmp_path, monkeypatch):
    train_rows = make_rows(4000, "train", seed=0, mixed=True)
    test_rows = make_rows(1000, "test", seed=1, mixed=True)
    combined = tmp_path / "all.csv"
    # Interleave splits to prove grouping is by the split column, not order.
    mixed = test_rows[:500] + train_rows + test_rows[500:]
    write_mnist1d_rows(combined, mixed, with_split=True, quoting=csv.QUOTE_ALL)
    (train, test), want = load_fast_and_by_rows(monkeypatch, combined)
    for d in (train, test):
        assert same_bits(d.labels, want[d.split][0])
        assert same_bits(d.inputs, want[d.split][1])

    write_mnist1d_rows(tmp_path / "train.csv", [r[1:] for r in train_rows], with_split=False)
    write_mnist1d_rows(tmp_path / "test.csv", [r[1:] for r in test_rows], with_split=False)
    dtrain, dtest = load_mnist1d(tmp_path)
    assert same_bits(train.inputs, dtrain.inputs)
    assert same_bits(train.labels, dtrain.labels)
    assert same_bits(test.inputs, dtest.inputs)


def test_load_mnist1d_error_reporting(tmp_path):
    f = tmp_path / "bad.csv"

    f.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_mnist1d(f)

    f.write_text("label,x0\n")
    with pytest.raises(ValueError, match="bad header"):
        load_mnist1d(f)

    rows = make_rows(3, "train", seed=0)
    rows[1] = rows[1][:10]
    write_mnist1d_rows(f, rows, with_split=True)
    with pytest.raises(ValueError, match=r"bad\.csv:3: 10 columns"):
        load_mnist1d(f)

    # Blank, whitespace-only and comment lines are malformed rows too.
    for lines, at, where in (([], 1, "3: 0"), ([], 3, "5: 0"), (["   "], 1, "3: 1"),
                             (["# note"], 1, "3: 1")):
        for lineterminator in ("\r\n", "\n"):
            rows = make_rows(3, "train", seed=0)
            rows.insert(at, lines)
            write_mnist1d_rows(f, rows, with_split=True, lineterminator=lineterminator)
            with pytest.raises(ValueError, match=rf"bad\.csv:{where} columns, expected 42"):
                load_mnist1d(f)

    d = tmp_path / "dir"
    d.mkdir()
    rows = make_rows(3, None, seed=0)
    rows[1].append("1.0")
    write_mnist1d_rows(d / "train.csv", rows, with_split=False)
    write_mnist1d_rows(d / "test.csv", make_rows(3, None, seed=1), with_split=False)
    with pytest.raises(ValueError, match=r"train\.csv:3: 42 columns, expected 41"):
        load_mnist1d(d)

    # A quoted line break inside a number is not a separator.
    for value in ("abc", "1\n5"):
        rows = make_rows(3, "train", seed=0)
        rows[2][5] = value
        write_mnist1d_rows(f, rows, with_split=True)
        with pytest.raises(ValueError, match=r"bad\.csv:4: non-numeric"):
            load_mnist1d(f)

    rows = make_rows(2, "valid", seed=0)
    write_mnist1d_rows(f, rows, with_split=True)
    with pytest.raises(ValueError, match="unknown split 'valid'"):
        load_mnist1d(f)

    # Names longer than "train" or "test", not only other ones.
    for split in ("trainx", "testing"):
        rows = make_rows(3, "train", seed=0)
        rows[2][0] = split
        write_mnist1d_rows(f, rows, with_split=True)
        with pytest.raises(ValueError, match=rf"bad\.csv:4: unknown split '{split}'"):
            load_mnist1d(f)

    rows = make_rows(5, "train", seed=0)
    write_mnist1d_rows(f, rows, with_split=True)
    with pytest.raises(ValueError, match="5 train rows, expected 4000"):
        load_mnist1d(f)

    # A header alone is zero rows, and reading it warns of nothing.
    write_mnist1d_rows(f, [], with_split=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="0 train rows, expected 4000"):
            load_mnist1d(f)


def test_load_mnist1d_labels_accept_what_int_accepts(tmp_path):
    # Full-size files, so only the one label decides whether they load.
    f = tmp_path / "bad.csv"
    rows = make_rows(4000, "train", seed=0) + make_rows(1000, "test", seed=1)
    rows[7][1] = " +3 "
    write_mnist1d_rows(f, rows, with_split=True)
    assert load_mnist1d(f)[0].labels[7] == 3
    rows[7][1] = "3.0"
    write_mnist1d_rows(f, rows, with_split=True)
    with pytest.raises(ValueError, match=r"bad\.csv:9: non-numeric"):
        load_mnist1d(f)


def test_load_mnist1d_quoted_fields_load_the_same_arrays(tmp_path, monkeypatch):
    # Quoted or not, CRLF or LF line ends: the same bits as the row parser's
    # int() and float(), without falling back to it.
    train_rows = make_rows(4000, None, seed=0, mixed=True)
    test_rows = make_rows(1000, None, seed=1, mixed=True)
    loaded = []
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        for lineterminator in ("\r\n", "\n"):
            d = tmp_path / f"q{quoting}-{len(lineterminator)}"
            d.mkdir()
            for name, rows in (("train.csv", train_rows), ("test.csv", test_rows)):
                write_mnist1d_rows(d / name, rows, with_split=False, quoting=quoting,
                                   lineterminator=lineterminator)
            pair, want = load_fast_and_by_rows(monkeypatch, d)
            for split in pair:
                assert same_bits(split.labels, want[split.split][0])
                assert same_bits(split.inputs, want[split.split][1])
            loaded.append(pair)
    assert '"' in (tmp_path / f"q{csv.QUOTE_ALL}-1" / "train.csv").read_text()
    for pair in loaded[1:]:
        for plain, other in zip(loaded[0], pair):
            assert same_bits(plain.inputs, other.inputs)
            assert same_bits(plain.labels, other.labels)
    assert loaded[-1][0].inputs[17, 3] == float(train_rows[17][4])
    assert np.isnan(loaded[-1][0].inputs).any() and np.isinf(loaded[-1][0].inputs).any()


def test_load_mnist1d_missing_split_file(tmp_path):
    write_mnist1d_rows(tmp_path / "train.csv", make_rows(3, None, 0), with_split=False)
    with pytest.raises(FileNotFoundError, match="test.csv"):
        load_mnist1d(tmp_path)


# ---------------------------------------------------------------------------
# MNIST1D row cache


def write_mnist1d(tmp_path, form):
    """Full-size MNIST1D data in directory or single-file form; returns the
    path ``load_mnist1d`` takes."""
    train_rows = make_rows(4000, "train", seed=0, mixed=True)
    test_rows = make_rows(1000, "test", seed=1, mixed=True)
    if form == "file":
        path = tmp_path / "all.csv"
        write_mnist1d_rows(path, test_rows[:500] + train_rows + test_rows[500:], with_split=True)
        return path
    path = tmp_path / "data"
    path.mkdir()
    write_mnist1d_rows(path / "train.csv", [r[1:] for r in train_rows], with_split=False)
    write_mnist1d_rows(path / "test.csv", [r[1:] for r in test_rows], with_split=False)
    return path


def cache_dir(path):
    return (path if path.is_dir() else path.parent) / "__liptrack_cache__"


def cache_entries(path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(cache_dir(path).iterdir())}


def count_parses(monkeypatch) -> list:
    """Paths that np.loadtxt parses from now on."""
    parsed = []
    loadtxt_rows = datasets._loadtxt_rows

    def counting(path, *args):
        parsed.append(path.name)
        return loadtxt_rows(path, *args)

    monkeypatch.setattr(datasets, "_loadtxt_rows", counting)
    return parsed


def assert_same_pairs(a, b):
    for x, y in zip(a, b):
        assert same_bits(x.inputs, y.inputs)
        assert same_bits(x.labels, y.labels)


@pytest.mark.parametrize("form", ["dir", "file"])
def test_mnist1d_cache_hit_is_bit_identical_to_a_parse(tmp_path, monkeypatch, form):
    path = write_mnist1d(tmp_path, form)
    parsed = count_parses(monkeypatch)
    fresh = load_mnist1d(path)
    names = ["test.csv", "train.csv"] if form == "dir" else ["all.csv"]
    assert sorted(parsed) == names
    entries = cache_entries(path)
    assert [name.rsplit(".", 2)[0] for name in entries] == names
    cached = load_mnist1d(path)
    assert sorted(parsed) == names  # no second parse
    assert_same_pairs(fresh, cached)
    assert np.isnan(cached[0].inputs).any()
    assert cache_entries(path) == entries


def test_mnist1d_cache_misses_on_an_edit(tmp_path, monkeypatch):
    path = write_mnist1d(tmp_path, "file")
    first = load_mnist1d(path)
    raw = path.read_bytes()
    # Train's first row is line 502, after the header and 500 test rows:
    # edit its label.
    at = raw.index(b"\r\ntrain,") + len(b"\r\ntrain,")
    label = int(raw[at:at + 1])
    path.write_bytes(raw[:at] + str((label + 1) % 10).encode() + raw[at + 1:])
    parsed = count_parses(monkeypatch)
    edited = load_mnist1d(path)
    assert parsed == ["all.csv"]
    assert (first[0].labels[0], edited[0].labels[0]) == (label, (label + 1) % 10)
    assert same_bits(edited[0].labels[1:], first[0].labels[1:])
    assert same_bits(edited[0].inputs, first[0].inputs)
    assert_same_pairs(edited[1:], first[1:])

    path.write_bytes(raw[:at] + b"x" + raw[at + 1:])
    with pytest.raises(ValueError, match=r"all\.csv:502: non-numeric"):
        load_mnist1d(path)


def test_mnist1d_cache_skips_a_file_replaced_during_the_parse(tmp_path, monkeypatch):
    path = write_mnist1d(tmp_path, "file")
    loadtxt_rows = datasets._loadtxt_rows

    def replaced_after(csv_path, *args):
        rows = loadtxt_rows(csv_path, *args)
        csv_path.write_bytes(csv_path.read_bytes().replace(b"\r\n", b"\n"))
        return rows

    monkeypatch.setattr(datasets, "_loadtxt_rows", replaced_after)
    load_mnist1d(path)
    assert not cache_dir(path).exists()


def test_mnist1d_cache_keeps_one_entry_per_csv(tmp_path):
    path = write_mnist1d(tmp_path, "dir")
    load_mnist1d(path)
    before = cache_entries(path)
    train_csv = path / "train.csv"
    train_csv.write_bytes(train_csv.read_bytes().replace(b"\r\n", b"\n"))
    load_mnist1d(path)
    after = cache_entries(path)
    assert len(after) == 2
    assert [name.rsplit(".", 2)[0] for name in after] == ["test.csv", "train.csv"]
    assert list(after)[0] == list(before)[0] and list(after)[1] != list(before)[1]


@pytest.mark.parametrize("damage", [lambda b: b"garbage" * 9, lambda b: b[:len(b) // 2],
                                    lambda b: b[:60], lambda b: b""],
                         ids=["garbage", "half", "header", "empty"])
def test_mnist1d_cache_damaged_entry_is_parsed_and_rewritten(tmp_path, monkeypatch, damage):
    path = write_mnist1d(tmp_path, "file")
    fresh = load_mnist1d(path)
    [(name, good)] = cache_entries(path).items()
    entry = cache_dir(path) / name
    entry.write_bytes(damage(good))
    parsed = count_parses(monkeypatch)
    assert_same_pairs(load_mnist1d(path), fresh)
    assert parsed == ["all.csv"]
    assert cache_entries(path) == {name: good}


def test_mnist1d_cache_that_is_a_file_is_skipped(tmp_path, monkeypatch):
    path = write_mnist1d(tmp_path, "dir")
    cache_dir(path).write_text("not a directory\n")
    before = sorted(p.name for p in path.iterdir())
    parsed = count_parses(monkeypatch)
    fresh = load_mnist1d(path)
    assert_same_pairs(load_mnist1d(path), fresh)
    assert len(parsed) == 4
    assert sorted(p.name for p in path.iterdir()) == before
    assert cache_dir(path).read_text() == "not a directory\n"


# ---------------------------------------------------------------------------
# CIFAR-10 binary contract


def test_read_cifar_batch_layout_and_scaling(tmp_path):
    rec0 = bytes([7]) + bytes([0] * 3071) + bytes([255])
    rec1 = bytes([2]) + bytes([128]) + bytes([0] * 3071)
    f = tmp_path / "batch.bin"
    f.write_bytes(rec0 + rec1)
    x, y = read_cifar_batch(f)
    assert x.shape == (2, 3072)
    assert np.array_equal(y, [7, 2])
    assert x[0, -1] == 1.0 and x[0, 0] == 0.0
    assert x[1, 0] == 128 / 255


def test_read_cifar_batch_rejects_truncated(tmp_path):
    f = tmp_path / "batch.bin"
    f.write_bytes(bytes(3073 * 2 - 1))
    with pytest.raises(ValueError, match="multiple of 3073"):
        read_cifar_batch(f)
    f.write_bytes(b"")
    with pytest.raises(ValueError, match="multiple of 3073"):
        read_cifar_batch(f)


def test_load_cifar10_counts_and_missing_files(tmp_path):
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(bytes(100 * 3073))
    (tmp_path / "test_batch.bin").write_bytes(bytes(100 * 3073))
    with pytest.raises(ValueError, match="expected 50000/10000"):
        load_cifar10(tmp_path)
    (tmp_path / "data_batch_1.bin").unlink()
    with pytest.raises(FileNotFoundError):
        load_cifar10(tmp_path)


def test_load_cifar10_full_size(tmp_path):
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(bytes(10000 * 3073))
    (tmp_path / "test_batch.bin").write_bytes(bytes(10000 * 3073))
    train, test = load_cifar10(tmp_path)
    assert len(train) == 50000 and len(test) == 10000
    assert train.dim == 3072
    assert train.source == "cifar10" and test.split == "test"
    assert train.labels.max() == 0
