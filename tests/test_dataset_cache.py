"""The binary dataset cache inside ``load_dataset``: hits, misses, damage, bounds."""

import hashlib
import json
import os
import sys
import threading
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from hopf import DatasetBundle, IngestError, Task, build_graph, load_dataset, save_dataset
from hopf import data as data_mod
from hopf.cli import main

from conftest import traced_peak


def bundle_dir(tmp_path, name="d", offset=0.0):
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    x = np.array([[1.0, 0.5], [0.0, 2.0], [3.0, 0.25], [0.125, 7.0]]) + offset
    y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    save_dataset(DatasetBundle(graph=g, x=x, y=y, task=Task.MULTI_CLASS, name="mini"),
                 tmp_path / name)
    return tmp_path / name


def entries():
    root = data_mod.cache_root()
    return sorted(root.glob("*.npz")) if root.is_dir() else []


def assert_same_bundle(a, b):
    for got, want in ((a.x, b.x), (a.y, b.y), (a.graph.indptr, b.graph.indptr),
                      (a.graph.indices, b.graph.indices), (a.graph.degree, b.graph.degree)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert (a.graph.n, a.name, a.task) == (b.graph.n, b.name, b.task)


def test_hit_returns_bit_identical_arrays(tmp_path):
    d = bundle_dir(tmp_path)
    first = load_dataset(d)
    second = load_dataset(d)
    assert (first.cache_outcome, second.cache_outcome) == ("miss", "hit")
    assert_same_bundle(second, first)
    assert second.graph.indices.dtype == np.int32 and second.graph.degree.dtype == np.int64
    assert len(entries()) == 1


# one edit per file that keeps its byte count, so only the content hash tells the two apart
SAME_SIZE_EDITS = {
    "meta.json": ('"mini"', '"mono"'),
    "graph.tsv": ("2\t3", "0\t3"),
    "features.tsv": ("0.25", "0.75"),
    "labels.tsv": ("1\t0\n0\t1\n", "0\t1\n1\t0\n"),
}


@pytest.mark.parametrize("fname", sorted(SAME_SIZE_EDITS))
def test_editing_any_file_is_a_miss(tmp_path, fname):
    d = bundle_dir(tmp_path)
    before = load_dataset(d)
    old, new = SAME_SIZE_EDITS[fname]
    text = (d / fname).read_text()
    assert old in text
    (d / fname).write_text(text.replace(old, new, 1))
    after = load_dataset(d)
    assert after.cache_outcome == "miss"
    assert len(entries()) == 2
    changed = (after.name != before.name or not np.array_equal(after.x, before.x)
               or not np.array_equal(after.y, before.y)
               or not np.array_equal(after.graph.indices, before.graph.indices))
    assert changed
    assert load_dataset(d).cache_outcome == "hit"


def test_a_file_changed_during_the_parse_is_kept_under_its_parsed_bytes(tmp_path, monkeypatch):
    d = bundle_dir(tmp_path)
    original = (d / "features.tsv").read_text()
    # an entry of the same sizes, so the next load hashes the original bytes to look up
    (d / "features.tsv").write_text(original.replace("0.5", "0.7"))
    assert load_dataset(d).cache_outcome == "miss"
    (d / "features.tsv").write_text(original)
    real = data_mod.read_lines

    def edit_then_read(path, digest=None):
        if Path(path).name == "features.tsv":
            Path(path).write_text(original.replace("0.25", "0.75"))
        return real(path, digest)

    monkeypatch.setattr(data_mod, "read_lines", edit_then_read)
    parsed = load_dataset(d)
    monkeypatch.setattr(data_mod, "read_lines", real)
    assert parsed.cache_outcome == "miss" and parsed.x[2, 1] == 0.75
    hit = load_dataset(d)  # the edited bytes are on disk now: their entry is the one kept
    assert hit.cache_outcome == "hit" and hit.x[2, 1] == 0.75
    (d / "features.tsv").write_text(original)
    back = load_dataset(d)  # no entry may hold the edited values under the original's key
    assert back.cache_outcome == "miss" and back.x[2, 1] == 0.25


def test_a_file_whose_size_changes_during_the_parse_leaves_no_reachable_entry(
        tmp_path, monkeypatch):
    d = bundle_dir(tmp_path)
    original = (d / "features.tsv").read_text()
    longer = original.replace("0.25", "0.375")  # one byte more than the sizes the load read
    real = data_mod.read_lines

    def grow_then_read(path, digest=None):
        if Path(path).name == "features.tsv":
            Path(path).write_text(longer)
        return real(path, digest)

    monkeypatch.setattr(data_mod, "read_lines", grow_then_read)
    parsed = load_dataset(d)
    monkeypatch.setattr(data_mod, "read_lines", real)
    assert parsed.cache_outcome == "miss" and parsed.x[2, 1] == 0.375
    # the entry is named by the sizes read before the parse and the bytes parsed:
    # neither the grown file nor the original reaches it
    grown = load_dataset(d)
    assert grown.cache_outcome == "miss" and grown.x[2, 1] == 0.375
    (d / "features.tsv").write_text(original)
    back = load_dataset(d)
    assert back.cache_outcome == "miss" and back.x[2, 1] == 0.25
    assert [load_dataset(d).x[2, 1] for _ in range(2)] == [0.25, 0.25]
    (d / "features.tsv").write_text(longer)
    assert load_dataset(d).cache_outcome == "hit"


def whitespace_led_bundle(tmp_path, rows):
    """A bundle whose features.tsv opens with a line of spaces: numpy's reader rejects
    it, so the line reader parses the file."""
    d = tmp_path / "d"
    x = np.random.default_rng(0).standard_normal((rows, 2))
    y = np.eye(2)[np.arange(rows) % 2]
    save_dataset(DatasetBundle(graph=build_graph([], rows), x=x, y=y,
                               task=Task.MULTI_CLASS, name="spaced"), d)
    (d / "features.tsv").write_text("  \n" + (d / "features.tsv").read_text())
    return d, x


def test_a_table_the_line_reader_parses_is_keyed_by_the_whole_file(tmp_path):
    # numpy's reader stops at the first line, long before the file's last block
    d, x = whitespace_led_bundle(tmp_path, rows=5000)
    assert (d / "features.tsv").stat().st_size > 2 * data_mod.READ_BLOCK
    runs = [load_dataset(d) for _ in range(2)]
    assert [b.cache_outcome for b in runs] == ["miss", "hit"]
    assert runs[1].x.tobytes() == x.tobytes()
    text = (d / "features.tsv").read_bytes()
    assert runs[1].digests["features.tsv"] == hashlib.sha256(text).hexdigest()


def test_a_file_changed_between_the_two_reads_names_no_entry(tmp_path, monkeypatch):
    d, _ = whitespace_led_bundle(tmp_path, rows=4)
    first = (d / "features.tsv").read_text()
    second = first.replace("-", "+", 1)  # same size, another value
    assert second != first
    real, reads = data_mod.read_lines, []

    def edit_before_the_second_read(path, digest=None):
        if Path(path).name == "features.tsv":
            reads.append(path)
            if len(reads) == 2:
                Path(path).write_text(second)
        return real(path, digest)

    monkeypatch.setattr(data_mod, "read_lines", edit_before_the_second_read)
    parsed = load_dataset(d)
    monkeypatch.setattr(data_mod, "read_lines", real)
    assert len(reads) == 2 and parsed.cache_outcome == "miss"
    want = {}
    for text in (second, first):
        (d / "features.tsv").write_text(text)
        want[text] = load_dataset(d).x
        assert load_dataset(d).cache_outcome == "hit"
    assert parsed.x.tobytes() == want[second].tobytes() != want[first].tobytes()
    for text in (first, second):  # each content reads back its own values
        (d / "features.tsv").write_text(text)
        assert load_dataset(d).x.tobytes() == want[text].tobytes()


def tamper(path, **arrays):
    with np.load(path) as z:
        kept = {k: z[k] for k in z.files}
    kept.update(arrays)
    np.savez(path, **kept)


def append_member(path, name, a):
    """Append a second ``name`` member holding ``a`` to the archive at ``path``."""
    with warnings.catch_warnings(), zipfile.ZipFile(path, "a") as archive:
        warnings.simplefilter("ignore")  # zipfile warns of the duplicate name
        with archive.open(f"{name}.npy", "w") as member:
            np.lib.format.write_array(member, a)


@pytest.mark.parametrize("damage", [
    pytest.param(lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
                 id="truncated"),
    pytest.param(lambda p: p.write_bytes(b"not a zip archive"), id="garbage"),
    pytest.param(lambda p: tamper(p, x=np.full((4, 2), np.nan)), id="nan-feature"),
    pytest.param(lambda p: tamper(p, x=np.zeros((4, 3))), id="feature-shape"),
    pytest.param(lambda p: tamper(p, y=np.full((4, 2), 0.5)), id="non-binary-labels"),
    pytest.param(lambda p: tamper(p, y=np.ones((4, 2))), id="not-one-hot"),
    pytest.param(lambda p: tamper(p, indices=np.full(6, 9, dtype=np.int32)),
                 id="index-out-of-range"),
    pytest.param(lambda p: tamper(p, indices=np.array([1, 0, 2, 1, 3, 2])), id="int64-indices"),
    pytest.param(lambda p: tamper(p, degree=np.array([1, 2, 2, 2])), id="degree-mismatch"),
    # a well-formed x of zeros after the first: read_npz must not keep either
    pytest.param(lambda p: append_member(p, "x", np.zeros((4, 2))), id="repeated-member"),
])
def test_a_damaged_entry_is_discarded_and_the_bundle_parsed_again(tmp_path, damage):
    d = bundle_dir(tmp_path)
    good = load_dataset(d)
    [entry] = entries()
    damage(entry)
    again = load_dataset(d)
    assert again.cache_outcome == "miss"
    assert_same_bundle(again, good)
    assert entries() == [entry]  # the re-parse stored a sound entry in its place
    assert load_dataset(d).cache_outcome == "hit"


@pytest.mark.parametrize("fname,old,new", [
    ("features.tsv", "0.25", "nan"),
    ("labels.tsv", "1\t0\n", "1\t1\n"),
    ("graph.tsv", "2\t3", "2\t9"),
])
def test_a_malformed_bundle_stores_nothing(tmp_path, fname, old, new):
    d = bundle_dir(tmp_path)
    (d / fname).write_text((d / fname).read_text().replace(old, new, 1))
    with pytest.raises(IngestError):
        load_dataset(d)
    assert entries() == []


def test_a_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    for value in ("relcache", "./relcache", ""):
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        assert data_mod.cache_root() == tmp_path / "home" / ".cache" / "hopf" / "datasets"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "abs"))
    assert data_mod.cache_root() == tmp_path / "abs" / "hopf" / "datasets"


def test_an_unwritable_root_still_runs_and_says_unavailable(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))  # the root lies under a file: no mkdir
    d = bundle_dir(tmp_path)
    runs = [load_dataset(d) for _ in range(2)]
    assert [b.cache_outcome for b in runs] == ["unavailable", "unavailable"]
    assert_same_bundle(runs[1], runs[0])
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(planted(tmp_path)), "--model", "nip_mean",
                 "--folds", "1", "--config", str(fast_config(tmp_path)), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["dataset_cache"] == "unavailable"


def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch):
    def full_disk(fh, arrays):
        fh.write(b"partial")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(data_mod, "write_npz", full_disk)
    d = bundle_dir(tmp_path)
    assert load_dataset(d).cache_outcome == "unavailable"
    assert list(data_mod.cache_root().iterdir()) == []


def test_a_bundle_larger_than_the_bound_is_not_kept(tmp_path, monkeypatch):
    monkeypatch.setattr(data_mod, "CACHE_MAX_BYTES", 100)
    assert load_dataset(bundle_dir(tmp_path)).cache_outcome == "unavailable"
    assert entries() == []


def test_the_size_bound_evicts_least_recently_used_first(tmp_path, monkeypatch):
    dirs = [bundle_dir(tmp_path, name, offset)
            for name, offset in (("a", 0.0), ("b", 1.0), ("c", 2.0))]
    for d in dirs[:2]:
        assert load_dataset(d).cache_outcome == "miss"

    def entry_of(d):
        x00 = float((d / "features.tsv").read_text().split("\t", 1)[0])
        for e in entries():
            with np.load(e) as z:
                if z["x"][0, 0] == x00:
                    return e
        return None

    a_entry, b_entry = entry_of(dirs[0]), entry_of(dirs[1])
    now = a_entry.stat().st_mtime
    os.utime(a_entry, (now - 200, now - 200))  # a is older than b ...
    os.utime(b_entry, (now - 100, now - 100))
    assert load_dataset(dirs[0]).cache_outcome == "hit"  # ... until this hit touches it
    monkeypatch.setattr(data_mod, "CACHE_MAX_BYTES", 2 * a_entry.stat().st_size + 100)
    assert load_dataset(dirs[2]).cache_outcome == "miss"
    assert entries() == sorted([a_entry, entry_of(dirs[2])])
    assert load_dataset(dirs[1]).cache_outcome == "miss"  # b must be parsed again


def test_the_parse_never_holds_a_whole_file(tmp_path):
    rng = np.random.default_rng(0)
    n, f = 1000, 200
    g = build_graph([(i, i + 1) for i in range(n - 1)], n)
    x = rng.standard_normal((n, f))
    y = np.eye(2)[np.arange(n) % 2]
    save_dataset(DatasetBundle(graph=g, x=x, y=y, task=Task.MULTI_CLASS, name="big"),
                 tmp_path / "d")
    text = (tmp_path / "d" / "features.tsv").stat().st_size
    for outcome in ("miss", "hit"):
        bundle, peak, kept = traced_peak(lambda: load_dataset(tmp_path / "d"))
        assert bundle.cache_outcome == outcome
        # beyond the arrays it returns, a load holds blocks of the text, not the text
        assert peak - kept < text / 4


def test_an_entry_member_claiming_more_than_the_file_allocates_nothing(tmp_path):
    # x's header claims float64 3000 x 3000 (72 MB) over a few bytes: the reader must
    # refuse the claim before it sizes an array, and the bundle is parsed again
    d = bundle_dir(tmp_path)
    good = load_dataset(d)
    [entry] = entries()
    with np.load(entry) as z:
        kept = {k: z[k] for k in z.files}
    with zipfile.ZipFile(entry, "w") as archive:
        for name, a in kept.items():
            with archive.open(f"{name}.npy", "w") as member:
                if name != "x":
                    np.lib.format.write_array(member, a)
                    continue
                np.lib.format.write_array_header_1_0(
                    member, {"descr": "<f8", "fortran_order": False, "shape": (3000, 3000)})
                member.write(bytes(64))
    again, peak, _ = traced_peak(lambda: load_dataset(d))
    assert again.cache_outcome == "miss"
    assert_same_bundle(again, good)
    assert peak < 4 * 2**20
    assert load_dataset(d).cache_outcome == "hit"


def test_an_f_ordered_array_round_trips(tmp_path):
    a = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "a.npz"
    with open(path, "wb") as fh:
        data_mod.write_npz(fh, {"a": a})
    back = data_mod.read_npz(path, lambda name: np.dtype(np.float64))["a"]
    assert back.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    with np.load(path, allow_pickle=False) as z:
        assert z["a"].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


def test_c_ordered_arrays_are_written_as_np_savez_writes_them(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {"x": rng.standard_normal((5, 3)), "y": np.eye(4)[[0, 2, 1]],
              "indptr": np.array([0, 1, 3], dtype=np.int32), "indices": np.zeros(0, np.int32),
              "degree": np.arange(7, dtype=np.int64), "row": rng.random(300_000)}
    ours, numpys = tmp_path / "ours.npz", tmp_path / "numpy.npz"
    with open(ours, "wb") as fh:
        data_mod.write_npz(fh, arrays)
    with open(numpys, "wb") as fh:
        np.savez(fh, **arrays)
    assert ours.read_bytes() == numpys.read_bytes()
    back = data_mod.read_npz(ours, lambda name: arrays[name].dtype)
    assert list(back) == list(arrays)
    for name, a in arrays.items():
        assert back[name].dtype == a.dtype and back[name].tobytes() == a.tobytes()
        assert back[name].shape == a.shape


def test_an_edgeless_bundle_hits_with_empty_indices(tmp_path):
    g = build_graph([], 3)
    save_dataset(DatasetBundle(graph=g, x=np.ones((3, 2)), y=np.eye(3)[:, :2][[0, 1, 0]],
                               task=Task.MULTI_CLASS, name="edgeless"), tmp_path / "d")
    first, second = (load_dataset(tmp_path / "d") for _ in range(2))
    assert (first.cache_outcome, second.cache_outcome) == ("miss", "hit")
    assert second.graph.indices.size == 0
    assert_same_bundle(second, first)


def planted(tmp_path):
    assert main(["gen", "planted", "--n", "150", "--blocks", "3", "--p-in", "0.3",
                 "--p-out", "0.01", "--seed", "1", "--out", str(tmp_path / "gen")]) == 0
    return tmp_path / "gen" / "dataset"


def fast_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_epochs": 5, "min_epochs": 1, "hidden_dim": 4,
                                  "use_wce": False}))
    return config


def test_train_twice_records_miss_then_hit_with_identical_outputs(tmp_path):
    dataset, config = planted(tmp_path), fast_config(tmp_path)
    outcomes, predictions = [], []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["train", "--dataset", str(dataset), "--model", "nip_mean", "--folds", "1",
                     "--config", str(config), "--out", str(out)]) == 0
        outcomes.append(json.loads((out / "manifest.json").read_text())["dataset_cache"])
        predictions.append((out / "predictions_fold0.csv").read_bytes())
    assert outcomes == ["miss", "hit"]
    assert predictions[0] == predictions[1]


def test_concurrent_loads_under_eviction_all_return_the_parsed_bundle(tmp_path, monkeypatch):
    # threads loading two bundles while a bound of about one entry evicts on every
    # store: entries vanish under readers and temp files under writers, and every
    # load must still return its bundle
    dirs = [bundle_dir(tmp_path, name, offset) for name, offset in (("a", 0.0), ("b", 1.0))]
    want = [load_dataset(d) for d in dirs]
    monkeypatch.setattr(data_mod, "CACHE_MAX_BYTES", entries()[0].stat().st_size + 100)
    for entry in entries():
        entry.unlink()
    failures, outcomes = [], []

    def worker(k):
        try:
            for i in range(12):
                j = (i + k) % 2
                got = load_dataset(dirs[j])
                assert_same_bundle(got, want[j])
                outcomes.append(got.cache_outcome)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(outcomes) == 72 and set(outcomes) <= {"hit", "miss", "unavailable"}
    assert "miss" in outcomes and len(entries()) <= 1
