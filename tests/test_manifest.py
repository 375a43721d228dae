"""What the manifest records: the arguments the call parsed, and the dataset
fingerprint built from the digests the bundle's load takes."""

import hashlib
import json
import sys

import numpy as np
import pytest

from hopf import ArgumentError, DatasetBundle, Task, build_graph, save_dataset
from hopf.cli import main
from hopf.manifest import manifest_scope

BUNDLE_FILES = ("meta.json", "graph.tsv", "features.tsv", "labels.tsv")


@pytest.fixture
def dataset(tmp_path):
    """A 50-node ring, multi-label so that flipping any one label byte keeps it valid."""
    n = 50
    g = build_graph([(i, (i + 1) % n) for i in range(n)], n)
    x = np.random.default_rng(0).integers(1, 8, size=(n, 3)) / 4
    x[0] = [0.5, 0.25, 1.0]
    y = (np.arange(n)[:, None] + np.arange(2)) % 3 == 0
    y[0] = [True, False]
    save_dataset(DatasetBundle(graph=g, x=x, y=y.astype(np.float64), task=Task.MULTI_LABEL,
                               name="ring"), tmp_path / "dataset")
    (tmp_path / "config.json").write_text(json.dumps({"max_epochs": 1, "min_epochs": 1,
                                                      "hidden_dim": 2, "use_wce": False}))
    return tmp_path / "dataset"


def train_manifest(dataset, out) -> dict:
    assert main(["train", "--dataset", str(dataset), "--model", "nip_mean", "--folds", "1",
                 "--config", str(dataset.parent / "config.json"), "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())


def test_the_manifest_records_the_arguments_main_parsed(tmp_path, monkeypatch):
    argv = ["nim", "--alpha", "1", "--beta", "1", "--max-k", "2", "--out", str(tmp_path)]
    # a host process (a test runner, a benchmark's child) has arguments of its own
    monkeypatch.setattr(sys, "argv", ["host", "--host-flag"])
    assert main(argv) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["argv"] == argv
    # called with no list, main parses the process's own arguments and records those
    monkeypatch.setattr(sys, "argv", ["hopf", *argv])
    assert main() == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["argv"] == argv


def reference_fingerprint(dataset) -> str:
    """SHA-256 over the sorted file names, each followed by the hex SHA-256 of the
    file read whole."""
    h = hashlib.sha256()
    for name in sorted(BUNDLE_FILES):
        h.update(name.encode())
        h.update(hashlib.sha256((dataset / name).read_bytes()).hexdigest().encode())
    return h.hexdigest()


def test_a_miss_and_a_hit_record_the_reference_fingerprint(dataset, tmp_path):
    manifests = [train_manifest(dataset, tmp_path / run) for run in ("miss", "hit")]
    assert [m["dataset_cache"] for m in manifests] == ["miss", "hit"]
    assert {m["dataset_fingerprint"] for m in manifests} == {reference_fingerprint(dataset)}


# one byte changed in each file, the bundle still valid
ONE_BYTE_EDITS = {
    "meta.json": ('"ring"', '"rind"'),
    "graph.tsv": ("0\t1\n", "0\t2\n"),
    "features.tsv": ("0.5\t", "1.5\t"),
    "labels.tsv": ("1\t0\n", "1\t1\n"),
}


@pytest.mark.parametrize("fname", sorted(ONE_BYTE_EDITS))
def test_one_changed_byte_in_any_file_changes_the_fingerprint(dataset, tmp_path, fname):
    before = train_manifest(dataset, tmp_path / "before")["dataset_fingerprint"]
    path = dataset / fname
    old, new = ONE_BYTE_EDITS[fname]
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    after = train_manifest(dataset, tmp_path / "after")
    assert after["dataset_cache"] == "miss"
    assert after["dataset_fingerprint"] not in (before, None)
    assert after["dataset_fingerprint"] == reference_fingerprint(dataset)


def test_an_extra_file_in_the_dataset_directory_leaves_it_unchanged(dataset, tmp_path):
    before = train_manifest(dataset, tmp_path / "before")["dataset_fingerprint"]
    (dataset / "README.txt").write_text("notes\n")
    (dataset / "old").mkdir()
    (dataset / "old" / "features.tsv").write_text("1\t2\t3\n")
    assert train_manifest(dataset, tmp_path / "after")["dataset_fingerprint"] == before


def test_a_bundle_that_fails_to_load_records_no_fingerprint(dataset, tmp_path):
    (dataset / "labels.tsv").unlink()
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(dataset), "--model", "nip_mean",
                 "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset_fingerprint"] is None and manifest["dataset_cache"] is None


def test_a_train_call_hashes_each_bundle_byte_once(dataset, tmp_path, monkeypatch):
    real = hashlib.sha256
    fed = []

    class CountingSha256:
        def __init__(self, data=b""):
            self._h = real()
            self.update(data)

        def update(self, data):
            fed.append(memoryview(data).nbytes)
            self._h.update(data)

        def digest(self):
            return self._h.digest()

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", CountingSha256)
    size = sum((dataset / name).stat().st_size for name in BUNDLE_FILES)
    assert size > 1000  # a second pass over the files would overrun the bound below
    for run in ("miss", "hit"):
        fed.clear()
        assert train_manifest(dataset, tmp_path / run)["dataset_cache"] == run
        # beyond the files: the cache entry's key and the fingerprint, each over the
        # four names and digests, a few hundred bytes
        assert 0 <= sum(fed) - size < 600, (run, sum(fed), size)


@pytest.mark.parametrize("out, where, raised", [
    ("out", "out/metrics.csv", ArgumentError),  # a result inside --out
    ("out", "out", ArgumentError),              # --out itself
    ("out/sub", "out", ArgumentError),          # a directory on the way to --out
    ("out", "elsewhere/x.csv", FileNotFoundError),  # any other path propagates
])
def test_an_os_error_in_the_scope_is_a_usage_error_only_on_the_out_path(tmp_path, monkeypatch,
                                                                        out, where, raised):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(raised, match=where):
        with manifest_scope(out, "nim", [], {}, seeds={}):
            raise FileNotFoundError(2, "No such file or directory", where)
    assert (tmp_path / out / "manifest.json").exists()
