import hashlib

import numpy as np

from conftest import traced_peak
from hopf.manifest import fingerprint_dir


def one_shot_digest(root):
    """The reference: SHA-256 over each relative name, then the file's bytes read whole."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_chunked_digest_matches_one_shot_digest(tmp_path):
    (tmp_path / "nested").mkdir()
    (tmp_path / "graph.tsv").write_text("0\t1\n1\t2\n")
    (tmp_path / "empty.tsv").write_bytes(b"")
    # past several chunk boundaries, ending mid-chunk
    (tmp_path / "nested" / "features.bin").write_bytes(
        np.random.default_rng(0).bytes(3 * 2**20 + 5))
    assert fingerprint_dir(tmp_path) == one_shot_digest(tmp_path)


def test_peak_memory_is_a_chunk_not_the_file(tmp_path):
    size = 8 * 2**20
    (tmp_path / "features.tsv").write_bytes(np.random.default_rng(1).bytes(size))
    _, peak, _ = traced_peak(lambda: fingerprint_dir(tmp_path))
    assert peak < size / 4
