"""Dataset bundles: on-disk format, binary cache, feature normalization, synthetic generators.

A dataset directory holds four files: ``meta.json`` (name, n, f, l, task),
``graph.tsv`` (tab-separated edge list), ``features.tsv`` and ``labels.tsv``
(dense tab-separated rows, one node per line, node order = id order). The
format round-trips byte-identically through save/load.

``load_dataset`` keeps a binary copy of every bundle it parses under
:func:`cache_root`, one uncompressed ``.npz`` per bundle, keyed by the SHA-256
of the four files' bytes. A later load of the same bytes reads that copy
instead of parsing the text, and runs every check on it again.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import stat
import tempfile
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestError
from .graph import READ_BLOCK, Graph, build_graph, load_edge_list, numbered_lines, read_lines
from .metrics import Task


@dataclass
class DatasetBundle:
    graph: Graph
    x: np.ndarray
    y: np.ndarray
    task: Task
    name: str
    # how load_dataset got the bundle: "hit", "miss" or "unavailable" (see load_dataset)
    cache_outcome: str | None = None

    @property
    def num_features(self) -> int:
        return self.x.shape[1]

    @property
    def num_labels(self) -> int:
        return self.y.shape[1]


def _format_row(row) -> str:
    return "\t".join(format(v, ".17g") for v in row)


def _write_matrix(path: Path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(_format_row(row))
            fh.write("\n")


def _read_matrix(path: Path, expect_rows: int, name: str, open_lines) -> np.ndarray:
    """Dense float64 rows of a tab-separated file, parsed by numpy's C reader.

    The values are bit-identical to ``float()`` of each cell. Only lines the
    C reader rejects go through the per-line reader, which names the
    offending line. Each reads the lines of its own ``open_lines(path)``.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file warns; the line reader handles it
            m = np.loadtxt(open_lines(path), dtype=np.float64, delimiter="\t", comments=None,
                           ndmin=2)
    except (ValueError, Warning):
        m = _read_matrix_lines(path, name, open_lines)
    if m.shape[0] != expect_rows:
        raise IngestError(f"{name}: expected {expect_rows} rows, found {m.shape[0]}")
    return m


def _read_matrix_lines(path: Path, name: str, open_lines) -> np.ndarray:
    rows = []
    for lineno, line in numbered_lines(open_lines(path), name):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split("\t")]
        except ValueError as exc:
            raise IngestError(f"{name}:{lineno}: {exc}") from exc
        if rows and len(row) != len(rows[0]):
            raise IngestError(f"{name}:{lineno}: expected {len(rows[0])} columns, found {len(row)}")
        rows.append(row)
    # 2-D even with no rows, so the column check can read shape[1]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(rows[0]) if rows else 0)


def save_dataset(bundle: DatasetBundle, dir_path) -> None:
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    meta = {
        "name": bundle.name,
        "n": bundle.graph.n,
        "f": bundle.num_features,
        "l": bundle.num_labels,
        "task": bundle.task.value,
    }
    (d / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    with open(d / "graph.tsv", "w", encoding="utf-8") as fh:
        g = bundle.graph
        for u in range(g.n):
            for v in g.neighbors(u):
                if u < v:
                    fh.write(f"{u}\t{v}\n")
    _write_matrix(d / "features.tsv", bundle.x)
    _write_matrix(d / "labels.tsv", bundle.y)


def _json_int(meta: dict, key: str) -> int:
    """``meta[key]`` if it is a JSON integer; a float, string or bool is a TypeError."""
    value = meta[key]
    if type(value) is not int:  # bool is a subclass of int, so isinstance would pass it
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class _Meta:
    n: int
    f: int
    l: int
    task: Task
    name: str


def _parse_meta(d: Path, raw: bytes) -> _Meta:
    try:  # not JSON, not UTF-8, not an object, or a field of the wrong kind
        meta = json.loads(raw.decode("utf-8"))
        n, f, l = (_json_int(meta, key) for key in ("n", "f", "l"))
        return _Meta(n, f, l, Task(meta["task"]), str(meta["name"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"{d}/meta.json: {exc}") from exc


def _check_arrays(d: Path, meta: _Meta, x: np.ndarray, y: np.ndarray) -> None:
    """The checks a bundle passes whether it was parsed or read from the cache."""
    for fname, m, cols in (("features.tsv", x, meta.f), ("labels.tsv", y, meta.l)):
        if m.shape[0] != meta.n:
            raise IngestError(f"{d}/{fname}: expected {meta.n} rows, found {m.shape[0]}")
        if m.shape[1] != cols:
            raise IngestError(f"{d}/{fname}: expected {cols} columns, found {m.shape[1]}")
    if not np.isfinite(x).all():
        row = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        bad = x[row][~np.isfinite(x[row])][0]
        raise IngestError(f"{d}/features.tsv:{_line_of_row(d / 'features.tsv', row)}: "
                          f"non-finite value {float(bad)}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise IngestError(f"{d}/labels.tsv: labels must be binary")
    if meta.task == Task.MULTI_CLASS and not np.all(y.sum(axis=1) == 1):
        raise IngestError(f"{d}/labels.tsv: multi-class rows must be one-hot")


def _line_of_row(path: Path, row: int) -> int:
    """The line number of data row ``row`` (0-based) of a TSV file; blank lines hold no row."""
    rows = (lineno for lineno, line in enumerate(read_lines(path), start=1) if line.strip())
    return next(itertools.islice(rows, row, None))


_BUNDLE_FILES = ("meta.json", "graph.tsv", "features.tsv", "labels.tsv")
_ENTRY_ARRAYS = ("x", "y", "indptr", "indices", "degree")
CACHE_FORMAT = b"hopf-dataset-cache-1"  # part of every key; change it with an entry's layout
CACHE_MAX_BYTES = 2**30  # after a store, least recently used entries go until the rest fit


def cache_root() -> Path | None:
    """``$XDG_CACHE_HOME/hopf/datasets``, by default ``~/.cache/hopf/datasets``;
    None when there is no home directory to default to."""
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        try:
            base = Path.home() / ".cache"
        except RuntimeError:
            return None
    return Path(base) / "hopf" / "datasets"


class _Digest:
    """SHA-256 and length of a file's bytes, fed a block at a time."""

    def __init__(self, data: bytes = b""):
        self.sha = hashlib.sha256(data)
        self.size = len(data)

    def update(self, block: bytes) -> None:
        self.sha.update(block)
        self.size += len(block)


def _file_digest(path: Path) -> _Digest:
    digest = _Digest()
    with open(path, "rb") as fh:
        while block := fh.read(READ_BLOCK):
            digest.update(block)
    return digest


def _sizes_tag(sizes) -> str:
    return ".".join(str(size) for size in sizes)


def _entry_name(digests: dict) -> str:
    """``<sizes>-<key>.npz``: the four files' byte counts, then the SHA-256 over the
    format tag and each file's name and SHA-256. The sizes let a load whose files
    match no entry's skip hashing them for the lookup."""
    key = hashlib.sha256(CACHE_FORMAT)
    for fname in _BUNDLE_FILES:
        key.update(fname.encode() + b"\0" + digests[fname].sha.digest())
    sizes = _sizes_tag(digests[fname].size for fname in _BUNDLE_FILES)
    return f"{sizes}-{key.hexdigest()}.npz"


def _entry_graph(n: int, indptr, indices, degree) -> Graph | None:
    """The entry's graph if its CSR arrays are well formed for ``n`` nodes, else None."""
    ok = (indptr.dtype == indices.dtype == np.int32 and degree.dtype == np.int64
          and indptr.shape == (n + 1,) and indices.ndim == 1 and degree.shape == (n,)
          and indptr[0] == 0 and indptr[-1] == indices.size
          and np.array_equal(np.diff(indptr), degree) and (degree >= 0).all()
          and (indices.size == 0 or (indices.min() >= 0 and indices.max() < n)))
    return Graph(n=n, indptr=indptr, indices=indices, degree=degree) if ok else None


def _load_entry(path: Path, d: Path, meta: _Meta) -> DatasetBundle | None:
    """The bundle kept at ``path``, checked as a parsed one is.

    A missing entry gives None; one that cannot be read or fails a check is
    deleted and gives None as well, so the caller parses the text.
    """
    bundle = None
    try:
        # the file is opened here, so a damaged archive cannot leak numpy's handle
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            x, y, *csr = (z[k] for k in _ENTRY_ARRAYS)
        graph = _entry_graph(meta.n, *csr)
        if graph is not None and x.dtype == y.dtype == np.float64 and x.ndim == y.ndim == 2:
            _check_arrays(d, meta, x, y)
            bundle = DatasetBundle(graph=graph, x=x, y=y, task=meta.task, name=meta.name,
                                   cache_outcome="hit")
    except FileNotFoundError:
        return None
    except Exception:  # noqa: BLE001 - a damaged entry is parsed again, never an error
        pass
    with contextlib.suppress(OSError):
        if bundle is None:
            path.unlink()
        else:
            os.utime(path)  # now the most recently used
    return bundle


def _write_npz(fh, arrays: dict) -> None:
    """The bytes of ``np.savez(fh, **arrays)``, written from each array's own
    buffer rather than from a copy of it."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, a in arrays.items():
            with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(a))
                member.write(np.ascontiguousarray(a).reshape(-1).view(np.uint8))


def _store_entry(root: Path, name: str, bundle: DatasetBundle) -> bool:
    """Keep ``bundle`` as ``root/name``; False when the cache cannot take it.

    The entry is written to a temporary file beside it and renamed into place,
    so a reader never sees half an entry. Least recently used entries are then
    deleted until the directory holds at most ``CACHE_MAX_BYTES``.
    """
    g = bundle.graph
    arrays = dict(zip(_ENTRY_ARRAYS, (bundle.x, bundle.y, g.indptr, g.indices, g.degree)))
    if sum(a.nbytes for a in arrays.values()) > CACHE_MAX_BYTES:
        return False
    target = root / name
    try:
        root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, prefix=f".{name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                _write_npz(fh, arrays)
            os.replace(tmp, target)
            _evict(root, CACHE_MAX_BYTES)
        except BaseException:
            for p in (tmp, target):
                with contextlib.suppress(OSError):
                    os.unlink(p)
            raise
    except OSError:
        return False
    return True


def _evict(root: Path, limit: int) -> None:
    """Delete the least recently modified files in ``root`` until the rest
    hold at most ``limit`` bytes."""
    files = []
    for p in root.iterdir():
        with contextlib.suppress(FileNotFoundError):  # another process may delete it first
            st = p.stat()
            if stat.S_ISREG(st.st_mode):
                files.append((st.st_mtime_ns, st.st_size, p))
    total = sum(size for _, size, _ in files)
    for _, size, p in sorted(files):
        if total <= limit:
            break
        with contextlib.suppress(FileNotFoundError):
            p.unlink()
        total -= size


def load_dataset(dir_path) -> DatasetBundle:
    """Read a dataset directory; features come back unnormalized.

    The bundle's ``cache_outcome`` says how it was read: ``hit`` from the
    binary cache, ``miss`` parsed from the text and kept in the cache, or
    ``unavailable`` parsed and not kept (no writable cache directory). A hit
    runs the same meta, shape, label and feature checks as a parse.
    """
    d = Path(dir_path)
    for fname in _BUNDLE_FILES:
        if not (d / fname).exists():
            raise IngestError(f"{d}: missing {fname}")
    meta_raw = (d / "meta.json").read_bytes()
    meta = _parse_meta(d, meta_raw)
    root = cache_root()
    sizes = _sizes_tag([len(meta_raw)] + [(d / f).stat().st_size for f in _BUNDLE_FILES[1:]])
    if root is not None and any(root.glob(f"{sizes}-*.npz")):
        digests = {f: _file_digest(d / f) for f in _BUNDLE_FILES[1:]}
        digests["meta.json"] = _Digest(meta_raw)
        bundle = _load_entry(root / _entry_name(digests), d, meta)
        if bundle is not None:
            return bundle

    # each file's bytes are hashed as the parser reads them, so the entry is
    # named by the bytes parsed, even if a file changed since the lookup
    parsed = {"meta.json": _Digest(meta_raw)}

    def open_lines(path):
        digest = parsed[Path(path).name] = _Digest()
        return read_lines(path, digest)

    # the row checks confirm n before build_graph allocates O(n) for it
    x = _read_matrix(d / "features.tsv", meta.n, f"{d}/features.tsv", open_lines)
    y = _read_matrix(d / "labels.tsv", meta.n, f"{d}/labels.tsv", open_lines)
    graph = build_graph(load_edge_list(d / "graph.tsv", open_lines), meta.n)
    _check_arrays(d, meta, x, y)
    bundle = DatasetBundle(graph=graph, x=x, y=y, task=meta.task, name=meta.name)
    stored = root is not None and _store_entry(root, _entry_name(parsed), bundle)
    bundle.cache_outcome = "miss" if stored else "unavailable"
    return bundle


def row_normalize(x: np.ndarray) -> np.ndarray:
    """Divide each row by its 1-norm; zero rows pass through unchanged."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.abs(x).sum(axis=1, keepdims=True)
    return np.divide(x, norms, out=x.copy(), where=norms > 0)


# gen_chain's one-hot attributes are a dense n x n matrix: 8 n^2 bytes, 0.8 GB at the cap
CHAIN_MAX_N = 10_000


def gen_chain(n: int) -> DatasetBundle:
    """Path graph with one-hot per-node attributes and a two-class midpoint split.

    The attributes are a dense n x n identity, so n is capped at
    ``CHAIN_MAX_N``; larger n is rejected before anything is allocated.
    """
    if n < 2:
        raise ConfigError(f"chain needs n >= 2, got {n}")
    if n > CHAIN_MAX_N:
        raise ConfigError(f"chain attributes are a dense n x n matrix (8*n^2 bytes); "
                          f"n={n} exceeds the limit of {CHAIN_MAX_N}")
    graph = build_graph([(i, i + 1) for i in range(n - 1)], n)
    x = np.eye(n)
    y = np.zeros((n, 2))
    y[np.arange(n), (np.arange(n) >= n / 2).astype(int)] = 1.0
    return DatasetBundle(graph=graph, x=x, y=y, task=Task.MULTI_CLASS, name=f"chain{n}")


# gen_planted_partition draws a dense n x n matrix: about 18 n^2 bytes, 1.8 GB at the cap
PLANTED_MAX_N = 10_000


def gen_planted_partition(n: int, num_blocks: int, p_in: float, p_out: float,
                          feature_noise: float, rng_seed: int) -> DatasetBundle:
    """Block-model graph: homophilous edges, block-id labels, noisy one-hot features.

    Edges come from one dense n x n uniform draw, so n is capped at
    ``PLANTED_MAX_N``; larger n is rejected before anything is allocated.
    """
    if n > PLANTED_MAX_N:
        raise ConfigError(f"planted partition draws a dense n x n matrix (about 18*n^2 bytes); "
                          f"n={n} exceeds the limit of {PLANTED_MAX_N}")
    if not 0.0 <= p_out < p_in <= 1.0:
        raise ConfigError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if num_blocks < 2 or n < num_blocks:
        raise ConfigError("need at least two blocks and one node per block")
    if not 0.0 <= feature_noise <= 1.0:  # nan fails this too
        raise ConfigError(f"feature noise must lie in [0, 1], got {feature_noise}")
    rng = np.random.default_rng(rng_seed)
    block = (np.arange(n) * num_blocks) // n
    same = block[:, None] == block[None, :]
    prob = np.where(same, p_in, p_out)
    draw = rng.random((n, n))
    upper = np.triu(draw < prob, k=1)
    edges = np.argwhere(upper)
    graph = build_graph(edges, n)
    onehot = np.zeros((n, num_blocks))
    onehot[np.arange(n), block] = 1.0
    flips = rng.random((n, num_blocks)) < feature_noise
    x = np.abs(onehot - flips.astype(np.float64))
    y = np.zeros((n, num_blocks))
    y[np.arange(n), block] = 1.0
    return DatasetBundle(graph=graph, x=x, y=y, task=Task.MULTI_CLASS,
                         name=f"planted_{n}x{num_blocks}")


def gen_benchmark_graph(n: int = 100_000, m_edges: int = 500_000, f: int = 100,
                        l: int = 10, rng_seed: int = 0) -> DatasetBundle:
    """Preferential-attachment graph with an exact edge count, for timing runs.

    Node i joins by attaching to distinct existing nodes sampled proportionally
    to degree, so the result is connected and heavy-tailed. Features are random
    Gaussians and labels random multi-label draws; the bundle exists to be
    timed, not classified well.
    """
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    if m_edges > n * (n - 1) // 2:
        raise ConfigError(f"{m_edges} edges do not fit in a simple graph on {n} nodes")
    if m_edges < n - 1:
        raise ConfigError(f"need at least n-1 = {n - 1} edges to stay connected")
    rng = np.random.default_rng(rng_seed)

    # Per-node attachment budget: node i may attach to at most i predecessors.
    budget = np.minimum(np.arange(1, n), m_edges // (n - 1)).astype(np.int64)
    budget = np.maximum(budget, 1)
    shortfall = m_edges - int(budget.sum())
    i = n - 2  # distribute the remainder where capacity allows, newest first
    while shortfall > 0:
        room = (i + 1) - budget[i]
        add = min(room, shortfall)
        budget[i] += add
        shortfall -= add
        i -= 1
        if i < 0:
            raise ConfigError("edge budget cannot be distributed; lower m_edges")

    endpoints = np.empty(2 * m_edges, dtype=np.int64)
    num_endpoints = 0
    edges_u = np.empty(m_edges, dtype=np.int64)
    edges_v = np.empty(m_edges, dtype=np.int64)
    e = 0
    for node in range(1, n):
        want = int(budget[node - 1])
        if want >= node:
            chosen = np.arange(node)
        else:
            picked: set[int] = set()
            while len(picked) < want:
                if num_endpoints and rng.random() < 0.9:
                    cand = int(endpoints[rng.integers(num_endpoints)])
                else:
                    cand = int(rng.integers(node))
                picked.add(cand)
            chosen = np.fromiter(picked, dtype=np.int64)
        for tgt in chosen:
            edges_u[e] = node
            edges_v[e] = tgt
            e += 1
            endpoints[num_endpoints] = node
            endpoints[num_endpoints + 1] = tgt
            num_endpoints += 2
    assert e == m_edges
    graph = build_graph(np.column_stack([edges_u, edges_v]), n)
    x = rng.standard_normal((n, f))
    y = (rng.random((n, l)) < 0.3).astype(np.float64)
    return DatasetBundle(graph=graph, x=x, y=y, task=Task.MULTI_LABEL,
                         name=f"benchmark_{n}_{m_edges}")
