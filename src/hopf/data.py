"""Dataset bundles: on-disk format, binary cache, feature normalization, synthetic generators.

A dataset directory holds four files: ``meta.json`` (name, n, f, l, task),
``graph.tsv`` (tab-separated edge list), ``features.tsv`` and ``labels.tsv``
(dense tab-separated rows, one node per line, node order = id order). The
format round-trips byte-identically through save/load. One reader,
``_read_table``, parses all three TSV files, 64 KiB at a time, and names the
file and line of whatever it rejects; ``load_edge_list`` states the edge
format.

``load_dataset`` keeps a binary copy of every bundle it parses under
:func:`cache_root`, one uncompressed ``.npz`` per bundle. Its key is the
SHA-256 over the four files' SHA-256, each taken over the bytes the parser
read; its name also carries the byte counts the load's ``stat`` gave, a
pre-filter that lets a load matching no entry's sizes skip the hashing. A
later load of the same bytes reads that copy instead of parsing the text, and
runs every check on it again.
"""

from __future__ import annotations

import codecs
import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import stat
import tempfile
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ConfigError, IngestError
from .graph import CSR_INDEX_MAX, Graph, build_graph, first_edge_out_of_range
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
    # load_dataset's hex SHA-256 of each bundle file's bytes, by file name
    digests: dict[str, str] | None = None

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


READ_BLOCK = 1 << 16  # read_lines reads files this many bytes at a time


def read_lines(path, digest=None):
    """The lines of a UTF-8 text file, without their ends, read a block at a time.

    Line ends are those of text mode (``\\n``, ``\\r\\n`` or ``\\r``). Each block of
    bytes goes to ``digest.update``, if a digest is given, as it is read. The
    lines come out of one list per block, so numpy's C reader iterates them
    without running Python code per line, and only a block of the file is held
    at a time.
    """
    return itertools.chain.from_iterable(_line_blocks(path, digest))


def _line_blocks(path, digest):
    decode = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(),
                                          translate=True).decode
    tail = ""
    with open(path, "rb") as fh:
        while block := fh.read(READ_BLOCK):
            if digest is not None:
                digest.update(block)
            lines = (tail + decode(block)).split("\n")
            tail = lines.pop()
            yield lines
    tail += decode(b"", final=True)
    if tail:
        yield [tail]


def _read_table(path, dtype, digest=None, comments=None, width=None) -> np.ndarray:
    """The tab-separated rows of ``path`` as a 2-D ``dtype`` array.

    numpy's C reader parses the lines of ``read_lines(path, digest)``; its values
    are bit-identical to ``float()`` or ``int()`` of each cell. Only when it
    rejects them, or finds other than ``width`` columns, does the line reader
    run, on a second read of the file, to name the offending line: a bad cell, a
    wrong column count, an integer beyond int64, or bytes that are not UTF-8.
    ``comments`` starts a comment; a blank line holds no row. Whichever pass
    returns the table, ``digest`` ends up holding the SHA-256 of its bytes, or of
    no file's bytes if the file changed between the passes.
    """
    lines = read_lines(path, digest)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file warns; the line reader handles it
            table = np.loadtxt(lines, dtype=dtype, delimiter="\t", comments=comments, ndmin=2)
        if width in (None, table.shape[1]):
            return table
    except (ValueError, Warning):
        pass
    parse = int if np.issubdtype(dtype, np.integer) else float
    reread = None if digest is None else hashlib.sha256()
    rows = []
    lineno = 0
    try:
        for lineno, line in enumerate(read_lines(path, reread), start=1):
            if comments:  # a comment goes, and so does the whitespace around the cells
                line = line.split(comments, 1)[0].strip()
            if not line.strip():
                continue
            cells = line.split("\t")
            width = width or len(cells)
            if len(cells) != width:
                raise IngestError(f"{path}:{lineno}: expected {width} columns, "
                                  f"found {len(cells)}")
            try:
                row = [parse(cell) for cell in cells]
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: {exc}") from exc
            if parse is int and not -2**63 <= min(row) <= max(row) < 2**63:
                raise IngestError(f"{path}:{lineno}: value out of the int64 range")
            rows.append(row)
    except UnicodeDecodeError as exc:
        # lines are decoded a block at a time, so the bad byte lies in a line after this one
        raise IngestError(f"{path}: not UTF-8 text after line {lineno} ({exc.reason})") from exc
    if digest is not None:  # the table came from the second read: name it by those bytes
        with contextlib.suppress(UnicodeDecodeError):
            collections.deque(lines, maxlen=0)  # numpy's reader may have stopped early
        if digest.digest() != reread.digest():  # the file changed between the two reads
            digest.update(reread.digest())  # so the key matches no file's bytes
    # 2-D even with no rows, so the column checks can read shape[1]
    return np.asarray(rows, dtype=dtype).reshape(len(rows), width or 0)


def _line_of_row(path, row: int, comments: str | None = None) -> int:
    """The line number of data row ``row`` (0-based) of a TSV file, counted as
    :func:`_read_table` counts rows: a blank line, or one that ``comments``
    makes blank, holds no row."""
    rows = (lineno for lineno, line in enumerate(read_lines(path), start=1)
            if (line.split(comments, 1)[0] if comments else line).strip())
    return next(itertools.islice(rows, row, None))


def load_edge_list(path, digest=None, n: int | None = None) -> np.ndarray:
    """Parse a tab-separated edge-list file into an (m, 2) int64 array; ``#`` starts a comment.

    Given ``n``, an endpoint outside [0, n) is an ``IngestError`` that names
    its line (:func:`_line_of_row`; a comment or blank line holds no edge)."""
    edges = _read_table(path, np.int64, digest, comments="#", width=2)
    bad = None if n is None else first_edge_out_of_range(edges, n)
    if bad is not None:
        raise IngestError(f"{path}:{_line_of_row(path, bad, '#')}: edge ({edges[bad, 0]}, "
                          f"{edges[bad, 1]}) out of range for n={n}")
    return edges


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


_BUNDLE_FILES = ("meta.json", "graph.tsv", "features.tsv", "labels.tsv")
# an entry's members in write order, each with the one (native) dtype it may hold
_ENTRY_DTYPES = dict(x="f8", y="f8", indptr="i4", indices="i4", degree="i8")
CACHE_FORMAT = b"hopf-dataset-cache-1"  # part of every key; change it with an entry's layout
CACHE_MAX_BYTES = 2**30  # after a store, least recently used entries go until the rest fit


def cache_root() -> Path | None:
    """``$XDG_CACHE_HOME/hopf/datasets``, by default ``~/.cache/hopf/datasets``;
    None when there is no home directory to default to. As the XDG spec asks, a
    relative ``XDG_CACHE_HOME`` is ignored."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        try:
            base = Path.home() / ".cache"
        except RuntimeError:
            return None
    return Path(base) / "hopf" / "datasets"


def _file_digest(path: Path):
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(READ_BLOCK):
            sha.update(block)
    return sha


def _entry_name(sizes: str, shas: dict) -> str:
    """``<sizes>-<key>.npz``: the four files' byte counts as the load's ``stat`` read
    them, then the SHA-256 over the format tag and each file's name and SHA-256. The
    sizes let a load whose files match no entry's skip hashing them for the lookup."""
    key = hashlib.sha256(CACHE_FORMAT)
    for fname in _BUNDLE_FILES:
        key.update(fname.encode() + b"\0" + shas[fname].digest())
    return f"{sizes}-{key.hexdigest()}.npz"


def _entry_graph(n: int, z: dict) -> Graph | None:
    """The graph of entry arrays ``z`` if its CSR arrays are well formed for ``n`` nodes."""
    indptr, indices, degree = z["indptr"], z["indices"], z["degree"]
    ok = (indptr.shape == (n + 1,) and indices.ndim == 1 and degree.shape == (n,)
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
        z = read_npz(path, _ENTRY_DTYPES.get)
        x, y, graph = z["x"], z["y"], _entry_graph(meta.n, z)
        if graph is not None and x.ndim == y.ndim == 2:
            _check_arrays(d, meta, x, y)
            bundle = DatasetBundle(graph=graph, x=x, y=y, task=meta.task, name=meta.name,
                                   cache_outcome="hit")
    except Exception:  # noqa: BLE001 - a missing or damaged entry is parsed again
        pass
    with contextlib.suppress(OSError):
        if bundle is None:
            path.unlink()
        else:
            os.utime(path)  # now the most recently used
    return bundle


def write_npz(fh, arrays: dict) -> None:
    """``arrays`` as an uncompressed ``.npz`` from each array's own buffer, every
    member C-ordered: for C-ordered arrays, the very bytes numpy's ``savez`` writes."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, a in arrays.items():
            a = np.ascontiguousarray(a)
            with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(a))
                member.write(a.reshape(-1).view(np.uint8))


def read_npz(path, dtype_of) -> dict[str, np.ndarray]:
    """The arrays of the uncompressed ``.npz`` at ``path``, by member name.

    A header that claims a dtype other than ``dtype_of(name)`` (None refuses the member)
    or more bytes than the file holds is refused before any data is read. numpy's
    ``read_array`` then reads the member in chunks to its end, so zip checks its CRC-32.
    Every archive refused is an ArgumentError that names ``path``: for such a header,
    data past the claimed array, a name given twice, or a file that cannot be read or
    is no zip archive (zipfile raises RuntimeError if it is encrypted)."""
    arrays = {}
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as archive:
            for info in archive.infolist():
                if (name := info.filename.removesuffix(".npy")) in arrays:
                    raise ArgumentError(f"{path}: member {name!r} appears twice")
                with archive.open(info) as member:
                    version = np.lib.format.read_magic(member)
                    shape, _, dtype = np.lib.format.read_array_header_1_0(member)
                    want = dtype_of(name)
                    if (version != (1, 0) or want is None or dtype != want
                            or dtype.itemsize * math.prod(shape) > os.fstat(fh.fileno()).st_size):
                        raise ArgumentError(f"{path}: {info.filename} claims {dtype} {shape}, "
                                            f"not {want} data the file can hold")
                    member.seek(0)  # read_array parses the header again
                    arrays[name] = np.lib.format.read_array(member, allow_pickle=False)
                    if member.read(1):
                        raise ArgumentError(f"{path}: {info.filename} runs past its matrix")
    except (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile) as exc:
        raise ArgumentError(f"{path}: unreadable .npz archive ({exc})") from exc
    return arrays


def _store_entry(root: Path, name: str, bundle: DatasetBundle) -> bool:
    """Keep ``bundle`` as ``root/name``; False when the cache cannot take it.

    The entry is written to a temporary file beside it and renamed into place,
    so a reader never sees half an entry. Least recently used entries are then
    deleted until the directory holds at most ``CACHE_MAX_BYTES``.
    """
    g = bundle.graph
    arrays = dict(zip(_ENTRY_DTYPES, (bundle.x, bundle.y, g.indptr, g.indices, g.degree)))
    if sum(a.nbytes for a in arrays.values()) > CACHE_MAX_BYTES:
        return False
    target = root / name
    try:
        root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, prefix=f".{name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write_npz(fh, arrays)
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
    runs the same meta, shape, label and feature checks as a parse. The
    bundle's ``digests`` are the four files' SHA-256, from the bytes the hit's
    lookup or the parse read.
    """
    d = Path(dir_path)
    if not d.is_dir():
        raise IngestError(f"{d}: not a directory")
    for fname in _BUNDLE_FILES:
        if not (d / fname).is_file():  # a directory or a FIFO in its place, say
            raise IngestError(f"{d}/{fname}: not a regular file" if (d / fname).exists()
                              else f"{d}: missing {fname}")
    meta_raw = (d / "meta.json").read_bytes()
    meta = _parse_meta(d, meta_raw)
    root = cache_root()
    # the stat sizes pre-filter the lookup; a file whose size changes during the
    # parse leaves an entry under sizes it no longer has, which no lookup reaches
    sizes = ".".join(map(str, [len(meta_raw)] + [(d / f).stat().st_size
                                                 for f in _BUNDLE_FILES[1:]]))
    shas = {"meta.json": hashlib.sha256(meta_raw)}
    if root is not None and any(root.glob(f"{sizes}-*.npz")):
        shas.update((f, _file_digest(d / f)) for f in _BUNDLE_FILES[1:])
        bundle = _load_entry(root / _entry_name(sizes, shas), d, meta)
        if bundle is not None:
            bundle.digests = {f: sha.hexdigest() for f, sha in shas.items()}
            return bundle

    # each file's bytes are hashed as the parser reads them, so the entry is
    # named by the bytes parsed, even if a file changed since the lookup
    shas.update((f, hashlib.sha256()) for f in _BUNDLE_FILES[1:])
    x, y = (_read_table(f"{d}/{f}", np.float64, shas[f]) for f in ("features.tsv", "labels.tsv"))
    _check_arrays(d, meta, x, y)  # the row checks confirm n before build_graph allocates O(n)
    graph = build_graph(load_edge_list(f"{d}/graph.tsv", shas["graph.tsv"], meta.n), meta.n)
    bundle = DatasetBundle(graph=graph, x=x, y=y, task=meta.task, name=meta.name,
                           digests={f: sha.hexdigest() for f, sha in shas.items()})
    stored = root is not None and _store_entry(root, _entry_name(sizes, shas), bundle)
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
    if 2 * m_edges > CSR_INDEX_MAX:  # before the endpoint arrays, 32 bytes per edge
        raise ConfigError(f"{m_edges} edges are {2 * m_edges} adjacency entries, over the "
                          f"int32 CSR limit of {CSR_INDEX_MAX}")
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
