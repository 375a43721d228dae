"""Dataset bundles: on-disk format, feature normalization, synthetic generators.

A dataset directory holds four files: ``meta.json`` (name, n, f, l, task),
``graph.tsv`` (tab-separated edge list), ``features.tsv`` and ``labels.tsv``
(dense tab-separated rows, one node per line, node order = id order). The
format round-trips byte-identically through save/load.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestError
from .graph import Graph, build_graph, load_edge_list
from .metrics import Task


@dataclass
class DatasetBundle:
    graph: Graph
    x: np.ndarray
    y: np.ndarray
    task: Task
    name: str

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


def _read_matrix(path: Path, expect_rows: int, name: str) -> np.ndarray:
    """Dense float64 rows of a tab-separated file, parsed by numpy's C reader.

    The values are bit-identical to ``float()`` of each cell. Only a file the
    C reader rejects goes through the per-line reader, which names the
    offending line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file warns; the line reader handles it
            m = np.loadtxt(path, dtype=np.float64, delimiter="\t", comments=None, ndmin=2,
                           encoding="utf-8")
    except (ValueError, Warning):
        m = _read_matrix_lines(path, name)
    if m.shape[0] != expect_rows:
        raise IngestError(f"{name}: expected {expect_rows} rows, found {m.shape[0]}")
    return m


def _read_matrix_lines(path: Path, name: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split("\t")]
        except ValueError as exc:
            raise IngestError(f"{name}:{lineno}: {exc}") from exc
        if rows and len(row) != len(rows[0]):
            raise IngestError(f"{name}:{lineno}: expected {len(rows[0])} columns, found {len(row)}")
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


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


def load_dataset(dir_path) -> DatasetBundle:
    """Read a dataset directory; features come back unnormalized."""
    d = Path(dir_path)
    for fname in ("meta.json", "graph.tsv", "features.tsv", "labels.tsv"):
        if not (d / fname).exists():
            raise IngestError(f"{d}: missing {fname}")
    try:  # not JSON, not UTF-8, not an object, or a field of the wrong kind
        meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
        n, f, l = (_json_int(meta, key) for key in ("n", "f", "l"))
        task = Task(meta["task"])
        name = str(meta["name"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"{d}/meta.json: {exc}") from exc
    # the row checks confirm n before build_graph allocates O(n) for it
    x = _read_matrix(d / "features.tsv", n, f"{d}/features.tsv")
    y = _read_matrix(d / "labels.tsv", n, f"{d}/labels.tsv")
    graph = build_graph(load_edge_list(d / "graph.tsv"), n)
    if x.shape[1] != f:
        raise IngestError(f"{d}/features.tsv: expected {f} columns, found {x.shape[1]}")
    if y.shape[1] != l:
        raise IngestError(f"{d}/labels.tsv: expected {l} columns, found {y.shape[1]}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise IngestError(f"{d}/labels.tsv: labels must be binary")
    if task == Task.MULTI_CLASS and not np.all(y.sum(axis=1) == 1):
        raise IngestError(f"{d}/labels.tsv: multi-class rows must be one-hot")
    return DatasetBundle(graph=graph, x=x, y=y, task=task, name=name)


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
