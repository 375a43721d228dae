"""Immutable sparse graphs in CSR form, K-hop subgraph extraction and neighbor sampling.

Graphs are simple, undirected and unweighted; edges are stored symmetrically.
Subgraphs order their nodes by expansion frontier (seeds first, then each hop's
new nodes in ascending global id), which makes every downstream computation
reproducible for a fixed seed set. This module reads no files: the edge-list
format is parsed in :mod:`hopf.data`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, IngestError


class NormScheme(Enum):
    """Neighbor aggregation schemes for the propagation step.

    MEAN      row-normalized adjacency D^-1 A
    SYM_SELF  symmetric normalization with implicit self weight, (D+I)^-1/2 A (D+I)^-1/2
    COUNT     raw 0/1 adjacency
    MAXPOOL   element-wise max over neighbors (no matrix form; handled in the kernel)
    """

    MEAN = "mean"
    SYM_SELF = "sym_self"
    COUNT = "count"
    MAXPOOL = "maxpool"


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class _CSR:
    """Read-only CSR adjacency of ``n`` nodes plus one degree per node.

    ``indptr`` and ``indices`` are int32, the index type scipy's sparse
    products take without a copy; ``degree`` is int64.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    degree: np.ndarray

    def __post_init__(self):
        _freeze(self.indptr, self.indices, self.degree)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]


@dataclass(frozen=True)
class Graph(_CSR):
    """Undirected graph as symmetric CSR plus a degree vector."""

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    @property
    def avg_degree(self) -> float:
        return self.indices.size / self.n if self.n else 0.0


@dataclass(frozen=True)
class Subgraph(_CSR):
    """A ball around seed nodes: local CSR indices and the local-to-global id map.

    ``frontier_offsets[h]`` is the start of hop-h nodes inside ``global_ids``;
    seeds occupy the prefix ``global_ids[:frontier_offsets[1]]``. Because of
    this order, the nodes within h hops of the seeds are the row prefix
    ``[:frontier_offsets[h + 1]]``: layer k of a depth-C kernel holds only
    the prefix ``[:frontier_offsets[C - k + 1]]`` (see
    :func:`hopf.kernels.layer_rows`).

    Row v holds the neighbors node v drew when the ball expanded it (see
    :func:`sample_neighbors`); nodes of the last frontier were not expanded,
    and their rows are empty. ``degree`` holds each node's degree in the
    whole graph, as on :class:`Graph`, also where a sampled or empty row holds
    fewer entries.
    """

    global_ids: np.ndarray
    frontier_offsets: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        _freeze(self.global_ids)

    @property
    def num_seeds(self) -> int:
        return self.frontier_offsets[1]


# the int32 CSR holds at most this many nodes and stored adjacency entries
CSR_INDEX_MAX = np.iinfo(np.int32).max


def first_edge_out_of_range(pairs: np.ndarray, n: int) -> int | None:
    """The index of the first (u, v) row of ``pairs`` with an endpoint outside [0, n), or None."""
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        return int(np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))[0])
    return None


def build_graph(edge_list, n: int) -> Graph:
    """Build a symmetric CSR graph from an iterable of (u, v) pairs.

    Duplicate edges are collapsed and self-loops dropped (a node's own
    contribution enters through the kernel's node path, never the adjacency).
    More than ``CSR_INDEX_MAX`` nodes or stored entries (twice the edge
    count) do not fit the int32 CSR and are rejected.
    """
    if not 0 <= n <= CSR_INDEX_MAX:
        raise IngestError(f"node count must lie in [0, {CSR_INDEX_MAX}], got {n}")
    pairs = np.asarray(edge_list if isinstance(edge_list, np.ndarray) else list(edge_list),
                       dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise IngestError("edge list must contain (u, v) pairs")
    bad = first_edge_out_of_range(pairs, n)
    if bad is not None:
        raise IngestError(f"edge ({pairs[bad, 0]}, {pairs[bad, 1]}) out of range for n={n}")

    pairs = pairs[pairs[:, 0] != pairs[:, 1]]  # strip self-loops
    if 2 * pairs.shape[0] > CSR_INDEX_MAX:
        raise IngestError(f"{pairs.shape[0]} edges exceed the int32 CSR limit of "
                          f"{CSR_INDEX_MAX} adjacency entries")
    if pairs.shape[0]:
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        adj = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
        adj.data[:] = 1.0  # collapse duplicates
        adj.sort_indices()
    else:
        adj = sp.csr_matrix((n, n), dtype=np.float64)

    return Graph(
        n=n,
        indptr=adj.indptr.astype(np.int32, copy=False),
        indices=adj.indices.astype(np.int32, copy=False),
        degree=np.diff(adj.indptr).astype(np.int64),
    )


def _check_seeds(n: int, seeds) -> np.ndarray:
    """Distinct seed ids as int64, in order of first occurrence.

    Only an integer array is a seed set: a float, bool or string id is an
    error, never rounded or read as a mask.
    """
    seeds = np.asarray(seeds)
    if seeds.size == 0:
        raise ArgumentError("seed set must be non-empty")
    if seeds.ndim != 1 or not np.issubdtype(seeds.dtype, np.integer):
        raise ArgumentError(f"seeds must be a 1-D sequence of integer node ids, "
                            f"got dtype {seeds.dtype} and shape {seeds.shape}")
    if seeds.min() < 0 or seeds.max() >= n:
        raise ArgumentError(f"seed out of range for n={n}")
    _, first = np.unique(seeds, return_index=True)
    return seeds[np.sort(first)].astype(np.int64, copy=False)


def _gather_neighbors(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of ``nodes``, in one CSR gather."""
    starts = g.indptr[nodes]
    lens = g.indptr[nodes + 1] - starts
    # position i of node v's run maps to starts[v] + i
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return g.indices[shift + np.arange(shift.size)]


def _expand(g: Graph, seeds, caps, rng) -> Subgraph:
    """Frontier-ordered BFS from ``seeds``, one hop per cap, and the ball's CSR.

    A node whose degree exceeds the hop's cap draws ``cap`` neighbors
    uniformly without replacement, one ``rng.choice`` per such node in
    frontier order; every other node draws all of its neighbors. A node's
    row is what it drew, in ascending global id, mapped to local ids, so a
    row does not depend on which other nodes share the ball. Nodes of the
    last frontier draw nothing, and their rows are empty.
    """
    seeds = _check_seeds(g.n, seeds)
    local = np.full(g.n, -1, dtype=np.int32)
    local[seeds] = np.arange(seeds.size)
    order = [seeds]
    offsets = [0, seeds.size]
    counts, cols = [], [np.empty(0, dtype=np.int32)]
    frontier = seeds
    for cap in caps:
        degree = g.degree[frontier]
        over = degree > cap
        lens = np.minimum(degree, cap)
        drawn = _gather_neighbors(g, frontier[~over])
        if over.any():
            rows = np.empty(lens.sum(), dtype=drawn.dtype)
            rows[np.repeat(~over, lens)] = drawn
            for v, end in zip(frontier[over], np.cumsum(lens)[over]):
                rows[end - cap : end] = np.sort(rng.choice(g.neighbors(v), size=cap,
                                                           replace=False))
            drawn = rows
        hit = np.zeros(g.n, dtype=bool)
        hit[drawn] = True
        hit &= local < 0
        new = np.flatnonzero(hit)
        local[new] = np.arange(offsets[-1], offsets[-1] + new.size)
        counts.append(lens)
        cols.append(local[drawn])
        order.append(new)
        offsets.append(offsets[-1] + new.size)
        frontier = new
    counts.append(np.zeros(frontier.size, dtype=np.int64))
    order = np.concatenate(order)
    return Subgraph(
        n=order.size,
        indptr=np.concatenate(([0], np.cumsum(np.concatenate(counts)))).astype(np.int32),
        indices=np.concatenate(cols),
        global_ids=order,
        frontier_offsets=tuple(offsets),
        degree=g.degree[order],
    )


def khop_subgraph(g: Graph, seeds, K: int) -> Subgraph:
    """BFS ball of radius K around ``seeds``; the row of each node within K-1
    hops is its whole neighbor list."""
    if K < 0:
        raise ArgumentError(f"K must be >= 0, got {K}")
    # no degree exceeds n, so no hop ever samples and the rng is never drawn
    return _expand(g, seeds, [g.n] * K, rng=None)


def sample_neighbors(g: Graph, per_hop_caps, seeds,
                     rng_seed: int | np.random.SeedSequence) -> Subgraph:
    """``len(per_hop_caps)``-hop expansion keeping at most ``per_hop_caps[h]``
    sampled neighbors per node.

    Sampling is uniform without replacement and only kicks in where the degree
    exceeds the cap, so generous caps reproduce :func:`khop_subgraph` exactly.
    A node expanded at hop h keeps its sample as its row, so the row holds
    ``min(degree, per_hop_caps[h])`` entries.
    """
    caps = [int(c) for c in per_hop_caps]
    if any(c < 1 for c in caps):
        raise ArgumentError("per-hop caps must be >= 1")
    # no degree exceeds n, so a larger cap samples nothing more
    return _expand(g, seeds, [min(c, g.n) for c in caps], np.random.default_rng(rng_seed))


def normalize_adjacency(sub, scheme: NormScheme, start: int = 0, stop: int | None = None,
                        cols: int | None = None) -> sp.csr_matrix:
    """Weight a (sub)graph's adjacency per ``scheme``.

    Rows ``start`` to ``stop`` (all by default) are weighted, and come back as
    a ``(stop - start, cols)`` matrix (``cols`` defaults to every column; each
    column index in those rows must be below it). A row's weights are the same
    bits however many rows are weighted with it.

    MEAN rows with entries sum to one; an empty row (an isolated node, or one
    on a ball's last frontier) stays zero, so its neighbor term vanishes and
    the kernel's node path still contributes. MEAN and COUNT weigh each row
    by its own entries: a BFS ball's row is the node's whole neighborhood, a
    sampled ball's row is the node's sample. In K8, seed 0 with caps [2, 2]
    gets a 6-node ball whose seed and hop-1 rows each mean over 2 neighbors.
    SYM_SELF takes ``sub.degree``, the degrees in the whole graph,
    incremented by one for the implicit self weight, so a row's weights do
    not depend on how far the ball reaches past it. MAXPOOL has no matrix
    form.
    """
    if scheme == NormScheme.MAXPOOL:
        raise ArgumentError("maxpool is not a matrix normalization; it is applied inside the kernel")
    stop = sub.n if stop is None else stop
    lo, hi = sub.indptr[start], sub.indptr[stop]
    indptr, indices = sub.indptr[start : stop + 1], sub.indices[lo:hi]
    if start:
        indptr = indptr - lo
    counts = np.diff(indptr)
    if scheme == NormScheme.COUNT:
        data = np.ones(hi - lo)
    elif scheme == NormScheme.MEAN:
        deg = counts.astype(np.float64)
        data = np.repeat(np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0), counts)
    elif scheme == NormScheme.SYM_SELF:
        s = 1.0 / np.sqrt(sub.degree + 1.0)
        data = np.repeat(s[start:stop], counts) * s[indices]
    else:
        raise ArgumentError(f"unknown normalization scheme {scheme!r}")
    return sp.csr_matrix((data, indices, indptr),
                         shape=(stop - start, sub.n if cols is None else cols))
