"""The generic propagation kernel, its named instantiations, and exact gradients.

Every model here is one parameterization of the same per-layer update

    h_k = sigma( alpha * Phi_k @ W_k_phi  +  beta * F(A) @ Psi_k @ W_k_psi )

where Phi_k is the node path (the layer-0 embedding h_0 or the previous
layer), Psi_k the neighbor path (previous layer, a label channel, or both
concatenated), and F(A) one of the :class:`~hopf.graph.NormScheme` weightings
or an element-wise maxpool. The node and neighbor terms combine by summation
or by width-doubling concatenation. The label channel is a non-differentiable
input: the backward pass never produces a gradient for it.

The backward pass is hand-derived reverse mode over this composition and is
checked against a central finite-difference oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import NPZ_ERRORS, read_npz, write_npz
from .errors import ArgumentError, ConfigError, ShapeError, StateError
from .graph import CSR_INDEX_MAX, Graph, NormScheme, Subgraph, normalize_adjacency
from .metrics import Task
from .numerics import dropout_mask, glorot_init, sigmoid, softmax_rows


class Phi(Enum):
    H0 = "h0"
    H_PREV = "h_prev"
    NONE = "none"


class Psi(Enum):
    H_PREV = "h_prev"
    LABELS = "labels"
    H_PREV_CONCAT_LABELS = "h_prev_concat_labels"
    NONE = "none"


class AlphaMode(Enum):
    ONE = "one"
    INV_DEG_SELF = "inv_deg_self"  # per-node 1/(deg+1)


class Combine(Enum):
    SUM = "sum"
    CONCAT = "concat"


@dataclass(frozen=True)
class KernelSpec:
    """One row of the instantiation table, plus depth/width configuration.

    A path exists exactly when its ``phi``/``psi`` is not ``NONE``; beta is 1
    on every neighbour path, and ``alpha`` scales the node path.
    """

    name: str
    phi: Phi
    psi: Psi
    norm: NormScheme | None
    tie_weights: bool
    alpha: AlphaMode = AlphaMode.ONE
    combine: Combine = Combine.SUM
    skip_connections: bool = False
    depth: int = 2
    hidden_dim: int = 16

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.depth > CSR_INDEX_MAX:  # a ball has no more hops than the int32 CSR holds nodes
            raise ConfigError(f"depth must be at most {CSR_INDEX_MAX}, got {self.depth}")
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.skip_connections and self.combine is not Combine.SUM:
            raise ConfigError("skip connections require summation combine")
        one_path = self.phi is Phi.NONE or self.psi is Psi.NONE
        if one_path and self.combine is Combine.CONCAT:
            raise ConfigError("concat combine needs both a node and a neighbor path")
        if one_path and self.tie_weights:
            raise ConfigError("tied weights need both a node and a neighbor path")
        if self.phi is Phi.NONE and self.psi is Psi.NONE:
            raise ConfigError("kernel must keep at least one of the node/neighbor paths")
        if self.phi is Phi.NONE and self.alpha is not AlphaMode.ONE:
            raise ConfigError("alpha scales the node path, and this kernel has none")

    def check_depth(self, n: int) -> None:
        """Refuse a depth above a graph's ``n`` nodes: a ball stops growing after n - 1 hops."""
        if self.depth > n:
            raise ConfigError(f"{self.name} depth {self.depth} exceeds the graph's {n} nodes; "
                              "a ball stops growing after n - 1 hops")

    @property
    def uses_labels(self) -> bool:
        return self.psi in (Psi.LABELS, Psi.H_PREV_CONCAT_LABELS)

    @property
    def has_node_path(self) -> bool:
        return self.phi is not Phi.NONE

    @property
    def has_neighbor_path(self) -> bool:
        return self.psi is not Psi.NONE


# Canonical registry. Field order mirrors the instantiation table:
# (phi, norm, psi, tie_weights), alpha where it is not 1, then artifact-level settings.
REGISTRY: dict[str, dict] = {
    "bl_node": dict(phi=Phi.H0, norm=None, psi=Psi.NONE, tie_weights=False),
    "bl_neigh": dict(phi=Phi.NONE, norm=NormScheme.MEAN, psi=Psi.H_PREV, tie_weights=False),
    "ss_ica": dict(phi=Phi.H0, norm=NormScheme.MEAN, psi=Psi.LABELS, tie_weights=False),
    "gcn": dict(phi=Phi.H_PREV, norm=NormScheme.SYM_SELF, psi=Psi.H_PREV, tie_weights=True,
                alpha=AlphaMode.INV_DEG_SELF),
    "gcn_s": dict(phi=Phi.H_PREV, norm=NormScheme.SYM_SELF, psi=Psi.H_PREV, tie_weights=True,
                  alpha=AlphaMode.INV_DEG_SELF, skip_connections=True),
    "gcn_mean": dict(phi=Phi.H_PREV, norm=NormScheme.MEAN, psi=Psi.H_PREV, tie_weights=True),
    "gs_mean": dict(phi=Phi.H_PREV, norm=NormScheme.MEAN, psi=Psi.H_PREV, tie_weights=False,
                    combine=Combine.CONCAT),
    "gs_max": dict(phi=Phi.H_PREV, norm=NormScheme.MAXPOOL, psi=Psi.H_PREV, tie_weights=False,
                   combine=Combine.CONCAT),
    "nip_mean": dict(phi=Phi.H0, norm=NormScheme.MEAN, psi=Psi.H_PREV, tie_weights=False),
    "i_nip_mean": dict(phi=Phi.H0, norm=NormScheme.MEAN, psi=Psi.H_PREV_CONCAT_LABELS,
                       tie_weights=False),
}


def make_kernel(name: str, depth: int = 2, hidden_dim: int = 16) -> KernelSpec:
    """Construct a registry kernel by canonical name.

    ss_ica always runs with a single aggregation layer; the requested depth is
    ignored for it.
    """
    if name not in REGISTRY:
        raise ConfigError(f"unknown model {name!r}; known: {', '.join(REGISTRY)}")
    row = REGISTRY[name]
    if name == "ss_ica":
        depth = 1
    return KernelSpec(name=name, depth=depth, hidden_dim=hidden_dim, **row)


# the iterative loop needs a label channel to feed back, so these are its models
ITERATIVE_MODELS = tuple(n for n in REGISTRY if make_kernel(n).uses_labels)


def param_shapes(spec: KernelSpec, num_features: int, num_labels: int) -> dict[str, tuple[int, int]]:
    """Each learnable matrix's (fan_in, fan_out), by name in save order (see :class:`ModelWeights`).

    h_0 is ``hidden_dim`` wide and h_1..h_C are ``wl``'s fan-in wide: twice that
    for concat, else the same (skip connections require SUM, so their layers
    keep the width they add to)."""
    d = spec.hidden_dim
    width = 2 * d if spec.combine is Combine.CONCAT else d
    shapes = {"w0": (num_features, d)}
    for k in range(1, spec.depth + 1):
        prev = d if k == 1 else width
        pw = {Phi.H0: d, Phi.H_PREV: prev, Phi.NONE: 0}[spec.phi]
        sw = {Psi.H_PREV: prev, Psi.LABELS: num_labels,
              Psi.H_PREV_CONCAT_LABELS: prev + num_labels, Psi.NONE: 0}[spec.psi]
        if spec.tie_weights and pw != sw:
            raise ConfigError(f"{spec.name}: tied weights need equal fan-in ({pw} vs {sw})")
        if spec.tie_weights:
            shapes[f"w{k}"] = (pw, d)
            continue
        if pw:
            shapes[f"w{k}_phi"] = (pw, d)
        if sw:
            shapes[f"w{k}_psi"] = (sw, d)
    shapes["wl"] = (width, num_labels)
    return shapes


@dataclass
class ModelWeights:
    """All learnable matrices of one kernel, by name in save order: ``w0``, then
    per layer k either ``w{k}`` (the spec ties weights: one matrix serves both
    paths) or ``w{k}_phi`` and/or ``w{k}_psi``, then ``wl``.

    ``wphi[k]`` and ``wpsi[k]`` are layer k+1's matrix of each path, or None
    where the layer has no such path; a tied layer gives the same array for
    both, so it counts once for initialization, optimization and saving.
    """

    mats: dict[str, np.ndarray]

    w0 = property(lambda self: self.mats["w0"])
    wl = property(lambda self: self.mats["wl"])
    wphi = property(lambda self: self._path("phi"))
    wpsi = property(lambda self: self._path("psi"))

    def _path(self, part: str) -> list:
        """Per layer k, the tied ``w{k}``, else ``w{k}_{part}``, else None."""
        depth = len({name.split("_")[0] for name in self.mats}) - 2  # w1..wC besides w0, wl
        return [self.mats.get(f"w{k}", self.mats.get(f"w{k}_{part}"))
                for k in range(1, depth + 1)]

    @classmethod
    def init(cls, spec: KernelSpec, num_features: int, num_labels: int, rng_seed: int) -> "ModelWeights":
        seeds = np.random.SeedSequence(rng_seed).spawn(2 * spec.depth + 2)
        gens = iter(np.random.default_rng(s) for s in seeds)
        mats = {}
        for name, (fan_in, fan_out) in param_shapes(spec, num_features, num_labels).items():
            mats[name] = glorot_init(fan_in, fan_out, next(gens))
            if spec.tie_weights and name not in ("w0", "wl"):
                next(gens)  # keep the seed schedule independent of tying
        return cls(mats)

    def params(self):
        """(name, array) pairs in save order; a tied layer appears once."""
        return list(self.mats.items())

    def copy(self) -> "ModelWeights":
        return ModelWeights({name: a.copy() for name, a in self.mats.items()})

    def zeros_like(self) -> "ModelWeights":
        return ModelWeights({name: np.zeros_like(a) for name, a in self.mats.items()})

    def l2_norm_sq(self) -> float:
        return float(sum(np.sum(a * a) for a in self.mats.values()))

    def save(self, path) -> None:
        """An uncompressed ``.npz`` archive of ``mats``, in save order."""
        with open(path, "wb") as fh:
            write_npz(fh, self.mats)

    @classmethod
    def load(cls, path, spec: KernelSpec) -> "ModelWeights":
        """Read a snapshot of float64 members through :func:`~hopf.data.read_npz`;
        each must be a matrix with no zero dimension, its name and shape as ``spec`` says."""
        try:
            arrs = read_npz(path, lambda name: np.dtype(np.float64))
        except NPZ_ERRORS as exc:
            raise ArgumentError(f"{path}: unreadable weights snapshot ({exc})") from exc
        for name, a in arrs.items():
            if a.ndim != 2 or 0 in a.shape:
                raise ShapeError(f"{path}: {name}.npy claims {a.dtype} {a.shape}, "
                                 "not a float64 matrix the file can hold")
        if "w0" not in arrs or "wl" not in arrs:
            raise ShapeError(f"{path}: snapshot lacks w0 or wl")
        expected = list(param_shapes(spec, arrs["w0"].shape[0], arrs["wl"].shape[1]).items())
        found = [(name, a.shape) for name, a in arrs.items()]
        if found != expected:
            raise ShapeError(f"{path}: snapshot {found} does not fit {spec.name} {expected}")
        return cls(arrs)


@dataclass
class ForwardCache:
    """What the backward pass reads from one forward evaluation, and no more.

    Only a forward that gradients follow builds one: :func:`predict` with
    ``grad=False`` (every inference) builds none and holds none of this.
    ``x[k]`` is layer k's activation after ReLU, skip connection and dropout;
    ``active[k]`` is its ReLU mask ``pre > 0`` as a bool array, taken before
    the skip term is added, so no float64 pre-activation outlives the row
    block that computed it; ``dropout[k]`` is its dropout mask or None. All
    three hold only the ``rows[k]`` prefix of the ball that the seeds depend
    on (see :func:`layer_rows`). ``maxpool_argmax[k]`` is layer k+1's pooled
    row of ``lin`` per entry, or None where that layer does not maxpool.
    :func:`_layer` allocates a layer's activation, mask and argmax, and
    :func:`predict` only appends them. A layer's path inputs are not kept:
    they are row prefixes of ``x`` and ``yhat``, which :func:`_layer` and
    :func:`backward`'s layer loop slice alike. A ``Psi.H_PREV_CONCAT_LABELS``
    layer multiplies ``h`` and the label channel by the two row blocks of
    ``wpsi[k]`` apart and adds the label half one row block at a time (see
    :func:`_hidden_product`), so neither a ``[h | yhat]`` copy nor a
    full-height label product exists. Of the output only ``ytilde`` is kept;
    backward never reads the logits. ``gathered`` is None when the input layer
    multiplied the whole graph-level ``features`` (see
    ``WHOLE_GRAPH_FRACTION``). No adjacency is kept: the forward weights one
    row block of it at a time, and :func:`backward` weights each layer's block
    again. :func:`backward` is the cache's only reader, and it consumes the
    cache: its loop runs top down and drops each layer's entries, and the
    layer's gradients, once it is done with them.
    """

    spec: KernelSpec
    weights: ModelWeights
    sub: Subgraph
    task: Task
    features: np.ndarray                  # graph-level x, one row per graph node
    yhat: np.ndarray | None               # label channel rows of the layer-0 prefix
    gathered: np.ndarray | None = None    # x rows of the layer-0 prefix, gathered form only
    x: list = field(default_factory=list)        # dropped activations x_0..x_C
    active: list = field(default_factory=list)   # bool ReLU masks, same indexing
    dropout: list = field(default_factory=list)  # dropout masks or None
    rows: list = field(default_factory=list)
    maxpool_argmax: list = field(default_factory=list)
    ytilde: np.ndarray | None = None

    def keep(self, h: np.ndarray, active: np.ndarray, rng, rate: float) -> None:
        """Drop out ``h`` in place, its mask drawn from ``rng`` at ``h``'s full
        shape, and keep it with its ReLU mask ``active`` and its dropout mask."""
        mask = dropout_mask(rng, h.shape, rate) if rate > 0.0 else None
        if mask is not None:
            h *= mask
        self.x.append(h)
        self.active.append(active)
        self.dropout.append(mask)


def _maxpool_with_argmax(sub: Subgraph, feats: np.ndarray, n: int):
    """Maxpool for the first ``n`` rows of ``sub``, and each entry's pooled row of ``feats``."""
    w = feats.shape[1]
    out = np.zeros((n, w), dtype=np.float64)
    arg = np.full((n, w), -1, dtype=np.int64)
    for v in range(n):
        nb = sub.neighbors(v)
        if nb.size == 0:
            continue
        rows = feats[nb]
        top = rows.argmax(axis=0)
        out[v] = rows[top, np.arange(w)]
        arg[v] = nb[top]
    return out, arg


def layer_rows(sub: Subgraph, depth: int) -> list[int]:
    """Rows of the ball that each layer's output needs, ``rows[0..depth]``.

    Layer ``depth`` computes the seed rows; layer k-1 must cover layer k's rows
    and every neighbor they aggregate over. Rows are frontier-ordered and a
    row holds only what its node drew, which joined the ball by the next
    hop, so ``rows[k]`` is the prefix ``frontier_offsets[depth - k + 1]``.
    A ball shallower than ``depth`` gives the lower layers all of its rows.
    """
    offsets = sub.frontier_offsets
    return [offsets[min(depth - k + 1, len(offsets) - 1)] for k in range(depth + 1)]


# Once the ball's layer-0 rows are at least this share of X's rows, the input
# layer multiplies all of X by w0 and gathers the ball's rows of the product,
# and backward computes X.T @ G, so no step copies the ball's feature rows;
# below it, gathering X[ids] first is faster. Time alone breaks even nearer
# three quarters, but from one half on the copy the whole-graph form avoids
# is at least half of X (see _input_product for why BLAS copies none of it).
WHOLE_GRAPH_FRACTION = 0.5


def _input_product(x: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """``x @ w0``, computed as ``(w0.T @ x.T).T``; the result is F-ordered.

    With more than one thread, OpenBLAS packs the whole left operand of a
    numpy product (the right one of its column-major call) into per-thread
    buffers that it maps itself, so ``x @ w0`` would copy all of ``x`` on
    every call (15.6 MiB of a 20k×100 ``x``), memory that no tracemalloc
    count sees. As the transposed right operand, ``x`` is read in panels and
    nothing of its size is copied.
    """
    return (w0.T @ x.T).T


# Row height of the blocks that _hidden_product multiplies one at a time.
HIDDEN_BLOCK_ROWS = 2048


def _hidden_product(a: np.ndarray, w: np.ndarray,
                    plus: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """``a @ w`` for a ball-tall ``a`` and a hidden-width ``w``, computed in row
    blocks; the result is C-ordered and bit-identical to the plain product.

    ``plus``, a pair ``(b, v)`` with ``b`` as tall as ``a``, adds ``b @ v``
    block by block through one temporary the height of the tallest block, so
    the result equals ``_hidden_product(a, w) + _hidden_product(b, v)`` bit
    for bit with no full-height second product.

    With more than one thread, OpenBLAS packs the left operand of a product
    into buffers that it maps itself, and as a ball's row count changes from
    step to step it keeps touching new pages of them: 600 products of
    1k–20k-row operands by 16×16 weights grew a fresh 2-thread process by
    31 MiB, memory that no tracemalloc count sees. Blocks of
    ``HIDDEN_BLOCK_ROWS`` rows, the last one taking the remainder, held it to
    6.6 MiB. No block is short: with a few rows OpenBLAS switches kernels and
    the last bit of a result changes. Blocks of equal height are as exact, but
    at odd heights a transposed ``w`` took up to twice as long.
    """
    m = a.shape[0]
    out = np.empty((m, w.shape[1]))
    if plus is not None:
        b, v = plus
        part = np.empty((min(m, 2 * HIDDEN_BLOCK_ROWS - 1), v.shape[1]))
    for lo, hi in _blocks(m):
        np.matmul(a[lo:hi], w, out=out[lo:hi])
        if plus is not None:
            np.matmul(b[lo:hi], v, out=part[: hi - lo])
            out[lo:hi] += part[: hi - lo]
    return out


def _blocks(m: int) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` row blocks in which :func:`_hidden_product` multiplies
    an ``m``-row operand: ``HIDDEN_BLOCK_ROWS`` rows each, the last one taking
    the remainder."""
    count = max(1, m // HIDDEN_BLOCK_ROWS)
    return [(i * HIDDEN_BLOCK_ROWS, m if i == count - 1 else (i + 1) * HIDDEN_BLOCK_ROWS)
            for i in range(count)]


class _Gather:
    """``src[ids]``, never built whole. Slicing narrows ``ids``; numpy reads
    the rows left through ``__array__``, so ``_hidden_product`` gathers one
    row block at a time, and assigning to a slice writes into ``src``."""

    def __init__(self, src: np.ndarray, ids: np.ndarray):
        self.src, self.ids = src, ids

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.ids), self.src.shape[1]

    def __getitem__(self, rows: slice) -> "_Gather":
        return _Gather(self.src, self.ids[rows])

    def __setitem__(self, rows: slice, value: np.ndarray) -> None:
        self.src[self.ids[rows]] = value

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.src[self.ids]


def _output_activation(logits: np.ndarray, task: Task) -> np.ndarray:
    if task == Task.MULTI_LABEL:
        return sigmoid(logits)
    return softmax_rows(logits)


def _graph_rows(name: str, arr: np.ndarray, sub: Subgraph) -> np.ndarray:
    """``arr`` as a float64 matrix with a row for every global id of ``sub``."""
    arr = np.asarray(arr, dtype=np.float64)
    need = int(sub.global_ids.max(initial=-1)) + 1
    if arr.ndim != 2 or arr.shape[0] < need:
        raise ShapeError(f"{name} must have one row per graph node (at least {need}), "
                         f"got {arr.shape}")
    return arr


def _layer(spec: KernelSpec, weights: ModelWeights, sub: Subgraph, k: int,
           rows: list[int], h, h0, yhat, grad: bool):
    """Layer k+1 as ``(h_next, active, argmax)``: the one statement of a layer,
    for both modes of :func:`predict`.

    ``h`` is layer k's activation (``rows[k]`` rows), ``h0`` layer 0's where
    the node path reads it, ``yhat`` the label channel; each may be a
    :class:`_Gather`. The neighbour product ``lin`` is built first, from all
    of ``h``; a maxpool layer pools it once, ``argmax`` taking the pooled row
    of ``lin`` per entry (None for any other layer), and drops it. Then each
    of ``_blocks(rows[k + 1])`` takes its node product, adds its rows of the
    pooled term or of the aggregation over ``lin`` (weighting only those rows
    of the adjacency), and is written out after ReLU and the skip connection.
    With ``grad`` the layer is fresh storage and ``active`` takes each block's
    ReLU mask before the skip term is added. Without, ``active`` is None, and
    as a block reads only its own rows of ``h`` once ``lin`` exists, the layer
    is written over ``h`` when it is as wide and no later node path reads it.
    """
    n_in, n_out = rows[k], rows[k + 1]
    lin = pooled = argmax = None
    if spec.has_neighbor_path:
        wpsi = weights.wpsi[k]
        psi_in = yhat[:n_in] if spec.psi is Psi.LABELS else h
        w = psi_in.shape[1]
        plus = (yhat[:n_in], wpsi[w:]) if spec.psi is Psi.H_PREV_CONCAT_LABELS else None
        lin = _hidden_product(psi_in, wpsi[:w], plus)
        if spec.norm is NormScheme.MAXPOOL:
            pooled, argmax = _maxpool_with_argmax(sub, lin, n_out)
            lin = None
    width = weights.wl.shape[0]
    reuse = not grad and h.shape[1] == width and (h is not h0 or spec.depth == 1)
    out = h if reuse else np.empty((n_out, width))
    active = np.empty((n_out, width), dtype=bool) if grad else None
    node_in = h0 if spec.phi is Phi.H0 else h
    for lo, hi in _blocks(n_out):
        node = neigh = None
        if spec.has_node_path:
            node = np.matmul(node_in[lo:hi], weights.wphi[k])
            if spec.alpha is AlphaMode.INV_DEG_SELF:
                node = (1.0 / (sub.degree[lo:hi].astype(np.float64) + 1.0))[:, None] * node
        if pooled is not None:
            neigh = pooled[lo:hi]
        elif lin is not None:
            neigh = normalize_adjacency(sub, spec.norm, lo, hi, n_in) @ lin
        if spec.combine is Combine.CONCAT:
            block = np.hstack([node, neigh])
        elif node is None or neigh is None:  # the one path's term is the pre-activation
            block = neigh if node is None else node
        else:
            block = np.add(node, neigh, out=node)
        if grad:
            np.greater(block, 0.0, out=active[lo:hi])
        np.maximum(block, 0.0, out=block)
        if spec.skip_connections:
            block += h[lo:hi]
        out[lo:hi] = block
    del lin, pooled  # freed before a gathered output is copied out
    return np.ascontiguousarray(out[:n_out]), active, argmax


def predict(spec: KernelSpec, weights: ModelWeights, sub: Subgraph,
            features: np.ndarray, yhat: np.ndarray | None = None, *,
            task: Task, dropout_rate: float = 0.0,
            rng: np.random.Generator | None = None, grad: bool = True):
    """Forward pass over a subgraph; returns seed-row predictions and the cache.

    ``features`` and ``yhat`` are the graph-level X and label-estimate
    matrices, one row per graph node; the kernel reads the ball's rows through
    ``sub.global_ids``. Output rows cover only the seed prefix. Layer k
    computes only the ``rows[k]`` prefix of :func:`layer_rows` and reads the
    ``rows[k-1]`` prefix of the layer below, so h_0 and every propagation
    layer cost what the seeds depend on, not the whole ball. A label kernel
    given no ``yhat`` reads the all-zero channel of HOPF's first round.

    Both modes run one layer loop: the input product and its ReLU, then
    :func:`_layer` for every layer above, which picks the layer's storage and
    returns it with its ReLU mask and maxpool argmax. With ``grad`` (training)
    each layer is fresh storage, and once it is complete its dropout mask is
    drawn at its full shape; the :class:`ForwardCache` keeps all of it for
    :func:`backward`. ``grad=False`` is inference: the same predictions, bit
    for bit, and None for the cache. It keeps no mask and draws no dropout.
    The label channel and a whole-graph input layer stay in graph row order
    and are read through ``sub.global_ids`` one row block at a time
    (:class:`_Gather`), and each layer is written over its input once nothing
    later reads that input.
    """
    features = _graph_rows("features", features, sub)
    if features.shape[1] != weights.w0.shape[0]:
        raise ShapeError(f"feature width {features.shape[1]} vs w0 fan-in {weights.w0.shape[0]}")
    num_labels = weights.wl.shape[1]
    if spec.uses_labels and yhat is not None:
        yhat = _graph_rows("label channel", yhat, sub)
        if yhat.shape[1] != num_labels:
            raise ConfigError(f"label channel width {yhat.shape[1]} != model label count {num_labels}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    if dropout_rate > 0.0 and rng is None:
        raise ConfigError("dropout needs an explicit rng for reproducibility")
    if dropout_rate > 0.0 and not grad:
        raise ConfigError("dropout is a training option; a forward without gradients draws none")

    rows = layer_rows(sub, spec.depth)
    ids = sub.global_ids[: rows[0]]
    whole_graph = rows[0] >= WHOLE_GRAPH_FRACTION * features.shape[0]
    if spec.uses_labels:  # no channel given: round one's all-zero one
        yhat = (np.zeros((rows[0], num_labels)) if yhat is None
                else yhat[ids] if grad else _Gather(yhat, ids))

    gathered = None if whole_graph else features[ids]
    h = _input_product(features if whole_graph else gathered, weights.w0)
    np.maximum(h, 0.0, out=h)
    if whole_graph:  # without gradients the ball's rows are read in graph order, not copied
        h = h[ids] if grad else _Gather(h, ids)
    cache = None
    if grad:
        cache = ForwardCache(spec=spec, weights=weights, sub=sub, task=task, features=features,
                             yhat=yhat if spec.uses_labels else None, gathered=gathered,
                             rows=rows)
        cache.keep(h, h > 0, rng, dropout_rate)
    del gathered
    h0 = h if spec.phi is Phi.H0 else None
    for k in range(spec.depth):
        h, active, argmax = _layer(spec, weights, sub, k, rows, h, h0, yhat, grad)
        if grad:
            cache.maxpool_argmax.append(argmax)
            cache.keep(h, active, rng, dropout_rate)
    del h0, yhat
    logits = h @ weights.wl
    del h
    ytilde = _output_activation(logits, task)
    if grad:
        cache.ytilde = ytilde
    return ytilde, cache


def _doutput(cache: ForwardCache, dloss_dy: np.ndarray) -> np.ndarray:
    """Gradient through the output nonlinearity, back to logits."""
    yt = cache.ytilde
    if cache.task == Task.MULTI_LABEL:
        return dloss_dy * yt * (1.0 - yt)
    inner = (dloss_dy * yt).sum(axis=1, keepdims=True)
    return yt * (dloss_dy - inner)


def backward(cache: ForwardCache, dloss_dy: np.ndarray) -> ModelWeights:
    """Exact gradients for every weight matrix of the cache's spec; consumes ``cache``.

    Tied layers accumulate both path contributions into the shared array. The
    label channel is treated as data: no gradient is ever produced for it.
    Every activation gradient has the shape of its ``cache.x`` entry, so no
    gradient reaches a row the forward pass did not compute. One loop runs
    :func:`predict`'s in reverse, from layer C down to 0: it applies a layer's
    dropout, skip and ReLU masks, and above layer 0 takes the path weights'
    gradients, slicing their inputs from ``yhat`` and the lower layers' ``x``
    entries, which are still held. A gradient is allocated when first written.
    Once a layer is done its cache entries are dropped, and so are its
    gradients, as a loop's locals outlive the iteration: the peak holds one
    layer's gradients, not two. A cache cannot be passed to ``backward`` twice.
    """
    spec, weights = cache.spec, cache.weights
    dloss_dy = np.asarray(dloss_dy, dtype=np.float64)
    if dloss_dy.shape != cache.ytilde.shape:
        raise ShapeError(f"dloss shape {dloss_dy.shape} vs predictions {cache.ytilde.shape}")
    if cache.x[-1] is None:
        raise StateError("cache was already consumed by backward")

    grads = weights.zeros_like()
    wphi, wpsi, gphi, gpsi = weights.wphi, weights.wpsi, grads.wphi, grads.wpsi
    dlogits = _doutput(cache, dloss_dy)
    grads.mats["wl"] += cache.x[-1].T @ dlogits

    dx = [None] * len(cache.x)
    dx[-1] = dlogits @ weights.wl.T

    def add_grad(i: int, g: np.ndarray) -> None:
        """``dx[i][:len(g)] += g``; a first write of every row takes ``g`` itself."""
        if dx[i] is None and g.shape[0] == cache.rows[i]:
            dx[i] = g
            return
        if dx[i] is None:
            dx[i] = np.zeros_like(cache.x[i])
        dx[i][: g.shape[0]] += g

    for layer in range(spec.depth, -1, -1):
        dh = dx[layer] if dx[layer] is not None else np.zeros_like(cache.x[layer])
        dx[layer] = None
        if cache.dropout[layer] is not None:
            dh *= cache.dropout[layer]
        if spec.skip_connections and layer > 0:
            # the identity path passes dh on unmasked, so the ReLU mask needs its own array
            dpre = dh * cache.active[layer]
            add_grad(layer - 1, dh)
        else:
            dpre = np.multiply(dh, cache.active[layer], out=dh)
        del dh  # the skip term's dh lives on only where dx[layer - 1] took it whole
        cache.x[layer] = cache.active[layer] = cache.dropout[layer] = None
        if layer == 0:
            break  # dpre is the input layer's, for the w0 product below
        k, n_out = layer - 1, cache.rows[layer]
        if spec.combine is Combine.CONCAT:
            dnode, dneigh = dpre[:, : spec.hidden_dim], dpre[:, spec.hidden_dim :]
        else:
            dnode = dpre if spec.has_node_path else None
            dneigh = dpre if spec.has_neighbor_path else None
        if dnode is not None:
            if spec.alpha is AlphaMode.INV_DEG_SELF:
                dnode = (1.0 / (cache.sub.degree[:n_out].astype(np.float64) + 1.0))[:, None] * dnode
            below = 0 if spec.phi is Phi.H0 else k
            gphi[k] += cache.x[below][:n_out].T @ dnode
            add_grad(below, _hidden_product(dnode, wphi[k].T))
        if dneigh is not None:
            if spec.norm is NormScheme.MAXPOOL:
                dlin = np.zeros((cache.rows[k], wpsi[k].shape[1]))
                r, c = np.nonzero(cache.maxpool_argmax[k] >= 0)
                np.add.at(dlin, (cache.maxpool_argmax[k][r, c], c), dneigh[r, c])
                del r, c
            else:
                # the forward's weights: a row's are the same bits however many rows are weighted
                dlin = normalize_adjacency(cache.sub, spec.norm, 0, n_out, cache.rows[k]).T @ dneigh
            psi_in = cache.yhat[: cache.rows[k]] if spec.psi is Psi.LABELS else cache.x[k]
            w = psi_in.shape[1]
            gpsi[k][:w] += psi_in.T @ dlin
            if spec.psi is Psi.H_PREV_CONCAT_LABELS:
                gpsi[k][w:] += cache.yhat[: cache.rows[k]].T @ dlin
            if spec.psi is not Psi.LABELS:  # the label channel takes no gradient
                add_grad(k, _hidden_product(dlin, wpsi[k][:w].T))
            del dlin, psi_in  # psi_in would hold x[k] after the next layer drops it
        cache.maxpool_argmax[k] = None
        del dpre, dnode, dneigh  # before the next layer's are allocated

    if cache.gathered is not None:
        grads.mats["w0"] += cache.gathered.T @ dpre
    else:
        dpre_graph = np.zeros((cache.features.shape[0], dpre.shape[1]))
        dpre_graph[cache.sub.global_ids[: cache.rows[0]]] = dpre
        del dpre
        grads.mats["w0"] += cache.features.T @ dpre_graph
    return grads


def nim_relative_importance(alpha: float, beta: float, k: int, skip: bool = False) -> float:
    """Relative weight of a node's own layer-0 information after k propagation steps.

    Without skip connections this is alpha^k / (alpha + beta)^k; the identity
    skip shifts both terms by one, (alpha + 1)^k / (alpha + beta + 1)^k, which
    decays strictly slower for positive alpha and beta.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ArgumentError(f"alpha and beta must be finite, got {alpha!r} and {beta!r}")
    if alpha < 0 or beta < 0:
        raise ArgumentError("alpha and beta must be non-negative")
    if alpha == 0 and beta == 0:
        raise ArgumentError("alpha and beta cannot both be zero")
    if k < 0:
        raise ArgumentError(f"k must be >= 0, got {k}")
    if math.isinf(alpha + beta):  # halving both keeps the ratio and makes the sum finite
        alpha, beta = alpha / 2.0, beta / 2.0
    if skip:
        return float(((alpha + 1.0) / (alpha + beta + 1.0)) ** k)
    return float((alpha / (alpha + beta)) ** k)


def nim_decay_table(alpha: float, beta: float, max_k: int, skip: bool = False):
    """Tabulated self-information decay: header plus one row per k in 0..max_k."""
    header = ["k", "importance"] + (["importance_skip"] if skip else [])
    rows = [[k, nim_relative_importance(alpha, beta, k)]
            + ([nim_relative_importance(alpha, beta, k, skip=True)] if skip else [])
            for k in range(max_k + 1)]
    return header, rows


def linear_unroll_coefficient(graph: Graph, alpha: float, beta: float,
                              norm: NormScheme, k: int) -> np.ndarray:
    """Dense (alpha*I + beta*F(A))^k for small graphs; entry (i, i) is node i's
    accumulated self-coefficient under the linearized update."""
    if graph.n > 200:
        raise ArgumentError("analysis utility; use graphs with n <= 200")
    if k < 0:
        raise ArgumentError(f"k must be >= 0, got {k}")
    f = normalize_adjacency(graph, norm).toarray()
    m = alpha * np.eye(graph.n) + beta * f
    return np.linalg.matrix_power(m, k)
