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

import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError, ConfigError, ShapeError, StateError
from .graph import Graph, NormScheme, Subgraph, normalize_adjacency
from .metrics import Task
from .numerics import dropout_mask, glorot_init, sigmoid, softmax_rows, spmm


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
    ZERO = "zero"


class BetaMode(Enum):
    ONE = "one"
    ZERO = "zero"


class Combine(Enum):
    SUM = "sum"
    CONCAT = "concat"


@dataclass(frozen=True)
class KernelSpec:
    """One row of the instantiation table, plus depth/width configuration."""

    name: str
    phi: Phi
    psi: Psi
    norm: NormScheme | None
    alpha: AlphaMode
    beta: BetaMode
    tie_weights: bool
    combine: Combine = Combine.SUM
    skip_connections: bool = False
    depth: int = 2
    hidden_dim: int = 16
    differentiable: bool = True

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.skip_connections and self.combine is not Combine.SUM:
            raise ConfigError("skip connections require summation combine")
        if self.combine is Combine.CONCAT and (self.phi is Phi.NONE or self.psi is Psi.NONE):
            raise ConfigError("concat combine needs both a node and a neighbor path")
        if self.phi is Phi.NONE and self.psi is Psi.NONE:
            raise ConfigError("kernel must keep at least one of the node/neighbor paths")

    @property
    def uses_labels(self) -> bool:
        return self.psi in (Psi.LABELS, Psi.H_PREV_CONCAT_LABELS)

    @property
    def has_node_path(self) -> bool:
        return self.phi is not Phi.NONE and self.alpha is not AlphaMode.ZERO

    @property
    def has_neighbor_path(self) -> bool:
        return self.psi is not Psi.NONE and self.beta is not BetaMode.ZERO


# Canonical registry. Field order mirrors the instantiation table:
# (phi, norm, psi, alpha, beta, tie_weights), then artifact-level settings.
REGISTRY: dict[str, dict] = {
    "bl_node": dict(phi=Phi.H0, norm=None, psi=Psi.NONE,
                    alpha=AlphaMode.ONE, beta=BetaMode.ZERO, tie_weights=False),
    "bl_neigh": dict(phi=Phi.NONE, norm=NormScheme.MEAN, psi=Psi.H_PREV,
                     alpha=AlphaMode.ZERO, beta=BetaMode.ONE, tie_weights=False),
    "ss_ica": dict(phi=Phi.H0, norm=NormScheme.MEAN, psi=Psi.LABELS,
                   alpha=AlphaMode.ONE, beta=BetaMode.ONE, tie_weights=False),
    "wl": dict(phi=Phi.H_PREV, norm=NormScheme.COUNT, psi=Psi.H_PREV,
               alpha=AlphaMode.ONE, beta=BetaMode.ONE, tie_weights=False,
               differentiable=False),
    "gcn": dict(phi=Phi.H_PREV, norm=NormScheme.SYM_SELF, psi=Psi.H_PREV,
                alpha=AlphaMode.INV_DEG_SELF, beta=BetaMode.ONE, tie_weights=True),
    "gcn_s": dict(phi=Phi.H_PREV, norm=NormScheme.SYM_SELF, psi=Psi.H_PREV,
                  alpha=AlphaMode.INV_DEG_SELF, beta=BetaMode.ONE, tie_weights=True,
                  skip_connections=True),
    "gcn_mean": dict(phi=Phi.H_PREV, norm=NormScheme.MEAN, psi=Psi.H_PREV,
                     alpha=AlphaMode.ONE, beta=BetaMode.ONE, tie_weights=True),
    "gs_mean": dict(phi=Phi.H_PREV, norm=NormScheme.MEAN, psi=Psi.H_PREV,
                    alpha=AlphaMode.ONE, beta=BetaMode.ONE, tie_weights=False,
                    combine=Combine.CONCAT),
    "gs_max": dict(phi=Phi.H_PREV, norm=NormScheme.MAXPOOL, psi=Psi.H_PREV,
                   alpha=AlphaMode.ONE, beta=BetaMode.ONE, tie_weights=False,
                   combine=Combine.CONCAT),
    "nip_mean": dict(phi=Phi.H0, norm=NormScheme.MEAN, psi=Psi.H_PREV,
                     alpha=AlphaMode.ONE, beta=BetaMode.ONE, tie_weights=False),
    "i_nip_mean": dict(phi=Phi.H0, norm=NormScheme.MEAN, psi=Psi.H_PREV_CONCAT_LABELS,
                       alpha=AlphaMode.ONE, beta=BetaMode.ONE, tie_weights=False),
}

TRAINABLE_MODELS = tuple(n for n, row in REGISTRY.items() if row.get("differentiable", True))


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


@dataclass(frozen=True)
class LayerPlan:
    """Resolved widths: hidden outputs h_0..h_C and each weight matrix's fan-in."""

    h_widths: tuple[int, ...]
    phi_in: tuple[int, ...]
    psi_in: tuple[int, ...]
    num_labels: int

    @property
    def output_in(self) -> int:
        return self.h_widths[-1]


def layer_plan(spec: KernelSpec, num_features: int, num_labels: int) -> LayerPlan:
    """Width bookkeeping for a spec; concat layers double the running width."""
    d = spec.hidden_dim
    widths = [d]
    phi_in, psi_in = [], []
    for _ in range(1, spec.depth + 1):
        prev = widths[-1]
        pw = 0
        if spec.has_node_path:
            pw = d if spec.phi is Phi.H0 else prev
        sw = 0
        if spec.has_neighbor_path:
            if spec.psi is Psi.H_PREV:
                sw = prev
            elif spec.psi is Psi.LABELS:
                sw = num_labels
            else:
                sw = prev + num_labels
        if spec.tie_weights and pw and sw and pw != sw:
            raise ConfigError(f"{spec.name}: tied weights need equal fan-in ({pw} vs {sw})")
        phi_in.append(pw)
        psi_in.append(sw)
        out = 2 * d if spec.combine is Combine.CONCAT else d
        if spec.skip_connections and out != prev:
            raise ConfigError(f"{spec.name}: skip connection needs matching widths")
        widths.append(out)
    return LayerPlan(tuple(widths), tuple(phi_in), tuple(psi_in), num_labels)


@dataclass
class ModelWeights:
    """All learnable matrices of one kernel: input, per-layer phi/psi, output.

    When the spec ties weights, ``wphi[k]`` and ``wpsi[k]`` are the same array
    object; they count once for initialization, optimization and saving.
    """

    w0: np.ndarray
    wphi: list
    wpsi: list
    wl: np.ndarray

    @classmethod
    def init(cls, spec: KernelSpec, num_features: int, num_labels: int, rng_seed: int) -> "ModelWeights":
        if not spec.differentiable:
            raise ConfigError(f"{spec.name} has no learnable weights")
        plan = layer_plan(spec, num_features, num_labels)
        seeds = np.random.SeedSequence(rng_seed).spawn(2 * spec.depth + 2)
        gens = iter(np.random.default_rng(s) for s in seeds)
        d = spec.hidden_dim
        w0 = glorot_init(num_features, d, next(gens))
        wphi, wpsi = [], []
        for k in range(spec.depth):
            wp = glorot_init(plan.phi_in[k], d, next(gens)) if plan.phi_in[k] else None
            if spec.tie_weights and wp is not None:
                ws = wp
                next(gens)  # keep the seed schedule independent of tying
            else:
                ws = glorot_init(plan.psi_in[k], d, next(gens)) if plan.psi_in[k] else None
            wphi.append(wp)
            wpsi.append(ws)
        wl = glorot_init(plan.output_in, num_labels, next(gens))
        return cls(w0=w0, wphi=wphi, wpsi=wpsi, wl=wl)

    def params(self):
        """Unique (name, array) pairs; tied layers appear once."""
        out = [("w0", self.w0)]
        for k, (wp, ws) in enumerate(zip(self.wphi, self.wpsi), start=1):
            if wp is not None and ws is wp:
                out.append((f"w{k}", wp))
                continue
            if wp is not None:
                out.append((f"w{k}_phi", wp))
            if ws is not None:
                out.append((f"w{k}_psi", ws))
        out.append(("wl", self.wl))
        return out

    def copy(self) -> "ModelWeights":
        wphi, wpsi = [], []
        for wp, ws in zip(self.wphi, self.wpsi):
            cp = None if wp is None else wp.copy()
            cs = cp if ws is wp else (None if ws is None else ws.copy())
            wphi.append(cp)
            wpsi.append(cs)
        return ModelWeights(self.w0.copy(), wphi, wpsi, self.wl.copy())

    def zeros_like(self) -> "ModelWeights":
        z = self.copy()
        for _, arr in z.params():
            arr[:] = 0.0
        return z

    def l2_norm_sq(self) -> float:
        return float(sum(np.sum(a * a) for _, a in self.params()))

    # Binary snapshot: magic, entry count, then per entry a name plus its
    # shape, followed by all matrices as row-major float64 in declared order.
    _MAGIC = b"HOPFW001"

    def save(self, path) -> None:
        entries = self.params()
        with open(path, "wb") as fh:
            fh.write(self._MAGIC)
            fh.write(struct.pack("<I", len(entries)))
            for name, arr in entries:
                raw = name.encode()
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            for _, arr in entries:
                fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())

    @staticmethod
    def load_arrays(path) -> dict[str, np.ndarray]:
        def read(fh, size: int) -> bytes:
            buf = fh.read(size)
            if len(buf) != size:
                raise ArgumentError(f"{path}: truncated weights snapshot")
            return buf

        with open(path, "rb") as fh:
            if fh.read(8) != ModelWeights._MAGIC:
                raise ArgumentError(f"{path}: not a weights snapshot")
            (count,) = struct.unpack("<I", read(fh, 4))
            shapes = []
            for _ in range(count):
                (nlen,) = struct.unpack("<H", read(fh, 2))
                name = read(fh, nlen).decode()
                rows, cols = struct.unpack("<II", read(fh, 8))
                shapes.append((name, rows, cols))
            out = {}
            for name, rows, cols in shapes:
                buf = read(fh, rows * cols * 8)
                out[name] = np.frombuffer(buf, dtype=np.float64).reshape(rows, cols).copy()
            if fh.read(1):
                raise ArgumentError(f"{path}: trailing bytes after the last matrix")
        return out

    @classmethod
    def load(cls, path, spec: KernelSpec) -> "ModelWeights":
        """Read a snapshot, checking every matrix's name and shape against ``spec``."""
        arrs = cls.load_arrays(path)
        if "w0" not in arrs or "wl" not in arrs:
            raise ShapeError(f"{path}: snapshot lacks w0 or wl")
        # the layer plan for the snapshot's feature and label counts fixes every shape
        template = cls.init(spec, arrs["w0"].shape[0], arrs["wl"].shape[1], rng_seed=0)
        expected = {name: a.shape for name, a in template.params()}
        found = {name: a.shape for name, a in arrs.items()}
        if found != expected:
            raise ShapeError(f"{path}: snapshot {found} does not fit {spec.name} {expected}")
        wphi, wpsi = [], []
        for k in range(1, spec.depth + 1):
            if f"w{k}" in arrs:
                wphi.append(arrs[f"w{k}"])
                wpsi.append(arrs[f"w{k}"])
            else:
                wphi.append(arrs.get(f"w{k}_phi"))
                wpsi.append(arrs.get(f"w{k}_psi"))
        return cls(w0=arrs["w0"], wphi=wphi, wpsi=wpsi, wl=arrs["wl"])


@dataclass
class ForwardCache:
    """What the backward pass reads from one forward evaluation, and no more.

    ``x[k]`` is layer k's activation after ReLU, skip connection and dropout;
    ``active[k]`` is its ReLU mask ``pre > 0`` as a bool array, so no float64
    pre-activation outlives the layer that computed it. Both hold only the
    ``rows[k]`` prefix of the ball that the seeds depend on (see
    :func:`layer_rows`). ``phi_inputs[k]`` and ``psi_inputs[k]`` are views of
    ``x`` (of ``yhat`` for a ``Psi.LABELS`` layer): a
    ``Psi.H_PREV_CONCAT_LABELS`` layer multiplies ``h`` and the label channel
    by the two row blocks of ``wpsi[k]`` apart, so no ``[h | yhat]`` copy
    exists, and ``psi_inputs[k]`` holds its ``h`` part only. Of the
    output only ``ytilde`` is kept; backward never reads the logits.
    ``gathered`` is None when the input layer multiplied the whole graph-level
    ``features`` (see ``WHOLE_GRAPH_FRACTION``). ``adj[k]`` is layer k+1's
    block of the normalized adjacency, ``rows[k+1]`` by ``rows[k]``; its
    ``.T`` is a free CSC view, which the backward pass multiplies by directly.
    :func:`backward` is the cache's only reader, and it consumes the cache:
    it drops each layer's entries once it is done with them.
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
    phi_inputs: list = field(default_factory=list)
    psi_inputs: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    adj: list = field(default_factory=list)
    alpha_vec: np.ndarray | None = None
    maxpool_argmax: list = field(default_factory=list)
    ytilde: np.ndarray | None = None


def maxpool_aggregate(sub: Subgraph, neighbor_features: np.ndarray) -> np.ndarray:
    """Element-wise max over each node's neighbors; isolated rows are zero."""
    out, _ = _maxpool_with_argmax(sub, np.asarray(neighbor_features, dtype=np.float64), sub.n)
    return out


def _maxpool_with_argmax(sub: Subgraph, feats: np.ndarray, n: int):
    """Maxpool for the first ``n`` rows of ``sub``."""
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
# layer computes (X @ w0)[ids] and backward X.T @ G, so no step copies the
# ball's feature rows; below it, gathering X[ids] first is faster. Time alone
# breaks even nearer three quarters, but from one half on the copy the
# whole-graph form avoids is at least half of X.
WHOLE_GRAPH_FRACTION = 0.5


def _row_block(m: sp.csr_matrix, rows: int, cols: int) -> sp.csr_matrix:
    """The leading ``rows`` rows of ``m`` as a (rows, cols) matrix; every column
    index in them must already be below ``cols``."""
    end = m.indptr[rows]
    return sp.csr_matrix((m.data[:end], m.indices[:end], m.indptr[: rows + 1]),
                         shape=(rows, cols))


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


def _layer_pre(spec: KernelSpec, weights: ModelWeights, cache: ForwardCache,
               k: int) -> np.ndarray:
    """Layer k+1's pre-activation from ``cache.x[k]``; records the layer's inputs.

    The products it needs on the way die when it returns, so they never
    overlap the next layer's or the output's.
    """
    n_in, n_out = cache.rows[k], cache.rows[k + 1]
    prev = cache.x[k]
    node = None
    phi_in = None
    if spec.has_node_path:
        phi_in = (cache.x[0] if spec.phi is Phi.H0 else prev)[:n_out]
        node = phi_in @ weights.wphi[k]
        if cache.alpha_vec is not None:
            node = cache.alpha_vec[:n_out, None] * node
    neigh = None
    psi_in = None
    argmax = None
    if spec.has_neighbor_path:
        psi_in = cache.yhat[:n_in] if spec.psi is Psi.LABELS else prev
        w = psi_in.shape[1]
        lin = psi_in @ weights.wpsi[k][:w]
        if spec.psi is Psi.H_PREV_CONCAT_LABELS:
            # [h | yhat] @ W as h @ W[:w] + yhat @ W[w:], with no concatenated copy
            lin += cache.yhat[:n_in] @ weights.wpsi[k][w:]
        if spec.norm is NormScheme.MAXPOOL:
            neigh, argmax = _maxpool_with_argmax(cache.sub, lin, n_out)
        else:
            neigh = spmm(cache.adj[k], lin)
    cache.phi_inputs.append(phi_in)
    cache.psi_inputs.append(psi_in)
    cache.maxpool_argmax.append(argmax)

    if spec.combine is Combine.CONCAT:
        return np.hstack([node, neigh])
    if node is None:
        return neigh
    if neigh is not None:
        node += neigh
    return node


def predict(spec: KernelSpec, weights: ModelWeights, sub: Subgraph,
            features: np.ndarray, yhat: np.ndarray | None = None,
            task: Task = Task.MULTI_CLASS, dropout_rate: float = 0.0,
            rng: np.random.Generator | None = None):
    """Forward pass over a subgraph; returns seed-row predictions and the cache.

    ``features`` and ``yhat`` are the graph-level X and label-estimate
    matrices, one row per graph node; the kernel reads the ball's rows through
    ``sub.global_ids``. Output rows cover only the seed prefix. Layer k
    computes only the ``rows[k]`` prefix of :func:`layer_rows` and reads the
    ``rows[k-1]`` prefix of the layer below, so h_0 and every propagation
    layer cost what the seeds depend on, not the whole ball.
    """
    if not spec.differentiable:
        raise ConfigError(f"{spec.name} is analysis-only and cannot produce predictions")
    features = _graph_rows("features", features, sub)
    if features.shape[1] != weights.w0.shape[0]:
        raise ShapeError(f"feature width {features.shape[1]} vs w0 fan-in {weights.w0.shape[0]}")
    num_labels = weights.wl.shape[1]
    if spec.uses_labels:
        if yhat is None:
            raise ConfigError(f"{spec.name} needs a label channel; pass a zero matrix for round one")
        yhat = _graph_rows("label channel", yhat, sub)
        if yhat.shape[1] != num_labels:
            raise ConfigError(f"label channel width {yhat.shape[1]} != model label count {num_labels}")
    if dropout_rate > 0.0 and rng is None:
        raise ConfigError("dropout needs an explicit rng for reproducibility")

    plan = layer_plan(spec, features.shape[1], num_labels)
    rows = layer_rows(sub, spec.depth)
    ids = sub.global_ids[: rows[0]]
    yhat = yhat[ids] if spec.uses_labels else None
    cache = ForwardCache(spec=spec, weights=weights, sub=sub, task=task,
                         features=features, yhat=yhat, rows=rows)

    if spec.has_neighbor_path and spec.norm is not NormScheme.MAXPOOL:
        norm = normalize_adjacency(sub, spec.norm)
        cache.adj = [_row_block(norm, rows[k + 1], rows[k]) for k in range(spec.depth)]
    if spec.alpha is AlphaMode.INV_DEG_SELF:
        cache.alpha_vec = 1.0 / (sub.degree[: rows[1]].astype(np.float64) + 1.0)

    def activate(pre, skip=None):
        """ReLU in place, keeping only its bool mask; then skip and dropout."""
        cache.active.append(pre > 0)
        h = np.maximum(pre, 0.0, out=pre)
        if skip is not None:
            h += skip
        mask = dropout_mask(rng, h.shape, dropout_rate) if dropout_rate > 0.0 else None
        cache.dropout.append(mask)
        if mask is not None:
            h *= mask
        cache.x.append(h)

    if rows[0] >= WHOLE_GRAPH_FRACTION * features.shape[0]:
        pre0 = (features @ weights.w0)[ids]
    else:
        cache.gathered = features[ids]
        pre0 = cache.gathered @ weights.w0
    activate(pre0)

    for k in range(spec.depth):
        skip = cache.x[-1][: rows[k + 1]] if spec.skip_connections else None
        activate(_layer_pre(spec, weights, cache, k), skip)

    if cache.x[-1].shape[1] != plan.output_in:
        raise ShapeError("layer plan mismatch in forward pass")
    cache.ytilde = _output_activation(cache.x[-1] @ weights.wl, task)
    return cache.ytilde, cache


def _doutput(cache: ForwardCache, dloss_dy: np.ndarray) -> np.ndarray:
    """Gradient through the output nonlinearity, back to logits."""
    yt = cache.ytilde
    if cache.task == Task.MULTI_LABEL:
        return dloss_dy * yt * (1.0 - yt)
    inner = (dloss_dy * yt).sum(axis=1, keepdims=True)
    return yt * (dloss_dy - inner)


def backward(spec: KernelSpec, weights: ModelWeights, cache: ForwardCache,
             dloss_dy: np.ndarray) -> ModelWeights:
    """Exact gradients for every weight matrix of ``spec``; consumes ``cache``.

    Tied layers accumulate both path contributions into the shared array. The
    label channel is treated as data: no gradient is ever produced for it.
    Every activation gradient has the shape of its ``cache.x`` entry, so no
    gradient reaches a row the forward pass did not compute. Each gradient is
    allocated when it is first written, and once a layer is done its ``x``,
    ``active``, ``dropout``, ``phi_inputs``, ``psi_inputs`` and
    ``maxpool_argmax`` entries and its gradient are dropped, so the step's
    peak holds one layer's gradients, not every layer's. The cache cannot be
    passed to ``backward`` a second time.
    """
    if cache.spec is not spec or cache.weights is not weights:
        raise StateError("cache does not belong to this spec/weights pair")
    dloss_dy = np.asarray(dloss_dy, dtype=np.float64)
    if dloss_dy.shape != cache.ytilde.shape:
        raise ShapeError(f"dloss shape {dloss_dy.shape} vs predictions {cache.ytilde.shape}")
    if cache.x[-1] is None:
        raise StateError("cache was already consumed by backward")

    grads = weights.zeros_like()
    dlogits = _doutput(cache, dloss_dy)
    grads.wl += cache.x[-1].T @ dlogits

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

    def layer_grad(layer: int) -> np.ndarray:
        """Layer's gradient at its pre-activation, masked in place; frees the layer."""
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
        cache.x[layer] = cache.active[layer] = cache.dropout[layer] = None
        return dpre

    def propagate(k: int) -> None:
        """Layer k+1's weight gradients, and its gradient into layers k and 0."""
        layer = k + 1  # index into cache.x / cache.active
        n_out = cache.rows[layer]
        dpre = layer_grad(layer)

        d = spec.hidden_dim
        if spec.combine is Combine.CONCAT:
            dnode, dneigh = dpre[:, :d], dpre[:, d:]
        else:
            dnode = dpre if spec.has_node_path else None
            dneigh = dpre if spec.has_neighbor_path else None

        if dnode is not None:
            if cache.alpha_vec is not None:
                dnode = cache.alpha_vec[:n_out, None] * dnode
            grads.wphi[k] += cache.phi_inputs[k].T @ dnode
            add_grad(0 if spec.phi is Phi.H0 else layer - 1, dnode @ weights.wphi[k].T)

        if dneigh is not None:
            if spec.norm is NormScheme.MAXPOOL:
                dlin = np.zeros((cache.rows[k], weights.wpsi[k].shape[1]))
                arg = cache.maxpool_argmax[k]
                valid = arg >= 0
                r, c = np.nonzero(valid)
                np.add.at(dlin, (arg[r, c], c), dneigh[r, c])
            else:
                dlin = spmm(cache.adj[k].T, dneigh)
            psi_in = cache.psi_inputs[k]
            w = psi_in.shape[1]
            grads.wpsi[k][:w] += psi_in.T @ dlin
            if spec.psi is Psi.H_PREV_CONCAT_LABELS:
                grads.wpsi[k][w:] += cache.yhat[: cache.rows[k]].T @ dlin
            if spec.psi is not Psi.LABELS:  # the label channel takes no gradient
                add_grad(layer - 1, dlin @ weights.wpsi[k][:w].T)
        cache.phi_inputs[k] = cache.psi_inputs[k] = cache.maxpool_argmax[k] = None

    for k in range(spec.depth - 1, -1, -1):
        propagate(k)

    dpre0 = layer_grad(0)
    if cache.gathered is not None:
        grads.w0 += cache.gathered.T @ dpre0
    else:
        dpre0_graph = np.zeros((cache.features.shape[0], dpre0.shape[1]))
        dpre0_graph[cache.sub.global_ids[: cache.rows[0]]] = dpre0
        del dpre0
        grads.w0 += cache.features.T @ dpre0_graph
    return grads


def nim_relative_importance(alpha: float, beta: float, k: int, skip: bool = False) -> float:
    """Relative weight of a node's own layer-0 information after k propagation steps.

    Without skip connections this is alpha^k / (alpha + beta)^k; the identity
    skip shifts both terms by one, (alpha + 1)^k / (alpha + beta + 1)^k, which
    decays strictly slower for positive alpha and beta.
    """
    if alpha < 0 or beta < 0:
        raise ArgumentError("alpha and beta must be non-negative")
    if alpha == 0 and beta == 0:
        raise ArgumentError("alpha and beta cannot both be zero")
    if k < 0:
        raise ArgumentError(f"k must be >= 0, got {k}")
    if skip:
        return float(((alpha + 1.0) / (alpha + beta + 1.0)) ** k)
    return float((alpha / (alpha + beta)) ** k)


def nim_decay_table(alpha: float, beta: float, max_k: int, skip: bool = False):
    """Tabulated self-information decay: header plus one row per k in 0..max_k."""
    header = ["k", "importance"] + (["importance_skip"] if skip else [])
    rows = []
    for k in range(max_k + 1):
        row = [k, repr(nim_relative_importance(alpha, beta, k))]
        if skip:
            row.append(repr(nim_relative_importance(alpha, beta, k, skip=True)))
        rows.append(row)
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
