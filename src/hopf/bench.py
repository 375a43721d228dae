"""Wall-clock scaling benchmark: full-kernel depth vs iterative label feedback.

Timed work for one cell is everything a training epoch does: subgraph
extraction, then the step ``train`` runs (forward with the config's dropout,
loss plus L2, backward, Adam). A fully differentiable kernel reaches K hops
with depth K in a single epoch; an iterative variant with C differentiable hops
reaches the same K by running K/C single-epoch rounds, so its cost grows
linearly in K while the full kernel's neighborhood sizes blow up with depth.

Each cell also reports its largest per-batch footprint from
:func:`estimate_batch_bytes`; cells whose footprint exceeds the configured
memory budget are reported as ``infeasible`` instead of crashing.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

import numpy as np

from .data import DatasetBundle
from .errors import ConfigError
from .graph import Subgraph, khop_subgraph
from .kernels import WHOLE_GRAPH_FRACTION, layer_rows, make_kernel, param_shapes, ModelWeights
from .numerics import AdamState
from .training import SplitSpec, TrainConfig, _batches, _class_weights, train_step


class BudgetExceeded(Exception):
    """Projected working set is over the memory budget; the cell is infeasible."""

    def __init__(self, message: str, batch_bytes: int):
        super().__init__(message)
        self.batch_bytes = batch_bytes


@dataclass
class BenchCell:
    variant: str
    hops: int
    mean_seconds: float | None
    status: str  # ok | infeasible | n/a
    batch_bytes: int | None = None  # largest estimate_batch_bytes over the cell's batches


def parse_variant(token: str) -> tuple[str, int]:
    """Map a CLI variant token to (kernel name, differentiable hops per round).

    ``nip_mean`` runs the full kernel (C grows with K); ``i_nip_mean_cN``
    keeps C = N >= 1 and iterates.
    """
    if token == "nip_mean":
        return "nip_mean", 0
    m = re.fullmatch(r"i_nip_mean_c(\d+)", token)
    if m and int(m.group(1)) >= 1:
        return "i_nip_mean", int(m.group(1))
    raise ConfigError(f"unknown benchmark variant {token!r}; "
                      "use nip_mean or i_nip_mean_c<N> with N >= 1")


def estimate_batch_bytes(spec, sub: Subgraph, bundle: DatasetBundle, dropout: bool = False) -> int:
    """Bytes one training step on ``sub``, a ball of ``bundle``'s graph, holds at
    its peak: the ball, what :func:`~hopf.kernels.predict` keeps for backward,
    and backward's working set.

    Layer k holds ``layer_rows(sub, depth)[k]`` rows of h_k's width in float64s
    (``hidden_dim`` for h_0, ``wl``'s fan-in above; see ``param_shapes``),
    plus a bool ReLU mask and, with dropout, a float64 mask. The cache holds
    no adjacency: ``8 * nnz`` bounds the float64 weights of the largest block
    of the normalized adjacency that the forward or backward builds for one
    layer (scipy shares the ball's int32 index arrays). Backward's largest
    layer holds its pre-activation gradient, and for the layer below the
    gradient, the aggregated neighbor term and its product with the weights.
    The input layer copies the ball's feature rows (gathered form) or scatters
    into one gradient a row per graph node tall (whole-graph form; see
    ``WHOLE_GRAPH_FRACTION``). Weight matrices and Adam moments are excluded;
    they do not grow with the ball. So is the workspace that BLAS maps for
    itself to pack operands, which numpy never allocates (see
    ``kernels._input_product`` and ``kernels._hidden_product``).
    """
    rows = layer_rows(sub, spec.depth)
    above = param_shapes(spec, bundle.num_features, bundle.num_labels)["wl"][0]  # h_1..h_C's width
    widths = [spec.hidden_dim] + [above] * spec.depth
    nnz = sub.indices.size
    ball = 4 * (nnz + sub.n) + 16 * sub.n  # int32 indices and indptr, int64 ids and degrees
    adjacency = 8 * nnz  # the largest layer block's float64 weights
    cache = sum(r * w * (9 + 8 * dropout) for r, w in zip(rows, widths))
    if spec.uses_labels:
        cache += 8 * rows[0] * bundle.num_labels
    working = max(8 * (3 * rows[k - 1] * widths[k - 1] + rows[k] * widths[k])
                  for k in range(1, spec.depth + 1))
    if rows[0] >= WHOLE_GRAPH_FRACTION * bundle.graph.n:
        working = max(working, 8 * (bundle.graph.n + rows[0]) * widths[0])
    else:
        cache += 8 * rows[0] * bundle.num_features
    return ball + adjacency + cache + working


def time_epoch(spec, bundle: DatasetBundle, train_nodes, config: TrainConfig,
               budget_bytes: int | None, epoch_seed: int) -> tuple[float, int]:
    """One mini-batch epoch of :func:`~hopf.training.train_step` at round one's
    all-zero label channel, timed end to end.

    Returns the seconds and the largest :func:`estimate_batch_bytes` of its batches.
    Raises BudgetExceeded when a batch's projected footprint is over budget.
    """
    weights = ModelWeights.init(spec, bundle.num_features, bundle.num_labels, config.rng_seed)
    adam = {name: AdamState.for_param(p) for name, p in weights.params()}
    omega = _class_weights(bundle.y, train_nodes, config.use_wce)
    rng = np.random.default_rng(epoch_seed)
    batches = _batches(train_nodes, config.batch_size, rng)
    peak = 0
    start = time.perf_counter()
    try:
        for bidx, batch in enumerate(batches):
            sub = khop_subgraph(bundle.graph, batch, spec.depth)
            need = estimate_batch_bytes(spec, sub, bundle, config.dropout_rate > 0)
            peak = max(peak, need)
            if budget_bytes is not None and need > budget_bytes:
                raise BudgetExceeded(f"batch needs ~{need/2**30:.2f} GiB", need)
            train_step(spec, weights, adam, sub, bundle, None, omega, config,
                       config.learning_rate, epoch=1, batch=bidx)
    except MemoryError as exc:  # pragma: no cover - depends on host memory
        raise BudgetExceeded(str(exc), peak) from exc
    return time.perf_counter() - start, peak


def run_scaling(bundle: DatasetBundle, split: SplitSpec, variants, hops_list,
                repeats: int, config: TrainConfig,
                budget_bytes: int | None = None) -> list[BenchCell]:
    """Mean epoch-equivalent seconds per (variant, total hops K) cell."""
    parsed = [(token, *parse_variant(token)) for token in variants]  # all, before any timing
    if any(k < 1 for k in hops_list):
        raise ConfigError(f"every total hop count must be >= 1, got {list(hops_list)}")
    if any(k > bundle.graph.n for k in hops_list):  # a ball stops growing after n - 1 hops
        raise ConfigError(f"every total hop count must be at most the graph's {bundle.graph.n} "
                          f"nodes, got {list(hops_list)}")
    cells = []
    for token, name, c_fixed in parsed:
        for k in hops_list:
            if c_fixed and k % c_fixed != 0:
                cells.append(BenchCell(token, k, None, "n/a"))
                continue
            depth = k if not c_fixed else c_fixed
            rounds = 1 if not c_fixed else k // c_fixed
            spec = make_kernel(name, depth=depth, hidden_dim=config.hidden_dim)
            peak = 0
            try:
                times = []
                for rep in range(repeats + 1):  # first lap warms caches, not counted
                    total = 0.0
                    for t in range(rounds):
                        seconds, need = time_epoch(
                            spec, bundle, split.train_nodes, config, budget_bytes,
                            epoch_seed=config.rng_seed + 7919 * (rep * rounds + t))
                        total += seconds
                        peak = max(peak, need)
                    if rep > 0:
                        times.append(total)
                cells.append(BenchCell(token, k, float(np.mean(times)), "ok", peak))
            except BudgetExceeded as exc:
                cells.append(BenchCell(token, k, None, "infeasible",
                                       max(peak, exc.batch_bytes)))
    return cells
