"""Iterative learning and inference: interleave a C-hop kernel with label feedback.

Each round trains the kernel on the labeled nodes using the previous round's
label estimates as a frozen input channel, re-infers all unlabeled nodes in
one forward pass, restores ground truth on the labeled rows, and folds the fresh
predictions into the running estimate by temporal averaging. Gradients never
cross rounds: the label channel is data, not a differentiable input. After T
rounds a C-layer kernel has drawn on information from up to T*C hops while the
trainable parameter count stays that of a single C-layer kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import labelcsv
from .errors import ArgumentError, ConfigError
from .data import DatasetBundle
from .graph import khop_subgraph  # noqa: F401  (perfbench/spans.py traces this name)
from .kernels import ITERATIVE_MODELS, KernelSpec, ModelWeights
from .kernels import predict  # noqa: F401  (likewise)
from .metrics import binarize_predictions, micro_f1
from .training import SplitSpec, TrainConfig, infer, train

_ITER_SEED_STRIDE = 1000003  # round t trains with seed rng_seed + stride*(t-1)


@dataclass
class HopfConfig:
    """Outer-loop shape: T rounds of the kernel's C = ``spec.depth`` hops, reach K = T*C.

    ``shifted_averaging`` swaps the fresh-prediction weight (T - t)/T for
    (T - t + 1)/T, which keeps a nonzero share for the final round's inference
    instead of discarding it.
    """

    T: int = 1
    warm_start: bool = True
    shifted_averaging: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise ConfigError(f"need T >= 1, got T={self.T}")


def temporal_average(ytilde_u: np.ndarray, yhat_u_old: np.ndarray, t: int, T: int,
                     shifted: bool = False) -> np.ndarray:
    """Blend fresh predictions into the running estimate for round t of T.

    The default weighting is (T - t)/T on the fresh matrix and t/T on the old
    one, exactly as the update rule is written; ``shifted`` uses (T - t + 1)/T
    so the last round's inference is not dropped.
    """
    if not 1 <= t <= T:
        raise ArgumentError(f"round index must satisfy 1 <= t <= T, got t={t}, T={T}")
    ytilde_u = np.asarray(ytilde_u, dtype=np.float64)
    yhat_u_old = np.asarray(yhat_u_old, dtype=np.float64)
    if ytilde_u.shape != yhat_u_old.shape:
        raise ArgumentError(f"shape mismatch: {ytilde_u.shape} vs {yhat_u_old.shape}")
    fresh = (T - t + 1) / T if shifted else (T - t) / T
    return fresh * ytilde_u + (1.0 - fresh) * yhat_u_old


@dataclass
class HopfResult:
    yhat: np.ndarray
    ytilde: np.ndarray
    trajectory: list
    weights: ModelWeights
    histories: list = field(default_factory=list)


def require_label_channel(spec: KernelSpec) -> None:
    """Refuse a kernel without a label channel: every round feeds labels back through it."""
    if not spec.uses_labels:
        raise ConfigError(f"{spec.name} has no label channel, which the iterative loop needs "
                          f"(use one of: {', '.join(ITERATIVE_MODELS)})")


def run_hopf(spec: KernelSpec, bundle: DatasetBundle, split: SplitSpec,
             train_config: TrainConfig, hopf_config: HopfConfig, on_round=None) -> HopfResult:
    """Run T rounds of train / infer / restore / average; returns final estimates.

    The label estimate starts at zero everywhere (round one sees an all-zero
    channel, even on labeled rows). The per-round trajectory reports test
    micro-F1 of the fresh inference. No file is written: ``on_round(result)``,
    if given, runs as each round ends, with that round's weights and trajectory
    row in ``result`` and the live ``yhat`` and ``ytilde``, which later rounds overwrite.
    """
    require_label_channel(spec)
    yhat, ytilde = np.zeros(bundle.y.shape), np.zeros(bundle.y.shape)
    u_nodes = np.setdiff1d(np.arange(bundle.graph.n), split.train_nodes)
    result = HopfResult(yhat=yhat, ytilde=ytilde, trajectory=[], weights=None)
    for t in range(1, hopf_config.T + 1):
        cfg_t = replace(train_config, rng_seed=train_config.rng_seed + _ITER_SEED_STRIDE * (t - 1))
        # a warm start resumes from a copy of the last weights; Adam's moments start afresh
        init = result.weights.copy() if (hopf_config.warm_start and t > 1) else None
        # train and infer read yhat as this round's frozen channel; it is first
        # written below, once infer has returned, so they need no copy of it
        result.weights, history = train(spec, bundle, split, cfg_t, yhat=yhat, init_weights=init)
        result.histories.append(history)

        ytilde[u_nodes] = infer(spec, result.weights, bundle, u_nodes, yhat)
        yhat[split.train_nodes] = bundle.y[split.train_nodes]
        yhat[u_nodes] = temporal_average(ytilde[u_nodes], yhat[u_nodes], t, hopf_config.T,
                                         shifted=hopf_config.shifted_averaging)

        test_f1 = micro_f1(binarize_predictions(ytilde[split.test_nodes], bundle.task),
                           bundle.y[split.test_nodes])
        result.trajectory.append({"iteration": t, "micro_f1": test_f1})
        if on_round is not None:
            on_round(result)
    return result


# the label CSV and round-metrics writers, under the names that perfbench/spans.py traces
_dump_labels = labelcsv.write
_append_metrics_row = labelcsv.write_rows
