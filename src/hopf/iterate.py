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

import hashlib
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

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
             train_config: TrainConfig, hopf_config: HopfConfig, out_dir=None) -> HopfResult:
    """Run T rounds of train / infer / restore / average; returns final estimates.

    The label estimate starts at zero everywhere (round one sees an all-zero
    channel, even on labeled rows). The per-round trajectory reports test
    micro-F1 of the fresh inference. Artifacts per round land in ``out_dir``:
    a binary weights snapshot plus CSV dumps of both label matrices, written as
    the round ends. A matrix with the same bytes as the one last written under
    its name is copied from that file, not formatted again: under the (T-t)/T
    rule round T's fresh weight is 0, so ``yhat_t{T}`` repeats ``yhat_t{T-1}``.
    Matrices are recognised by a digest of their bytes, not their values, so
    -0.0 and NaN never alias, and no copy of a matrix is kept. A rerun into the
    same ``out_dir`` first deletes the round files an earlier run left.
    """
    require_label_channel(spec)
    yhat, ytilde = np.zeros(bundle.y.shape), np.zeros(bundle.y.shape)
    u_nodes = np.setdiff1d(np.arange(bundle.graph.n), split.train_nodes)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        for pattern in ("metrics.csv", "weights_t*.bin", "yhat_t*.csv", "ytilde_t*.csv"):
            for stale in out_path.glob(pattern):
                stale.unlink()

    weights = None
    result = HopfResult(yhat=yhat, ytilde=ytilde, trajectory=[], weights=None)
    digests: dict[str, bytes] = {}  # stem -> SHA-256 of the matrix last written under it
    for t in range(1, hopf_config.T + 1):
        cfg_t = replace(train_config,
                        rng_seed=train_config.rng_seed + _ITER_SEED_STRIDE * (t - 1))
        # a warm start resumes from a copy of the last weights; Adam's moments start afresh
        init = weights.copy() if (hopf_config.warm_start and weights is not None) else None
        # train and infer read yhat as this round's frozen channel; it is first
        # written below, once infer has returned, so they need no copy of it
        weights, history = train(spec, bundle, split, cfg_t, yhat=yhat, init_weights=init)
        result.histories.append(history)

        ytilde[u_nodes] = infer(spec, weights, bundle, u_nodes, yhat)
        yhat[split.train_nodes] = bundle.y[split.train_nodes]
        yhat[u_nodes] = temporal_average(ytilde[u_nodes], yhat[u_nodes], t, hopf_config.T,
                                         shifted=hopf_config.shifted_averaging)

        test_f1 = micro_f1(binarize_predictions(ytilde[split.test_nodes], bundle.task),
                           bundle.y[split.test_nodes])
        result.trajectory.append({"iteration": t, "micro_f1": test_f1})

        if out_path is not None:
            weights.save(out_path / f"weights_t{t}.bin")
            for stem, matrix in (("yhat", yhat), ("ytilde", ytilde)):
                path, digest = out_path / f"{stem}_t{t}.csv", hashlib.sha256(matrix).digest()
                if digests.get(stem) == digest:
                    shutil.copyfile(out_path / f"{stem}_t{t - 1}.csv", path)
                else:
                    _dump_labels(path, matrix)
                digests[stem] = digest
            _append_metrics_row(out_path / "metrics.csv", t, test_f1)

    result.weights = weights
    return result


# the label CSV writer, under the name that perfbench/spans.py traces
_dump_labels = labelcsv.write


def _append_metrics_row(path: Path, iteration: int, test_f1: float) -> None:
    header = None if path.exists() else ["iteration", "test_micro_f1"]
    labelcsv.write_rows(path, header, [[iteration, test_f1]])
