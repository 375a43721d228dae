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

import contextlib
import csv
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import labelcsv
from .errors import ArgumentError, ConfigError, HopfError
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
    a binary weights snapshot plus CSV dumps of both label matrices, which are
    formatted once the last round has returned (see ``_LabelCSVs``). A rerun
    into the same ``out_dir`` first deletes the round files an earlier run left.
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
        for stale in out_path.glob(".labels-*"):  # snapshots of a run that was killed
            shutil.rmtree(stale)

    weights = None
    result = HopfResult(yhat=yhat, ytilde=ytilde, trajectory=[], weights=None)
    with _LabelCSVs(out_path) if out_path is not None else contextlib.nullcontext() as labels:
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
                labels.add("yhat", t, yhat)
                labels.add("ytilde", t, ytilde)
                _append_metrics_row(out_path / "metrics.csv", t, test_f1)

    result.weights = weights
    return result


class _LabelCSVs:
    """The ``{yhat,ytilde}_t{t}.csv`` files of one ``run_hopf`` call.

    Formatting a 20k-by-10 matrix as text takes about 0.16 s, far more than
    saving its bytes, so a round only saves each matrix raw
    (``ndarray.tofile``) into a temporary directory under the output
    directory, and every CSV is formatted when the ``with`` block ends: after
    the last round, or after a round that raised an ``Exception``, so the
    rounds before it keep their files. Formatting then has the cores to
    itself; a helper that ran beside a round's training would slow the BLAS
    threads more than it saves.

    A matrix with the same bytes as the one last added under its name (under
    the (T-t)/T rule round T's fresh weight is 0, so ``yhat_t{T}`` repeats
    ``yhat_t{T-1}``) is not formatted again: its file is copied from the
    previous round's once formatting is done. Matrices are recognised by a
    digest of their bytes, not their values, so -0.0 and NaN never alias, and
    no copy of a matrix is kept.

    Leaving the block removes the snapshots, whatever ends it. While the
    block is open, a SIGTERM to a process that would otherwise die of it
    raises ``SystemExit(143)`` instead, so the helper is reaped and the
    snapshots are removed on that way out too.
    """

    def __init__(self, out_path: Path):
        self.out_path = out_path
        self.digests: dict[str, bytes] = {}  # stem -> SHA-256 of the matrix last added under it
        self.jobs: list[tuple[Path, Path]] = []  # (snapshot, CSV) pairs still to format
        self.copies: list[tuple[Path, Path]] = []  # (earlier CSV, CSV), made after formatting
        self.shape = (0, 0)
        self.snapshots = None
        self.sigterm = None

    def __enter__(self):
        self.snapshots = Path(tempfile.mkdtemp(prefix=".labels-", dir=self.out_path))
        if (threading.current_thread() is threading.main_thread()
                and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL):
            self.sigterm = signal.signal(signal.SIGTERM, _exit_on_sigterm)
        return self

    def add(self, stem: str, t: int, matrix: np.ndarray) -> None:
        path = self.out_path / f"{stem}_t{t}.csv"
        digest = hashlib.sha256(matrix).digest()
        if self.digests.get(stem) == digest:
            self.copies.append((self.out_path / f"{stem}_t{t - 1}.csv", path))
        else:
            snapshot = self.snapshots / f"{stem}_t{t}.f64"
            matrix.tofile(snapshot)
            self.jobs.append((snapshot, path))
            self.digests[stem] = digest
        self.shape = matrix.shape

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None or issubclass(exc_type, Exception):
                _format_labels(self.jobs, *self.shape)
                for earlier, path in self.copies:
                    shutil.copyfile(earlier, path)
        finally:
            shutil.rmtree(self.snapshots, ignore_errors=True)
            if self.sigterm is not None:
                signal.signal(signal.SIGTERM, self.sigterm)


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # an OS without affinity masks
        return os.cpu_count() or 1


def _format_labels(jobs: list[tuple[Path, Path]], rows: int, cols: int) -> None:
    """Write the CSV of each ``(snapshot, CSV path)`` pair in ``jobs``, all ``rows`` x ``cols``.

    Every file is cut at the same row, ``head``. This process writes its header
    and rows ``[0, head)`` through ``_dump_labels``. With more than one usable
    core, ``head = rows - rows // 2`` and a helper interpreter (``labelcsv`` run
    as a script) writes rows ``[head, rows)`` of every snapshot to the ``.tail``
    file beside it, which this process then appends; with one, ``head = rows``
    and no helper starts. Both sides use ``labelcsv.write``, so the bytes do not
    depend on who wrote which rows. A helper that fails raises a ``HopfError``
    naming the CSV whose tail it could not write; if this process raises first,
    the helper is killed. Either way it is reaped before this returns.
    """
    head = rows - rows // 2 if _usable_cores() > 1 else rows
    helper = None
    if head < rows:
        helper = subprocess.Popen(
            [sys.executable, "-I", "-S", labelcsv.__file__, str(cols), str(head),
             *(str(snapshot) for snapshot, _ in jobs)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        for snapshot, path in jobs:
            _dump_labels(path, np.fromfile(snapshot, count=head * cols).reshape(head, cols))
        if helper is not None:
            err = helper.communicate()[1].decode(errors="replace").strip()
            if helper.returncode:
                names = ([path.name for snapshot, path in jobs if err.startswith(f"{snapshot}: ")]
                         or [path.name for _, path in jobs])  # killed before it could say
                raise HopfError(f"writing the tail of {', '.join(names)} failed "
                                f"(helper exit status {helper.returncode}): {err}")
            for snapshot, path in jobs:
                with open(path, "ab") as dst, open(snapshot.with_suffix(".tail"), "rb") as src:
                    shutil.copyfileobj(src, dst)
    finally:
        if helper is not None:
            if helper.returncode is None:
                helper.kill()
            helper.wait()
            helper.stderr.close()


def _dump_labels(path, matrix: np.ndarray) -> None:
    """Write a label matrix as CSV (``labelcsv.write``), ``labelcsv.BLOCK_ROWS`` rows at a time."""
    rows = labelcsv.BLOCK_ROWS
    labelcsv.write(path, matrix.shape[1], (matrix[start : start + rows].ravel().tolist()
                                           for start in range(0, matrix.shape[0], rows)))


def _append_metrics_row(path: Path, iteration: int, test_f1: float) -> None:
    new = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(["iteration", "test_micro_f1"])
        writer.writerow([iteration, repr(float(test_f1))])
