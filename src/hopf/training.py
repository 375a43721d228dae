"""Mini-batch semi-supervised training with patience-based early stopping.

Each batch extracts the depth-hop neighborhood of its seed nodes (optionally
with per-hop neighbor sampling), runs the kernel forward, applies the weighted
cross entropy plus L2, and takes one Adam step per weight matrix. Validation
loss drives a patience scheduler that halves the learning rate and the
patience window together, and stops after two consecutive exhaustions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetBundle
from .errors import ArgumentError, ConfigError, TrainingError
from .graph import khop_subgraph, sample_neighbors
from .kernels import KernelSpec, ModelWeights, backward, predict
from .metrics import binarize_predictions, micro_f1, wce_weights, weighted_cross_entropy
from .numerics import AdamState, adam_step


@dataclass
class TrainConfig:
    batch_size: int = 128
    hidden_dim: int = 16
    learning_rate: float = 1e-2
    l2_weight: float = 0.0
    dropout_rate: float = 0.0
    max_epochs: int = 2000
    use_wce: bool = True
    rng_seed: int = 0
    patience: int = 30
    min_epochs: int = 50

    def __post_init__(self):
        for name in ("batch_size", "hidden_dim", "max_epochs", "rng_seed", "patience",
                     "min_epochs"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is a subclass of int, so isinstance would pass it
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "l2_weight", "dropout_rate"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if type(self.use_wce) is not bool:
            raise ConfigError(f"use_wce must be true or false, got {self.use_wce!r}")
        if self.batch_size < 1 or self.hidden_dim < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size, hidden_dim and max_epochs must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.learning_rate < 0 or self.l2_weight < 0:
            raise ConfigError("learning_rate and l2_weight must be non-negative")
        for name in ("rng_seed", "patience", "min_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class SplitSpec:
    """Disjoint node sets: labeled training, validation, shared test, unlabeled."""

    train_nodes: np.ndarray
    val_nodes: np.ndarray
    test_nodes: np.ndarray
    unlabeled_nodes: np.ndarray

    def __post_init__(self):
        parts = [self.train_nodes, self.val_nodes, self.test_nodes, self.unlabeled_nodes]
        total = sum(p.size for p in parts)
        if np.unique(np.concatenate(parts)).size != total:
            raise ConfigError("split sets must be disjoint")


def make_splits(n: int, rng_seed: int, num_folds: int = 5) -> list[SplitSpec]:
    """One shared 20% test set; per fold, 10% labeled nodes of which 20% validate.

    Everything else is unlabeled. Identical seeds give identical splits.
    """
    if n < 10:
        raise ConfigError(f"need n >= 10 for non-empty splits, got {n}")
    rng = np.random.default_rng(rng_seed)
    test = np.sort(rng.choice(n, size=n // 5, replace=False))
    pool = np.setdiff1d(np.arange(n), test)
    folds = []
    labeled_size = n // 10
    if labeled_size < 1 or labeled_size > pool.size:
        raise ConfigError(f"cannot draw {labeled_size} labeled nodes from {pool.size}")
    for _ in range(num_folds):
        labeled = rng.choice(pool, size=labeled_size, replace=False)
        val_size = labeled_size // 5
        val = np.sort(labeled[:val_size])
        train = np.sort(labeled[val_size:])
        unlabeled = np.setdiff1d(pool, labeled)
        folds.append(SplitSpec(train_nodes=train, val_nodes=val,
                               test_nodes=test.copy(), unlabeled_nodes=unlabeled))
    return folds


@dataclass
class EarlyStopState:
    """Patience scheduler: halve lr and patience on exhaustion, stop after two in a row."""

    patience_budget: int
    lr_current: float
    best_val_loss: float = field(init=False, default=np.inf)
    patience_remaining: int = field(init=False)
    consecutive_exhaustions: int = field(init=False, default=0)
    stopped: bool = field(init=False, default=False)

    def __post_init__(self):
        self.patience_remaining = self.patience_budget

    def observe(self, val_loss: float) -> str:
        """Feed one validation loss; returns improved | waiting | annealed | stop."""
        if val_loss < self.best_val_loss:
            self.best_val_loss = val_loss
            self.patience_remaining = self.patience_budget
            self.consecutive_exhaustions = 0
            self.stopped = False
            return "improved"
        self.patience_remaining -= 1
        if self.patience_remaining > 0:
            return "waiting"
        self.consecutive_exhaustions += 1
        if self.consecutive_exhaustions >= 2:
            self.stopped = True
            return "stop"
        self.lr_current /= 2.0
        self.patience_budget = max(1, self.patience_budget // 2)
        self.patience_remaining = self.patience_budget
        return "annealed"


def _class_weights(y: np.ndarray, train_nodes: np.ndarray, use_wce: bool) -> np.ndarray:
    return wce_weights(y[train_nodes].sum(axis=0)) if use_wce else np.ones(y.shape[1])


def _batches(nodes: np.ndarray, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(nodes)
    return [perm[i : i + batch_size] for i in range(0, perm.size, batch_size)]


def infer(spec: KernelSpec, weights: ModelWeights, bundle: DatasetBundle,
          nodes: np.ndarray, yhat: np.ndarray | None = None) -> np.ndarray:
    """Predictions for the distinct ``nodes``, in their order, from one forward pass.

    One ``spec.depth``-hop ball holds the whole node set, and each layer
    computes every row the set depends on once (GraphSAGE's layer-wise
    inference). A node's prediction depends only on the graph, the weights
    and the label channel ``yhat``, never on which nodes share the set. The
    pass runs ``predict`` without gradients, so it keeps nothing for
    backward. It reads ``bundle.x`` and ``yhat`` in place and holds the
    ball's edges plus at most three n x hidden arrays at a time (h_0, the
    layer's input and its neighbour product; each layer is written over its
    input where it can be), so there is nothing to chunk.
    """
    sub = khop_subgraph(bundle.graph, nodes, spec.depth)
    if sub.num_seeds != len(nodes):
        raise ArgumentError("inference nodes must be distinct")
    yt, _ = predict(spec, weights, sub, bundle.x, yhat, task=bundle.task, grad=False)
    return yt


def train_step(spec: KernelSpec, weights: ModelWeights, adam: dict, sub,
               bundle: DatasetBundle, yhat: np.ndarray | None, omega: np.ndarray,
               config: TrainConfig, lr: float, epoch: int, batch: int) -> float:
    """One update on the seeds of ``sub``; returns the batch loss, L2 term included.

    Forward with the config's dropout (masks drawn from ``(rng_seed, epoch,
    batch)``), weighted cross entropy plus L2 against the seeds' labels (the
    ball keeps its seeds first, in batch order), backward, then one Adam step
    per weight matrix at ``lr``. ``weights`` and ``adam`` are updated in place.
    """
    drop_rng = np.random.default_rng(np.random.SeedSequence((config.rng_seed, epoch, batch)))
    yt, cache = predict(spec, weights, sub, bundle.x, yhat, task=bundle.task,
                        dropout_rate=config.dropout_rate, rng=drop_rng)
    loss, dloss = weighted_cross_entropy(yt, bundle.y[sub.global_ids[:sub.num_seeds]], omega,
                                         bundle.task)
    if config.l2_weight > 0:
        loss += 0.5 * config.l2_weight * weights.l2_norm_sq()
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite loss {loss}", epoch=epoch, batch=batch)
    grads = backward(cache, dloss)
    gdict = dict(grads.params())
    for name, p in weights.params():
        g = gdict[name]
        if config.l2_weight > 0:
            g = g + config.l2_weight * p
        adam_step(p, g, adam[name], lr)
    return loss


def train(spec: KernelSpec, bundle: DatasetBundle, split: SplitSpec, config: TrainConfig,
          yhat: np.ndarray | None = None, sample_caps=None,
          init_weights: ModelWeights | None = None):
    """Train one kernel on the split's labeled nodes; returns best weights and history.

    ``yhat`` is the frozen label-estimate channel for kernels that consume labels
    (None: the all-zero one); it is read, never written, and receives no gradient.
    Early stopping follows validation loss and is suppressed before ``min_epochs``.
    """
    if split.train_nodes.size == 0:
        raise ConfigError("training split is empty")
    if spec.hidden_dim != config.hidden_dim:
        raise ConfigError(f"{spec.name} has hidden width {spec.hidden_dim}, "
                          f"but the config asks for {config.hidden_dim}")
    if sample_caps is not None and len(sample_caps) != spec.depth:
        raise ConfigError(f"need one sample cap per hop: {spec.name} has depth {spec.depth}, "
                          f"got {len(sample_caps)} caps")
    omega = _class_weights(bundle.y, split.train_nodes, config.use_wce)
    weights = init_weights if init_weights is not None else ModelWeights.init(
        spec, bundle.num_features, bundle.num_labels, config.rng_seed)
    adam = {name: AdamState.for_param(p) for name, p in weights.params()}

    early = EarlyStopState(patience_budget=config.patience, lr_current=config.learning_rate)
    has_val = split.val_nodes.size > 0
    best_weights = weights  # the live weights, until validation first improves
    history = []

    for epoch in range(1, config.max_epochs + 1):
        epoch_rng = np.random.default_rng(np.random.SeedSequence((config.rng_seed, epoch)))
        batches = _batches(split.train_nodes, config.batch_size, epoch_rng)
        epoch_loss = 0.0
        for bidx, batch in enumerate(batches):
            if sample_caps:
                # the trailing 1 keeps this stream apart from the batch's dropout stream
                sample_seed = np.random.SeedSequence((config.rng_seed, epoch, bidx, 1))
                sub = sample_neighbors(bundle.graph, sample_caps, batch, sample_seed)
            else:
                sub = khop_subgraph(bundle.graph, batch, spec.depth)
            loss = train_step(spec, weights, adam, sub, bundle, yhat, omega, config,
                              early.lr_current, epoch, bidx)
            epoch_loss += loss * batch.size
        epoch_loss /= split.train_nodes.size

        val_loss = np.nan
        if has_val:
            val_pred = infer(spec, weights, bundle, split.val_nodes, yhat)
            val_loss, _ = weighted_cross_entropy(val_pred, bundle.y[split.val_nodes], omega,
                                                 bundle.task)
            if not np.isfinite(val_loss):
                raise TrainingError(f"non-finite validation loss {val_loss}", epoch=epoch)
            if early.observe(val_loss) == "improved":
                best_weights = weights.copy()
        history.append({"epoch": epoch, "train_loss": epoch_loss,
                        "val_loss": float(val_loss), "lr": early.lr_current})
        if has_val and early.stopped and epoch >= config.min_epochs:
            break

    return best_weights, history


def evaluate(spec: KernelSpec, weights: ModelWeights, bundle: DatasetBundle,
             node_set: np.ndarray) -> dict:
    """Deterministic inference plus micro-F1 and loss on ``node_set``, at a zero label channel."""
    node_set = np.asarray(node_set)
    if node_set.size == 0:
        raise ArgumentError("node_set must be non-empty")
    preds = infer(spec, weights, bundle, node_set)
    loss, _ = weighted_cross_entropy(preds, bundle.y[node_set], np.ones(bundle.num_labels),
                                     bundle.task)
    f1 = micro_f1(binarize_predictions(preds, bundle.task), bundle.y[node_set])
    return {"micro_f1": f1, "loss": loss, "predictions": preds}
