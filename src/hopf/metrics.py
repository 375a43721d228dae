"""Classification objectives and comparison metrics.

The loss is a class-weighted cross entropy covering both the multi-class
(softmax rows) and multi-label (independent sigmoids) settings. Comparison
across models uses pooled micro-F1, relative shortfall against the per-dataset
best, and mean rank.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import astuple, dataclass, fields
from enum import Enum

import numpy as np

from . import labelcsv
from .errors import ArgumentError, ConfigError

LOG_EPS = 1e-12  # clamp inside logs so the loss is always finite


class Task(str, Enum):
    MULTI_CLASS = "multi_class"
    MULTI_LABEL = "multi_label"


def wce_weights(label_counts) -> np.ndarray:
    """Per-label loss weights, inversely proportional to training frequency.

    omega_i = (sum_j N_j) / (|L| * N_i); balanced counts give all ones.
    """
    counts = np.asarray(label_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ConfigError("label_counts must be a non-empty vector")
    if np.any(counts < 1):
        missing = np.nonzero(counts < 1)[0]
        raise ConfigError(
            f"labels {missing.tolist()} have no training examples; "
            "resample the training split or disable class weighting"
        )
    return counts.sum() / (counts.size * counts)


def weighted_cross_entropy(ytilde: np.ndarray, ytrue: np.ndarray, omega: np.ndarray,
                           task: Task):
    """Weighted cross entropy and its gradient with respect to the predictions.

    Multi-class averages -omega_y * log p_y over nodes; multi-label averages
    -(omega_i * y_i * log p_i + (1 - y_i) * log(1 - p_i)) over every
    (node, label) cell. Probabilities are clamped at ``LOG_EPS`` inside the
    logs, so the loss never produces NaN.
    """
    ytilde = np.asarray(ytilde, dtype=np.float64)
    ytrue = np.asarray(ytrue, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if ytilde.shape != ytrue.shape:
        raise ArgumentError(f"prediction/label shapes differ: {ytilde.shape} vs {ytrue.shape}")
    n, l = ytilde.shape
    grad = np.zeros_like(ytilde)
    if task == Task.MULTI_CLASS:
        p = np.maximum(ytilde, LOG_EPS)
        picked = ytrue > 0
        w = np.broadcast_to(omega, (n, l))
        loss = -(w[picked] * np.log(p[picked])).sum() / n
        grad[picked] = -(w[picked] / p[picked]) / n
        grad[ytilde <= LOG_EPS] = 0.0  # clamped region is flat
    elif task == Task.MULTI_LABEL:
        p = np.clip(ytilde, LOG_EPS, 1.0 - LOG_EPS)
        w = np.broadcast_to(omega, (n, l))
        cells = w * ytrue * np.log(p) + (1.0 - ytrue) * np.log(1.0 - p)
        loss = -cells.sum() / (n * l)
        inside = (ytilde > LOG_EPS) & (ytilde < 1.0 - LOG_EPS)
        grad = -(w * ytrue / p - (1.0 - ytrue) / (1.0 - p)) / (n * l)
        grad[~inside] = 0.0
    else:
        raise ConfigError(f"unknown task {task!r}")
    return float(loss), grad


def binarize_predictions(ytilde: np.ndarray, task: Task) -> np.ndarray:
    """Hard decisions: argmax one-hot for multi-class, 0.5 threshold for multi-label."""
    ytilde = np.asarray(ytilde)
    if task == Task.MULTI_CLASS:
        out = np.zeros_like(ytilde, dtype=np.int64)
        out[np.arange(ytilde.shape[0]), ytilde.argmax(axis=1)] = 1
        return out
    return (ytilde >= 0.5).astype(np.int64)


def micro_f1(pred_binary: np.ndarray, truth_binary: np.ndarray) -> float:
    """F1 from TP/FP/FN pooled over all (node, label) cells.

    The degenerate all-negative case (no positives anywhere in either side)
    counts as a perfect 1.0.
    """
    pred = np.asarray(pred_binary).astype(bool)
    truth = np.asarray(truth_binary).astype(bool)
    if pred.shape != truth.shape:
        raise ArgumentError(f"shapes differ: {pred.shape} vs {truth.shape}")
    tp = np.sum(pred & truth)
    fp = np.sum(pred & ~truth)
    fn = np.sum(~pred & truth)
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0
    return float(2 * tp / denom)


def _score_table(scores: dict) -> tuple[list[str], list[str], np.ndarray]:
    models = list(scores)
    if not models:
        raise ArgumentError("empty score table")
    datasets = list(dict.fromkeys(d for m in models for d in scores[m]))
    if not datasets:
        raise ArgumentError("score table has no dataset columns")
    table = np.empty((len(models), len(datasets)))
    for i, m in enumerate(models):
        for j, d in enumerate(datasets):
            if d not in scores[m]:
                raise ArgumentError(f"model {m!r} is missing a score for dataset {d!r}")
            table[i, j] = scores[m][d]
    return models, datasets, table


def per_dataset_shortfall(scores: dict) -> dict[str, dict[str, float]]:
    """Relative gap (best - score) / best of each model on each dataset.

    ``scores`` maps model -> dataset -> micro-F1; every model must score
    every dataset, and each column's winner gets 0.
    """
    models, datasets, table = _score_table(scores)
    best = table.max(axis=0)
    if np.any(best <= 0):
        raise ArgumentError("per-dataset best score must be positive")
    cells = (best[None, :] - table) / best[None, :]
    return {m: dict(zip(datasets, row.tolist())) for m, row in zip(models, cells)}


def shortfall(scores: dict) -> dict[str, float]:
    """Mean relative gap to the per-dataset best model; lower is better."""
    return {m: float(np.mean(list(row.values())))
            for m, row in per_dataset_shortfall(scores).items()}


def average_rank(scores: dict) -> dict[str, float]:
    """Mean rank per model across dataset columns (rank 1 = best; ties midranked)."""
    from scipy.stats import rankdata  # imported here: scipy.stats costs every verb ~40 MB

    models, _, table = _score_table(scores)
    ranks = np.column_stack([rankdata(-table[:, j], method="average") for j in range(table.shape[1])])
    return {m: float(v) for m, v in zip(models, ranks.mean(axis=1))}


@dataclass
class MetricsRecord:
    """One evaluation outcome: a model on one dataset fold."""

    model: str
    dataset: str
    fold: int
    micro_f1: float
    loss: float


def write_records_csv(records, path) -> None:
    labelcsv.write_rows(path, [f.name for f in fields(MetricsRecord)], map(astuple, records))


def read_scores_csv(path) -> dict:
    """Read a (model, dataset, micro_f1) CSV into the nested score-table form.

    Each (model, dataset) pair must appear once: a repeated pair, such as the
    per-fold rows of a ``train`` run's ``metrics.csv`` or the per-round rows of
    a ``hopf`` run's, is an ``ArgumentError`` rather than a silent choice of
    one row.
    A score may be a fraction or a percentage, but not nan or inf.
    """
    scores: dict[str, dict[str, float]] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is no column
            text = fh.read()
    except OSError as exc:
        raise ArgumentError(f"{path}: cannot read scores ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None or not {"model", "dataset", "micro_f1"} <= set(reader.fieldnames):
        raise ArgumentError(f"{path}: expected columns model, dataset, micro_f1")
    for row in reader:
        try:
            score = float(row["micro_f1"])
        except (TypeError, ValueError) as exc:
            raise ArgumentError(f"{path}: malformed row {row!r}") from exc
        if not math.isfinite(score):
            raise ArgumentError(f"{path}: model {row['model']!r} on dataset "
                                f"{row['dataset']!r} has a non-finite micro_f1 {score!r}")
        per_model = scores.setdefault(row["model"], {})
        if row["dataset"] in per_model:
            raise ArgumentError(f"{path}: model {row['model']!r} on dataset "
                                f"{row['dataset']!r} is scored more than once")
        per_model[row["dataset"]] = score
    return scores


def write_report_json(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
