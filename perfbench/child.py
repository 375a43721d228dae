"""One verb call in a fresh process: time it, check its outputs, write a result file.

    python3 perfbench/child.py JOB_JSON RESULT_JSON

``JOB_JSON`` holds the verb argv, the dataset and output directories, the
seed, the expected epoch and round counts and whether to trace. The result
file holds the call's exit code, wall and set-up time, peak RSS, the test
micro-F1 as written, the failed output checks and, when traced, the
per-layer metrics. ``run.py`` starts this script once per call.
"""

from __future__ import annotations

import csv
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import spans  # noqa: E402  (sits beside this file)


def _read_rows(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.asarray([[float(v) for v in row] for row in rows], dtype=np.float64)


def _check_probs(name: str, p: np.ndarray, rows: int, cols: int, failures: list) -> None:
    if p.shape != (rows, cols):
        failures.append(f"{name}: shape {p.shape}, expected {(rows, cols)}")
    elif not (np.isfinite(p).all() and (p >= 0.0).all() and (p <= 1.0).all()):
        failures.append(f"{name}: predictions not finite or outside [0, 1]")


def check_outputs(job: dict, out: Path) -> tuple[list[str], str | None]:
    """Failed output checks and the test micro-F1 exactly as the verb wrote it."""
    from hopf.training import make_splits

    verb = job["argv"][0]
    y = np.loadtxt(Path(job["dataset"]) / "labels.tsv", delimiter="\t", ndmin=2)
    n, labels = y.shape
    split = make_splits(n, job["seed"], num_folds=1)[0]
    if verb == "train":
        expected = ["manifest.json", "metrics.csv", "report.json", "history_fold0.csv",
                    "predictions_fold0.csv"]
    else:
        expected = ["manifest.json", "metrics.csv", "trajectory.csv", "yhat_final.csv",
                    "ytilde_final.csv", "iterations/metrics.csv"]
        expected += [f"iterations/{stem}_t{t}.{ext}" for t in range(1, job["rounds"] + 1)
                     for stem, ext in (("weights", "bin"), ("yhat", "csv"), ("ytilde", "csv"))]
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"], None

    failures: list[str] = []
    if verb == "train":
        preds = _read_rows(out / "predictions_fold0.csv")
        if preds.size and not np.array_equal(preds[:, 0], split.test_nodes):
            failures.append("predictions_fold0.csv: rows are not the test nodes")
        _check_probs("predictions_fold0.csv", preds[:, 1:], split.test_nodes.size, labels, failures)
        f1 = repr(float(json.loads((out / "report.json").read_text())["mean_micro_f1"]))
    else:
        yhat = _read_rows(out / "yhat_final.csv")
        _check_probs("yhat_final.csv", yhat, n, labels, failures)
        _check_probs("ytilde_final.csv", _read_rows(out / "ytilde_final.csv"), n, labels, failures)
        labeled = split.train_nodes
        if yhat.shape == y.shape and not np.array_equal(yhat[labeled], y[labeled]):
            failures.append("yhat_final.csv: labeled rows differ from the ground truth")
        with open(out / "trajectory.csv", newline="") as fh:
            trajectory = list(csv.DictReader(fh))
        if len(trajectory) != job["rounds"]:
            failures.append(f"trajectory.csv: {len(trajectory)} rounds, expected {job['rounds']}")
        f1 = repr(float(trajectory[-1]["micro_f1"])) if trajectory else None
    return failures, f1


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    import hopf
    from hopf import cli

    if not Path(hopf.__file__).resolve().is_relative_to(SRC):
        print(f"imported hopf from {hopf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    out = Path(job["out"])
    argv = [*job["argv"], "--dataset", job["dataset"], "--out", str(out),
            "--config", job["config"], "--seed", str(job["seed"])]
    rec = spans.Recorder()
    with rec.installed(spans.TARGETS if job["trace"] else spans.SETUP_TARGETS):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, f1 = ([f"exit code {rc}"], None) if rc != 0 else check_outputs(job, out)
    result = {"rc": rc, "wall_s": wall, "setup_s": rec.total(spans.LOAD),
              "peak_rss_mb": rss_mb, "test_micro_f1": f1}
    if job["trace"]:
        layers = spans.layer_metrics(rec.spans, wall, spans.dir_bytes(out))
        failures += spans.nesting_errors(rec.spans)[:1]
        want = job["epochs"] * job["rounds"]
        if layers["training.epochs"] != want:
            failures.append(f"traced {layers['training.epochs']} epochs, expected {want}")
        result["layers"] = layers
    result["failures"] = failures
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
