"""Benchmark runner: time the `train` and `hopf` verbs end to end on generated bundles.

    python3 perfbench/run.py --workload full_k3 --seed 0 --seconds 30 --trace 0

run.py generates the workload's bundle from the seed (cached under
``perfbench/.state/fixtures``), then calls the verb through
``hopf.cli.main`` in a fresh process per call, one call at a time, until
``--seconds`` have passed and at least two calls have run. Every call's
outputs are checked. ``--trace 0`` reports the end-to-end metrics as medians
over the calls; ``--trace 1`` alternates untraced and traced calls and reports
the per-layer metrics of the traced ones. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds host facts and per-call details.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

MIN_CALLS = 2          # the bit-identical F1 check needs two calls of one seed
START_LIMIT_S = 120.0  # start no call after this; a run must end within 180 s
CALL_LIMIT_S = 170.0
KEEP_FIXTURES = 6
REF_LOOPS = 5_000_000  # about 0.5 s on a 2-core cloud VM


@dataclass(frozen=True)
class Workload:
    gen: tuple[str, ...]   # `hopf gen` arguments, without --seed/--out
    verb: tuple[str, ...]  # verb arguments, without --dataset/--out/--config/--seed
    epochs: int            # fixed epochs per train call (max_epochs == min_epochs)
    rounds: int = 1        # train calls per verb call


BENCHMARK_20K = ("benchmark", "--nodes", "20000", "--edges", "100000")
WORKLOADS = {
    "full_k3": Workload(BENCHMARK_20K,
                        ("train", "--model", "nip_mean", "-C", "3", "--folds", "1"), epochs=3),
    "iter_k3": Workload(BENCHMARK_20K,
                        ("hopf", "--model", "i_nip_mean", "-C", "1", "-T", "3"), epochs=3, rounds=3),
    "planted_small": Workload(("planted", "--n", "400"),
                              ("hopf", "--model", "i_nip_mean", "-C", "2", "-T", "3"),
                              epochs=200, rounds=3),
}

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "epochs_per_ref": "1/ref", "peak_rss_mb": "MB",
              "ok_frac": "fraction"}
_PHASED = {f"{base}.{ph}": unit for ph in ("train", "val", "infer")
           for base, unit in (("graph.khop_subgraph.calls", "count"), ("graph.khop_subgraph.s", "s"),
                              ("kernels.predict.calls", "count"), ("kernels.predict.s", "s"))}
PER_LAYER = {
    "data.load_dataset.s": "s", "data.bytes_read": "B", "manifest.fingerprint_dir.s": "s",
    **{k: v for k, v in _PHASED.items() if k.startswith("graph.")},
    "graph.ball_rows_per_seed.train": "rows", "graph.ball_rows_per_seed.infer": "rows",
    "graph.sub_nnz.sum": "count",
    **{k: v for k, v in _PHASED.items() if k.startswith("kernels.")},
    "kernels.backward.calls": "count", "kernels.backward.s": "s",
    "kernels.rows_computed": "rows", "kernels.rows_needed": "rows",
    "kernels.useful_row_frac": "fraction",
    "metrics.weighted_cross_entropy.calls": "count", "metrics.weighted_cross_entropy.s": "s",
    "numerics.adam_step.calls": "count", "numerics.adam_step.s": "s",
    "training.train.s": "s", "training.epochs": "count", "training.epoch_s.p50": "s",
    "training.val_s": "s", "training.self_s": "s",
    "iterate.rounds": "count", "iterate.infer_nodes": "count",
    "artifacts.s": "s", "artifacts.bytes": "B",
    "cli.self_s": "s", "trace.overhead_frac": "ratio",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fixture(workload: Workload, seed: int, state: Path) -> tuple[Path, dict]:
    """The workload's bundle for ``seed``, generated once and cached under ``state``."""
    cache = state / "fixtures"
    key = "-".join(a.lstrip("-") for a in workload.gen) + f"-seed{seed}"
    target = cache / key
    info_path = target / "fixture.json"
    if info_path.is_file():
        os.utime(target)
        return target / "dataset", {**json.loads(info_path.read_text()), "cached": True}
    tmp = cache / f".{key}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "hopf", "gen", *workload.gen, "--seed", str(seed),
                    "--out", str(tmp)], env=_env(), check=True, capture_output=True,
                   timeout=CALL_LIMIT_S)
    info = {"key": key, "gen_s": time.perf_counter() - t0}
    (tmp / "fixture.json").write_text(json.dumps(info))
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    old = sorted((p for p in cache.iterdir() if not p.name.startswith(".")),
                 key=lambda p: p.stat().st_mtime)
    for stale in old[:-KEEP_FIXTURES]:
        shutil.rmtree(stale, ignore_errors=True)
    return target / "dataset", {**info, "cached": False}


def reference_s() -> float:
    """Time of a fixed pure-Python loop, the yardstick of the ``*_ref`` metrics.

    The host's speed drifts by up to a third over minutes, which moves every
    call of a run alike. run.py times this loop before the first call and
    after each call; dividing the run's median call time by the median loop
    time cancels most of that drift. The program cannot touch the loop, which
    runs in the runner's own process.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t


def call(workload: Workload, dataset: Path, seed: int, trace: bool, work: Path,
         timeout: float) -> dict:
    """One verb call in a fresh process; returns the child's result or a failure record."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps({"max_epochs": workload.epochs, "min_epochs": workload.epochs}))
    job = {"argv": list(workload.verb), "dataset": str(dataset), "out": str(work / "out"),
           "config": str(config), "seed": seed, "epochs": workload.epochs,
           "rounds": workload.rounds, "trace": trace}
    (work / "job.json").write_text(json.dumps(job))
    result_path = work / "result.json"
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(work / "job.json"),
                               str(result_path)], env=_env(), capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
        else:
            result = {"failures": [f"child exited {proc.returncode}"]}
        if result["failures"] and proc.stderr:
            result["failures"].append(proc.stderr[-2000:])
    except subprocess.TimeoutExpired:
        result = {"failures": [f"call exceeded {timeout:.0f} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["trace"] = trace
    return result


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            state: Path) -> tuple[dict, dict]:
    """Run the workload; returns the result object and the per-call details."""
    t_start = time.perf_counter()
    dataset, fixture_info = fixture(workload, seed, state)
    t_measure = time.perf_counter()
    results: list[dict] = []
    refs = [reference_s()]
    while True:
        elapsed = time.perf_counter() - t_start
        if len(results) >= MIN_CALLS and (time.perf_counter() - t_measure >= seconds
                                          or elapsed >= START_LIMIT_S):
            break
        traced = trace and len(results) % 2 == 1
        results.append(call(workload, dataset, seed, traced, state / "work" / name,
                            max(1.0, CALL_LIMIT_S - elapsed)))
        refs.append(reference_s())

    f1s = [r.get("test_micro_f1") for r in results if not r["failures"]]
    for r in results:
        if not r["failures"] and r["test_micro_f1"] != f1s[0]:
            r["failures"].append(f"test_micro_f1 {r['test_micro_f1']} differs from {f1s[0]}")
    ok = [r for r in results if not r["failures"]]
    failed = len(results) - len(ok)
    detail = {"workload": name, "seed": seed, "fixture": fixture_info, "host": host_facts(),
              "ref_s": refs,
              "calls": [{k: r.get(k) for k in ("trace", "wall_s", "setup_s", "peak_rss_mb",
                                               "test_micro_f1", "failures")} for r in results]}
    metrics = {}
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    if trace and plain and traced:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                         / statistics.median(r["wall_s"] for r in plain))
        detail["layers_extra"] = {k: v for k, v in layers.items() if k not in PER_LAYER}
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER.items()}
    elif not trace and plain:
        epochs = workload.epochs * workload.rounds
        raw = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "epochs_per_s": epochs / statistics.median(r["wall_s"] - r["setup_s"] for r in plain),
            "ref_s": statistics.median(refs),
        }
        values = {
            "wall_ref": raw["wall_s"] / raw["ref_s"],
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "epochs_per_ref": raw["epochs_per_s"] * raw["ref_s"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_frac": len(ok) / len(results),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        detail["seconds"] = raw
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(results),
              "failed": failed, "metrics": metrics}
    return result, detail


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def _blas() -> dict:
    import ctypes

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if libs:
        try:
            fn = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
            fn.restype = ctypes.c_int
            threads = fn()
        except (OSError, AttributeError):
            pass
    return {"name": deps.get("name"), "version": deps.get("version"), "threads": threads}


def host_facts() -> dict:
    import numpy as np
    import scipy

    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas(), "git": _git_state()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # One process drives the load; its BLAS pool may not exceed the usable cores.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(NPROC))
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the running call.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hopf" / "__init__.py").is_file():
        print(f"error: no hopf package under {SRC}", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), HERE / ".state")
    if not result["metrics"]:
        print(json.dumps(detail), file=sys.stderr)
        print("error: no call succeeded", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
