"""Command-line front end.

Verbs: ``gen`` (synthetic datasets), ``train`` (fold-averaged kernel training),
``hopf`` (iterative rounds), ``bench-scaling`` (epoch-time scaling table),
``neighbor-fraction`` (accuracy vs sampling caps), ``nim`` (self-information
decay table) and ``compare`` (shortfall / rank report). Every command writes a
``manifest.json`` into --out before any result file. Exit codes: 0 success,
1 a ``TrainingError`` (a run that diverged), 2 a usage error or any other
``HopfError``. The code follows from the error's class alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import iterate, labelcsv
from . import manifest as run_manifest
from .bench import run_scaling
from .data import (gen_benchmark_graph, gen_chain, gen_planted_partition, load_dataset,
                   row_normalize, save_dataset)
from .errors import ConfigError, HopfError, TrainingError
from .iterate import HopfConfig, require_label_channel, run_hopf
from .kernels import make_kernel, nim_decay_table
from .manifest import manifest_scope
from .metrics import (MetricsRecord, average_rank, per_dataset_shortfall, read_scores_csv,
                      shortfall, write_records_csv, write_report_json)
from .training import TrainConfig, evaluate, split_folds, train


def _int_at_least(low: int):
    """argparse ``type=`` for integers >= ``low``; a bad value exits with code 2."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_POSITIVE = _int_at_least(1)
_NON_NEGATIVE = _int_at_least(0)


def _finite_float(text: str) -> float:
    """argparse ``type=`` for finite floats; nan, inf or a non-number exits with code 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_list(text: str, flag: str, kind) -> list:
    """The comma list ``text`` given to ``flag``, each entry stripped and converted by ``kind``."""
    try:
        values = [kind(v.strip()) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: expected a comma list of {kind.__name__}s, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag}: expected at least one value, got {text!r}")
    return values


@contextlib.contextmanager
def _dataset_scope(args, config: TrainConfig, record: dict):
    """The manifest scope of a verb that reads ``--dataset``, yielding ``--out`` and
    the bundle with row-normalized features.

    The manifest's config is ``config``'s fields and ``record``, its seeds
    ``config.rng_seed``. It is written again once the bundle loads, with how the
    dataset cache served it, the bundle's fingerprint and the load's seconds."""
    out = Path(args.out)
    with manifest_scope(out, args.verb, args.argv, {**asdict(config), **record},
                        seeds={"rng_seed": config.rng_seed}) as manifest:
        t0 = time.perf_counter()
        bundle = load_dataset(args.dataset)
        manifest.dataset_cache = bundle.cache_outcome
        # through the module, so a tracer that swaps run_manifest.fingerprint_dir sees the call
        manifest.dataset_fingerprint = run_manifest.fingerprint_dir(bundle.digests)
        # Normalized into a copy on purpose: freeing the original x is what raises
        # glibc's dynamic mmap threshold above the 2.5 MB step arrays. Dividing x in
        # place, with norms summed a block at a time, saves the 15 MiB load transient
        # of the 20k-node bundle but lowers no call's peak: each step array is then
        # mmapped and faulted in afresh (about 150k minor faults per full_k3 call
        # against 9k), and the call took 1.5-1.7 s instead of 1.2-1.3 s (2-core VM).
        # test_cli's test_cache_hit_train_call_keeps_its_page_faults_few guards it.
        bundle.x = row_normalize(bundle.x)
        manifest.timings["load_seconds"] = time.perf_counter() - t0
        manifest.write(out)
        yield out, bundle


def _train_config(args) -> TrainConfig:
    overrides: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"--config {args.config}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise ConfigError(f"--config {args.config}: not a JSON file ({exc})") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"--config {args.config}: expected a JSON object, "
                              f"got a {type(file_cfg).__name__}")
        overrides.update(file_cfg)
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    try:
        return TrainConfig.from_dict(overrides)
    except ConfigError as exc:  # --seed is checked by its parser, so the file is at fault
        raise ConfigError(f"--config {args.config}: {exc}") from exc


# the table writer, under the name that perfbench/spans.py traces
_write_csv = labelcsv.write_rows


def _remove_stale(out: Path, *patterns: str) -> None:
    """Delete what an earlier run left in ``out`` under ``patterns``, so a rerun
    with fewer folds or rounds leaves none of the longer run's files behind."""
    for pattern in patterns:
        for stale in out.glob(pattern):
            stale.unlink()


def _round_writer(rounds_dir: Path):
    """``hopf``'s ``on_round``: clears ``rounds_dir`` of earlier round files, then
    writes each round's weights, both label CSVs and ``metrics.csv`` row as it ends.

    A label matrix with the same bytes as the last one under its name (under
    (T-t)/T, ``yhat_t{T}`` repeats ``yhat_t{T-1}``) is copied from that file,
    not formatted again. The SHA-256 of its buffer tells a repeat, so -0.0 and
    NaN never alias and no matrix is copied. The CSVs go through ``iterate``'s
    names, which perfbench/spans.py traces.
    """
    rounds_dir.mkdir(parents=True, exist_ok=True)
    _remove_stale(rounds_dir, "metrics.csv", "weights_t*.bin", "yhat_t*.csv", "ytilde_t*.csv")
    digests: dict[str, bytes] = {}  # stem -> SHA-256 of the matrix last written under it

    def write(result) -> None:
        t, f1 = result.trajectory[-1]["iteration"], result.trajectory[-1]["micro_f1"]
        result.weights.save(rounds_dir / f"weights_t{t}.bin")
        for stem, matrix in (("yhat", result.yhat), ("ytilde", result.ytilde)):
            path, digest = rounds_dir / f"{stem}_t{t}.csv", hashlib.sha256(matrix).digest()
            if digests.get(stem) == digest:
                shutil.copyfile(rounds_dir / f"{stem}_t{t - 1}.csv", path)
            else:
                iterate._dump_labels(path, matrix)
            digests[stem] = digest
        iterate._append_metrics_row(rounds_dir / "metrics.csv",
                                    ["iteration", "test_micro_f1"] if t == 1 else None, [[t, f1]])
    return write


def cmd_gen(args) -> int:
    out = Path(args.out)
    config = {"kind": args.kind, **{k: getattr(args, k, None) for k in
              ("n", "blocks", "p_in", "p_out", "noise", "nodes", "edges", "features", "labels")}}
    with manifest_scope(out, "gen", args.argv, config, seeds={"seed": args.seed}):
        if args.kind == "chain":
            bundle = gen_chain(args.n)
        elif args.kind == "planted":
            bundle = gen_planted_partition(args.n, args.blocks, args.p_in, args.p_out,
                                           args.noise, args.seed)
        else:
            bundle = gen_benchmark_graph(args.nodes, args.edges, args.features,
                                         args.labels, args.seed)
        save_dataset(bundle, out / "dataset")
    print(f"wrote {bundle.name}: n={bundle.graph.n} |E|={bundle.graph.num_edges} "
          f"f={bundle.num_features} l={bundle.num_labels} -> {out / 'dataset'}")
    return 0


def cmd_train(args) -> int:
    config = _train_config(args)
    caps = _parse_list(args.sample_caps, "--sample-caps", int) if args.sample_caps else None
    spec = make_kernel(args.model, depth=args.hops, hidden_dim=config.hidden_dim)
    with _dataset_scope(args, config, {"model": args.model, "hops": spec.depth,
                                       "folds": args.folds,
                                       "sample_caps": args.sample_caps}) as (out, bundle):
        _remove_stale(out, "history_fold*.csv", "predictions_fold*.csv")
        splits = itertools.islice(split_folds(bundle.graph.n, config.rng_seed), args.folds)
        records = []
        for fold, split in enumerate(splits):  # drawn in turn: no fold waits in memory
            weights, history = train(spec, bundle, split, config, sample_caps=caps)
            ev = evaluate(spec, weights, bundle, split.test_nodes)
            records.append(MetricsRecord(args.model, bundle.name, fold, ev["micro_f1"], ev["loss"]))
            columns = ["epoch", "train_loss", "val_loss", "lr"]
            _write_csv(out / f"history_fold{fold}.csv", columns,
                       [[h[c] for c in columns] for h in history])
            labelcsv.write(out / f"predictions_fold{fold}.csv", ev["predictions"],
                           index=split.test_nodes)
        write_records_csv(records, out / "metrics.csv")
        f1s = [r.micro_f1 for r in records]
        report = {"model": args.model, "dataset": bundle.name, "folds": args.folds,
                  "mean_micro_f1": float(np.mean(f1s)), "std_micro_f1": float(np.std(f1s))}
        write_report_json(report, out / "report.json")
    print(f"{args.model} on {bundle.name}: micro-F1 {report['mean_micro_f1']:.4f} "
          f"± {report['std_micro_f1']:.4f} over {args.folds} folds")
    return 0


def cmd_hopf(args) -> int:
    config = _train_config(args)
    spec = make_kernel(args.model, depth=args.C, hidden_dim=config.hidden_dim)
    require_label_channel(spec)
    hopf_config = HopfConfig(T=args.T, warm_start=not args.cold_start,
                             shifted_averaging=args.shifted_averaging)
    with _dataset_scope(args, config, {"C": spec.depth, **asdict(hopf_config),
                                       "model": args.model, "fold": args.fold}) as (out, bundle):
        split = next(itertools.islice(split_folds(bundle.graph.n, config.rng_seed), args.fold, None))
        rounds = out / "iterations"
        result = run_hopf(spec, bundle, split, config, hopf_config, _round_writer(rounds))
        _write_csv(out / "trajectory.csv", ["iteration", "micro_f1"],
                   [[row["iteration"], row["micro_f1"]] for row in result.trajectory])
        # the last round's label dumps already hold the final matrices
        for name in ("yhat", "ytilde"):
            shutil.copyfile(rounds / f"{name}_t{hopf_config.T}.csv", out / f"{name}_final.csv")
        records = [MetricsRecord(args.model, bundle.name, args.fold,
                                 row["micro_f1"], float("nan")) for row in result.trajectory]
        write_records_csv(records, out / "metrics.csv")
    final = result.trajectory[-1]["micro_f1"]
    print(f"{args.model} C={spec.depth} T={hopf_config.T}: "
          f"final-round test micro-F1 {final:.4f}")
    return 0


def cmd_bench_scaling(args) -> int:
    config = _train_config(args)
    hops = _parse_list(args.hops, "--hops", int)
    variants = _parse_list(args.variants, "--variants", str)
    with _dataset_scope(args, config, {"hops": args.hops, "variants": args.variants,
                                       "repeats": args.repeats,
                                       "memory_budget_gib": args.memory_budget}) as (out, bundle):
        split = next(split_folds(bundle.graph.n, config.rng_seed))
        budget = None if args.memory_budget <= 0 else int(args.memory_budget * 2**30)
        cells = run_scaling(bundle, split, variants, hops, args.repeats, config,
                            budget_bytes=budget)
        _write_csv(out / "timings.csv",
                   ["variant", "hops", "mean_seconds", "status", "batch_bytes"],
                   [[c.variant, c.hops, c.mean_seconds, c.status, c.batch_bytes] for c in cells])
    width = max(len(c.variant) for c in cells) + 2
    print(f"{'variant':<{width}}{'hops':>6}  {'mean epoch s':>14}  status")
    for c in cells:
        secs = "-" if c.mean_seconds is None else f"{c.mean_seconds:.3f}"
        print(f"{c.variant:<{width}}{c.hops:>6}  {secs:>14}  {c.status}")
    return 0


def cmd_neighbor_fraction(args) -> int:
    config = _train_config(args)
    fractions = _parse_list(args.fractions, "--fractions", float)
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ConfigError("fractions must lie in (0, 1]")
    spec = make_kernel(args.model, depth=args.hops, hidden_dim=config.hidden_dim)
    with _dataset_scope(args, config, {"model": args.model, "fractions": fractions,
                                       "hops": spec.depth}) as (out, bundle):
        spec.check_depth(bundle.graph.n)  # before the per-hop caps list
        split = next(itertools.islice(split_folds(bundle.graph.n, config.rng_seed), args.fold, None))
        max_degree = int(bundle.graph.degree.max())
        rows = []
        for frac in fractions:
            caps = [max(1, math.ceil(frac * max_degree))] * spec.depth
            weights, _ = train(spec, bundle, split, config, sample_caps=caps)
            ev = evaluate(spec, weights, bundle, split.test_nodes)
            rows.append([frac, caps[0], ev["micro_f1"], ev["loss"]])
        _write_csv(out / "fractions.csv", ["fraction", "cap_per_hop", "micro_f1", "loss"], rows)
    return 0


def cmd_nim(args) -> int:
    if args.alpha == 0 and args.beta == 0:
        raise ConfigError("alpha and beta cannot both be zero")
    out = Path(args.out)
    with manifest_scope(out, "nim", args.argv, {"alpha": args.alpha, "beta": args.beta,
                                                "max_k": args.max_k, "skip": args.skip},
                        seeds={}):
        header, rows = nim_decay_table(args.alpha, args.beta, args.max_k, args.skip)
        _write_csv(out / "decay.csv", header, rows)
    for row in [header] + rows:
        print("\t".join(str(v) for v in row))
    return 0


def cmd_compare(args) -> int:
    out = Path(args.out)
    with manifest_scope(out, "compare", args.argv, {"scores": str(args.scores)}, seeds={}):
        scores = read_scores_csv(args.scores)
        cells = per_dataset_shortfall(scores)
        sf = shortfall(scores)
        ranks = average_rank(scores)
        order = sorted(sf, key=sf.get)
        _write_csv(out / "report.csv", ["model", "shortfall", "avg_rank"],
                   [[m, sf[m], ranks[m]] for m in order])
        write_report_json({"shortfall": sf, "avg_rank": ranks, "per_dataset_shortfall": cells},
                          out / "report.json")
    width = max(len(m) for m in order) + 2
    print(f"{'model':<{width}}{'shortfall':>12}{'avg rank':>10}")
    for m in order:
        print(f"{m:<{width}}{sf[m]:>12.4f}{ranks[m]:>10.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hopf",
                                description="Collective classification with propagation kernels")
    sub = p.add_subparsers(dest="verb", metavar="verb")
    # the arguments of every verb that reads a bundle
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--dataset", required=True, help="a dataset directory, e.g. from gen")
    data.add_argument("--out", required=True)
    data.add_argument("--config", default=None, help="JSON file with training-config keys")
    data.add_argument("--seed", type=_NON_NEGATIVE, default=None)

    g = sub.add_parser("gen", help="generate a synthetic dataset directory")
    g.add_argument("kind", choices=["chain", "planted", "benchmark"])
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    g.add_argument("--n", type=int, default=400)
    g.add_argument("--blocks", type=int, default=4)
    g.add_argument("--p-in", dest="p_in", type=float, default=0.05)
    g.add_argument("--p-out", dest="p_out", type=float, default=0.002)
    g.add_argument("--noise", type=float, default=0.4)
    g.add_argument("--nodes", type=int, default=100_000)
    g.add_argument("--edges", type=int, default=500_000)
    g.add_argument("--features", type=_POSITIVE, default=100)
    g.add_argument("--labels", type=_POSITIVE, default=10)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", parents=[data], help="train one kernel over the standard folds")
    t.add_argument("--model", required=True)
    t.add_argument("--folds", type=_POSITIVE, default=5)
    t.add_argument("-C", "--hops", dest="hops", type=_POSITIVE, default=2)
    t.add_argument("--sample-caps", default=None, help="comma list, one cap per hop")
    t.set_defaults(func=cmd_train)

    h = sub.add_parser("hopf", parents=[data],
                       help="iterative rounds of train + infer + label feedback")
    h.add_argument("--model", required=True, help="i_nip_mean or ss_ica")
    h.add_argument("-C", type=_POSITIVE, default=2, help="differentiable hops per round")
    h.add_argument("-T", type=_POSITIVE, default=1, help="number of rounds")
    h.add_argument("--cold-start", action="store_true",
                   help="re-initialize weights each round instead of continuing")
    h.add_argument("--shifted-averaging", action="store_true",
                   help="weight fresh predictions by (T-t+1)/T instead of (T-t)/T")
    h.add_argument("--fold", type=_NON_NEGATIVE, default=0)
    h.set_defaults(func=cmd_hopf)

    b = sub.add_parser("bench-scaling", parents=[data],
                       help="epoch-time scaling across total hops")
    b.add_argument("--hops", required=True, help="comma list of total hop counts K")
    b.add_argument("--variants", required=True,
                   help="comma list: nip_mean, i_nip_mean_c1, i_nip_mean_c2, ...")
    b.add_argument("--repeats", type=_POSITIVE, default=3)
    b.add_argument("--memory-budget", type=_finite_float, default=4.0,
                   help="GiB allowed for per-batch activations/gradients; <=0 disables")
    b.set_defaults(func=cmd_bench_scaling)

    f = sub.add_parser("neighbor-fraction", parents=[data],
                       help="micro-F1 vs neighbor sampling fraction")
    f.add_argument("--model", required=True)
    f.add_argument("--fractions", required=True, help="comma list in (0, 1]")
    f.add_argument("-C", "--hops", dest="hops", type=_POSITIVE, default=2)
    f.add_argument("--fold", type=_NON_NEGATIVE, default=0)
    f.set_defaults(func=cmd_neighbor_fraction)

    n = sub.add_parser("nim", help="self-information decay table")
    n.add_argument("--alpha", type=_finite_float, required=True)
    n.add_argument("--beta", type=_finite_float, required=True)
    n.add_argument("--max-k", type=_NON_NEGATIVE, default=10)
    n.add_argument("--skip", action="store_true", help="also tabulate the skip-connection decay")
    n.add_argument("--out", required=True)
    n.set_defaults(func=cmd_nim)

    c = sub.add_parser("compare", help="shortfall and average-rank report from a scores CSV")
    c.add_argument("--scores", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = argv  # the manifest records the arguments this call parsed
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return int(args.func(args) or 0)
    except TrainingError as exc:
        where = ", ".join(f"{name}={value}" for name, value in
                          (("epoch", exc.epoch), ("batch", exc.batch)) if value is not None)
        print(f"training failed{f' ({where})' if where else ''}: {exc}", file=sys.stderr)
        return 1
    except HopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
