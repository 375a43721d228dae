"""Span recording around the hopf functions the verbs call, and the per-layer split.

A traced run swaps the module attributes listed in ``TARGETS`` for wrappers
that record one span per call: name, start, end and parent span. Spans stay in
memory until the run ends; ``layer_metrics`` then derives self times, the
caller split and the per-layer counters from them. Nothing under ``src/``
changes: the wrappers replace the names that ``hopf.cli``, ``hopf.training``,
``hopf.iterate`` and ``hopf.manifest`` look up at call time, and ``installed``
puts the originals back when it exits.

The recorder keeps one span stack, so it assumes the verbs run on one thread
(``--workers 0``, the default).
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from pathlib import Path

LOAD = "data.load_dataset"
FINGERPRINT = "manifest.fingerprint_dir"
TRAIN = "training.train"
EVALUATE = "training.evaluate"
RUN_HOPF = "iterate.run_hopf"
KHOP = "graph.khop_subgraph"
PREDICT = "kernels.predict"
BACKWARD = "kernels.backward"
WCE = "metrics.weighted_cross_entropy"
ADAM = "numerics.adam_step"
ARTIFACT = "artifacts.write"

PHASES = ("train", "val", "infer")
_LOOPS = (TRAIN, EVALUATE, RUN_HOPF)


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _load_attrs(args, kwargs, result):
    return {"bytes": dir_bytes(_arg(args, kwargs, 0, "dir_path"))}


def _khop_attrs(args, kwargs, sub):
    return {"seeds": sub.num_seeds, "rows": sub.n, "nnz": int(sub.indices.size)}


def _predict_attrs(args, kwargs, result):
    """Rows the propagation layers compute versus rows the seeds depend on.

    Layer k of a depth-C kernel computes every row of the ball, but only the
    nodes within C-k hops of the seeds feed the output; they are the prefix
    ``frontier_offsets[C-k+1]``.
    """
    spec = _arg(args, kwargs, 0, "spec")
    sub = _arg(args, kwargs, 2, "sub")
    depth = spec.depth
    needed = sum(sub.frontier_offsets[j] for j in range(1, depth + 1))
    return {"rows_computed": depth * sub.n, "rows_needed": needed}


# (module, attribute, span name, attribute extractor). Class attributes are
# given as "module:Class".
TARGETS = (
    ("hopf.cli", "load_dataset", LOAD, _load_attrs),
    ("hopf.manifest", "fingerprint_dir", FINGERPRINT, None),
    ("hopf.cli", "train", TRAIN, None),
    ("hopf.iterate", "train", TRAIN, None),
    ("hopf.cli", "evaluate", EVALUATE, None),
    ("hopf.cli", "run_hopf", RUN_HOPF, None),
    ("hopf.training", "khop_subgraph", KHOP, _khop_attrs),
    ("hopf.iterate", "khop_subgraph", KHOP, _khop_attrs),
    ("hopf.training", "predict", PREDICT, _predict_attrs),
    ("hopf.iterate", "predict", PREDICT, _predict_attrs),
    ("hopf.training", "backward", BACKWARD, None),
    ("hopf.training", "weighted_cross_entropy", WCE, None),
    ("hopf.training", "adam_step", ADAM, None),
    ("hopf.kernels:ModelWeights", "save", ARTIFACT, None),
    ("hopf.cli", "_write_csv", ARTIFACT, None),
    ("hopf.cli", "write_records_csv", ARTIFACT, None),
    ("hopf.cli", "write_report_json", ARTIFACT, None),
    ("hopf.iterate", "_dump_labels", ARTIFACT, None),
    ("hopf.iterate", "_append_metrics_row", ARTIFACT, None),
)

# The untraced run times set-up alone, through the same mechanism.
SETUP_TARGETS = TARGETS[:1]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list; ``parent`` is the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Swap every target for a recording wrapper; restore the originals on exit."""
        saved = []
        try:
            for where, attr, name, attrs in targets:
                owner = _resolve(where)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)


def _resolve(where: str):
    module, _, cls = where.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def children_of(spans) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        kids.setdefault(s.parent, []).append(i)
    return kids


def nesting_errors(spans) -> list[str]:
    """Spans that do not lie inside their parent's interval."""
    return [f"span {s.name} escapes its parent {spans[s.parent].name}" for s in spans
            if s.parent >= 0 and not (spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end)]


def self_times(spans, kids=None) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    kids = children_of(spans) if kids is None else kids
    return [s.duration - sum(spans[c].duration for c in kids.get(i, ())) for i, s in enumerate(spans)]


def phases(spans, kids=None) -> list[str | None]:
    """Caller class of every extraction, forward, loss and optimizer span.

    Under ``train`` a call is a training step when the next call of the same
    kind or a ``backward`` is a ``backward``; otherwise it belongs to the
    per-epoch validation pass. Calls under ``evaluate``, or under ``run_hopf``
    outside ``train``, are inference.
    """
    kids = children_of(spans) if kids is None else kids
    out: list[str | None] = [None] * len(spans)
    for i, s in enumerate(spans):
        if s.name == TRAIN:
            seq = kids.get(i, [])
            for pos, c in enumerate(seq):
                name = spans[c].name
                if name in (BACKWARD, ADAM):
                    out[c] = "train"
                elif name in (KHOP, PREDICT, WCE):
                    nxt = next((spans[seq[d]].name for d in range(pos + 1, len(seq))
                                if spans[seq[d]].name in (name, BACKWARD)), None)
                    out[c] = "train" if nxt == BACKWARD else "val"
        elif s.name in (EVALUATE, RUN_HOPF):
            for c in kids.get(i, []):
                if spans[c].name in (KHOP, PREDICT, WCE):
                    out[c] = "infer"
    return out


def epoch_durations(spans, kids, phase) -> list[float]:
    """Per-epoch wall time inside each ``train`` span.

    An epoch starts at a training-step extraction that is the span's first or
    follows a validation call; it ends where the next epoch starts, or where
    ``train`` returns.
    """
    out = []
    for i, s in enumerate(spans):
        if s.name != TRAIN:
            continue
        starts, prev = [], None
        for c in kids.get(i, []):
            if spans[c].name == KHOP and phase[c] == "train" and (prev is None or prev == "val"):
                starts.append(spans[c].start)
            prev = phase[c]
        bounds = starts + [s.end]
        out.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return out


def layer_metrics(spans, wall_s: float, artifact_bytes: int) -> dict[str, float]:
    """Per-layer counters and times of one traced verb call."""
    kids = children_of(spans)
    phase = phases(spans, kids)
    selfs = self_times(spans, kids)
    m: dict[str, float] = {}

    def total(name, ph=None, key=None):
        return sum((s.attrs[key] if key else s.duration) for i, s in enumerate(spans)
                   if s.name == name and (ph is None or phase[i] == ph))

    def count(name, ph=None):
        return sum(1 for i, s in enumerate(spans) if s.name == name and (ph is None or phase[i] == ph))

    m["data.load_dataset.s"] = total(LOAD)
    m["data.bytes_read"] = total(LOAD, key="bytes")
    m["manifest.fingerprint_dir.s"] = total(FINGERPRINT)
    for ph in PHASES:
        m[f"graph.khop_subgraph.calls.{ph}"] = count(KHOP, ph)
        m[f"graph.khop_subgraph.s.{ph}"] = total(KHOP, ph)
    for ph in ("train", "infer"):
        seeds = total(KHOP, ph, "seeds")
        m[f"graph.ball_rows_per_seed.{ph}"] = total(KHOP, ph, "rows") / seeds if seeds else 0.0
    m["graph.sub_nnz.sum"] = total(KHOP, key="nnz")
    for ph in PHASES:
        m[f"kernels.predict.calls.{ph}"] = count(PREDICT, ph)
        m[f"kernels.predict.s.{ph}"] = total(PREDICT, ph)
    m["kernels.backward.calls"] = count(BACKWARD)
    m["kernels.backward.s"] = total(BACKWARD)
    computed = total(PREDICT, key="rows_computed")
    m["kernels.rows_computed"] = computed
    m["kernels.rows_needed"] = total(PREDICT, key="rows_needed")
    m["kernels.useful_row_frac"] = m["kernels.rows_needed"] / computed if computed else 0.0
    m["metrics.weighted_cross_entropy.calls"] = count(WCE)
    m["metrics.weighted_cross_entropy.s"] = total(WCE)
    m["numerics.adam_step.calls"] = count(ADAM)
    m["numerics.adam_step.s"] = total(ADAM)

    epochs = epoch_durations(spans, kids, phase)
    m["training.train.s"] = total(TRAIN)
    m["training.epochs"] = len(epochs)
    m["training.epoch_s.p50"] = statistics.median(epochs) if epochs else 0.0
    if len(epochs) >= 100:  # a p90 needs at least ten samples beyond it
        m["training.epoch_s.p90"] = statistics.quantiles(epochs, n=10)[-1]
    m["training.val_s"] = sum(s.duration for i, s in enumerate(spans) if phase[i] == "val")
    m["training.self_s"] = sum(selfs[i] for i, s in enumerate(spans) if s.name in _LOOPS)

    hopf = [i for i, s in enumerate(spans) if s.name == RUN_HOPF]
    m["iterate.rounds"] = sum(1 for i in hopf for c in kids.get(i, []) if spans[c].name == TRAIN)
    m["iterate.infer_nodes"] = sum(spans[c].attrs["seeds"] for i in hopf for c in kids.get(i, [])
                                   if spans[c].name == KHOP)
    m["artifacts.s"] = total(ARTIFACT)
    m["artifacts.bytes"] = artifact_bytes
    m["cli.self_s"] = wall_s - sum(s.duration for s in spans if s.parent == -1)
    return m
