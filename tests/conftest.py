import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("deterministic")


def traced_peak(fn):
    """Run ``fn()`` under tracemalloc; return ``(result, peak, kept)``.

    ``peak`` is the most memory, in bytes, that ``fn`` held at once and
    ``kept`` what is still allocated when it returns (its result, say), both
    counted from the call's start. Only allocations made through Python's
    and numpy's allocators are counted: the buffers that BLAS maps for itself
    (OpenBLAS packs operands into them; see ``kernels._input_product`` and
    ``kernels._hidden_product``) never show here, so a test of those must
    read the process's resident set instead, as ``blas_peak_growth`` does.
    """
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, kept - before


def _numpy_blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its build configuration
        return ""
    return str(config.get("Build Dependencies", {}).get("blas", {}).get("name", ""))


# VmRSS and VmHWM come from /proc/self/status, in KiB; getrusage's ru_maxrss
# would not do, since across exec it keeps the peak of the process that spawned it.
# Its ru_minflt counts only this process's minor page faults, so the step's are a difference.
_PEAK_PROBE = """
import resource
{setup}
def _status_kib(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))
_before = _status_kib("VmRSS")
_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
{step}
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - _faults)
print(1024 * (_status_kib("VmHWM") - _before))
"""


def child_env(**env: str) -> dict:
    """The environment ``env`` for a child process, plus ``PYTHONDONTWRITEBYTECODE``
    where this process has it, so a test run asked to write no bytecode gets none
    from its children either."""
    inherited = {name: os.environ[name] for name in ("PYTHONDONTWRITEBYTECODE",)
                 if name in os.environ}
    return {**inherited, **env}


def step_probe(setup: str, step: str, env: dict | None = None) -> tuple[int, int, list[str]]:
    """Run ``setup`` then ``step`` in a fresh Python process at two OpenBLAS
    threads, ``env`` added to its environment; return how many bytes ``step``
    raised its peak resident set (VmHWM) above its resident set before it
    (VmRSS), how many minor page faults it took, and the lines that ``setup``
    and ``step`` printed. The test is skipped without ``/proc/self/status``.
    """
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    import hopf

    src = str(Path(hopf.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _PEAK_PROBE.format(setup=setup, step=step)],
                          capture_output=True, text=True, timeout=120,
                          env=child_env(PYTHONPATH=src, OPENBLAS_NUM_THREADS="2", **(env or {})))
    assert done.returncode == 0, done.stderr
    *printed, faults, growth = done.stdout.splitlines()
    return int(growth), int(faults), printed


def blas_peak_growth(setup: str, step: str) -> tuple[int, list[str]]:
    """:func:`step_probe`'s peak growth and printed lines, where numpy's BLAS is OpenBLAS.

    This counts what ``traced_peak`` cannot: the buffers OpenBLAS maps for
    itself to pack operands. The test is skipped when numpy's BLAS is not
    OpenBLAS.
    """
    if "openblas" not in _numpy_blas_name().lower():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    growth, _, printed = step_probe(setup, step)
    return growth, printed


def random_graph(n: int, num_edges: int, seed: int):
    """Simple Erdos-Renyi-ish fixture graph with exactly min(num_edges, possible) edges."""
    from hopf import build_graph

    rng = np.random.default_rng(seed)
    edges = set()
    limit = n * (n - 1) // 2
    target = min(num_edges, limit)
    while len(edges) < target:
        u, v = rng.integers(n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(sorted(edges), n)


@pytest.fixture
def triangle():
    from hopf import build_graph

    return build_graph([(0, 1), (1, 2), (0, 2)], 3)


@pytest.fixture
def chain6():
    from hopf import build_graph

    return build_graph([(i, i + 1) for i in range(5)], 6)


@pytest.fixture
def star6():
    """Center 0, leaves 1..5."""
    from hopf import build_graph

    return build_graph([(0, i) for i in range(1, 6)], 6)
