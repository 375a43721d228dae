import tracemalloc

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
    (OpenBLAS packs operands into them) never show here, so a test of those
    must read the process's resident set instead.
    """
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, kept - before


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
