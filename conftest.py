"""Fixtures for every test under the repository root, ``perfbench/`` included."""

import pytest


@pytest.fixture(autouse=True)
def _private_dataset_cache(tmp_path_factory, monkeypatch):
    """Point the dataset cache at a fresh directory, so no test reads or fills a real one."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
