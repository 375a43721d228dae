"""Run manifests: enough provenance to re-run a command bit-identically."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ArgumentError


def fingerprint_dir(digests: dict) -> str:
    """A dataset's fingerprint: SHA-256 over its files' names, sorted, each name
    followed by the hex SHA-256 of that file's bytes (``DatasetBundle.digests``)."""
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(name.encode() + digests[name].encode())
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    config: dict
    seeds: dict
    code_version: str
    timings: dict = field(default_factory=dict)
    # how the dataset was read: "hit" or "miss" in the binary cache, or "unavailable"
    dataset_cache: str | None = None
    # fingerprint_dir of the loaded bundle's digests; set with dataset_cache
    dataset_fingerprint: str | None = None

    def write(self, out_dir) -> Path:
        path = Path(out_dir) / "manifest.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        return path


@contextlib.contextmanager
def manifest_scope(out_dir, command: str, argv, config: dict, seeds: dict):
    """Write ``manifest.json`` into ``out_dir`` on entry, before any result file.

    ``argv`` is the argument list the command line parsed, verb first.

    Yields the manifest, whose ``timings`` the body may add to; a body that
    returns normally has ``timings.total_seconds`` (time since the first
    write) recorded and the manifest written again. On an exception the
    manifest stays as last written. Throughout, an ``OSError`` on ``out_dir``, in it
    or on the way to it is an ``ArgumentError`` naming the path; others propagate.
    """
    from . import __version__  # the package's __init__ defines it after its imports

    manifest = RunManifest(command, list(argv), config, seeds, code_version=__version__)
    try:
        manifest.write(out_dir)
        t0 = time.perf_counter()
        yield manifest
        manifest.timings["total_seconds"] = time.perf_counter() - t0
        manifest.write(out_dir)
    except OSError as exc:
        paths = [os.path.abspath(p) for p in (out_dir, exc.filename or "")]
        if not exc.filename or os.path.commonpath(paths) not in paths:
            raise
        raise ArgumentError(f"output directory {out_dir} cannot be created or written: "
                            f"{exc.filename}: {exc.strerror or exc}") from exc
