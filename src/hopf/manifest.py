"""Run manifests: enough provenance to re-run a command bit-identically."""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


_HASH_CHUNK = 1 << 20  # fingerprint_dir reads files this many bytes at a time


def fingerprint_dir(path) -> str:
    """SHA-256 over a directory's file names and contents, order-independent.

    Each file is hashed in fixed-size chunks through one reused buffer, so a
    large dataset file never sits in memory whole.
    """
    h = hashlib.sha256()
    root = Path(path)
    buf = bytearray(_HASH_CHUNK)
    view = memoryview(buf)
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            with open(p, "rb") as fh:
                while size := fh.readinto(buf):
                    h.update(view[:size])
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    config: dict
    seeds: dict
    dataset_fingerprint: str | None
    code_version: str
    timings: dict = field(default_factory=dict)
    # how the dataset was read: "hit" or "miss" in the binary cache, or "unavailable"
    dataset_cache: str | None = None

    @classmethod
    def start(cls, command: str, config: dict, seeds: dict,
              dataset_dir=None) -> "RunManifest":
        from . import __version__

        return cls(
            command=command,
            argv=list(sys.argv[1:]),
            config=config,
            seeds=seeds,
            dataset_fingerprint=fingerprint_dir(dataset_dir) if dataset_dir else None,
            code_version=__version__,
        )

    def write(self, out_dir) -> Path:
        path = Path(out_dir) / "manifest.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        return path


@contextlib.contextmanager
def manifest_scope(out_dir, command: str, config: dict, seeds: dict, dataset_dir=None):
    """Write ``manifest.json`` into ``out_dir`` on entry, before any result file.

    Yields the manifest, whose ``timings`` the body may add to; a body that
    returns normally has ``timings.total_seconds`` (time since the first
    write) recorded and the manifest written again. On an exception the
    manifest stays as first written.
    """
    manifest = RunManifest.start(command, config, seeds, dataset_dir)
    manifest.write(out_dir)
    t0 = time.perf_counter()
    yield manifest
    manifest.timings["total_seconds"] = time.perf_counter() - t0
    manifest.write(out_dir)
