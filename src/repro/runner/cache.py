"""Persistent cross-process cache of simulation results.

Layout: one compressed ``.npz`` file per :class:`~repro.runner.spec.RunSpec`,
named by the spec's content-hash key and sharded by its first two hex
digits to keep directories small::

    <root>/
      <k[:2]>/<key>.npz

The root resolves, in order, to ``$CAGC_CACHE_DIR``, else
``results/cache`` under the current working directory.  Keys embed the
serialization schema version, so a schema bump simply orphans old
entries (they are never misread); corrupt or stale files are treated as
misses.  Writes are atomic (temp file + ``os.replace``) so a crashed or
parallel writer can never leave a half-written entry behind.

Set ``CAGC_NO_CACHE=1`` to disable persistence entirely (every run is
computed fresh; the in-process memo in ``repro.experiments.common``
still applies).
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from pathlib import Path
from typing import Optional, Union

from repro.runner.spec import RunSpec
from repro.runner.serialize import (
    SchemaMismatchError,
    result_from_bytes,
    result_to_bytes,
)

ENV_CACHE_DIR = "CAGC_CACHE_DIR"
ENV_NO_CACHE = "CAGC_NO_CACHE"
DEFAULT_SUBDIR = Path("results") / "cache"


def default_cache_root() -> Path:
    """Resolve the cache directory from the environment."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    return Path.cwd() / DEFAULT_SUBDIR


def cache_enabled() -> bool:
    return os.environ.get(ENV_NO_CACHE, "") not in ("1", "true", "yes")


class RunCache:
    """Filesystem-backed store of serialized :class:`RunResult` objects."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_env(cls) -> Optional["RunCache"]:
        """The default cache, or ``None`` when disabled via env."""
        return cls() if cache_enabled() else None

    def path_for(self, spec: RunSpec) -> Path:
        key = spec.key()
        return self.root / key[:2] / f"{key}.npz"

    def get(self, spec: RunSpec):
        """Cached ``RunResult`` for ``spec``, or ``None`` on a miss."""
        path = self.path_for(spec)
        try:
            payload = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            result = result_from_bytes(payload)
        except (
            SchemaMismatchError, ValueError, KeyError, OSError, zipfile.BadZipFile,
        ):
            # Stale schema, corrupt or truncated file: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: RunSpec, result) -> Path:
        """Store ``result`` under ``spec`` (atomic write)."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = result_to_bytes(result)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, spec: RunSpec) -> bool:
        return self.path_for(spec).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.npz"))

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for entry in self.root.glob("*/*.npz"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
