"""On-disk incremental cache for extraction + dataflow products.

``analyze`` and ``run --prune`` re-derive the whole program model — parse
every machine's source, walk every handler AST, build footprints — on every
invocation, even when nothing changed.  This module caches the *products*
(the JSON-safe analysis report and independence table) keyed on a blake2b
digest of every loaded source module under the analyzed classes' top-level
packages, so an unchanged tree costs one digest pass instead of a re-parse.

Key discipline: the key covers the cache format version, the independence
table version, the analyzed class identities, any caller-provided extras
(scenario names, rule-set markers), and a ``(module name, source digest)``
pair for every candidate module.  The analyzer's own sources live under the
same top-level package (``repro``) as the machines it analyzes here, so
editing the analyzer invalidates the cache automatically — no stale results
after a rule change.  Classes defined inside function bodies (``<locals>``)
have no stable identity across runs and disable caching for that call.

Storage is one JSON file per key under ``.repro-cache/`` (override with the
``REPRO_ANALYSIS_CACHE`` environment variable), written atomically so a
crashed run never leaves a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: bumped whenever the cached payload shape changes
CACHE_VERSION = 1

#: environment variable overriding the cache directory
CACHE_ENV = "REPRO_ANALYSIS_CACHE"

#: default cache directory, relative to the working directory
DEFAULT_CACHE_DIR = ".repro-cache"


def _digest_file(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as handle:
            return hashlib.blake2b(handle.read(), digest_size=16).hexdigest()
    except OSError:
        return None


class AnalysisCache:
    """A content-keyed store for analysis products.

    ``enabled=False`` keeps the object usable (key computation, hit/miss
    counters stay at zero) while every lookup misses and every store is a
    no-op — callers thread one object through unconditionally.
    """

    def __init__(self, directory: Optional[str] = None, enabled: bool = True) -> None:
        if directory is None:
            directory = os.environ.get(CACHE_ENV) or DEFAULT_CACHE_DIR
        self.directory = directory
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._digests: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def _module_digests(
        self, roots: Iterable[str]
    ) -> Sequence[Tuple[str, str]]:
        root_set = set(roots)
        pairs = []
        for name in sorted(sys.modules):
            if name.split(".")[0] not in root_set:
                continue
            module = sys.modules.get(name)
            path = getattr(module, "__file__", None)
            if not path or not path.endswith(".py"):
                continue
            if path not in self._digests:
                self._digests[path] = _digest_file(path)
            digest = self._digests[path]
            if digest is not None:
                pairs.append((name, digest))
        return pairs

    def key_for(
        self, classes: Iterable[type], extra: Iterable[str] = ()
    ) -> Optional[str]:
        """Digest identifying one analysis call; ``None`` when uncacheable.

        Covers every loaded ``.py`` module under the classes' top-level
        packages — a superset of what extraction actually parses, which only
        costs spurious invalidations, never stale hits.
        """
        from .independence import TABLE_VERSION, type_key

        names = []
        roots = set()
        for cls in sorted(set(classes), key=type_key):
            if "<locals>" in cls.__qualname__:
                return None  # no stable cross-run identity
            names.append(type_key(cls))
            roots.add(cls.__module__.split(".")[0])
        payload = json.dumps(
            {
                "cache_version": CACHE_VERSION,
                "table_version": TABLE_VERSION,
                "classes": names,
                "extra": sorted(extra),
                "modules": self._module_digests(roots),
            },
            sort_keys=True,
        )
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: Optional[str]) -> Optional[dict]:
        """Cached payload for ``key``, or ``None`` (counted as a miss)."""
        if not self.enabled or key is None:
            return None
        try:
            with open(self._path_for(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: Optional[str], payload: dict) -> None:
        """Atomically store ``payload`` under ``key`` (no-op when disabled)."""
        if not self.enabled or key is None:
            return
        import tempfile  # only a store pays for it (pulls shutil and random)

        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(temp_path, self._path_for(key))
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # a read-only tree degrades to cacheless operation

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return (
            f"analysis cache: {self.hits} hit(s), {self.misses} miss(es) "
            f"({self.hit_rate():.0%} hit rate) in {self.directory}"
        )


__all__ = [
    "CACHE_ENV",
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "AnalysisCache",
]
