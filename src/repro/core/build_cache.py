"""Fingerprinted build cache for the offline index-construction stage.

At the paper's scales index construction is the expensive offline step
(hours to weeks, §4.1); at repro scale it is still the dominant cost of
every experiment run. Most runs rebuild the exact same datastore — same
embeddings, same build knobs — so this module memoises built deployments on
disk, keyed by a content fingerprint:

- a blake2b hash of the raw embedding bytes (and shape/dtype), and
- the *build-relevant* subset of :class:`~repro.core.config.HermesConfig`,
- the index serialization format version (format bumps invalidate entries).

Search-time knobs (nProbe of the sampling pass, ``clusters_to_search``,
``k``, ...) and ``build_workers`` (bit-exact at any worker count) are
deliberately excluded, so tuning the online side never forces a rebuild.

Entries are stored atomically: the datastore is saved into a temp directory
next to the cache and ``os.replace``\\ d into place, so a crashed or
concurrent build can never publish a half-written entry.

Environment switches:

- ``HERMES_BUILD_CACHE=0`` disables the cache entirely;
- ``HERMES_BUILD_CACHE_DIR`` relocates it (default
  ``~/.cache/hermes-repro/builds``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..ann.distances import as_matrix
from ..ann.ivf import FORMAT_VERSION
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .clustering import ClusteredDatastore, cluster_datastore
from .config import HermesConfig
from .store_io import load_datastore, save_datastore

logger = logging.getLogger(__name__)

#: Config fields that change the built artifact. ``deep_nprobe`` is listed
#: because it is baked into each shard index as the default probe depth.
BUILD_FIELDS = (
    "n_clusters",
    "nlist",
    "quantization",
    "metric",
    "deep_nprobe",
    "kmeans_seeds",
    "kmeans_subset_fraction",
)


@dataclass
class CacheStats:
    """Hit/miss/store counters, reported in experiment run logs."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.stores = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def summary(self) -> str:
        return (
            f"build-cache: {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s)"
        )


#: Process-wide counters; experiment runners report these after a run.
GLOBAL_STATS = CacheStats()


def cache_enabled() -> bool:
    """True unless ``HERMES_BUILD_CACHE`` is set to an off value."""
    return os.environ.get("HERMES_BUILD_CACHE", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


def default_cache_dir() -> Path:
    env = os.environ.get("HERMES_BUILD_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hermes-repro" / "builds"


def build_fingerprint(embeddings: np.ndarray, config: HermesConfig) -> str:
    """Content hash identifying one (embeddings, build-config) artifact."""
    emb = as_matrix(embeddings)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"shape={emb.shape} dtype={emb.dtype}".encode())
    h.update(np.ascontiguousarray(emb).tobytes())
    build_config = {name: getattr(config, name) for name in BUILD_FIELDS}
    build_config["format"] = FORMAT_VERSION
    h.update(json.dumps(build_config, sort_keys=True, default=list).encode())
    return h.hexdigest()


class BuildCache:
    """Directory of built datastores, one subdirectory per fingerprint."""

    def __init__(
        self, directory: "str | Path | None" = None, *, stats: CacheStats | None = None
    ) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.stats = stats if stats is not None else GLOBAL_STATS

    def entry_path(self, key: str) -> Path:
        return self.directory / key

    def has(self, key: str) -> bool:
        return (self.entry_path(key) / "manifest.json").exists()

    def load(self, key: str) -> ClusteredDatastore | None:
        """Return the cached datastore for *key*, or ``None`` on a miss."""
        if not self.has(key):
            return None
        return load_datastore(self.entry_path(key))

    def store(self, key: str, datastore: ClusteredDatastore) -> None:
        """Atomically publish *datastore* under *key* (last writer wins)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self.entry_path(key)
        tmp = Path(tempfile.mkdtemp(prefix=f".{key}-", dir=self.directory))
        try:
            save_datastore(datastore, tmp)
            if final.exists():
                shutil.rmtree(final)
            os.replace(tmp, final)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self.stats.stores += 1

    def clear(self) -> None:
        if self.directory.exists():
            shutil.rmtree(self.directory)


def cached_cluster_datastore(
    embeddings: np.ndarray,
    config: HermesConfig | None = None,
    *,
    cache: BuildCache | None = None,
    use_cache: bool | None = None,
) -> ClusteredDatastore:
    """:func:`~repro.core.clustering.cluster_datastore` with memoisation.

    On a hit the datastore is loaded from disk and its config swapped for the
    *requested* one — the two can only differ in search-time fields, which
    the fingerprint ignores on purpose.
    """
    config = config or HermesConfig()
    if use_cache is None:
        use_cache = cache_enabled()
    if not use_cache:
        return cluster_datastore(embeddings, config)
    if cache is None:
        cache = BuildCache()
    lookups = get_registry().counter(
        "build_cache_lookups_total", "fingerprinted build-cache lookups by result"
    )
    key = build_fingerprint(embeddings, config)
    with get_tracer().span("build_cache_lookup", key=key) as span:
        datastore = cache.load(key)
        if datastore is not None:
            span.set(result="hit")
            lookups.inc(result="hit")
            cache.stats.hits += 1
            logger.info("build-cache hit %s (%s)", key, cache.entry_path(key))
            datastore.config = config
            return datastore
        span.set(result="miss")
        lookups.inc(result="miss")
        cache.stats.misses += 1
    logger.info("build-cache miss %s; building", key)
    datastore = cluster_datastore(embeddings, config)
    with get_tracer().span("build_cache_store", key=key):
        cache.store(key, datastore)
        get_registry().counter(
            "build_cache_stores_total", "datastores published into the build cache"
        ).inc()
    return datastore
