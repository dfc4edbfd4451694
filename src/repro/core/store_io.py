"""Clustered-datastore persistence: one directory per deployment.

Layout::

    <dir>/manifest.json        # config + shard inventory (+ mutation state)
    <dir>/shard_<i>.npz        # one IVF index per cluster (ann.persistence)
    <dir>/mutation_<i>.npz     # delta codes/cells + tombstones (live shards)
    <dir>/assignments.npy      # per-document shard assignment
    <dir>/clustering.npz       # K-means split result (semantic splits only)

Mirrors the paper artifact's offline index-construction outputs so a built
deployment can be constructed once and served many times. Format 5 adds the
live-mutation state: shards with a delta memtable or tombstones persist them
in a per-shard sidecar plus per-shard ``generation`` and the datastore-wide
``mutations`` counter in the manifest (a manifest without them loads as a
frozen store). Shard files are :func:`repro.ann.persistence.save_ivf` output
and only the current format loads.

Every file is written via a temp file in the same directory followed by
``os.replace``, so a writer crash mid-save never corrupts an existing store:
readers see either the old complete file or the new complete file. Saving a
*live* datastore quiesces one shard at a time (``IndexShard.quiesce``):
mutations on that shard block while its files are written, so the persisted
index/ids/delta/tombstones are a consistent cut; searches are unaffected.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from ..ann.delta import DeltaIndex
from ..ann.kmeans import KMeansResult
from ..ann.persistence import load_index, save_ivf
from .clustering import ClusteredDatastore, IndexShard
from .config import HermesConfig

#: ``HermesConfig`` fields that no longer exist but older manifests carry.
_RETIRED_CONFIG_KEYS = (
    "sample_k",
    "kmeans_algorithm",
    "kmeans_batch_size",
    "quantizer_train_sample",
    "search_workers_mode",
)


def _atomic_write(path: Path, write) -> None:
    """Run ``write(file_obj)`` against a temp file, then rename into place.

    The temp file lives next to *path* so ``os.replace`` is an atomic rename
    on the same filesystem. On any failure the temp file is removed and the
    previous *path* contents (if any) are left untouched.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_save_array(path: Path, array: np.ndarray) -> None:
    _atomic_write(path, lambda f: np.save(f, array))


def save_datastore(datastore: ClusteredDatastore, directory: "str | Path") -> None:
    """Persist a clustered datastore to *directory* (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": dataclasses.asdict(datastore.config),
        "n_clusters": datastore.n_clusters,
        "mutations": int(datastore.mutations),
        "shards": [],
    }
    for shard in datastore.shards:
        # Quiesce the shard (mutations block, searches proceed) so the
        # index/ids/delta/tombstones written below are one consistent cut —
        # an unquiesced save could persist e.g. an ids array longer than
        # sealed+delta rows, which IndexShard.__post_init__ rejects at load.
        with shard.quiesce():
            filename = f"shard_{shard.shard_id}.npz"
            _atomic_write(
                directory / filename, lambda f, s=shard: save_ivf(s.index, f)
            )
            _atomic_save_array(
                directory / f"ids_{shard.shard_id}.npy", shard.global_ids
            )
            _atomic_save_array(
                directory / f"centroid_{shard.shard_id}.npy", shard.centroid
            )
            entry = {
                "shard_id": shard.shard_id,
                "file": filename,
                "size": len(shard),
                "generation": int(shard.generation),
            }
            if shard.has_mutations:
                mutation_file = f"mutation_{shard.shard_id}.npz"
                delta = shard.delta
                _atomic_write(
                    directory / mutation_file,
                    lambda f, d=delta, s=shard: np.savez_compressed(
                        f,
                        delta_codes=(
                            d.codes
                            if d is not None
                            else np.empty((0, 0), dtype=np.uint8)
                        ),
                        delta_cells=(
                            d.cells if d is not None else np.empty(0, dtype=np.int64)
                        ),
                        tombstones=np.array(sorted(s.tombstones), dtype=np.int64),
                    ),
                )
                entry["mutation_file"] = mutation_file
        manifest["shards"].append(entry)
    _atomic_save_array(directory / "assignments.npy", datastore.assignments)
    if datastore.clustering is not None:
        _atomic_write(
            directory / "clustering.npz",
            lambda f: np.savez_compressed(
                f,
                centroids=datastore.clustering.centroids,
                assignments=datastore.clustering.assignments,
                inertia=np.float64(datastore.clustering.inertia),
                n_iter=np.int64(datastore.clustering.n_iter),
                seed=np.int64(datastore.clustering.seed),
            ),
        )
    _atomic_write(
        directory / "manifest.json",
        lambda f: f.write(json.dumps(manifest, indent=2).encode()),
    )


def load_datastore(directory: "str | Path") -> ClusteredDatastore:
    """Load a datastore saved by :func:`save_datastore`."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {directory}")
    manifest = json.loads(manifest_path.read_text())
    config_dict = dict(manifest["config"])
    # Manifests written before these knobs were deleted carry them. None of
    # them changes how a built store searches, so dropping them loads the
    # same datastore.
    for retired in _RETIRED_CONFIG_KEYS:
        config_dict.pop(retired, None)
    config_dict["kmeans_seeds"] = tuple(config_dict["kmeans_seeds"])
    config = HermesConfig(**config_dict)
    shards = []
    for entry in manifest["shards"]:
        shard_id = entry["shard_id"]
        index = load_index(directory / entry["file"])
        delta = None
        tombstones: set = set()
        # Mutation sidecar; absent for frozen shards.
        mutation_file = entry.get("mutation_file")
        if mutation_file is not None:
            with np.load(directory / mutation_file, allow_pickle=False) as data:
                if len(data["delta_codes"]):
                    delta = DeltaIndex.restore(
                        index, data["delta_codes"], data["delta_cells"]
                    )
                tombstones = {int(t) for t in data["tombstones"]}
        shards.append(
            IndexShard(
                shard_id=shard_id,
                index=index,
                global_ids=np.load(directory / f"ids_{shard_id}.npy"),
                centroid=np.load(directory / f"centroid_{shard_id}.npy"),
                generation=int(entry.get("generation", 0)),
                delta=delta,
                tombstones=tombstones,
            )
        )
    assignments = np.load(directory / "assignments.npy")
    clustering = None
    clustering_path = directory / "clustering.npz"
    if clustering_path.exists():
        with np.load(clustering_path, allow_pickle=False) as data:
            clustering = KMeansResult(
                centroids=data["centroids"],
                assignments=data["assignments"],
                inertia=float(data["inertia"]),
                n_iter=int(data["n_iter"]),
                seed=int(data["seed"]),
            )
    return ClusteredDatastore(
        shards=shards,
        config=config,
        clustering=clustering,
        assignments=assignments,
        mutations=int(manifest.get("mutations", 0)),
    )
