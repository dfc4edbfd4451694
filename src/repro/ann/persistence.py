"""Index persistence: save/load for the offline index-construction stage.

The paper's artifact builds indices offline (hours to weeks at their scales)
and serves them online; this module provides the corresponding serialization
for our indices using numpy's ``.npz`` container plus a small JSON header.
IVF indices (any quantizer) round-trip exactly; a clustered datastore
persists as one directory with one file per shard plus a manifest (see
:mod:`repro.core.store_io`).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ivf import IVFIndex, check_format


def save_ivf(index: IVFIndex, path: "str | Path") -> None:
    """Persist a trained IVF index (any quantizer) to *path* (.npz).

    Writes :meth:`IVFIndex.export_state` as is — the sealed storage plus the
    ADC norms a loader would need a decode pass to recompute; the loaded
    index is sealed by :meth:`IVFIndex.from_state`, so its first search
    builds nothing.
    """
    header, arrays = index.export_state()
    np.savez_compressed(path, header=json.dumps(header), **arrays)


def load_index(path: "str | Path") -> IVFIndex:
    """Load an index saved by :func:`save_ivf`."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        check_format(header.get("format"))
        if header.get("type") != "ivf":
            raise ValueError(f"unknown index type {header.get('type')!r}")
        return IVFIndex.from_state(header, data)
