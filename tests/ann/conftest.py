"""Fixtures shared by the ANN suites."""

import numpy as np
import pytest


def _radius_sorted_state(index):
    """``index.export_state()`` laid out as older format-5 gather-codec stores
    were saved: rows sorted within each cell by residual radius
    ``|decode(code) - centroid|`` (stably, so equal radii keep insertion
    order), the radii themselves in an extra ``code_radii`` array."""
    header, arrays = index.export_state()
    offsets = arrays["cell_offsets"]
    cells = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    residual = index.quantizer.decode(arrays["codes"]).astype(np.float64)
    residual -= arrays["centroids"][cells]
    radii = np.sqrt(np.einsum("ij,ij->i", residual, residual)).astype(np.float32)
    order = np.lexsort((radii, cells))
    arrays = dict(arrays, code_radii=radii[order])
    for name in ("codes", "ids", "code_sqnorms"):
        if name in arrays:
            arrays[name] = np.ascontiguousarray(arrays[name][order])
    return header, arrays


@pytest.fixture(scope="session")
def radius_sorted_state():
    return _radius_sorted_state
