"""Dense vector search substrate (pure-numpy FAISS replacement).

Provides the index families the Hermes paper builds on: exact Flat search,
IVF with scalar/product quantization, and HNSW, plus the K-means machinery
shared by IVF training and Hermes's datastore disaggregation.
"""

from .base import VectorIndex
from .distances import (
    VALID_METRICS,
    inner_product,
    normalize,
    pairwise_distance,
    squared_l2,
    top_k,
)
from .flat import FlatIndex
from .persistence import load_index, save_ivf
from .hnsw import HNSWIndex
from .ivf import IVFIndex, default_nlist
from .kmeans import KMeansResult, assign_to_centroids, kmeans, kmeans_seed_sweep
from .quantization import (
    IdentityQuantizer,
    OPQQuantizer,
    ProductQuantizer,
    Quantizer,
    ScalarQuantizer,
    make_quantizer,
)

__all__ = [
    "VectorIndex",
    "VALID_METRICS",
    "inner_product",
    "normalize",
    "pairwise_distance",
    "squared_l2",
    "top_k",
    "FlatIndex",
    "load_index",
    "save_ivf",
    "HNSWIndex",
    "IVFIndex",
    "default_nlist",
    "KMeansResult",
    "assign_to_centroids",
    "kmeans",
    "kmeans_seed_sweep",
    "IdentityQuantizer",
    "OPQQuantizer",
    "ProductQuantizer",
    "Quantizer",
    "ScalarQuantizer",
    "make_quantizer",
]
