"""The four workloads by name (each in its own module, base in ``workload``)."""

from mutate_mix import MutateMix
from rag_strides import RagStrides
from scan_unique import ScanUnique
from serve_zipf import ServeZipf

REGISTRY = {cls.name: cls for cls in (ScanUnique, ServeZipf, RagStrides, MutateMix)}
