"""LLM inference substrate: model zoo, serving cost model, strided generation.

Replaces the paper's vLLM-served HuggingFace models with calibrated
analytical serving models (see DESIGN.md, "Substitutions").
"""

from .generation import (
    GenerationConfig,
    GenerationResult,
    RetrievalCost,
    constant_retrieval,
    simulate_generation,
)
from .inference import InferenceModel, StageCost
from .kvcache import CacheStats, IdealPrefixCache, PrefixCache
from .models import GEMMA2_9B, MODELS, OPT_30B, PHI_1_5, ModelSpec, get_model
from .perplexity import (
    GPT2_762M,
    GPT2_1_5B,
    PERPLEXITY_CURVES,
    RETRO_578M,
    PerplexityCurve,
    perplexity_vs_stride,
)

__all__ = [
    "GenerationConfig",
    "GenerationResult",
    "RetrievalCost",
    "constant_retrieval",
    "simulate_generation",
    "InferenceModel",
    "StageCost",
    "CacheStats",
    "IdealPrefixCache",
    "PrefixCache",
    "GEMMA2_9B",
    "MODELS",
    "OPT_30B",
    "PHI_1_5",
    "ModelSpec",
    "get_model",
    "GPT2_762M",
    "GPT2_1_5B",
    "PERPLEXITY_CURVES",
    "RETRO_578M",
    "PerplexityCurve",
    "perplexity_vs_stride",
]
