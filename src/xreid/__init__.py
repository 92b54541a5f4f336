"""Kernel MMD alignment losses and cross-modal retrieval evaluation.

A numpy library for aligning visible/thermal feature distributions: RBF
kernel MMD estimators with analytic gradients, a margin-gated
class-conditional MMD loss, the hetero-center triplet loss, a small
trainable two-stream encoder, identity-balanced batch sampling, and the
single-shot CMC/mAP retrieval protocol. The ``xreid`` command drives
end-to-end experiments on synthetic two-modality identity data.
"""

from .config import ExperimentConfig
from .data import (
    THERMAL,
    VISIBLE,
    BatchSampler,
    BatchSpec,
    DescriptorSet,
    FeatureSet,
    SyntheticSpec,
)
from .encoder import (
    EncoderParams,
    EncoderShape,
    SgdHyper,
    SgdState,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .evaluation import EvalReport, SimilarityStats, cmc_map, evaluate, similarity_stats
from .kernels import GramMatrix, KernelSpec, gram, median_heuristic_bandwidth, rbf_kernel
from .losses import (
    HcTriConfig,
    LossBundle,
    LossWeights,
    hetero_centers,
    loss_hc_tri,
    loss_id,
    loss_total,
)
from .mmd import (
    MarginConfig,
    MmdEstimate,
    loss_margin_mmd_id,
    loss_mmd_id,
    loss_mmd_marginal,
    mmd2_biased,
    mmd2_unbiased,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "VISIBLE",
    "THERMAL",
    "FeatureSet",
    "DescriptorSet",
    "SyntheticSpec",
    "BatchSpec",
    "BatchSampler",
    "KernelSpec",
    "GramMatrix",
    "rbf_kernel",
    "median_heuristic_bandwidth",
    "gram",
    "MmdEstimate",
    "MarginConfig",
    "mmd2_biased",
    "mmd2_unbiased",
    "loss_mmd_marginal",
    "loss_mmd_id",
    "loss_margin_mmd_id",
    "LossWeights",
    "HcTriConfig",
    "LossBundle",
    "loss_id",
    "hetero_centers",
    "loss_hc_tri",
    "loss_total",
    "EncoderShape",
    "EncoderParams",
    "SgdHyper",
    "SgdState",
    "init_params",
    "forward",
    "backward",
    "sgd_step",
    "save_checkpoint",
    "load_checkpoint",
    "EvalReport",
    "SimilarityStats",
    "evaluate",
    "cmc_map",
    "similarity_stats",
]
