"""Matched-filter retinal vessel segmentation: pipeline, metrics, sweeps."""

from .image import BinaryImage, GrayImage, RgbImage, load_mask, quantize_levels
from .kernels import (
    Kernel,
    KernelBank,
    KernelConstructionError,
    KernelParams,
    build_bank,
    gaussian_profile,
    kernel_at_angle,
)
from .metrics import (
    ConfusionCounts,
    UndefinedRocError,
    auc,
    basic_metrics,
    confusion,
    evaluate_pair,
    mad,
    rmsd,
    roc_curve,
)
from .phantom import Phantom, generate_phantom
from .pnm import PnmDecodeError, read_pnm, write_pnm
from .preprocess import ClaheParams, clahe, pca_grayscale
from .response import max_response, normalize_response
from .segment import (
    PipelineParams,
    PipelineStageError,
    apply_mask,
    binarize,
    build_histogram,
    complement,
    default_min_component_size,
    length_filter,
    otsu_curves,
    otsu_threshold,
    run_pipeline,
)
from .sweep import (
    GridSpec,
    SweepError,
    evaluate_combo,
    length_search,
    three_round_search,
)

__version__ = "0.1.0"
