"""Low-rank + structured-sparse compression for photonic tensor-core hardware."""

from .allocate import CompressionPlan, allocate_ranks, basis_rank, prepare_full_rank, psi
from .decompose import (
    Decomposition,
    ScalingDiag,
    StructuredSparse,
    compute_scaling,
    decompose_layer,
    expand,
    layer_error,
    local_adapt,
    structured_sparsify,
)
from .linalg import SvdResult, frobenius_norm, truncated_svd
from .model import LayerSpec, ModelGraph, load_model, save_model
from .photonic import (
    CostReport,
    EngineConfig,
    EnergyParams,
    PtcConfig,
    SplitterPlan,
    condensed_matmul,
    plan_splitters,
    simulate,
)
from .quantize import QuantizedTensor, dequantize, inject_noise, quantize
from .vit import ToyViT, block_loss, collect_calibration, evaluate, forward, logit_loss

__version__ = "0.1.0"
