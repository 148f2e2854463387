"""Tensor math: reverse-mode autodiff, layer primitives, the optimizer.

Arrays, gradients and optimizer state are dense, in the dtype of the
parameters and inputs: float32 or float64, float64 for anything else. A
graph computes in one dtype throughout, and a Python scalar never changes
it. The optimizer holds a client's trained parameters and both Adam
moments as three flat vectors, one slice per parameter, and updates them a
fixed-size chunk at a time. A client trains a compact table, the rows of an
embedding table its data can look up, and reports it as ``TouchedRows``:
those rows' new values, the other rows of the table unchanged. The server
writes those rows into the global table in place.
"""

from .gradcheck import finite_difference_check
from .layers import (
    affine,
    attention_pool,
    bilstm_sequence,
    dropout,
    embedding,
    gelu,
    layer_norm,
    log_softmax,
    log_softmax_parts,
    mhsa_block,
    mlp_tail,
    multiscale_conv_encode,
    softmax,
)
from .optim import Adam, clip_global_norm, make_optimizer
from .tensor import (
    GradientError,
    Tensor,
    TouchedRows,
    backward,
    concat,
    zero_grads,
)

__all__ = [
    "Adam",
    "GradientError",
    "Tensor",
    "TouchedRows",
    "affine",
    "attention_pool",
    "backward",
    "bilstm_sequence",
    "clip_global_norm",
    "concat",
    "dropout",
    "embedding",
    "finite_difference_check",
    "gelu",
    "layer_norm",
    "log_softmax",
    "log_softmax_parts",
    "make_optimizer",
    "mhsa_block",
    "mlp_tail",
    "multiscale_conv_encode",
    "softmax",
    "zero_grads",
]
