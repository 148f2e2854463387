"""Tensor math: reverse-mode autodiff, layer primitives, the optimizer.

Arrays are dense float64, except an embedding table's gradient, always a
``RowSparse`` over the rows a batch looked up or a pull moved, and a trained
table's ``TouchedRows``, the new values of only the rows training changed.
"""

from .gradcheck import finite_difference_check
from .layers import (
    affine,
    attention_pool,
    bilstm_sequence,
    dropout,
    embedding,
    gelu,
    l2_normalize,
    layer_norm,
    log_softmax,
    log_softmax_parts,
    lstm_sequence,
    mhsa_block,
    multiscale_conv_encode,
    softmax,
)
from .optim import Adam, clip_global_norm, make_optimizer
from .tensor import (
    GradientError,
    RowSparse,
    Tensor,
    TouchedRows,
    backward,
    concat,
    zero_grads,
)

__all__ = [
    "Adam",
    "GradientError",
    "RowSparse",
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
    "l2_normalize",
    "layer_norm",
    "log_softmax",
    "log_softmax_parts",
    "lstm_sequence",
    "make_optimizer",
    "mhsa_block",
    "multiscale_conv_encode",
    "softmax",
    "zero_grads",
]
