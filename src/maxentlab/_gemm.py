"""Products of inputs with a weight matrix, on the calling thread's BLAS.

``_linear`` is the one kernel for every such product: the features and logits
of a forward pass, the logits of a Monte-Carlo block, and the component
transforms of mixture sampling. It imports nothing from the package, so
both ``core`` and ``mixtures`` (which ``core`` imports) can use it.
"""

from __future__ import annotations

import numpy as np

# Most multiply-adds (inputs x outputs x inner dimension) in one product that
# OpenBLAS keeps on the calling thread: 65,536 x its GEMM_MULTITHREAD_THRESHOLD
# of 4. A larger product wakes a second BLAS thread, which mostly busy-waits.
_GEMM_ONE_THREAD = 2**18

# Largest (outputs, inner dimension) of a product that ``_linear`` slices, per
# orientation. Within them every output of a slice has the bits of the same
# output of one whole product (OpenBLAS 0.3.31 on AVX-512 x86-64, checked in
# tests/test_core.py). Beyond them OpenBLAS rounds an output differently
# depending on the product's size (rows: from 38 inner terms at 155 outputs,
# or 132 at 20), so a split would move bits and the product stays whole.
_ROW_SLICE_MAX = (64, 64)
_COLUMN_SLICE_MAX = (32, 15)


def _linear(
    x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None, *, columns: bool = False
) -> np.ndarray:
    """The (outputs, K) matrix ``w`` applied to every input of ``x``, in one-BLAS-thread slices.

    ``x`` holds one input per row, (m, K), for ``x @ w.T`` of shape (m, outputs):
    the features and logits of a forward pass, or a mixture component's
    sampled points before their mean is added. With ``columns`` it holds one
    input per column, (K, m), for ``w @ x`` of shape (outputs, m): the logits
    of a Monte-Carlo block. The product is written into ``out`` (a fresh array
    when None) in the fewest even slices of the m inputs whose outputs x K x
    width multiply-adds each fit ``_GEMM_ONE_THREAD``, so a product that fits
    is one call and every slice is wider than half the widest allowed (a
    one-input slice would go through gemv, which rounds differently). Each
    output is then the same K-term dot product whatever slice holds it, and the
    result equals one whole ``np.matmul`` bit for bit. Shapes beyond the
    ``_ROW_SLICE_MAX`` or ``_COLUMN_SLICE_MAX`` limits, and one-output products
    (gemv again), are multiplied whole. A one-slice product, such as every SGD
    batch's logits, is that one call, made without planning slice edges.
    """
    outputs, inner = w.shape
    width = x.shape[1] if columns else x.shape[0]
    max_outputs, max_inner = _COLUMN_SLICE_MAX if columns else _ROW_SLICE_MAX
    count = 1
    if 2 <= outputs <= max_outputs and inner <= max_inner:
        count = -(-width // (_GEMM_ONE_THREAD // (outputs * inner)))
    if count == 1:
        return np.matmul(w, x, out=out) if columns else np.matmul(x, w.T, out=out)
    if out is None:
        out = np.empty((outputs, width) if columns else (width, outputs))
    edges = [width * i // count for i in range(count + 1)]
    for lo, hi in zip(edges, edges[1:]):
        if columns:
            np.matmul(w, x[:, lo:hi], out=out[:, lo:hi])
        else:
            np.matmul(x[lo:hi], w.T, out=out[lo:hi])
    return out
