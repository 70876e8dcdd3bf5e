"""The MLP forward and backward passes as plain formulas: the bitwise
oracles of `nn.mlp_forward` and `nn.mlp_backward`.

`nn` adds the bias and applies tanh in place, forms tanh's derivative in one
temporary, writes a one-column layer's backward product as a broadcast
multiply and can skip the input gradient. This module keeps the formulas
those kernels replaced, operation for operation, so that the tests can
require equal bytes.
"""

from __future__ import annotations

import numpy as np

from pursuit_lab import nn


def mlp_forward(mlp: nn.Mlp, x: np.ndarray):
    """(output, activations): h = tanh(h @ w + b) per hidden layer, then a
    linear output layer."""
    h = np.asarray(x, dtype=mlp.weights[0].dtype)
    activations = [h]
    n_layers = len(mlp.weights)
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = h @ w + b
        if i < n_layers - 1:
            h = np.tanh(h)
        activations.append(h)
    return h, activations


def mlp_backward(mlp: nn.Mlp, cache: list[np.ndarray], dout: np.ndarray):
    """(grads aligned with `mlp.arrays()`, d(loss)/d(input))."""
    dout = np.asarray(dout, dtype=mlp.weights[0].dtype)
    n_layers = len(mlp.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    delta = dout
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            delta = delta * (1.0 - cache[i + 1] ** 2)  # tanh'
        grads_w[i] = cache[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        delta = delta @ mlp.weights[i].T
    grads = []
    for gw, gb in zip(grads_w, grads_b):
        grads.append(gw)
        grads.append(gb)
    return grads, delta
