"""The MLP forward and backward passes and the Adam step as plain formulas:
the bitwise oracles of `nn.mlp_forward`, `nn.mlp_backward` and
`nn.adam_step`.

`nn` adds the bias and applies tanh in place, forms tanh's derivative in a
reused buffer, writes a one-column layer's backward product as a broadcast
multiply and can skip the input gradient; its Adam steps one flat vector
per model. This module keeps the formulas those kernels replaced, operation
for operation, so that the tests can require equal bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class AdamState:
    """Per-array Adam moments, one array per parameter."""

    lr: float
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def adam_init(params: list[np.ndarray], lr: float) -> AdamState:
    return AdamState(lr=lr, m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(opt: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One bias-corrected Adam step, array by array, in place."""
    opt.t += 1
    bc1 = 1.0 - nn.ADAM_BETA1**opt.t
    bc2 = 1.0 - nn.ADAM_BETA2**opt.t
    for p, g, m, v in zip(params, grads, opt.m, opt.v):
        m *= nn.ADAM_BETA1
        m += (1.0 - nn.ADAM_BETA1) * g
        v *= nn.ADAM_BETA2
        v += (1.0 - nn.ADAM_BETA2) * g * g
        p -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + nn.ADAM_EPS)
