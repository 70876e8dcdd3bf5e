"""Minimal neural-network core: tanh MLP, diagonal-Gaussian head, Adam.

Fixed feed-forward topology only (tanh hidden layers, linear output) with
hand-written reverse-mode gradients, which keeps training fully deterministic
and lets the test suite check every gradient against central finite
differences. Every model's parameters are float32; `mlp_init`'s `dtype` is
the one switch, and the gradient checks pass float64 for precision. Adam's
moment decays and denominator term are the constants `ADAM_BETA1`,
`ADAM_BETA2` and `ADAM_EPS`.

The forward and backward passes give the bits of the plain formulas
(`tests/mlp_oracle.py`) with less work:
- An in-place ufunc (`h += b`, `np.tanh(h, out=h)`, `dh *= delta`) rounds
  each element as the out-of-place one does, and IEEE multiplication is
  commutative, so `dh *= delta` equals `delta * dh`.
- Backward through a one-column layer, `delta @ w.T` with `w` of shape
  (h, 1), is the broadcast product `delta * w.T` followed by `+= 0.0`:
  matmul adds each product to +0.0, which turns a -0.0 product into +0.0.
  numpy's matmul is two to three times slower on that shape.
- `mlp_backward(..., input_grad=False)` skips the first layer's product
  for a caller that reads no input gradient.
- Two temporaries of the backward pass never leave it: tanh's derivative
  product and the backward product of every layer but the first. They go
  with `out=` into two buffers per (shape, dtype) from a small cache
  (`_backward_scratch`), so an update step does not hand freed
  hundred-kilobyte arrays back to the allocator and fault them in again
  on the next minibatch. That is safe because a backward call reads
  nothing of a previous one and the trainers run one update at a time in
  one thread (`eval --jobs` uses processes).
- The parameter gradients go where the caller says: `mlp_backward` writes
  each weight gradient with `np.matmul(..., out=)` and each bias gradient
  with `np.add.reduce(..., out=)`, the operations of `cache.T @ delta` and
  `delta.sum(axis=0)`, into the arrays it is given. A trainer gives it
  views of its optimizer's gradient vector (below).

What stays fresh: the input gradient of `mlp_backward`, and every forward
output outside an update. `ActorCritic.values` returns a view of a forward
output and the rollout collector keeps it across steps, so a reused forward
buffer would alias there. An update (`rl.minibatch_epochs`) runs inside
`forward_buffers`, where each network's layer products go into buffers
reused from minibatch to minibatch: a minibatch forwards each network once
and reads none of the previous minibatch's outputs. Without them, the
update's largest allocations are its forward outputs, all freed at the end
of every minibatch; glibc then returns the top of the heap to the kernel
and faults the pages in again on the next minibatch (about 14000 to 24000
minor faults per NAHT-D update), which costs more than the gradient writes
save.

Adam keeps the moments of all of a model's parameters in one flat vector
each, and the gradients in a third, `AdamState.grad_flat`, all in the
parameters' order. A trainer's minibatch writes its gradients straight
into `grad_flat` through `grad_views`, and `adam_step` reads it in place:
the per-array formulas of `tests/mlp_oracle.py` run on the flat vectors,
in the same order and on the same operand dtypes, writing into two reused
scratch vectors with `out=`. Elementwise IEEE arithmetic does not depend
on where an element sits, so every parameter and moment keeps its bits.
A view of `grad_flat` lives for one update only: `copy.deepcopy` and
pickle turn a view into an independent copy, so a view kept in an object
that is copied or pickled between updates (a `rl.Learner`) would go on
reading stale gradients. `AdamState` therefore holds arrays that own their
memory, and `rl.minibatch_epochs` makes the views afresh for each update.
`tests/update_oracle.py` keeps the updates that returned gradient lists
and concatenated them, as the bitwise oracle of whole updates.

`blas_fingerprint` tells whether this machine's BLAS kernel gives the
products the bits that the golden hashes were recorded with.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_FORMAT_VERSION = 1

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class Mlp:
    """Plain MLP parameters: weights[i] is (fan_in, fan_out)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "Mlp":
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def mlp_init(dims, rng: np.random.Generator, dtype=np.float32, final_scale: float = 1.0) -> Mlp:
    """Hidden weights scaled by 1/sqrt(fan_in); the output layer additionally
    by `final_scale` (policy heads use 0.01 to start near zero steer)."""
    weights, biases = [], []
    for i in range(len(dims) - 1):
        scale = 1.0 / math.sqrt(dims[i])
        if i == len(dims) - 2:
            scale *= final_scale
        weights.append((rng.standard_normal((dims[i], dims[i + 1])) * scale).astype(dtype))
        biases.append(np.zeros(dims[i + 1], dtype=dtype))
    return Mlp(weights, biases)


#: The layer-output buffers of the `forward_buffers` block that runs, by
#: (network id, layer, shape); None outside one.
_forward_buffers: dict | None = None


@contextmanager
def forward_buffers():
    """Within the block, `mlp_forward` writes each layer's product into a
    buffer of that network, layer and shape, reused from call to call, and
    the block's end drops them all. For an update, whose forward outputs die
    within each minibatch; never for a rollout (see the module docstring)."""
    global _forward_buffers
    _forward_buffers = {}
    try:
        yield
    finally:
        _forward_buffers = None


def mlp_forward(mlp: Mlp, x: np.ndarray):
    """Batched forward pass. Returns (output, cache-for-backward).

    x is (batch, d_in); hidden activations are tanh, output is linear. A
    stacked (k, m, d_in) input runs numpy's (m, d_in) kernel on each slice,
    so each of its k blocks has the bits of that block's own forward: a
    (k, 1, d_in) stack keeps the bits of k one-row forwards, which a plain
    multi-row (k, d_in) product does not. The bias and tanh go in place into
    each layer's product, never into `x`; inside `forward_buffers` that
    product goes into the layer's buffer.
    """
    dtype = mlp.weights[0].dtype
    h = np.asarray(x, dtype=dtype)
    fan_in = mlp.weights[0].shape[0]
    if h.ndim < 2 or h.shape[-1] != fan_in:
        raise ValueError(f"input shape {h.shape} is not (batch, {fan_in}) or (k, m, {fan_in})")
    activations = [h]
    last = len(mlp.weights) - 1
    buffers = _forward_buffers
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        if buffers is None:
            h = h @ w
        else:
            shape = h.shape[:-1] + w.shape[1:]
            out = buffers.get((id(mlp), i, shape))
            if out is None:
                out = buffers[id(mlp), i, shape] = np.empty(shape, dtype)
            h = np.matmul(h, w, out=out)
        h += b
        if i < last:
            np.tanh(h, out=h)
        activations.append(h)
    return h, activations


def mlp_backward(
    mlp: Mlp, cache: list[np.ndarray], dout: np.ndarray, grads: list[np.ndarray], *, input_grad: bool = True
):
    """Exact reverse-mode gradients, written into `grads`, arrays of the
    shapes of `mlp.arrays()` in that order. Returns dx, d(loss)/d(input).

    dx is None with `input_grad=False`, which skips the first layer's
    product for a caller that does not read it. `dout` is never written to.
    tanh's derivative product and the backward product of every layer but
    the first go into `_backward_scratch` buffers; dx is fresh.
    """
    dtype = mlp.weights[0].dtype
    dout = np.asarray(dout, dtype=dtype)
    if dout.shape != cache[-1].shape:
        raise ValueError(f"output-gradient shape {dout.shape} != output shape {cache[-1].shape}")
    n_layers = len(mlp.weights)
    if len(grads) != 2 * n_layers:
        raise ValueError(f"{len(grads)} gradient arrays for {2 * n_layers} parameters")
    delta = dout
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            # tanh': 1 - h**2, times delta
            dh = _backward_scratch(cache[i + 1].shape, dtype)[0]
            np.square(cache[i + 1], out=dh)
            np.subtract(1.0, dh, out=dh)
            dh *= delta
            delta = dh
        np.matmul(cache[i].T, delta, out=grads[2 * i])
        np.add.reduce(delta, axis=0, out=grads[2 * i + 1])
        if i == 0 and not input_grad:
            return None
        shape = cache[i].shape
        out = _backward_scratch(shape, dtype)[1] if i > 0 else np.empty(shape, dtype)
        delta = _backprop(delta, mlp.weights[i], out)
    return delta


@lru_cache(maxsize=8)
def _backward_scratch(shape: tuple[int, ...], dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Two reused buffers of `shape`: tanh's derivative product and a
    backward product (see the module docstring)."""
    return np.empty(shape, dtype), np.empty(shape, dtype)


def _backprop(delta: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """delta @ w.T into `out`; for a one-column w, the broadcast product plus
    0.0, which has matmul's bits (see the module docstring)."""
    if w.shape[1] != 1:
        return np.matmul(delta, w.T, out=out)
    np.multiply(delta, w.T, out=out)
    out += 0.0
    return out


def blas_fingerprint() -> str:
    """sha256 of seeded float32 matmuls of the trainings' shapes: forwards of
    1 to 64 rows of 18-wide observations and of 128-wide layers, and the
    products of their backward passes. Two BLAS kernels that give these the
    same bits are taken to give the trainings the same bits."""
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for rows, fan_in, fan_out in ((1, 18, 128), (4, 18, 128), (32, 128, 128), (64, 128, 128), (64, 128, 1)):
        x = rng.standard_normal((rows, fan_in)).astype(np.float32)
        w = rng.standard_normal((fan_in, fan_out)).astype(np.float32)
        y = x @ w
        for product in (y, x.T @ y, y @ w.T):
            h.update(product.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Diagonal Gaussian head
# ---------------------------------------------------------------------------

def clamp_log_std(log_std: np.ndarray) -> np.ndarray:
    return np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)


def log_std_grad_mask(log_std: np.ndarray) -> np.ndarray:
    """1 where the clamp is inactive (gradient flows), else 0."""
    return ((log_std > LOG_STD_MIN) & (log_std < LOG_STD_MAX)).astype(log_std.dtype)


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Per-sample log density of `actions` under N(mean, diag(exp(log_std))^2)."""
    return gaussian_log_prob_z(mean, log_std, actions)[0]


def gaussian_log_prob_z(mean: np.ndarray, log_std: np.ndarray, actions: np.ndarray):
    """(`gaussian_log_prob`, z, std): z = (actions - mean) / std are the
    standardized actions, which the PPO head's gradients reuse."""
    ls = clamp_log_std(np.asarray(log_std))
    std = np.exp(ls)
    z = (np.asarray(actions) - mean) / std
    return -0.5 * np.sum(z * z, axis=-1) - np.sum(ls) - 0.5 * _LOG_2PI * mean.shape[-1], z, std


def gaussian_entropy(log_std: np.ndarray) -> float:
    ls = clamp_log_std(np.asarray(log_std))
    return float(np.sum(ls) + 0.5 * ls.shape[-1] * (1.0 + _LOG_2PI))


def gaussian_sample(mean: np.ndarray, log_std: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    ls = clamp_log_std(np.asarray(log_std))
    return mean + np.exp(ls) * rng.standard_normal(mean.shape)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Adam's step count, moments and gradient. The moments and the
    gradient of all parameters are one flat vector each, `m_flat`, `v_flat`
    and `grad_flat`, in parameter order. `scratch` holds two vectors of the
    same length that every step overwrites. Every array owns its memory
    (see the module docstring)."""

    lr: float
    shapes: list[tuple[int, ...]]
    m_flat: np.ndarray
    v_flat: np.ndarray
    grad_flat: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    t: int = 0


def grad_views(opt: AdamState) -> list[np.ndarray]:
    """Views of consecutive slices of `opt.grad_flat`, one per parameter, in
    its shape: where a minibatch writes its gradients. Make them afresh for
    each update and keep them in no object that outlives it."""
    views, start = [], 0
    for shape in opt.shapes:
        stop = start + math.prod(shape)
        views.append(opt.grad_flat[start:stop].reshape(shape))
        start = stop
    return views


def adam_init(params: list[np.ndarray], lr: float = 3e-4) -> AdamState:
    """Zero moments for `params`, which must share one dtype."""
    dtypes = {p.dtype for p in params}
    if len(dtypes) != 1:
        raise ValueError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
    (dtype,) = dtypes
    size = sum(p.size for p in params)
    return AdamState(
        lr=lr,
        shapes=[p.shape for p in params],
        m_flat=np.zeros(size, dtype),
        v_flat=np.zeros(size, dtype),
        grad_flat=np.zeros(size, dtype),
        scratch=(np.empty(size, dtype), np.empty(size, dtype)),
    )


def adam_step(opt: AdamState, params: list[np.ndarray]) -> list[np.ndarray]:
    """Bias-corrected adaptive-moment update of `params` by the gradient in
    `opt.grad_flat`, in place. Fails fast, before changing anything, on a
    parameter of the wrong shape or a non-finite gradient."""
    if len(params) != len(opt.shapes):
        raise ValueError(f"{len(params)} parameters for an optimizer of {len(opt.shapes)}")
    for p, shape in zip(params, opt.shapes):
        if p.shape != shape:
            raise ValueError(f"parameter shape {p.shape} != optimizer shape {shape}")
    g = opt.grad_flat
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient")
    opt.t += 1
    bc1 = 1.0 - ADAM_BETA1**opt.t
    bc2 = 1.0 - ADAM_BETA2**opt.t
    m, v = opt.m_flat, opt.v_flat
    step, denom = opt.scratch
    m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, g, out=step)
    m += step
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=step)
    step *= g
    v += step
    # step = (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
    np.divide(m, bc1, out=step)
    np.multiply(opt.lr, step, out=step)
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    start = 0
    for p in params:
        stop = start + p.size
        p -= step[start:stop].reshape(p.shape)
        start = stop
    return params


# ---------------------------------------------------------------------------
# Checkpoint archive: manifest.json + params.bin (little-endian float32)
# ---------------------------------------------------------------------------

#: Fixed zip entry timestamp (the zip epoch), so that saving the same arrays
#: again gives the same archive bytes.
ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def save_arrays(path, kind: str, named_arrays: list[tuple[str, np.ndarray]], extra: dict | None = None) -> None:
    """Write one checkpoint archive: a JSON manifest plus the flat float32 blob."""
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "dtype": "float32",
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in named_arrays],
        "extra": extra or {},
    }
    blob = io.BytesIO()
    for _, arr in named_arrays:
        blob.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for name, data in (("manifest.json", json.dumps(manifest, indent=2)), ("params.bin", blob.getvalue())):
            zf.writestr(zipfile.ZipInfo(name, ZIP_DATE_TIME), data, compress_type=zipfile.ZIP_DEFLATED)


class ArrayTable(dict):
    """Arrays of a checkpoint by name; an absent name is a ValueError."""

    def __missing__(self, name):
        raise ValueError(f"checkpoint has no array named {name!r}")


def _read_member(path, name: str) -> bytes:
    """Member `name` of the archive `path`; ValueError naming `path` when it is not a readable zip holding it."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            return zf.read(name)
    except (OSError, zipfile.BadZipFile, KeyError) as exc:
        raise ValueError(f"{path}: not a readable checkpoint archive ({exc})") from None


def load_manifest(path) -> dict:
    """A checkpoint's manifest alone, without reading `params.bin`; ValueError on an unknown format version."""
    manifest = json.loads(_read_member(path, "manifest.json").decode("utf-8"))
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"{path}: checkpoint format_version {version!r} is not {CHECKPOINT_FORMAT_VERSION}")
    return manifest


def load_arrays(path) -> tuple[dict, ArrayTable]:
    """Read a checkpoint archive back into (manifest, name -> float32 array).

    Raises ValueError on a path that is not a readable zip holding both
    members, on an unknown format version and on a `params.bin` whose size
    differs from the manifest's array table.
    """
    manifest = load_manifest(path)
    raw = _read_member(path, "params.bin")
    sizes = [math.prod(spec["shape"]) for spec in manifest["arrays"]]
    if len(raw) != 4 * sum(sizes):
        raise ValueError(f"{path}: params.bin holds {len(raw)} bytes, its array table {4 * sum(sizes)}")
    arrays = ArrayTable()
    offset = 0
    for spec, n in zip(manifest["arrays"], sizes):
        arr = np.frombuffer(raw, dtype="<f4", count=n, offset=offset).reshape(spec["shape"])
        arrays[spec["name"]] = arr.astype(np.float32)
        offset += 4 * n
    return manifest, arrays

