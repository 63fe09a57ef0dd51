"""Minimal dense-network substrate.

Weight-normalized dense layers with their exact backward pass, inverted
dropout masks, MSE / binary cross-entropy losses, in-place SGD and Adam
updates, and weight interpolation.

Everything is float64 numpy, single-threaded, and driven by explicit RNG
streams; independent networks can therefore run on independent threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh", "sigmoid", "identity")
LOSS_KINDS = ("mse", "binary_cross_entropy")
OPTIMIZER_KINDS = ("sgd", "adam")

# Floor used when clipping sigmoid outputs inside the cross-entropy loss.
_BCE_EPS = 1e-12

# Adam's moment decay rates and denominator floor (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "sigmoid":
        return expit(z)
    if kind == "identity":
        return z
    raise ConfigError(f"unknown activation {kind!r}")


def activation_grad(kind: str, out: np.ndarray) -> np.ndarray:
    """d(activation)/dz expressed through the activation output."""
    if kind == "relu":
        return (out > 0.0).astype(np.float64)
    if kind == "tanh":
        return 1.0 - out * out
    if kind == "sigmoid":
        return out * (1.0 - out)
    if kind == "identity":
        return np.ones_like(out)
    raise ConfigError(f"unknown activation {kind!r}")


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


@dataclass
class DenseLayer:
    """Weight-normalized dense layer.

    The effective weight for output unit j is ``gain[j] * v[:, j] / ||v[:, j]||``,
    so each column's direction and scale are decoupled. Every column of ``v``
    must keep a nonzero norm.
    """

    v: np.ndarray  # (n_in, n_out) direction matrix
    gain: np.ndarray  # (n_out,)
    bias: np.ndarray  # (n_out,)
    activation: str = "identity"

    def __post_init__(self) -> None:
        self.v = np.asarray(self.v, dtype=np.float64)
        self.gain = np.asarray(self.gain, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.v.ndim != 2:
            raise ShapeError("dense layer direction matrix must be 2-D")
        if self.gain.shape != (self.v.shape[1],) or self.bias.shape != (self.v.shape[1],):
            raise ShapeError("gain/bias length must equal the layer output dim")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @property
    def n_in(self) -> int:
        return self.v.shape[0]

    @property
    def n_out(self) -> int:
        return self.v.shape[1]


def column_norms(layer: DenseLayer) -> np.ndarray:
    norms = np.sqrt((layer.v * layer.v).sum(axis=0))
    if (norms == 0.0).any():
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise NumericError(f"degenerate dense layer: direction column {bad} has zero norm")
    return norms


def init_dense_layer(
    rng: np.random.Generator, n_in: int, n_out: int, activation: str = "identity"
) -> DenseLayer:
    """He-style uniform init scaled by fan-in; gains start at the initial
    column norms so the first forward pass matches the unnormalized init."""
    limit = np.sqrt(6.0 / n_in)
    v = rng.uniform(-limit, limit, size=(n_in, n_out))
    gain = np.linalg.norm(v, axis=0)
    bias = np.zeros(n_out)
    return DenseLayer(v, gain, bias, activation)


def dense_forward(x: np.ndarray, layer: DenseLayer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """activation(x @ W_eff + bias) for a weight-normalized layer.

    Returns (out, norms, w_eff): the activations, plus the column norms of
    ``v`` and the effective weights that ``dense_backward`` takes, so one
    training step computes them once per layer.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.n_in:
        raise ShapeError(
            f"dense layer expects input with {layer.n_in} columns, got shape {x.shape}"
        )
    norms = column_norms(layer)
    w_eff = layer.v * (layer.gain / norms)
    out = apply_activation(layer.activation, x @ w_eff + layer.bias)
    if not np.isfinite(out).all():
        raise NumericError("dense layer produced non-finite activations")
    return out, norms, w_eff


def dense_backward(
    layer: DenseLayer, x: np.ndarray, dz: np.ndarray, norms: np.ndarray, w_eff: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backprop through the affine part given dL/dz (pre-activation grad),
    with the column norms and effective weights ``dense_forward`` returned.

    Returns (dx, dv, dgain, dbias). The weight-norm chain rule is
        dgain_j = v_j . dW_j / ||v_j||
        dv_j    = (gain_j / ||v_j||) dW_j - (gain_j dgain_j / ||v_j||^2) v_j
    with dW = x^T dz the gradient w.r.t. the effective weights.
    """
    dw = x.T @ dz
    dbias = dz.sum(axis=0)
    dx = dz @ w_eff.T
    dgain = (layer.v * dw).sum(axis=0) / norms
    dv = dw * (layer.gain / norms) - layer.v * (layer.gain * dgain / norms**2)
    return dx, dv, dgain, dbias


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Scaled keep-mask: entries are 0 with probability rate, else 1/(1-rate)."""
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def param_axpy(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """a + scale * (b - a), elementwise, as a new array.

    scale 0 and 1 return exact copies of a and b respectively, so callers
    can rely on bitwise equality at the interpolation endpoints.
    """
    if a.shape != b.shape:
        raise ShapeError("param_axpy requires equally shaped parameter vectors")
    if scale == 0.0:
        return a.copy()
    if scale == 1.0:
        return b.copy()
    return a + scale * (b - a)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def loss_value(pred: np.ndarray, y: np.ndarray, loss_kind: str) -> float:
    """Mean data loss over every element of the batch."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {y.shape}")
    if loss_kind == "mse":
        return float(np.mean((pred - y) ** 2))
    if loss_kind == "binary_cross_entropy":
        p = np.clip(pred, _BCE_EPS, 1.0 - _BCE_EPS)
        return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))
    raise ConfigError(f"unknown loss {loss_kind!r}")


def output_delta(pred: np.ndarray, y: np.ndarray, loss_kind: str, head_activation: str) -> np.ndarray:
    """dL/dz at the output layer's pre-activation.

    For binary cross-entropy on a sigmoid head the two gradients fuse to the
    numerically exact (pred - y) / n; anything else chains through the head
    activation explicitly.
    """
    n = pred.size
    if loss_kind == "binary_cross_entropy":
        if head_activation != "sigmoid":
            raise ConfigError("binary cross-entropy requires a sigmoid output head")
        return (pred - y) / n
    if loss_kind == "mse":
        dpred = 2.0 * (pred - y) / n
        return dpred * activation_grad(head_activation, pred)
    raise ConfigError(f"unknown loss {loss_kind!r}")


def regularization_value(mats: list[np.ndarray], l1: float, l2: float) -> float:
    total = 0.0
    for m in mats:
        if l1:
            total += l1 * float(np.abs(m).sum())
        if l2:
            total += l2 * float((m * m).sum())
    return total


def regularization_grad(m: np.ndarray, l1: float, l2: float) -> np.ndarray:
    """Gradient of ``regularization_value`` for one matrix."""
    if l1 and l2:
        return l1 * np.sign(m) + 2.0 * l2 * m
    if l1:
        return l1 * np.sign(m)
    return 2.0 * l2 * m


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Plain SGD or Adam over a flat parameter vector.

    Adam's moment buffers are allocated lazily on the first step and must
    shape-match the parameters afterwards; the step counter never decreases.
    """

    kind: str
    learning_rate: float
    step_count: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer {self.kind!r}")
        if self.learning_rate < 0.0:
            raise ConfigError("learning rate must be non-negative")


def optimizer_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState) -> None:
    """One optimizer update of ``params`` in place; advances the state buffers."""
    if params.shape != grads.shape:
        raise ShapeError("parameter and gradient shapes differ")
    if state.kind == "sgd":
        state.step_count += 1
        params -= state.learning_rate * grads
        return
    # adam
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    elif state.m.shape != params.shape:
        raise ShapeError("adam moment buffers do not match parameter shape")
    state.step_count += 1
    t = state.step_count
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grads * grads)
    m_hat = state.m / (1.0 - ADAM_BETA1**t)
    v_hat = state.v / (1.0 - ADAM_BETA2**t)
    params -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
