"""Minimal dense-network substrate.

Weight-normalized dense layers with their exact backward pass, inverted
dropout masks, MSE / binary cross-entropy losses, in-place SGD and Adam
updates, and weight interpolation.

Everything is float64 numpy, single-threaded, and driven by explicit RNG
streams. Layer arrays may carry a leading fold axis: a stack of networks
with one layout then steps together, each numpy call serving every fold,
and each fold's numbers round exactly as they would alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

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

# Each fold's first numeric failure, in a stack's fold order; None while the
# fold is healthy.
FoldErrors = list[Exception | None]


def apply_activation(kind: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The activation of ``z``, in place when ``out`` is ``z``, else in a
    fresh array; identity returns ``z`` itself."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(z, out=out)
    if kind == "sigmoid":
        # Imported on use: scipy takes ~1 s to load and regression runs never call it.
        from scipy.special import expit

        return expit(z, out=out)
    if kind == "identity":
        return z
    raise ConfigError(f"unknown activation {kind!r}")


def activation_grad(kind: str, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d(activation)/dz expressed through the activation output ``a``,
    written into ``out`` (not ``a``)."""
    if kind not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {kind!r}")
    if kind == "relu":
        return np.greater(a, 0.0, out=out)
    if kind == "tanh":
        np.multiply(a, a, out=out)
        return np.subtract(1.0, out, out=out)
    if kind == "sigmoid":
        np.subtract(1.0, a, out=out)
        return np.multiply(a, out, out=out)
    out.fill(1.0)  # identity
    return out


def record_failures(
    errors: FoldErrors | None, bad: np.ndarray, message: Callable[[int], str]
) -> None:
    """Note ``NumericError(message(f))`` as the first failure of every fold
    ``f`` flagged in ``bad`` (one flag per fold, a 0-d flag for one
    network). Without a record the first flagged fold raises instead; with
    one, a failed fold keeps computing garbage that nothing reads, so the
    healthy folds of its stack can go on."""
    if not np.count_nonzero(bad):
        return
    for f in np.flatnonzero(bad):
        if errors is None:
            raise NumericError(message(int(f)))
        if errors[f] is None:
            errors[f] = NumericError(message(int(f)))


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


@dataclass
class DenseLayer:
    """Weight-normalized dense layer.

    The effective weight for output unit j is ``gain[j] * v[:, j] / ||v[:, j]||``,
    so each column's direction and scale are decoupled. Every column of ``v``
    must keep a nonzero norm. A stack of layers puts a leading fold axis on
    ``v``, ``gain`` and ``bias`` alike.
    """

    v: np.ndarray  # ([folds,] n_in, n_out) direction matrix
    gain: np.ndarray  # ([folds,] n_out)
    bias: np.ndarray  # ([folds,] n_out)
    activation: str = "identity"

    def __post_init__(self) -> None:
        self.v = np.asarray(self.v, dtype=np.float64)
        self.gain = np.asarray(self.gain, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.v.ndim not in (2, 3):
            raise ShapeError("dense layer direction matrix must be 2-D, or 3-D with a fold axis")
        out_shape = self.v.shape[:-2] + (self.n_out,)
        if self.gain.shape != out_shape or self.bias.shape != out_shape:
            raise ShapeError("gain/bias length must equal the layer output dim")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @property
    def n_in(self) -> int:
        return self.v.shape[-2]

    @property
    def n_out(self) -> int:
        return self.v.shape[-1]


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


def dense_forward(
    x: np.ndarray,
    layer: DenseLayer,
    errors: FoldErrors | None = None,
    where: str = "",
    buffers: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """activation(x @ W_eff + bias) for a weight-normalized layer.

    Returns (out, norms, w_eff): the activations, plus the column norms of
    ``v`` and the effective weights that ``dense_backward`` takes, so one
    training step computes them once per layer. A stacked layer takes
    ``x`` as (folds, rows, n_in). A zero-norm column or a non-finite
    activation is a numeric failure, prefixed with ``where`` and handled by
    ``record_failures``. ``buffers``, if given, is (out, norms, w_eff,
    scratch): arrays shaped like the three results, which receive them,
    and one shaped like ``v`` for a temporary; by default all are fresh.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != layer.v.ndim or x.shape[-1] != layer.n_in:
        raise ShapeError(
            f"dense layer expects input with {layer.n_in} columns, got shape {x.shape}"
        )
    out, norms, w_eff, scratch = (None,) * 4 if buffers is None else buffers
    squares = np.multiply(layer.v, layer.v, out=scratch)
    norms = np.add.reduce(squares, axis=-2, out=norms)
    np.sqrt(norms, out=norms)
    if np.count_nonzero(norms) < norms.size:
        cols = (norms == 0.0).reshape(-1, layer.n_out)
        record_failures(
            errors,
            cols.any(axis=-1),
            lambda f: f"{where}degenerate dense layer: direction column "
            f"{int(np.argmax(cols[f]))} has zero norm",
        )
    w_eff = np.multiply(layer.v, (layer.gain / norms)[..., None, :], out=w_eff)
    out = np.matmul(x, w_eff, out=out)
    out += layer.bias[..., None, :]
    apply_activation(layer.activation, out, out=out)
    # a finite sum proves every activation finite; only a sum that is not
    # (an overflow, or a non-finite activation) needs the elementwise check
    if not math.isfinite(np.add.reduce(out, axis=None)):
        finite = np.isfinite(out)
        record_failures(
            errors,
            ~finite.all(axis=(-2, -1)),
            lambda f: f"{where}dense layer produced non-finite activations",
        )
    return out, norms, w_eff


def dense_backward(
    layer: DenseLayer,
    x: np.ndarray,
    dz: np.ndarray,
    norms: np.ndarray,
    w_eff: np.ndarray,
    buffers: tuple[np.ndarray | None, ...],
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """Backprop through the affine part given dL/dz (pre-activation grad),
    with the column norms and effective weights ``dense_forward`` returned.

    ``buffers`` is (dx, dv, dgain, dbias, scratch): arrays shaped like the
    four results, which receive them and are returned, and one shaped like
    ``v`` for dW. A dx buffer of None skips the input gradient, for a first
    layer whose input gradient nothing reads. The weight-norm chain rule is
        dgain_j = v_j . dW_j / ||v_j||
        dv_j    = (gain_j / ||v_j||) dW_j - (gain_j dgain_j / ||v_j||^2) v_j
    with dW = x^T dz the gradient w.r.t. the effective weights.
    """
    dx, dv, dgain, dbias, dw = buffers
    np.matmul(x.swapaxes(-1, -2), dz, out=dw)
    np.add.reduce(dz, axis=-2, out=dbias)
    if dx is not None:
        np.matmul(dz, w_eff.swapaxes(-1, -2), out=dx)
    # dv holds v * dW until the column sums are taken
    np.multiply(layer.v, dw, out=dv)
    np.divide(np.add.reduce(dv, axis=-2), norms, out=dgain)
    np.multiply(dw, (layer.gain / norms)[..., None, :], out=dv)
    np.multiply(layer.v, (layer.gain * dgain / norms**2)[..., None, :], out=dw)
    np.subtract(dv, dw, out=dv)
    return dx, dv, dgain, dbias


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------


def dropout_mask(rng: Sequence[np.random.Generator], rate: float, out: np.ndarray) -> np.ndarray:
    """Scaled keep-masks written into ``out``, stacked as (folds, *shape):
    entries are 0 with probability rate, else 1/(1-rate), each fold's drawn
    from its own stream exactly as ``stream.random(shape)`` would draw them.
    """
    for stream, fold_draws in zip(rng, out, strict=True):
        stream.random(out=fold_draws)
    return np.divide(out >= rate, 1.0 - rate, out=out)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def param_axpy(a: np.ndarray, b: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """a + scale * (b - a), elementwise, into ``out`` (which may be ``b``
    but not ``a``).

    scale 0 and 1 give exact copies of a and b respectively, so callers
    can rely on bitwise equality at the interpolation endpoints.
    """
    if a.shape != b.shape:
        raise ShapeError("param_axpy requires equally shaped parameter vectors")
    if scale == 0.0:
        np.copyto(out, a)
    elif scale == 1.0:
        np.copyto(out, b)
    else:
        np.subtract(b, a, out=out)
        out *= scale
        out += a
    return out


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def loss_value(pred: np.ndarray, y: np.ndarray, loss_kind: str) -> np.ndarray:
    """Mean data loss along the last axis: one mean per fold of a stacked
    batch (folds, rows)."""
    if pred.shape != y.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {y.shape}")
    n = pred.shape[-1]
    # sum then divide: np.mean's own arithmetic, without its Python wrapper
    if loss_kind == "mse":
        return np.add.reduce((pred - y) ** 2, axis=-1) / n
    if loss_kind == "binary_cross_entropy":
        p = np.clip(pred, _BCE_EPS, 1.0 - _BCE_EPS)
        return np.add.reduce(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)), axis=-1) / n
    raise ConfigError(f"unknown loss {loss_kind!r}")


def output_delta(pred: np.ndarray, y: np.ndarray, loss_kind: str) -> np.ndarray:
    """dL/dz at the output layer's pre-activation, for the loss that
    ``loss_value`` averages along the last axis: mean squared error on an
    identity head, or binary cross-entropy on a sigmoid head, whose two
    gradients fuse to the numerically exact (pred - y) / n.
    """
    n = pred.shape[-1]
    if loss_kind == "binary_cross_entropy":
        return (pred - y) / n
    if loss_kind == "mse":
        return 2.0 * (pred - y) / n
    raise ConfigError(f"unknown loss {loss_kind!r}")


def regularization_value(
    mats: list[np.ndarray], l1: float, l2: float, scratch: list[np.ndarray] | None = None
) -> np.ndarray | float:
    """Per fold, l1 * sum|m| + l2 * sum m^2 over every matrix; each matrix
    has a leading fold axis. ``scratch``, if given, holds one contiguous
    array per matrix, shaped (folds, size of one fold's matrix), for the
    elementwise terms."""
    total = 0.0
    for i, m in enumerate(mats):
        flat = m.reshape(len(m), -1)
        terms = None if scratch is None else scratch[i]
        if l1:
            total = total + l1 * np.add.reduce(np.abs(flat, out=terms), axis=1)
        if l2:
            total = total + l2 * np.add.reduce(np.multiply(flat, flat, out=terms), axis=1)
    return total


def regularization_grad(
    m: np.ndarray,
    l1: float,
    l2: float,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of ``regularization_value`` for one matrix, into ``out``;
    with both terms, ``scratch`` (shaped like ``m``) holds the l2 one."""
    if l1:
        out = np.sign(m, out=out)
        out *= l1
        if l2:
            out += np.multiply(2.0 * l2, m, out=scratch)
        return out
    return np.multiply(2.0 * l2, m, out=out)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Plain SGD or Adam over a flat parameter vector (or a stack of them).

    The caller owns the buffers: ``scratch`` holds one array shaped like the
    parameters for SGD and two for Adam, and Adam's moments ``m`` and ``v``
    start zeroed. The step counter never decreases.
    """

    kind: str
    learning_rate: float
    scratch: np.ndarray = field(repr=False)
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    step_count: int = 0

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer {self.kind!r}")
        if self.learning_rate < 0.0:
            raise ConfigError("learning rate must be non-negative")


def optimizer_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState) -> None:
    """One optimizer update of ``params`` in place; advances the state buffers.

    Every temporary lives in the state's buffers, and each operation rounds
    as the out-of-place ``params - lr * update`` would. The last row of
    ``state.scratch`` may be ``grads`` itself, which the update then
    overwrites: every read of ``grads`` comes before that row is written.
    """
    if not params.shape == grads.shape == state.scratch.shape[1:]:
        raise ShapeError("parameter, gradient and optimizer buffer shapes differ")
    step = state.scratch[0]
    state.step_count += 1
    if state.kind == "sgd":
        np.multiply(grads, state.learning_rate, out=step)
        params -= step
        return
    # adam
    t = state.step_count
    denom = state.scratch[1]
    state.m *= ADAM_BETA1
    np.multiply(grads, 1.0 - ADAM_BETA1, out=step)
    state.m += step
    state.v *= ADAM_BETA2
    np.multiply(grads, grads, out=step)
    step *= 1.0 - ADAM_BETA2
    state.v += step
    np.divide(state.v, 1.0 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(state.m, 1.0 - ADAM_BETA1**t, out=step)
    step *= state.learning_rate
    step /= denom
    params -= step
