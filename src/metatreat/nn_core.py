"""Minimal dense-network substrate.

Weight-normalized dense layers with their exact backward pass, inverted
dropout masks, MSE / binary cross-entropy losses, in-place SGD and Adam
updates, and weight interpolation.

Everything is float64 numpy, single-threaded, and driven by explicit RNG
streams. Layer arrays may carry a leading fold axis: a stack of networks
with one layout then steps together, each numpy call serving every fold,
and each fold's numbers round exactly as they would alone.

A step computes each per-layer quantity once and writes it into the
``DenseBuffers`` of a step workspace: ``weight_norm`` takes every layer's
column norms, their squares and gain / ||v||, and in the same pass over
``v`` its regularization sums (the squares behind the norms give the L2
term); ``dense_forward`` and ``dense_backward`` read them, and
``loss_and_delta`` takes the loss and the output delta from one pred - y.
Numeric failures are the caller's to check, once per step over the norm
and activation blocks; ``record_dense_failures`` then names a layer's.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh", "sigmoid", "identity")
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
    """The activation of ``z``, written into ``out`` when given (in place
    when ``out`` is ``z``), else into a fresh array; identity returns ``z``
    itself. The sigmoid is 1/(1 + exp(-z)), which is 0 where exp(-z)
    overflows."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(z, out=out)
    if kind == "sigmoid":
        with np.errstate(over="ignore"):
            out = np.exp(np.negative(z, out=out), out=out)
        np.add(out, 1.0, out=out)
        return np.divide(1.0, out, out=out)
    if kind == "identity":
        return z
    raise ConfigError(f"unknown activation {kind!r}")


def activation_grad(kind: str, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d(activation)/dz of an extractor layer (relu or tanh) expressed
    through the activation output ``a``, written into ``out`` (not ``a``)."""
    if kind == "relu":
        return np.greater(a, 0.0, out=out)
    if kind == "tanh":
        np.multiply(a, a, out=out)
        return np.subtract(1.0, out, out=out)
    raise ConfigError(f"{kind!r} is not an extractor activation")


def record_failures(errors: FoldErrors, bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Note ``NumericError(message(f))`` as the first failure of every fold
    ``f`` flagged in ``bad`` (one flag per fold). A failed fold keeps
    computing garbage that nothing reads, so the healthy folds of its stack
    can go on."""
    if not np.count_nonzero(bad):
        return
    for f in np.flatnonzero(bad):
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


@dataclass(frozen=True)
class DenseBuffers:
    """Where one weight-normalized layer's step on a stacked batch of
    (folds, rows) reads and writes, every view bound once.

    ``layer`` holds the stack's parameters and ``grads`` receives their
    gradient. The per-column arrays (folds, n_out), with their (folds, 1,
    n_out) broadcast views, are ``norms`` (||v_j||), ``norms_sq``
    (||v_j||^2), ``scale`` (gain_j / ||v_j||) and ``coef``, the backward's
    factor; ``norms`` and ``norms_sq`` are views into blocks shared by
    every layer of a network (see ``weight_norm``). ``squares`` (shaped like
    ``v``) holds v*v and |v|, later dW, ``w_eff`` the effective weights, ``out`` the
    activations (folds, rows, n_out) and ``dz`` dL/d(pre-activation).
    ``x_t`` is the layer's input, transposed, unless that input is the
    batch's own (None); ``dx`` receives the input gradient, or is None for
    a first layer, whose input gradient nothing reads.
    """

    layer: DenseLayer
    grads: DenseLayer
    bias: np.ndarray
    norms: np.ndarray
    norms_sq: np.ndarray
    scale: np.ndarray
    scale_b: np.ndarray
    coef: np.ndarray
    coef_b: np.ndarray
    squares: np.ndarray
    squares_flat: np.ndarray
    w_eff: np.ndarray
    w_eff_t: np.ndarray
    out: np.ndarray
    dz: np.ndarray
    x_t: np.ndarray | None
    dx: np.ndarray | None


def weight_norm(
    dense: Sequence[DenseBuffers],
    norms: np.ndarray,
    norms_sq: np.ndarray,
    l1: float = 0.0,
    l2: float = 0.0,
    sums: np.ndarray | None = None,
) -> None:
    """The weight-norm factors of a network's layers, each computed once
    per step: per layer, the squares of ``v`` give its column sums, then one
    pass over ``norms``, the contiguous block that every layer's ``norms``
    views, takes the square roots and one more their squares into
    ``norms_sq``; last, gain / ||v|| per layer. The same pass over ``v``
    gives each layer's regularization sums (``regularization_sums``) into
    ``sums[i]``: with ``l2`` from the very squares the norms take, with
    ``l1`` from |v| written over them once they are read."""
    for i, d in enumerate(dense):
        np.multiply(d.layer.v, d.layer.v, out=d.squares)
        np.add.reduce(d.squares, axis=-2, out=d.norms)
        if l2:
            np.add.reduce(d.squares_flat, axis=1, out=sums[i, 1])
        if l1:
            np.abs(d.layer.v, out=d.squares)
            np.add.reduce(d.squares_flat, axis=1, out=sums[i, 0])
    np.sqrt(norms, out=norms)
    np.multiply(norms, norms, out=norms_sq)
    for d in dense:
        np.divide(d.layer.gain, d.norms, out=d.scale)


def dense_forward(x: np.ndarray, d: DenseBuffers) -> np.ndarray:
    """activation(x @ W_eff + bias) into ``d.out``, with W_eff = v * gain /
    ||v|| from ``weight_norm``'s scale, kept in ``d.w_eff`` for the backward
    pass. ``x`` is (folds, rows, n_in)."""
    out = np.matmul(x, np.multiply(d.layer.v, d.scale_b, out=d.w_eff), out=d.out)
    out += d.bias
    return apply_activation(d.layer.activation, out, out=out)


def dense_backward(
    d: DenseBuffers, x_t: np.ndarray, l1: float, l2: float
) -> np.ndarray | None:
    """Backprop through the affine part from ``d.dz`` into ``d.grads`` and
    ``d.dx`` (returned), given ``x_t``, the layer's input transposed, and
    the weight-norm factors of the forward pass; the direction gradient
    includes the regularization's (``regularization_grad``). The
    weight-norm chain rule is
        dgain_j = v_j . dW_j / ||v_j||
        dv_j    = (gain_j / ||v_j||) dW_j - (gain_j dgain_j / ||v_j||^2) v_j
    with dW = x^T dz the gradient w.r.t. the effective weights.
    """
    v, dz, dw = d.layer.v, d.dz, d.squares
    dv, dgain = d.grads.v, d.grads.gain
    np.matmul(x_t, dz, out=dw)
    np.add.reduce(dz, axis=-2, out=d.grads.bias)
    if d.dx is not None:
        np.matmul(dz, d.w_eff_t, out=d.dx)
    # dv holds v * dW until the column sums are taken
    np.multiply(v, dw, out=dv)
    np.add.reduce(dv, axis=-2, out=dgain)
    dgain /= d.norms
    np.multiply(dw, d.scale_b, out=dv)
    np.divide(np.multiply(d.layer.gain, dgain, out=d.coef), d.norms_sq, out=d.coef)
    np.multiply(v, d.coef_b, out=dw)
    np.subtract(dv, dw, out=dv)
    # dW's buffer and the effective weights are free from here on
    np.add(dv, regularization_grad(v, l1, l2, out=dw, scratch=d.w_eff), out=dv)
    return d.dx


def record_dense_failures(d: DenseBuffers, errors: FoldErrors, where: str) -> None:
    """A layer's numeric failures after its forward pass, through
    ``record_failures``: a zero-norm direction column, then a non-finite
    activation, each message prefixed with ``where``."""
    cols = d.norms == 0.0
    record_failures(
        errors,
        cols.any(axis=-1),
        lambda f: f"{where}degenerate dense layer: direction column "
        f"{int(np.argmax(cols[f]))} has zero norm",
    )
    record_failures(
        errors,
        ~np.isfinite(d.out).all(axis=(-2, -1)),
        lambda f: f"{where}dense layer produced non-finite activations",
    )


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


def param_axpy(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """a + scale * (b - a), elementwise, written into ``a`` (returned), with
    ``b`` as scratch.

    scale 1 gives an exact copy of b, so callers can rely on bitwise
    equality with the adapted weights at a full step.
    """
    if a.shape != b.shape:
        raise ShapeError("param_axpy requires equally shaped parameter vectors")
    if scale == 1.0:
        np.copyto(a, b)
    else:
        b -= a
        b *= scale
        a += b
    return a


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def loss_and_delta(
    pred: np.ndarray, y: np.ndarray, kind: str, loss: np.ndarray, delta: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """The mean data loss along the last axis into ``loss`` (returned), one
    mean per fold of a stacked batch (folds, rows), and dL/dz at the output
    layer's pre-activation into ``delta``, both from one pred - y (into
    ``scratch``, shaped like ``pred``). A ``"regression"`` task's loss is
    mean squared error on an identity head and a ``"classification"``
    task's binary cross-entropy on a sigmoid head, whose two gradients fuse
    to the numerically exact (pred - y) / n.
    """
    if pred.shape != y.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {y.shape}")
    n = pred.shape[-1]
    diff = np.subtract(pred, y, out=scratch)
    # sum then divide: np.mean's own arithmetic, without its Python wrapper
    if kind == "regression":
        np.add.reduce(np.multiply(diff, diff, out=delta), axis=-1, out=loss)
        diff *= 2.0
    elif kind == "classification":
        p = np.clip(pred, _BCE_EPS, 1.0 - _BCE_EPS)
        np.add.reduce(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)), axis=-1, out=loss)
    else:
        raise ConfigError(f"unknown task kind {kind!r}")
    np.divide(diff, n, out=delta)
    loss /= n
    return loss


def regularization_sums(m: np.ndarray, l1: float, l2: float, out: np.ndarray) -> np.ndarray:
    """Per fold, sum |m| into ``out[0]`` (with ``l1``) and sum m^2 into
    ``out[1]`` (with ``l2``), for a matrix given as (folds, size)."""
    if l1:
        np.add.reduce(np.abs(m), axis=1, out=out[0])
    if l2:
        np.add.reduce(m * m, axis=1, out=out[1])
    return out


def regularization_value(sums: np.ndarray, l1: float, l2: float) -> np.ndarray | float:
    """Per fold, l1 * sum|m| + l2 * sum m^2 over matrices, added in matrix
    order, each matrix's l1 term first, from their ``regularization_sums``
    stacked as (matrices, 2, folds); a term whose coefficient is 0 is left
    out, its sums unread, and with both 0 the value is 0.0."""
    if not (l1 or l2):
        return 0.0
    terms = slice(0 if l1 else 1, 2 if l2 else 1)
    weighted = sums[:, terms] * np.array((l1, l2)[terms])[:, None]
    # accumulate adds the (matrix, term) rows one at a time, in order
    return np.add.accumulate(weighted.reshape(-1, sums.shape[-1]), axis=0)[-1]


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
