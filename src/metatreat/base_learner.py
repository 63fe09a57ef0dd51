"""The base-learner: a weight-normalized feature extractor, a treatment
embedding table with one row per group (including the held-out one), and a
dense output head over the concatenated representations.

Every weight lives in one flat vector that the layers view by name, so
``loss_and_grads`` returns one flat gradient and the optimizer and the
meta-update step the whole network at once. ``inner_update`` is the k-shot
update operator: it runs a fixed number of full-batch gradient steps on a
task slice and returns fresh weights without mutating its input, so
identical (weights, data, config, seed) always give identical results.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import nn_core
from .data_model import TaskData
from .errors import ConfigError, DataError, ShapeError
from .nn_core import (
    DenseLayer,
    FoldErrors,
    OptimizerState,
    activation_grad,
    dense_backward,
    dense_forward,
    dropout_mask,
    init_dense_layer,
    optimizer_step,
    record_failures,
)
from .task_selection import TaskSpec

EMBEDDING_INIT_SCALE = 0.05


@dataclass(frozen=True)
class BaseLearnerConfig:
    n_layers: int = 2
    hidden_dim: int = 16
    embedding_dim: int = 8
    activation: str = "tanh"
    dropout_rate: float = 0.2
    reg_kind: str = "l2"
    reg_strength: float = 1e-4
    optimizer: str = "sgd"
    learning_rate: float = 0.1
    inner_iterations: int = 5

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"extractor activation must be relu or tanh, got {self.activation!r}")
        if self.reg_kind not in ("l1", "l2", "both"):
            raise ConfigError(f"unknown reg_kind {self.reg_kind!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if self.learning_rate < 0.0:
            raise ConfigError("learning_rate must be non-negative")
        if self.inner_iterations < 0:
            raise ConfigError("inner_iterations must be non-negative")

    def l1_l2(self) -> tuple[float, float]:
        if self.reg_kind == "l1":
            return self.reg_strength, 0.0
        if self.reg_kind == "l2":
            return 0.0, self.reg_strength
        return self.reg_strength, self.reg_strength


Layout = tuple[tuple[str, tuple[int, ...]], ...]

_LAYER_PARTS = ("v", "gain", "bias")


def _layout_names(n_layers: int) -> list[str]:
    """Parameter order: extractor layers, embedding table, output head."""
    names = [f"extractor.{i}.{part}" for i in range(n_layers) for part in _LAYER_PARTS]
    return names + ["embeddings"] + [f"head.{part}" for part in _LAYER_PARTS]


class BaseLearnerWeights:
    """All trainable state in one contiguous float64 vector, or a stack of
    networks of one layout in a (folds, P) array that step together.

    ``extractor``, ``embeddings`` and ``head`` are named views into
    ``values`` laid out as ``layout`` (name, shape) pairs in parameter
    order, so writing either side moves the other and an optimizer or an
    interpolation can treat every weight at once; in a stack every view
    carries the leading fold axis. ``slices`` maps each layout name to its
    range along the last axis of ``values``, so an array laid out like
    ``values``, such as a gradient, can be written part by part.
    ``activations`` names the extractor layers' activations followed by the
    head's.
    """

    def __init__(self, values: np.ndarray, layout: Layout, activations: tuple[str, ...]) -> None:
        values = np.asarray(values, dtype=np.float64)
        n_layers = len(activations) - 1
        if n_layers < 1 or [name for name, _ in layout] != _layout_names(n_layers):
            raise ShapeError(
                f"parameter layout does not match a network with {n_layers} extractor layers"
            )
        sizes = [math.prod(shape) for _, shape in layout]
        if values.ndim not in (1, 2) or values.shape[-1] != sum(sizes):
            raise ShapeError("flat parameter vector does not match its layout")
        slices = {}
        offset = 0
        for (name, _), size in zip(layout, sizes):
            slices[name] = slice(offset, offset + size)
            offset += size
        if len(dict(layout)["embeddings"]) != 2:
            raise ShapeError("embedding table must be 2-D (groups x embedding dim)")
        self._bind(values, layout, tuple(activations), slices)
        concat_dim = self.extractor[-1].n_out + self.embeddings.shape[-1]
        if self.head.n_in != concat_dim:
            raise ShapeError(
                f"head expects {self.head.n_in} inputs but extractor+embedding give {concat_dim}"
            )

    def _bind(
        self, values: np.ndarray, layout: Layout, activations: tuple[str, ...], slices: dict
    ) -> None:
        """Point the named views at ``values``, for a layout already checked."""
        lead = values.shape[:-1]
        views = {name: values[..., slices[name]].reshape(lead + shape) for name, shape in layout}

        def layer(prefix: str, activation: str) -> DenseLayer:
            return DenseLayer(
                views[f"{prefix}.v"], views[f"{prefix}.gain"], views[f"{prefix}.bias"], activation
            )

        self.values = values
        self.layout = layout
        self.slices = slices
        self.activations = activations
        self.extractor = [layer(f"extractor.{i}", act) for i, act in enumerate(activations[:-1])]
        self.embeddings = views["embeddings"]
        self.head = layer("head", activations[-1])

    @property
    def n_groups(self) -> int:
        return self.embeddings.shape[-2]

    def with_values(self, values: np.ndarray) -> "BaseLearnerWeights":
        """Weights of the same network over another array laid out like
        ``values``: one network's vector or a (folds, P) stack."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[-1] != self.values.shape[-1]:
            raise ShapeError("flat parameter vector does not match its layout")
        out = object.__new__(BaseLearnerWeights)
        out._bind(values, self.layout, self.activations, self.slices)
        return out

    def clone(self) -> "BaseLearnerWeights":
        return self.with_values(self.values.copy())

    def unstack(self) -> list["BaseLearnerWeights"]:
        """Each fold of a stack as a network of its own (copies)."""
        return [self.with_values(row.copy()) for row in self.values]


def stack_weights(weights: Sequence[BaseLearnerWeights]) -> BaseLearnerWeights:
    """Networks of one layout as one stack, fold f a copy of ``weights[f]``."""
    first = weights[0]
    if any(w.layout != first.layout or w.activations != first.activations for w in weights):
        raise ShapeError("only networks of one layout can be stacked")
    return first.with_values(np.stack([w.values for w in weights]))


def init_weights(
    config: BaseLearnerConfig, n_features: int, n_groups: int, rng: np.random.Generator
) -> BaseLearnerWeights:
    """Random initialization; the embedding table covers every group."""
    if n_groups < 2:
        raise ConfigError("need at least two treatment groups")
    layers = []
    n_in = n_features
    for _ in range(config.n_layers):
        layers.append(init_dense_layer(rng, n_in, config.hidden_dim, config.activation))
        n_in = config.hidden_dim
    embeddings = rng.uniform(
        -EMBEDDING_INIT_SCALE, EMBEDDING_INIT_SCALE, size=(n_groups, config.embedding_dim)
    )
    layers.append(init_dense_layer(rng, config.hidden_dim + config.embedding_dim, 1, "identity"))
    arrays = [arr for layer in layers[:-1] for arr in (layer.v, layer.gain, layer.bias)]
    arrays += [embeddings, layers[-1].v, layers[-1].gain, layers[-1].bias]
    layout = tuple(zip(_layout_names(config.n_layers), (arr.shape for arr in arrays)))
    values = np.concatenate([arr.ravel() for arr in arrays])
    return BaseLearnerWeights(values, layout, tuple(layer.activation for layer in layers))


# ---------------------------------------------------------------------------
# Forward / backward through the composite network
# ---------------------------------------------------------------------------
#
# The passes below run on a stack: weights with a leading fold axis, and
# x (folds, rows, features), group ids and labels (folds, rows), one RNG
# stream per fold. The public functions take one network as a stack of one.


def _check_groups(weights: BaseLearnerWeights, group_ids: np.ndarray) -> np.ndarray:
    g = np.asarray(group_ids, dtype=np.int64)
    if g.size and (g.min() < 0 or g.max() >= weights.n_groups):
        raise DataError(
            f"group id out of range: embedding table has {weights.n_groups} rows"
        )
    return g


def _one_as_stack(weights: BaseLearnerWeights, x, group_ids, rng):
    """One network's weights, inputs, group ids and RNG stream as those of
    a stack of one."""
    return (
        weights.with_values(weights.values[None]),
        np.asarray(x, dtype=np.float64)[None],
        np.asarray(group_ids)[None],
        None if rng is None else (rng,),
    )


def _forward_pass(
    weights: BaseLearnerWeights,
    x: np.ndarray,
    g: np.ndarray,
    config: BaseLearnerConfig,
    train: bool,
    rng: Sequence[np.random.Generator] | None,
    kind: str,
    errors: FoldErrors | None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]], tuple[np.ndarray, ...]]:
    """Predictions (folds, rows), plus what backprop needs: each extractor
    layer's (input, output, dropout mask, column norms, effective weights)
    and the head's (input, column norms, effective weights).

    In training, a dropout mask is drawn after every extractor layer, each
    fold's from its own stream.
    """
    caches = []
    h = x
    for i, layer in enumerate(weights.extractor):
        x_in = h
        out, norms, w_eff = dense_forward(x_in, layer, errors, f"extractor layer {i}: ")
        mask = None
        if train and config.dropout_rate > 0.0:
            if rng is None:
                raise ConfigError("train-mode forward requires an RNG stream for dropout")
            mask = dropout_mask(rng, out.shape[1:], config.dropout_rate)
            h = out * mask
        else:
            h = out
        caches.append((x_in, out, mask, norms, w_eff))
    folds = np.arange(len(g))[:, None]
    concat = np.concatenate([h, weights.embeddings[folds, g]], axis=-1)
    z, head_norms, head_w_eff = dense_forward(concat, weights.head, errors)
    z = z[..., 0]
    pred = nn_core.apply_activation("sigmoid", z) if kind == "classification" else z
    return pred, caches, (concat, head_norms, head_w_eff)


def forward(
    weights: BaseLearnerWeights,
    x: np.ndarray,
    group_ids: np.ndarray,
    config: BaseLearnerConfig,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    kind: str = "regression",
) -> np.ndarray:
    """One network's predictions for a batch: extractor(x) ++ embeddings[g]
    -> head.

    Classification applies a sigmoid on the head output, so values land in
    (0, 1); eval mode disables dropout and is fully deterministic.
    """
    g = _check_groups(weights, group_ids)
    if mode not in ("train", "eval"):
        raise ConfigError(f"forward mode must be 'train' or 'eval', got {mode!r}")
    stack, x, g, rng = _one_as_stack(weights, x, g, rng)
    with np.errstate(all="ignore"):
        return _forward_pass(stack, x, g, config, mode == "train", rng, kind, None)[0][0]


def loss_and_grads(
    weights: BaseLearnerWeights,
    x: np.ndarray,
    group_ids: np.ndarray,
    y: np.ndarray,
    kind: str,
    config: BaseLearnerConfig,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    train: bool = True,
    errors: FoldErrors | None = None,
    out: np.ndarray | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Exact gradients of mean task loss + regularization, as one flat
    vector laid out like ``weights.values``.

    Regularization covers direction matrices and the embedding rows active
    in the batch; untouched embedding rows receive a strictly zero gradient,
    which is what keeps the held-out group's embedding frozen under plain
    training.

    ``weights`` is one network, or a stack whose folds step together: then
    ``x``, ``group_ids`` and ``y`` carry the same leading fold axis, ``rng``
    is one stream per fold, the loss comes per fold, and every fold's batch
    must cover the same number of groups. ``errors`` collects each fold's
    first numeric failure instead of raising it (``nn_core.record_failures``).
    ``out``, laid out like ``weights.values``, receives the gradient.
    """
    one = weights.values.ndim == 1
    g = _check_groups(weights, group_ids)
    y = np.asarray(y, dtype=np.float64)
    if one:
        weights, x, g, rng = _one_as_stack(weights, x, g, rng)
        y = y.reshape(1, -1)
        out = None if out is None else out[None]
    elif isinstance(rng, np.random.Generator):
        raise ConfigError("a stack of folds takes one RNG stream per fold")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3 and x.shape[1] == 0:
        raise DataError("empty batch")
    if x.ndim != 3 or not (x.shape[:2] == y.shape == g.shape) or len(x) != len(weights.values):
        raise ShapeError("batch arrays must share their fold and row dimensions")
    with np.errstate(all="ignore"):
        loss, grad = _stack_loss_and_grads(
            weights, x, g, y, kind, config, rng, train, errors, out
        )
    return (float(loss[0]), grad[0]) if one else (loss, grad)


def _stack_loss_and_grads(weights, x, g, y, kind, config, rng, train, errors, out):
    """``loss_and_grads`` on a stack: per-fold losses and the (folds, P) gradient."""
    l1, l2 = config.l1_l2()
    loss_kind = "binary_cross_entropy" if kind == "classification" else "mse"
    head_act = "sigmoid" if kind == "classification" else "identity"
    n_folds = len(x)
    folds = np.arange(n_folds)[:, None]

    pred, caches, (concat, head_norms, head_w_eff) = _forward_pass(
        weights, x, g, config, train, rng, kind, errors
    )
    loss = nn_core.loss_value(pred, y, loss_kind, axis=-1)
    present = np.zeros(weights.embeddings.shape[:2], dtype=bool)
    present[folds, g] = True
    counts = present.sum(axis=1)
    if (counts != counts[0]).any():
        raise ShapeError("folds stepped together must each cover the same number of groups")
    fold_of, active = np.nonzero(present)
    active_embeddings = weights.embeddings[fold_of, active]
    loss = loss + nn_core.regularization_value(
        [layer.v for layer in weights.extractor] + [weights.head.v], l1, l2
    )
    loss = loss + nn_core.regularization_value(
        [active_embeddings.reshape(n_folds, -1)], l1, l2
    )
    record_failures(errors, ~np.isfinite(loss), lambda f: "loss is not finite")

    # backward, written part by part into one vector per fold laid out like values
    grad = np.zeros_like(weights.values) if out is None else out
    at = weights.slices

    def put(prefix, layer, dv, dgain, dbias) -> None:
        dv = dv + nn_core.regularization_grad(layer.v, l1, l2)
        grad[:, at[prefix + ".v"]] = dv.reshape(n_folds, -1)
        grad[:, at[prefix + ".gain"]] = dgain
        grad[:, at[prefix + ".bias"]] = dbias

    dz = nn_core.output_delta(pred, y, loss_kind, head_act, axis=-1)[..., None]
    dconcat, *head_grads = dense_backward(weights.head, concat, dz, head_norms, head_w_eff)
    put("head", weights.head, *head_grads)
    hidden_dim = weights.extractor[-1].n_out
    demb = grad[:, at["embeddings"]].reshape(weights.embeddings.shape)
    if out is not None:
        demb[...] = 0.0
    np.add.at(demb, (folds, g), dconcat[..., hidden_dim:])
    demb[fold_of, active] += nn_core.regularization_grad(active_embeddings, l1, l2)

    grad_out = dconcat[..., :hidden_dim]
    for i in range(len(weights.extractor) - 1, -1, -1):
        layer = weights.extractor[i]
        x_in, out_i, mask, norms, w_eff = caches[i]
        if mask is not None:
            grad_out = grad_out * mask
        dz_i = grad_out * activation_grad(layer.activation, out_i)
        grad_out, *layer_grads = dense_backward(
            layer, x_in, dz_i, norms, w_eff, input_grad=i > 0
        )
        put(f"extractor.{i}", layer, *layer_grads)
    return loss, grad


def _task_kind(task: TaskSpec | Sequence[TaskSpec]) -> str:
    kinds = {t.kind for t in ((task,) if isinstance(task, TaskSpec) else task)}
    if len(kinds) != 1:
        raise ConfigError("folds stepped together need tasks of one kind")
    return kinds.pop()


def inner_update(
    weights: BaseLearnerWeights,
    data: TaskData,
    task: TaskSpec | Sequence[TaskSpec],
    config: BaseLearnerConfig,
    rng: np.random.Generator | Sequence[np.random.Generator],
    errors: FoldErrors | None = None,
    out: BaseLearnerWeights | None = None,
) -> BaseLearnerWeights:
    """The k-shot update operator: ``inner_iterations`` full-batch steps on
    one task slice with a fresh optimizer; the input weights are not mutated.

    On a stack, ``data`` carries the leading fold axis, ``task`` is one spec
    per fold (all of one kind) and ``rng`` one stream per fold; ``errors``
    is as in ``loss_and_grads``. ``out``, laid out like ``weights`` and
    possibly ``weights`` itself, receives the result instead of a fresh
    copy; one gradient buffer serves every step.
    """
    if np.size(data.y) == 0:
        raise DataError("inner update requires a nonempty data slice")
    if out is None:
        current = weights.clone()
    else:
        current = out
        if out is not weights:
            np.copyto(out.values, weights.values)
    if config.learning_rate == 0.0 or config.inner_iterations == 0:
        return current
    kind = _task_kind(task)
    state = OptimizerState(kind=config.optimizer, learning_rate=config.learning_rate)
    grads = np.empty_like(current.values)
    with np.errstate(all="ignore"):
        for _ in range(config.inner_iterations):
            loss_and_grads(
                current, data.x, data.group_ids, data.y, kind, config,
                rng=rng, train=True, errors=errors, out=grads,
            )
            optimizer_step(current.values, grads, state)
    return current
