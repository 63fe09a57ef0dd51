"""The base-learner: a weight-normalized feature extractor, a treatment
embedding table with one row per group (including the held-out one), and a
dense output head over the concatenated representations.

Every weight lives in one flat vector that the layers view by name, so
``loss_and_grads`` returns one flat gradient and the optimizer and the
meta-update step the whole network at once. ``inner_update`` is the k-shot
update operator: it runs a fixed number of full-batch gradient steps on a
task slice in a step workspace, so identical (weights, data, config, seed)
always give identical results.
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
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")
        if self.embedding_dim < 0:
            raise ConfigError("embedding_dim must be non-negative")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"extractor activation must be relu or tanh, got {self.activation!r}")
        if self.reg_kind not in ("l1", "l2", "both"):
            raise ConfigError(f"unknown reg_kind {self.reg_kind!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if self.reg_strength < 0.0:
            raise ConfigError("reg_strength must be non-negative")
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
    """All trainable state in one contiguous float64 vector: one network, or
    a stack of networks of one layout that step together.

    ``extractor``, ``embeddings`` and ``head`` are named views into
    ``values`` laid out as ``layout`` (name, shape) pairs in parameter
    order, so writing either side moves the other and an optimizer or an
    interpolation can treat every weight at once. A stack of ``folds``
    networks is laid out part-major: each part's (folds, *shape) block is
    contiguous, so every numpy call of a step sees contiguous arrays, and
    every view carries the leading fold axis. One network (``folds`` None)
    has the bytes of a stack of one, without the axis. ``slices`` maps each
    layout name to its range in one network's vector; in a stack the part's
    block spans ``folds`` times that range. ``activations`` names the
    extractor layers' activations followed by the head's.
    """

    def __init__(self, values: np.ndarray, layout: Layout, activations: tuple[str, ...]) -> None:
        values = np.asarray(values, dtype=np.float64)
        n_layers = len(activations) - 1
        if n_layers < 1 or [name for name, _ in layout] != _layout_names(n_layers):
            raise ShapeError(
                f"parameter layout does not match a network with {n_layers} extractor layers"
            )
        sizes = [math.prod(shape) for _, shape in layout]
        if values.ndim != 1 or values.size != sum(sizes):
            raise ShapeError("flat parameter vector does not match its layout")
        slices = {}
        offset = 0
        for (name, _), size in zip(layout, sizes):
            slices[name] = slice(offset, offset + size)
            offset += size
        if len(dict(layout)["embeddings"]) != 2:
            raise ShapeError("embedding table must be 2-D (groups x embedding dim)")
        self._bind(values, layout, tuple(activations), slices, None)
        concat_dim = self.extractor[-1].n_out + self.embeddings.shape[-1]
        if self.head.n_in != concat_dim:
            raise ShapeError(
                f"head expects {self.head.n_in} inputs but extractor+embedding give {concat_dim}"
            )

    def _bind(
        self,
        values: np.ndarray,
        layout: Layout,
        activations: tuple[str, ...],
        slices: dict,
        folds: int | None,
    ) -> None:
        """Point the named views at ``values``, for a layout already checked."""
        n = 1 if folds is None else folds
        lead = () if folds is None else (folds,)
        views = {
            name: values[n * slices[name].start : n * slices[name].stop].reshape(lead + shape)
            for name, shape in layout
        }

        def layer(prefix: str, activation: str) -> DenseLayer:
            return DenseLayer(
                views[f"{prefix}.v"], views[f"{prefix}.gain"], views[f"{prefix}.bias"], activation
            )

        self.values = values
        self.layout = layout
        self.slices = slices
        self.activations = activations
        self.folds = folds
        self.extractor = [layer(f"extractor.{i}", act) for i, act in enumerate(activations[:-1])]
        self.embeddings = views["embeddings"]
        self.head = layer("head", activations[-1])

    def _view(self, values: np.ndarray, folds: int | None) -> "BaseLearnerWeights":
        """This layout over ``values``: one network, or a stack of ``folds``."""
        out = object.__new__(BaseLearnerWeights)
        out._bind(values, self.layout, self.activations, self.slices, folds)
        return out

    @property
    def n_groups(self) -> int:
        return self.embeddings.shape[-2]

    def with_values(self, values: np.ndarray) -> "BaseLearnerWeights":
        """Weights of the same network, or stack, over another array laid
        out like ``values``."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise ShapeError("flat parameter vector does not match its layout")
        return self._view(values, self.folds)

    def unstack(self) -> list["BaseLearnerWeights"]:
        """Each fold of a stack as a network of its own (copies)."""
        n = self.folds
        blocks = [self.values[n * s.start : n * s.stop].reshape(n, -1) for s in self.slices.values()]
        return [self._view(np.concatenate([b[f] for b in blocks]), None) for f in range(n)]


def stack_weights(weights: Sequence[BaseLearnerWeights]) -> BaseLearnerWeights:
    """Networks of one layout as one stack, fold f a copy of ``weights[f]``."""
    first = weights[0]
    if any(
        w.folds is not None or w.layout != first.layout or w.activations != first.activations
        for w in weights
    ):
        raise ShapeError("only single networks of one layout can be stacked")
    values = np.concatenate([w.values[s] for s in first.slices.values() for w in weights])
    return first._view(values, len(weights))


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


def _as_stack(weights: BaseLearnerWeights, x, group_ids, y=None, rng=None):
    """A batch's arguments as those of a stack, group ids checked against
    the embedding table: one network, its inputs, group ids, labels and RNG
    stream become a stack of one; a stack needs one stream per fold."""
    g = np.asarray(group_ids, dtype=np.int64)
    if g.size and (g.min() < 0 or g.max() >= weights.n_groups):
        raise DataError(f"group id out of range: embedding table has {weights.n_groups} rows")
    if weights.folds is None:
        weights, x, g = weights._view(weights.values, 1), np.asarray(x, np.float64)[None], g[None]
        y = None if y is None else np.asarray(y, dtype=np.float64).reshape(1, -1)
        rng = None if rng is None else (rng,)
    elif isinstance(rng, np.random.Generator):
        raise ConfigError("a stack of folds takes one RNG stream per fold")
    return weights, x, g, y, rng


class StepWorkspace:
    """Where the steps on one stack run and write.

    ``net`` is the stack being stepped, an array of the workspace's own:
    ``inner_update`` copies its input weights in (unless they are ``net``
    already), steps ``net`` in place and returns it. ``grads`` is the
    gradient in the same layout. The optimizer's buffers and every other
    array a step writes are made on first use and kept, one buffer per
    role: per layer for an array that lives from the forward to the
    backward pass (a layer's activations, norms and effective weights), one
    for all layers for a transient, and each grown to the largest batch, so
    that the training and fine-tune batches of a meta-iteration share it.
    The owner, one meta-loop stack or one ``inner_update`` or
    ``loss_and_grads`` call, drops the workspace with the stack.
    """

    def __init__(self, weights: BaseLearnerWeights) -> None:
        """A workspace for stacks laid out like ``weights``; one network
        counts as a stack of one."""
        folds = 1 if weights.folds is None else weights.folds
        self.net = weights._view(np.empty(weights.values.size), folds)
        # row 1 is the gradient, row 0 the optimizer's step (see ``optimizer``)
        self._update = np.empty((2, weights.values.size))
        self.grads = weights._view(self._update[1], folds)
        self._arrays: dict = {}
        self._batches: dict = {}

    def _array(self, name, shape: tuple[int, ...]) -> np.ndarray:
        """The workspace's (uninitialized) array ``name`` as ``shape``: one
        buffer per name, grown on demand, so that batches of different sizes
        share it. Growing drops the batch buffers that viewed the old one."""
        size = math.prod(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.size < size:
            if buf is not None:
                self._batches.clear()
            buf = self._arrays[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def optimizer(self, config: BaseLearnerConfig) -> OptimizerState:
        """A fresh optimizer over ``net``, whose buffers are this
        workspace's, zeroed. Its scratch ends with the gradient's row, which
        ``optimizer_step`` may overwrite once it has read the gradient (SGD's
        step, Adam's denominator), as the next step writes it anew."""
        if config.optimizer == "sgd":
            return OptimizerState("sgd", config.learning_rate, self._update[1:])
        size = self.net.values.shape
        m, v = self._array("optimizer.m", size), self._array("optimizer.v", size)
        m.fill(0.0)
        v.fill(0.0)
        return OptimizerState("adam", config.learning_rate, self._update, m, v)

    def batch(self, n_rows: int, dropout: bool) -> "_BatchBuffers":
        """The buffers of a step on batches of ``n_rows`` rows per fold."""
        key = (n_rows, dropout)
        if key not in self._batches:
            self._batches[key] = _BatchBuffers(self, n_rows, dropout)
        return self._batches[key]


class _BatchBuffers:
    """A workspace's arrays for one batch size, bound once: per layer
    (extractor layers, then the head), the ``dense_forward`` and
    ``dense_backward`` buffers, the latter writing into the gradient's
    views; the dropout draw with each extractor layer's mask as a view
    into it; and scratch for the regularization terms."""

    def __init__(self, ws: StepWorkspace, n_rows: int, dropout: bool) -> None:
        net, grads, array = ws.net, ws.grads, ws._array
        lead = (len(net.embeddings), n_rows)
        self.layers = net.extractor + [net.head]
        self.forward = []
        self.backward = []
        self.act_grad = []
        for i, (layer, grad) in enumerate(zip(self.layers, grads.extractor + [grads.head])):
            scratch = array("scratch", layer.v.shape)
            out_shape = (*lead, layer.n_out)
            self.forward.append((
                array(("out", i), out_shape), array(("norms", i), layer.gain.shape),
                array(("w_eff", i), layer.v.shape), scratch,
            ))
            dx = array("dx", (*lead, layer.n_in)) if i > 0 else None
            self.backward.append((dx, grad.v, grad.gain, grad.bias, scratch))
            self.act_grad.append(array("act_grad", out_shape))
        self.directions = [layer.v for layer in self.layers]
        self.reg_terms = [b[-1].reshape(lead[0], -1) for b in self.forward]
        self.concat = array("concat", (*lead, net.head.n_in))
        self.h = self.draws = self.masks = None
        if dropout:
            self.h = [array(("h", i), (*lead, layer.n_out)) for i, layer in enumerate(net.extractor)]
            ends = np.cumsum([n_rows * layer.n_out for layer in net.extractor])
            self.draws = array("dropout", (lead[0], int(ends[-1])))
            self.masks = [
                self.draws[:, end - n_rows * layer.n_out : end].reshape(*lead, layer.n_out)
                for layer, end in zip(net.extractor, ends)
            ]


@dataclass(frozen=True)
class _StepPlan:
    """One stacked batch, checked once for every step taken on it: inputs
    (folds, rows, features), group ids and labels (folds, rows), where each
    row's embedding-gradient entries go in the stack's flattened (folds,
    groups, embedding dim) block (``scatter``), each fold's active
    embedding rows as (``fold_of``, ``active``) pairs, the loss settings,
    and the workspace buffers sized for it. ``dropout`` is the rate masks
    are drawn at, 0 for steps without dropout."""

    x: np.ndarray
    g: np.ndarray
    y: np.ndarray
    scatter: np.ndarray
    fold_of: np.ndarray
    active: np.ndarray
    kind: str
    l1: float
    l2: float
    dropout: float
    buffers: _BatchBuffers


def _plan(
    weights: BaseLearnerWeights, x, g: np.ndarray, y, kind: str, config: BaseLearnerConfig,
    train: bool, ws: StepWorkspace,
) -> _StepPlan:
    """Check a stacked batch against a stack of weights and index it."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 3 and x.shape[1] == 0:
        raise DataError("empty batch")
    if x.ndim != 3 or not (x.shape[:2] == y.shape == g.shape) or len(x) != weights.folds:
        raise ShapeError("batch arrays must share their fold and row dimensions")
    present = np.zeros(weights.embeddings.shape[:2], dtype=bool)
    present[np.arange(len(x))[:, None], g] = True
    counts = present.sum(axis=1)
    if (counts != counts[0]).any():
        raise ShapeError("folds stepped together must each cover the same number of groups")
    fold_of, active = np.nonzero(present)
    l1, l2 = config.l1_l2()
    dropout = config.dropout_rate if train else 0.0
    buffers = ws.batch(x.shape[1], dropout > 0.0)
    n_groups, dim = weights.embeddings.shape[1:]
    rows = np.arange(len(x))[:, None] * n_groups + g
    scatter = (rows[..., None] * dim + np.arange(dim)).ravel()
    return _StepPlan(x, g, y, scatter, fold_of, active, kind, l1, l2, dropout, buffers)


def _forward_pass(
    weights: BaseLearnerWeights,
    x: np.ndarray,
    g: np.ndarray,
    kind: str,
    errors: FoldErrors | None,
    buffers: _BatchBuffers | None = None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]], tuple[np.ndarray, ...]]:
    """Predictions (folds, rows), plus what backprop needs: each extractor
    layer's (input, output, dropout mask, column norms, effective weights)
    and the head's (input, column norms, effective weights).

    With ``buffers``, every array is written into them, and each extractor
    layer's output is multiplied by its dropout mask when they hold masks;
    without, every array is fresh and there is no dropout.
    """
    caches = []
    h = x
    for i, layer in enumerate(weights.extractor):
        x_in = h
        out, norms, w_eff = dense_forward(
            x_in, layer, errors, f"extractor layer {i}: ",
            None if buffers is None else buffers.forward[i],
        )
        mask = None
        if buffers is None or buffers.masks is None:
            h = out
        else:
            mask = buffers.masks[i]
            h = np.multiply(out, mask, out=buffers.h[i])
        caches.append((x_in, out, mask, norms, w_eff))
    concat = np.concatenate(
        [h, weights.embeddings[np.arange(len(g))[:, None], g]], axis=-1,
        out=None if buffers is None else buffers.concat,
    )
    z, head_norms, head_w_eff = dense_forward(
        concat, weights.head, errors, "", None if buffers is None else buffers.forward[-1]
    )
    z = z[..., 0]
    pred = nn_core.apply_activation("sigmoid", z) if kind == "classification" else z
    return pred, caches, (concat, head_norms, head_w_eff)


def forward(
    weights: BaseLearnerWeights,
    x: np.ndarray,
    group_ids: np.ndarray,
    config: BaseLearnerConfig,
    kind: str = "regression",
) -> np.ndarray:
    """One network's predictions for a batch: extractor(x) ++ embeddings[g]
    -> head, without dropout, so fully deterministic.

    Classification applies a sigmoid on the head output, so values land in
    (0, 1).
    """
    stack, x, g, _, _ = _as_stack(weights, x, group_ids)
    with np.errstate(all="ignore"):
        return _forward_pass(stack, x, g, kind, None)[0][0]


def _step(
    net: BaseLearnerWeights,
    grads: BaseLearnerWeights,
    plan: _StepPlan,
    rng: Sequence[np.random.Generator] | None,
    errors: FoldErrors | None,
) -> np.ndarray:
    """One forward/backward pass of a workspace's ``net`` on ``plan``'s
    batch: the per-fold losses, with the gradient written into ``grads``.

    With dropout, each fold draws the masks of every extractor layer, in
    layer order, in one call on its stream.
    """
    b = plan.buffers
    l1, l2 = plan.l1, plan.l2
    if b.masks is not None:
        dropout_mask(rng, plan.dropout, b.draws)
    pred, caches, (concat, head_norms, head_w_eff) = _forward_pass(
        net, plan.x, plan.g, plan.kind, errors, b
    )
    loss_kind = "binary_cross_entropy" if plan.kind == "classification" else "mse"
    loss = nn_core.loss_value(pred, plan.y, loss_kind)
    active_embeddings = net.embeddings[plan.fold_of, plan.active]
    loss = loss + nn_core.regularization_value(b.directions, l1, l2, b.reg_terms)
    loss = loss + nn_core.regularization_value(
        [active_embeddings.reshape(len(loss), -1)], l1, l2
    )
    record_failures(errors, ~np.isfinite(loss), lambda f: "loss is not finite")

    def backward(i: int, x_in, dz, norms, w_eff):
        layer = b.layers[i]
        dx, dv, _, _ = dense_backward(layer, x_in, dz, norms, w_eff, b.backward[i])
        # dW's buffer and the layer's effective weights are free from here on
        reg = nn_core.regularization_grad(layer.v, l1, l2, out=b.backward[i][-1], scratch=w_eff)
        np.add(dv, reg, out=dv)
        return dx

    dz = nn_core.output_delta(pred, plan.y, loss_kind)[..., None]
    n_layers = len(net.extractor)
    dconcat = backward(n_layers, concat, dz, head_norms, head_w_eff)
    hidden_dim = net.extractor[-1].n_out
    # each row's entries added from zero in row order, as ``np.add.at``
    # does on the (groups, dim) table; reshape views the contiguous block
    demb = grads.embeddings
    demb.fill(0.0)
    np.add.at(demb.reshape(-1), plan.scatter, dconcat[..., hidden_dim:].ravel())
    demb[plan.fold_of, plan.active] += nn_core.regularization_grad(active_embeddings, l1, l2)

    grad_out = dconcat[..., :hidden_dim]
    for i in range(n_layers - 1, -1, -1):
        x_in, out_i, mask, norms, w_eff = caches[i]
        if mask is not None:
            grad_out *= mask
        dz_i = activation_grad(b.layers[i].activation, out_i, out=b.act_grad[i])
        np.multiply(grad_out, dz_i, out=dz_i)
        grad_out = backward(i, x_in, dz_i, norms, w_eff)
    return loss


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
    Each call runs one step on a plan and workspace of its own, so the
    gradient it returns is a fresh array.
    """
    one = weights.folds is None
    weights, x, g, y, rng = _as_stack(weights, x, group_ids, y, rng)
    ws = StepWorkspace(weights)
    plan = _plan(weights, x, g, y, kind, config, train, ws)
    np.copyto(ws.net.values, weights.values)
    with np.errstate(all="ignore"):
        loss = _step(ws.net, ws.grads, plan, rng, errors)
    return (float(loss[0]) if one else loss), ws.grads.values


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
    workspace: StepWorkspace | None = None,
) -> BaseLearnerWeights:
    """The k-shot update operator: ``inner_iterations`` full-batch steps on
    one task slice with a fresh optimizer.

    On a stack, ``data`` carries the leading fold axis, ``task`` is one spec
    per fold (all of one kind) and ``rng`` one stream per fold; ``errors``
    is as in ``loss_and_grads``. The steps run in ``workspace``, a
    ``StepWorkspace`` that the caller keeps across updates, or a fresh one:
    ``weights`` are copied into its stack unless they are that stack
    already, which is stepped in place and returned (as one network for
    one network). Other input weights are never mutated. The batch is
    checked and indexed once for every step.
    """
    if np.size(data.y) == 0:
        raise DataError("inner update requires a nonempty data slice")
    stack, x, g, y, rng = _as_stack(weights, data.x, data.group_ids, data.y, rng)
    ws = StepWorkspace(stack) if workspace is None else workspace
    net = ws.net
    if net.folds != stack.folds or net.values.size != stack.values.size:
        raise ShapeError("step workspace does not match the stack")
    if stack.values is not net.values:
        np.copyto(net.values, stack.values)
    if config.learning_rate != 0.0 and config.inner_iterations != 0:
        plan = _plan(stack, x, g, y, _task_kind(task), config, True, ws)
        state = ws.optimizer(config)
        with np.errstate(all="ignore"):
            for _ in range(config.inner_iterations):
                _step(net, ws.grads, plan, rng, errors)
                optimizer_step(net.values, ws.grads.values, state)
    return net if weights.folds is not None else weights._view(net.values, None)
