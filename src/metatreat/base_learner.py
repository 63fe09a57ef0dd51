"""The base-learner: a weight-normalized feature extractor, a treatment
embedding table with one row per group (including the held-out one), and a
dense output head over the concatenated representations.

Every weight lives in one flat vector that the layers view by name, so
``loss_and_grads`` returns its gradient in the same layout, and the
optimizer and the meta-update step the whole network at once.
Every primitive acts on a ``StepWorkspace``, which holds the stack it
steps or reads. ``inner_update`` is the k-shot update operator: it runs a
fixed number of full-batch gradient steps on a task slice, so identical
(weights, data, config, seed) always give identical results.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import nn_core
from .errors import ConfigError, DataError, ShapeError
from .nn_core import (
    DenseBuffers,
    DenseLayer,
    FoldErrors,
    OptimizerState,
    activation_grad,
    dense_backward,
    dense_forward,
    dropout_mask,
    init_dense_layer,
    optimizer_step,
    record_dense_failures,
    record_failures,
)

EMBEDDING_INIT_SCALE = 0.05

# Largest network ``init_weights`` draws, in weights. A float64 network at
# the cap is 80 MB, as a table at ``synth_gen.MAX_CELLS`` is; the published
# grids' largest network (8 layers of 128 units, a 128-wide embedding) has
# under 400,000 weights even beside 1,000 input features and 100 groups.
MAX_WEIGHTS = 10_000_000


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
    """All trainable state of a stack of networks of one layout, which step
    together, in one contiguous float64 vector; the constructor takes one
    network's vector, as a stack of one.

    ``extractor``, ``embeddings`` and ``head`` are named views into
    ``values``, each with a leading fold axis, so writing either side moves
    the other and an optimizer or an interpolation can treat every weight at
    once. ``layout`` holds one network's (name, shape) pairs in parameter
    order, and ``slices`` each name's range in one network's vector. The
    ``folds`` networks are laid out part-major: each part's (folds, *shape)
    block, ``folds`` times its range, is contiguous, so every numpy call of
    a step sees contiguous arrays. ``activations`` names the extractor
    layers' activations followed by the head's.
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
        self._bind(values, layout, tuple(activations), slices, 1)
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
        folds: int,
    ) -> None:
        """Point the named views at ``values``, for a layout already checked."""
        views = {
            name: values[folds * s.start : folds * s.stop].reshape(folds, *shape)
            for (name, shape), s in zip(layout, slices.values())
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

    def _view(self, values: np.ndarray, folds: int) -> "BaseLearnerWeights":
        """This layout over ``values``, a stack of ``folds``."""
        out = object.__new__(BaseLearnerWeights)
        out._bind(values, self.layout, self.activations, self.slices, folds)
        return out

    @property
    def n_groups(self) -> int:
        return self.embeddings.shape[-2]

    def unstack(self) -> list["BaseLearnerWeights"]:
        """Each fold as a stack of one (copies)."""
        n = self.folds
        blocks = [self.values[n * s.start : n * s.stop].reshape(n, -1) for s in self.slices.values()]
        return [self._view(np.concatenate([b[f] for b in blocks]), 1) for f in range(n)]


def stack_weights(weights: Sequence[BaseLearnerWeights]) -> BaseLearnerWeights:
    """Stacks of one layout as one stack of all their folds, in order (a
    copy)."""
    first = weights[0]
    if any(w.layout != first.layout or w.activations != first.activations for w in weights):
        raise ShapeError("only stacks of one layout can be stacked")
    values = np.concatenate([
        w.values[w.folds * s.start : w.folds * s.stop]
        for s in first.slices.values() for w in weights
    ])
    return first._view(values, sum(w.folds for w in weights))


def network_size(config: BaseLearnerConfig, n_features: int, n_groups: int) -> int:
    """The weights of one network of ``config`` on ``n_features`` inputs,
    with an embedding row for each of ``n_groups`` groups."""
    h, e = config.hidden_dim, config.embedding_dim
    return (n_features + 2) * h + (config.n_layers - 1) * (h + 2) * h + n_groups * e + h + e + 2


def init_weights(
    config: BaseLearnerConfig, n_features: int, n_groups: int, rng: np.random.Generator
) -> BaseLearnerWeights:
    """Random initialization of one network, as a stack of one; the
    embedding table covers every group. A network of more than
    ``MAX_WEIGHTS`` weights is refused before any is drawn, as are fewer
    than one input feature or two groups."""
    if n_features < 1:
        raise ConfigError("need at least one input feature")
    if n_groups < 2:
        raise ConfigError("need at least two treatment groups")
    h, e = config.hidden_dim, config.embedding_dim
    size = network_size(config, n_features, n_groups)
    if size > MAX_WEIGHTS:
        raise ConfigError(
            f"network of {size} weights (base.n_layers {config.n_layers}, base.hidden_dim {h}, "
            f"base.embedding_dim {e}, {n_features} input features, {n_groups} groups) exceeds "
            f"the cap of {MAX_WEIGHTS}"
        )
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
# Every pass runs on a stack: weights with a leading fold axis, and a
# batch of x (folds, rows, features), group ids and labels (folds, rows),
# of one task kind, with one RNG stream and one failure record per fold.


def _check_batch(weights: BaseLearnerWeights, x, group_ids, kind: str, y=None):
    """A stacked batch's ``x``, group ids and labels (if given) as arrays,
    checked against the stack: a task kind of ``"regression"`` or
    ``"classification"``, group ids within the embedding table, ``x`` 3-D
    and as wide as the first layer, and all of them with the stack's fold
    count and one row count."""
    if kind not in ("regression", "classification"):
        raise ConfigError(f"unknown task kind {kind!r}")
    g = np.asarray(group_ids, dtype=np.int64)
    if g.size and (g.min() < 0 or g.max() >= weights.n_groups):
        raise DataError(f"group id out of range: embedding table has {weights.n_groups} rows")
    x = np.asarray(x, dtype=np.float64)
    n_in = weights.extractor[0].n_in
    if x.ndim != 3 or x.shape[-1] != n_in:
        raise ShapeError(f"the network expects input (folds, rows, {n_in}), got shape {x.shape}")
    y = None if y is None else np.asarray(y, dtype=np.float64)
    if len(x) != weights.folds or g.shape != x.shape[:2] or (y is not None and y.shape != g.shape):
        raise ShapeError(
            f"batch arrays must share their fold and row dimensions, with {weights.folds} folds"
        )
    return x, g, y


class StepWorkspace:
    """One stack being stepped or read, with every array its passes write.

    ``net`` is the workspace's own copy of the stack, which
    ``inner_update`` steps in place and ``forward`` reads; ``grads`` is the
    gradient in the same layout, which each ``loss_and_grads`` call
    overwrites. The optimizer's buffers and every other array a pass writes
    are made on first use and kept, one buffer per role: per layer for an
    array that lives from the forward to the backward pass (a layer's
    effective weights, and its activations and column norms as regions of
    blocks that hold every layer's), one for all layers for a transient,
    and each grown to the largest batch, so that the training, fine-tune
    and prediction batches run on it share it. The owner, one meta-loop
    stack or one meta-test, drops the workspace with the stack.
    """

    def __init__(self, stack: BaseLearnerWeights) -> None:
        """A workspace over a copy of ``stack``, which stays as it is."""
        self.net = stack._view(stack.values.copy(), stack.folds)
        # row 1 is the gradient, row 0 the optimizer's step (see ``optimizer``)
        self._update = np.empty((2, stack.values.size))
        self.grads = stack._view(self._update[1], stack.folds)
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
    """A workspace's arrays for one batch size, bound once: each layer's
    ``DenseBuffers`` (extractor layers, then the head), whose gradient goes
    into the workspace's gradient views; the per-column blocks of
    ``weight_norm``; one block of every layer's activations followed by the
    per-fold loss, so that one pass checks them all; the head's input, the
    extractor's output beside each row's embedding; the loss terms; and the
    dropout draw with each extractor layer's mask as a view into it."""

    def __init__(self, ws: StepWorkspace, n_rows: int, dropout: bool) -> None:
        net, grads, array = ws.net, ws.grads, ws._array
        folds = len(net.embeddings)
        lead = (folds, n_rows)
        layers = net.extractor + [net.head]
        n_cols = sum(layer.n_out for layer in layers)
        columns = array("columns", (4, folds * n_cols))
        self.norms, self.norms_sq = columns[0], columns[1]
        self.checked = array("activations", (folds * (n_rows * n_cols + 1),))
        self.acts, self.loss = self.checked[:-folds], self.checked[-folds:]
        self.delta, self.diff = array("delta", lead), array("diff", lead)
        self.pred = array("pred", lead)
        hidden_dim = net.extractor[-1].n_out
        self.concat = array("concat", (*lead, net.head.n_in))
        self.concat_h = self.concat[..., :hidden_dim]
        self.concat_emb = self.concat[..., hidden_dim:]
        self.h = self.draws = self.masks = None
        if dropout:
            # the last extractor layer's masked output goes straight into
            # the head's input
            self.h = [
                array(("h", i), (*lead, layer.n_out)) for i, layer in enumerate(net.extractor[:-1])
            ] + [self.concat_h]
            ends = np.cumsum([n_rows * layer.n_out for layer in net.extractor])
            self.draws = array("dropout", (lead[0], int(ends[-1])))
            self.masks = [
                self.draws[:, end - n_rows * layer.n_out : end].reshape(*lead, layer.n_out)
                for layer, end in zip(net.extractor, ends)
            ]
        self.dense: list[DenseBuffers] = []
        start = 0
        for i, (layer, grad) in enumerate(zip(layers, grads.extractor + [grads.head])):
            n, last = layer.n_out, i == len(layers) - 1
            norms, norms_sq, scale, coef = (
                row[folds * start : folds * (start + n)].reshape(folds, n) for row in columns
            )
            if i == 0:
                x_in = None
            elif last:
                x_in = self.concat
            else:
                x_in = self.dense[-1].out if self.h is None else self.h[i - 1]
            squares = array("scratch", layer.v.shape)
            w_eff = array(("w_eff", i), layer.v.shape)
            self.dense.append(DenseBuffers(
                layer=layer, grads=grad, bias=layer.bias[..., None, :],
                norms=norms, norms_sq=norms_sq, scale=scale, scale_b=scale[..., None, :],
                coef=coef, coef_b=coef[..., None, :],
                squares=squares, squares_flat=squares.reshape(folds, -1),
                w_eff=w_eff, w_eff_t=w_eff.swapaxes(-1, -2),
                out=self.acts[folds * n_rows * start : folds * n_rows * (start + n)].reshape(
                    *lead, n
                ),
                dz=self.delta[..., None] if last else array("act_grad", (*lead, n)),
                x_t=None if x_in is None else x_in.swapaxes(-1, -2),
                dx=None if i == 0 else array("dx", (*lead, layer.n_in)),
            ))
            start += n
        head = self.dense[-1]
        self.z = head.out[..., 0]
        self.dconcat_h, self.dconcat_emb = head.dx[..., :hidden_dim], head.dx[..., hidden_dim:]
        # each direction matrix's regularization sums, then the active
        # embedding rows'
        self.reg_sums = array("reg_sums", (len(layers) + 1, 2, folds))
        self.embedding_rows = net.embeddings.reshape(folds * net.n_groups, -1)
        self.embeddings = net.embeddings.reshape(-1)
        self.embedding_grads = grads.embeddings.reshape(-1)
        self.where = [f"extractor layer {i}: " for i in range(len(net.extractor))] + [""]


@dataclass(frozen=True)
class _StepPlan:
    """One stacked batch, checked once for every step taken on it: inputs
    (folds, rows, features) and their transpose, labels (folds, rows), each
    row's embedding-table row in the stack's flattened (folds x groups)
    table (``rows``); in the flattened (folds, groups, embedding dim) block,
    where each row's embedding-gradient entries go (``scatter``) and the
    entries of each fold's active embedding rows, fold by fold
    (``active``); the loss settings; and the workspace buffers sized for
    it. ``dropout`` is the rate masks are drawn at, 0 for steps without
    dropout."""

    x: np.ndarray
    x_t: np.ndarray
    y: np.ndarray
    rows: np.ndarray
    scatter: np.ndarray
    active: np.ndarray
    kind: str
    l1: float
    l2: float
    dropout: float
    buffers: _BatchBuffers


def _embedding_rows(weights: BaseLearnerWeights, g: np.ndarray) -> np.ndarray:
    """Each row's row of a stack's embedding tables, flattened to (folds x
    groups, embedding dim)."""
    return np.arange(len(g))[:, None] * weights.n_groups + g


def _plan(
    ws: StepWorkspace, x: np.ndarray, g: np.ndarray, y, kind: str, config: BaseLearnerConfig
) -> _StepPlan:
    """Index a stacked batch that ``_check_batch`` passed for a step in
    ``ws``."""
    if x.shape[1] == 0:
        raise DataError("empty batch")
    present = np.zeros(ws.net.embeddings.shape[:2], dtype=bool)
    present[np.arange(len(x))[:, None], g] = True
    counts = present.sum(axis=1)
    if (counts != counts[0]).any():
        raise ShapeError("folds stepped together must each cover the same number of groups")
    l1, l2 = config.l1_l2()
    buffers = ws.batch(x.shape[1], config.dropout_rate > 0.0)
    rows = _embedding_rows(ws.net, g)
    dim = ws.net.embeddings.shape[-1]
    scatter = (rows[..., None] * dim + np.arange(dim)).ravel()
    active = (np.flatnonzero(present)[:, None] * dim + np.arange(dim)).ravel()
    return _StepPlan(
        x, x.swapaxes(-1, -2), y, rows, scatter, active, kind, l1, l2, config.dropout_rate,
        buffers,
    )


def _forward_pass(
    b: _BatchBuffers, x: np.ndarray, rows: np.ndarray, kind: str, l1: float, l2: float
) -> np.ndarray:
    """Predictions (folds, rows) of a workspace's stack on a batch, every
    array written into ``b``: each extractor layer's output is multiplied
    by its dropout mask when ``b`` holds masks, and each direction matrix's
    regularization sums for ``l1`` and ``l2`` go into ``b.reg_sums``
    (``weight_norm``)."""
    nn_core.weight_norm(b.dense, b.norms, b.norms_sq, l1, l2, b.reg_sums)
    h = x
    for i, d in enumerate(b.dense[:-1]):
        h = dense_forward(h, d)
        if b.masks is not None:
            h = np.multiply(h, b.masks[i], out=b.h[i])
    if b.masks is None:
        np.copyto(b.concat_h, h)
    b.embedding_rows.take(rows, axis=0, out=b.concat_emb)
    dense_forward(b.concat, b.dense[-1])
    if kind == "classification":
        return nn_core.apply_activation("sigmoid", b.z, out=b.pred)
    return b.z


def _check_step(b: _BatchBuffers, errors: FoldErrors, with_loss: bool) -> None:
    """Record in ``errors`` each fold's first numeric failure of the pass
    just run on ``b``, and of its loss if ``with_loss``. A healthy pass is
    proven once per step, by one pass over the norm block and one over the
    activations (and losses); only a pass that fails one walks the layers
    in order, so that each fold keeps the first message a forward pass
    meets: a zero-norm column or a non-finite activation of a layer, then a
    loss that is not finite."""
    checked = b.checked if with_loss else b.acts
    if np.count_nonzero(b.norms) == b.norms.size and math.isfinite(
        np.add.reduce(checked, axis=None)
    ):
        return
    for d, where in zip(b.dense, b.where):
        record_dense_failures(d, errors, where)
    if with_loss:
        record_failures(errors, ~np.isfinite(b.loss), lambda f: "loss is not finite")


def forward(
    ws: StepWorkspace, x: np.ndarray, group_ids: np.ndarray, kind: str, errors: FoldErrors
) -> np.ndarray:
    """The predictions (folds, rows) of ``ws``'s stack for a stacked batch,
    a fresh array: extractor(x) ++ embeddings[g] -> head, without dropout,
    so fully deterministic. It runs the training step's layer code in the
    workspace's buffers and records failures in ``errors`` as
    ``loss_and_grads`` does. Classification applies a sigmoid on the head
    output, so values land in (0, 1).
    """
    x, g, _ = _check_batch(ws.net, x, group_ids, kind)
    b = ws.batch(x.shape[1], False)
    with np.errstate(all="ignore"):
        pred = _forward_pass(b, x, _embedding_rows(ws.net, g), kind, 0.0, 0.0)
        _check_step(b, errors, with_loss=False)
    return pred.copy()


def _step(
    plan: _StepPlan, rng: Sequence[np.random.Generator], errors: FoldErrors
) -> np.ndarray:
    """One forward/backward pass of a workspace's stack on ``plan``'s batch:
    the per-fold losses, with the gradient written into the workspace's.

    With dropout, each fold draws the masks of every extractor layer, in
    layer order, in one call on its stream.
    """
    b = plan.buffers
    l1, l2 = plan.l1, plan.l2
    if b.masks is not None:
        dropout_mask(rng, plan.dropout, b.draws)
    pred = _forward_pass(b, plan.x, plan.rows, plan.kind, l1, l2)
    loss = nn_core.loss_and_delta(pred, plan.y, plan.kind, b.loss, b.delta, b.diff)
    active_embeddings = b.embeddings.take(plan.active)
    nn_core.regularization_sums(active_embeddings.reshape(len(loss), -1), l1, l2, b.reg_sums[-1])
    loss += nn_core.regularization_value(b.reg_sums[:-1], l1, l2)
    loss += nn_core.regularization_value(b.reg_sums[-1:], l1, l2)
    _check_step(b, errors, with_loss=True)

    dense_backward(b.dense[-1], b.dense[-1].x_t, l1, l2)
    # each row's entries added from zero in row order, as ``np.add.at``
    # does on the (groups, dim) table, then each active entry's
    # regularization term
    b.embedding_grads.fill(0.0)
    np.add.at(b.embedding_grads, plan.scatter, b.dconcat_emb.ravel())
    np.add.at(
        b.embedding_grads, plan.active, nn_core.regularization_grad(active_embeddings, l1, l2)
    )
    grad_out = b.dconcat_h
    for i in range(len(b.dense) - 2, -1, -1):
        d = b.dense[i]
        if b.masks is not None:
            grad_out *= b.masks[i]
        activation_grad(d.layer.activation, d.out, out=d.dz)
        np.multiply(grad_out, d.dz, out=d.dz)
        grad_out = dense_backward(d, plan.x_t if i == 0 else d.x_t, l1, l2)
    return loss


def loss_and_grads(
    ws: StepWorkspace, x: np.ndarray, group_ids: np.ndarray, y: np.ndarray, kind: str,
    config: BaseLearnerConfig, rng: Sequence[np.random.Generator], errors: FoldErrors,
) -> tuple[np.ndarray, BaseLearnerWeights]:
    """Exact gradients of mean task loss + regularization of ``ws``'s
    stack, whose folds step together: a fresh array of one loss per fold,
    and ``ws.grads``, which the workspace's next step overwrites.

    Regularization covers direction matrices and the embedding rows active
    in the batch; untouched embedding rows receive a strictly zero gradient,
    which is what keeps the held-out group's embedding frozen under plain
    training.

    ``rng`` is one stream per fold, and every fold's batch must cover the
    same number of groups. ``errors`` collects each fold's first numeric
    failure (``nn_core.record_failures``): a step checks once, over all its
    layers, and only a failing step names each fold's first failure in
    layer order, the loss last.
    """
    x, g, y = _check_batch(ws.net, x, group_ids, kind, y)
    plan = _plan(ws, x, g, y, kind, config)
    with np.errstate(all="ignore"):
        loss = _step(plan, rng, errors)
    return loss.copy(), ws.grads


def inner_update(
    ws: StepWorkspace, x: np.ndarray, group_ids: np.ndarray, y: np.ndarray, kind: str,
    config: BaseLearnerConfig, rng: Sequence[np.random.Generator], errors: FoldErrors,
) -> None:
    """The k-shot update operator: ``inner_iterations`` full-batch steps of
    ``ws``'s stack, in place, on one stacked task slice with a fresh
    optimizer.

    The batch is as in ``loss_and_grads``, with the leading fold axis;
    ``kind`` is the task kind of every fold's slice and ``rng`` one stream
    per fold, and ``errors`` is as there. The batch is checked and indexed
    once for every step.
    """
    if np.size(y) == 0:
        raise DataError("inner update requires a nonempty data slice")
    x, g, y = _check_batch(ws.net, x, group_ids, kind, y)
    if config.learning_rate != 0.0 and config.inner_iterations != 0:
        plan = _plan(ws, x, g, y, kind, config)
        state = ws.optimizer(config)
        with np.errstate(all="ignore"):
            for _ in range(config.inner_iterations):
                _step(plan, rng, errors)
                optimizer_step(ws.net.values, ws.grads.values, state)
