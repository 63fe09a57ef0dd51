"""Independent oracles shared by the test suite.

These deliberately avoid the code paths they check: gradients come from
central finite differences of an independently assembled loss, AUC from
O(n^2) pairwise counting, MI from the plug-in formula on explicit counts,
and the base-learner's loss and gradient from a layer-by-layer backprop that
recomputes every weight-norm term where it is used. ``fresh_optimizer``
gives the reference optimizer steps their own buffers.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from metatreat.base_learner import BaseLearnerWeights
from metatreat.nn_core import OptimizerState


def central_diff(loss_fn, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Elementwise relative error with a denominator floor.

    Central differences of an O(1) loss at h=1e-6 carry ~1e-9 of roundoff,
    so coordinates whose true gradient is near zero are effectively checked
    in absolute terms at floor * tolerance (1e-8 at the default tolerance):
    comfortably above the oracle's own noise, far below any systematic
    gradient error, which scales with the gradient magnitudes involved.
    """
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float((diff / denom).max()) if diff.size else 0.0


def pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """O(n^2) forced-choice count: P(random positive outranks random negative),
    ties scoring one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def plugin_mi_from_counts(counts: np.ndarray) -> float:
    """Direct sum p * log(p / (p_x p_y)) over a joint count table."""
    p = counts / counts.sum()
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            if p[i, j] > 0:
                total += p[i, j] * np.log(p[i, j] / (px[i] * py[j]))
    return total


def reference_loss_and_grads(weights, x, group_ids, y, kind, config, rng=None):
    """``base_learner.loss_and_grads`` computed the unfused way, for bitwise
    comparison: each layer's column norms are computed again in backward,
    the gradient is written through the views of a second weights object
    (which is returned),
    and each regularization gradient is accumulated onto zeros. Same
    arithmetic, same order, same dropout draws."""
    act = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh, "identity": lambda z: z}
    act_grad = {
        "relu": lambda out: (out > 0.0).astype(np.float64),
        "tanh": lambda out: 1.0 - out * out,
    }
    l1, l2 = config.l1_l2()

    def weight_norm(layer):
        norms = np.linalg.norm(layer.v, axis=0)
        assert not np.any(norms == 0.0)
        return norms, layer.v * (layer.gain / norms)

    def reg_value(mats):
        total = 0.0
        for m in mats:
            if l1:
                total += l1 * float(np.abs(m).sum())
            if l2:
                total += l2 * float((m * m).sum())
        return total

    def reg_grad(m):
        out = np.zeros_like(m)
        if l1:
            out += l1 * np.sign(m)
        if l2:
            out += 2.0 * l2 * m
        return out

    def backward(layer, x_in, dz):
        norms, w_eff = weight_norm(layer)
        dw = x_in.T @ dz
        dgain = (layer.v * dw).sum(axis=0) / norms
        dv = dw * (layer.gain / norms) - layer.v * (layer.gain * dgain / norms**2)
        return dz @ w_eff.T, dv, dgain, dz.sum(axis=0)

    g = np.asarray(group_ids, dtype=np.int64)
    y2 = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    caches = []
    h = np.asarray(x, dtype=np.float64)
    for layer in weights.extractor:
        x_in = h
        out = act[layer.activation](x_in @ weight_norm(layer)[1] + layer.bias)
        assert np.all(np.isfinite(out))
        mask = None
        if config.dropout_rate > 0.0:
            keep = rng.random(out.shape) >= config.dropout_rate
            mask = keep.astype(np.float64) / (1.0 - config.dropout_rate)
            h = out * mask
        else:
            h = out
        caches.append((x_in, out, mask))
    concat = np.concatenate([h, weights.embeddings[g]], axis=1)
    z = (concat @ weight_norm(weights.head)[1] + weights.head.bias)[:, 0]
    pred = (expit(z) if kind == "classification" else z).reshape(-1, 1)
    n = pred.size
    if kind == "classification":
        p = np.clip(pred, 1e-12, 1.0 - 1e-12)
        loss = float(np.mean(-(y2 * np.log(p) + (1.0 - y2) * np.log1p(-p))))
        dz = (pred - y2) / n
    else:
        loss = float(np.mean((pred - y2) ** 2))
        dz = 2.0 * (pred - y2) / n * np.ones_like(pred)
    active = np.unique(g)
    loss += reg_value([layer.v for layer in weights.extractor] + [weights.head.v])
    loss += reg_value([weights.embeddings[active]])

    grads = BaseLearnerWeights(np.zeros_like(weights.values), weights.layout, weights.activations)
    dconcat, grads.head.v[...], grads.head.gain[...], grads.head.bias[...] = backward(
        weights.head, concat, dz
    )
    grads.head.v[...] += reg_grad(weights.head.v)
    hidden_dim = weights.extractor[-1].n_out
    np.add.at(grads.embeddings, g, dconcat[:, hidden_dim:])
    grads.embeddings[active] += reg_grad(weights.embeddings[active])
    grad_out = dconcat[:, :hidden_dim]
    for i in range(len(weights.extractor) - 1, -1, -1):
        layer, grad_layer = weights.extractor[i], grads.extractor[i]
        x_in, out, mask = caches[i]
        if mask is not None:
            grad_out = grad_out * mask
        dz_i = grad_out * act_grad[layer.activation](out)
        grad_out, grad_layer.v[...], grad_layer.gain[...], grad_layer.bias[...] = backward(
            layer, x_in, dz_i
        )
        grad_layer.v[...] += reg_grad(layer.v)
    return loss, grads


def fresh_optimizer(kind: str, learning_rate: float, size: int) -> OptimizerState:
    """An optimizer over buffers of its own for ``size`` parameters, Adam's
    moments zeroed, as a step workspace hands one out."""
    scratch = np.empty((2 if kind == "adam" else 1, size))
    moments = (np.zeros(size), np.zeros(size)) if kind == "adam" else (None, None)
    return OptimizerState(kind, learning_rate, scratch, *moments)
