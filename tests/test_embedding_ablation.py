"""The paper's mechanism: the model "learns the latent treatment effects of
each intervention", here the held-out group's embedding row. Training on
the other groups' rows gives that row a zero gradient; only the fine-tune
half of each meta-iteration, on the held-out group's rows of a training
task (a post-treatment feature, never a target), moves it, and the
interpolation carries the move into the shared weights.

After ``meta_train`` the row is reset to its initial (θ₀) value, and the
target is fine-tuned and predicted as ``run_cv`` does it: stacked behind
θ₀, each network on its own stream. Each 3x60 study shifts its groups by
(-d, 0, d). Measured with the default pipeline on seeds 1-3, the ablated /
trained held-out MSE was 0.93-1.01 at d = 0; at d = 2 it was 4.5-7.2 for
the two outer groups and 1.00-1.01 for the middle one. The bounds keep a
margin over that spread.

Beyond three groups, at 10 groups with shifts evenly spaced over [-2, 2],
what meta-training adds to the embedding table is close to rank one, and
its leading coordinate orders the groups by their shift. Measured with the
default pipeline on seeds 1-3, the leading singular value carried at least
0.99989 of the squared sum in every fold, and the Spearman correlation with
the shifts was 1.000 in absolute value.
"""

import numpy as np
import pytest

from metatreat.base_learner import BaseLearnerWeights
from metatreat.data_model import task_dataset
from metatreat.eval_harness import (
    CvConfig,
    PipelineConfig,
    _fold_payloads,
    _fold_setup,
    mse,
    run_cv,
)
from metatreat.meta_learner import fine_tune, meta_train
from metatreat.rng import child_rng
from metatreat.synth_gen import GeneratorConfig, generate

NO_SHIFT = (0.9, 1.1)  # ablated / trained MSE of every group at d = 0
OUTER_AT_2 = 3.0  # the outer groups' least ratio at d = 2
MIDDLE_AT_2 = (0.95, 1.05)
RANK_ONE_SHARE = 0.99  # the leading singular value's least share of the squared sum
SHIFT_ORDER = 0.9  # least |Spearman rho| of the leading coordinate with the shifts


def _held_out_mse(setup, weights, config, cv) -> float:
    """The meta row's held-out MSE, as ``run_cv``'s fold computes it."""
    column = setup.targets[0]
    y, observed = setup.test_table.column_values(column)
    scored = np.flatnonzero(observed)
    _, task = task_dataset(setup.train_table, setup.sides[0][0], column, config.task_kind)
    rngs = [
        child_rng(cv.seed, "fold", setup.fold_index, name, column)
        for name in ("base_initial", "meta")
    ]
    [preds] = fine_tune(
        [setup.theta0, weights], config.task_kind, task, [setup.sides[1][:2]], config.base, rngs
    )
    return mse(preds[1][scored], y[scored])


def _meta_trained(table, manifest, config, cv) -> tuple[list, list]:
    """Each fold's setup and learned initialization, as ``run_cv`` meta-trains
    them."""
    setups = [_fold_setup(*payload) for payload in _fold_payloads(table, manifest, config, cv)]
    thetas = meta_train(
        [s.sides for s in setups], config.base, config.meta,
        [child_rng(cv.seed, "fold", s.fold_index, "meta") for s in setups],
        [s.theta0 for s in setups],
    )
    return setups, thetas


def _ablation_ratios(seed: int, d: float) -> dict[str, float]:
    table, manifest, _ = generate(GeneratorConfig(delta=(-d, 0.0, d), seed=seed))
    config, cv = PipelineConfig(), CvConfig(seed=0)
    report = run_cv(table, manifest, config, cv)
    setups, thetas = _meta_trained(table, manifest, config, cv)
    ratios = {}
    for setup, theta in zip(setups, thetas):
        held_out = table.resolve_group(setup.group_name)
        ablated = BaseLearnerWeights(theta.values.copy(), theta.layout, theta.activations)
        ablated.embeddings[0, held_out] = setup.theta0.embeddings[0, held_out]
        trained = _held_out_mse(setup, theta, config, cv)
        [reported] = [
            r.value for r in report.rows
            if (r.group, r.task, r.model) == (setup.group_name, setup.targets[0], "meta")
        ]
        assert trained == reported
        ratios[setup.group_name] = _held_out_mse(setup, ablated, config, cv) / trained
    return ratios


@pytest.mark.parametrize("seed", [1, 2])
def test_held_out_embedding_carries_the_treatment_effect(seed):
    lo, hi = NO_SHIFT
    for group, ratio in _ablation_ratios(seed, 0.0).items():
        assert lo <= ratio <= hi, (group, ratio)
    ratios = _ablation_ratios(seed, 2.0)
    assert min(ratios["g0"], ratios["g2"]) >= OUTER_AT_2, ratios
    lo, hi = MIDDLE_AT_2
    assert lo <= ratios["g1"] <= hi, ratios


def _ranks(values: np.ndarray) -> np.ndarray:
    return np.argsort(np.argsort(values)).astype(np.float64)


@pytest.mark.parametrize("seed", [1, 2])
def test_ten_groups_learned_embeddings_order_the_treatment_effects(seed):
    delta = np.linspace(-2.0, 2.0, 10)
    table, manifest, _ = generate(GeneratorConfig(n_groups=10, delta=tuple(delta), seed=seed))
    setups, thetas = _meta_trained(table, manifest, PipelineConfig(), CvConfig(seed=0))
    assert len(setups) == 10
    for setup, theta in zip(setups, thetas):
        # group i's row is shifted by delta[i]; every row moved, the
        # held-out group's by its fine-tune steps
        moved = theta.embeddings[0] - setup.theta0.embeddings[0]
        u, sv, _ = np.linalg.svd(moved, full_matrices=False)
        share = sv[0] ** 2 / np.sum(sv**2)
        assert share >= RANK_ONE_SHARE, (setup.group_name, share)
        rho = np.corrcoef(_ranks(u[:, 0] * sv[0]), _ranks(delta))[0, 1]
        assert abs(rho) >= SHIFT_ORDER, (setup.group_name, rho)
