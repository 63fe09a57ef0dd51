"""metatreat: zero-shot prediction of treatment outcomes for held-out
groups in small grouped tabular studies, via first-order meta-learning
over auxiliary post-treatment tasks."""

__version__ = "0.1.0"

from .base_learner import (
    BaseLearnerConfig,
    BaseLearnerWeights,
    StepWorkspace,
    forward,
    init_weights,
    inner_update,
)
from .data_model import (
    ColumnMeta,
    DatasetTable,
    Manifest,
    PreprocessConfig,
    PreprocessPlan,
    fit_preprocess,
    group_holdout_split,
    load_csv,
    load_manifest,
)
from .eval_harness import (
    BaselineConfig,
    CvConfig,
    MetricReport,
    PipelineConfig,
    SearchSpace,
    auc,
    baseline_predict,
    grid_search,
    mse,
    overfit_gap,
    run_cv,
)
from .meta_learner import MetaConfig, epsilon_schedule, meta_train
from .synth_gen import GeneratorConfig, bayes_optimal_mse, generate
from .task_selection import SelectionConfig, select_training_tasks

__all__ = [
    "__version__",
    "BaseLearnerConfig",
    "BaseLearnerWeights",
    "BaselineConfig",
    "ColumnMeta",
    "CvConfig",
    "DatasetTable",
    "GeneratorConfig",
    "Manifest",
    "MetaConfig",
    "MetricReport",
    "PipelineConfig",
    "PreprocessConfig",
    "PreprocessPlan",
    "SearchSpace",
    "SelectionConfig",
    "StepWorkspace",
    "auc",
    "baseline_predict",
    "bayes_optimal_mse",
    "epsilon_schedule",
    "fit_preprocess",
    "forward",
    "generate",
    "grid_search",
    "group_holdout_split",
    "init_weights",
    "inner_update",
    "load_csv",
    "load_manifest",
    "meta_train",
    "mse",
    "overfit_gap",
    "run_cv",
    "select_training_tasks",
]
