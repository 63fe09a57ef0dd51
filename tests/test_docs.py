"""The README's configuration reference lists every settable run-config key."""

import dataclasses
from pathlib import Path

import pytest

from metatreat.base_learner import BaseLearnerConfig
from metatreat.data_model import PreprocessConfig
from metatreat.eval_harness import BaselineConfig, CvConfig
from metatreat.meta_learner import MetaConfig
from metatreat.task_selection import SelectionConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def config_reference() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration reference\n", 1)[1]
    return section.split("\n## ", 1)[0]


@pytest.mark.parametrize(
    "klass",
    [PreprocessConfig, SelectionConfig, BaseLearnerConfig, MetaConfig, BaselineConfig, CvConfig],
)
def test_every_config_field_is_documented(klass):
    reference = config_reference()
    missing = [f.name for f in dataclasses.fields(klass) if f"`{f.name}`" not in reference]
    assert missing == [], f"{klass.__name__} fields missing from the README: {missing}"
