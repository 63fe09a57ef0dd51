"""The README's configuration reference lists every settable run-config
key, its example manifest loads, and its library section names only
modules and functions that exist and writes each call with the parameters
it takes."""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import metatreat
from metatreat.base_learner import BaseLearnerConfig
from metatreat.data_model import Manifest, PreprocessConfig, strict_dataclass
from metatreat.eval_harness import BaselineConfig, CvConfig
from metatreat.meta_learner import MetaConfig
from metatreat.task_selection import SelectionConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def package_modules() -> list:
    return [
        importlib.import_module(f"metatreat.{m.name}")
        for m in pkgutil.iter_modules(metatreat.__path__)
    ]


@pytest.mark.parametrize(
    "klass",
    [PreprocessConfig, SelectionConfig, BaseLearnerConfig, MetaConfig, BaselineConfig, CvConfig],
)
def test_every_config_field_is_documented(klass):
    reference = readme_section("Configuration reference")
    missing = [f.name for f in dataclasses.fields(klass) if f"`{f.name}`" not in reference]
    assert missing == [], f"{klass.__name__} fields missing from the README: {missing}"


def test_data_format_example_manifest_loads():
    [block] = re.findall(r"```json\n(.*?)```", readme_section("Data format"), flags=re.S)
    manifest = strict_dataclass(Manifest, json.loads(block))
    assert manifest.group_column == "group"
    assert manifest.differential_pairs == (("score_post", "score_pre"),)


def test_library_section_names_resolve_inside_the_package():
    # inline code spans that are bare Python names, outside the code block;
    # "Lower-level pieces" is the section's closing paragraph
    prose = re.sub(r"```.*?```", "", readme_section("Library use"), flags=re.S)
    names = set(re.findall(r"`([A-Za-z_]\w*)`", prose))
    modules = package_modules()
    module_names = {m.__name__.rpartition(".")[2] for m in modules}
    missing = sorted(
        name for name in names
        if name not in module_names and not any(hasattr(m, name) for m in modules)
    )
    assert len(names) > 10
    assert missing == []


def _resolve(dotted: str):
    """A bare name, ``module.attr`` or ``Class.attr``, looked up in the
    package's modules."""
    head, *rest = dotted.split(".")
    modules = package_modules()
    owner = next((m for m in modules if m.__name__ == f"metatreat.{head}"), None)
    if owner is None:
        owner = next(getattr(m, head) for m in modules if hasattr(m, head))
    for attr in rest:
        owner = getattr(owner, attr)
    return owner


def test_library_section_calls_list_their_parameters_in_order():
    # every inline call span, such as `fine_tune(networks, kind, ...)`,
    # names the parameters of the function or class it calls
    prose = re.sub(r"```.*?```", "", readme_section("Library use"), flags=re.S)
    calls = re.findall(r"`([A-Za-z_][\w.]*)\(([^`]*)\)`", prose)
    stale = {}
    for name, args in calls:
        params = inspect.signature(_resolve(name)).parameters.values()
        expected = [
            {p.VAR_POSITIONAL: "*", p.VAR_KEYWORD: "**"}.get(p.kind, "") + p.name
            for p in params
        ]
        written = [arg.strip() for arg in args.split(",")]
        if written != expected:
            stale[name] = (written, expected)
    assert len(calls) == 12
    assert stale == {}
