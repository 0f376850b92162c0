"""Synthetic workloads standing in for the paper's video/image benchmarks."""

from repro.workloads.scene import Scene, SceneObject, random_scene, coverage_map
from repro.workloads.video import RenderParams, render_video, token_positions
from repro.workloads.prompts import Question, question_for, random_question, encode_text
from repro.workloads.datasets import (
    ALL_PROFILES,
    IMAGE_PROFILES,
    VIDEO_PROFILES,
    DatasetProfile,
    Sample,
    get_profile,
    make_dataset,
    make_dataset_span,
    make_sample,
)
from repro.workloads.scenarios import (  # noqa: E402  (needs datasets first)
    SCENARIO_FAMILIES,
    ScenarioSpec,
    canonical_scenario_name,
    is_scenario_name,
    parse_scenario,
    scenario_digest,
    scenario_names,
)

__all__ = [
    "Scene",
    "SceneObject",
    "random_scene",
    "coverage_map",
    "RenderParams",
    "render_video",
    "token_positions",
    "Question",
    "question_for",
    "random_question",
    "encode_text",
    "ALL_PROFILES",
    "IMAGE_PROFILES",
    "VIDEO_PROFILES",
    "DatasetProfile",
    "Sample",
    "get_profile",
    "make_dataset",
    "make_dataset_span",
    "make_sample",
    "SCENARIO_FAMILIES",
    "ScenarioSpec",
    "canonical_scenario_name",
    "is_scenario_name",
    "parse_scenario",
    "scenario_digest",
    "scenario_names",
]
