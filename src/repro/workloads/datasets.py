"""Dataset profiles mirroring the paper's evaluation benchmarks.

The paper evaluates on three video benchmarks (VideoMME, MLVU,
MVBench) and three image benchmarks (VQAv2, MME, MMBench).  Each is
substituted by a synthetic profile whose knobs reproduce the property
that distinguishes it in the paper:

* ``videomme`` — general video understanding: medium length, several
  objects, moderate motion.
* ``mlvu`` — long-video understanding: more frames, slow scenes (high
  temporal redundancy; this is the dataset Fig. 2(b)'s similarity CDF
  is measured on).
* ``mvbench`` — temporal reasoning: fast motion (lowest inter-frame
  redundancy), motion questions more likely.
* ``vqav2`` / ``mme`` / ``mmbench`` — single-image QA at increasing
  visual clutter (Table V treats images as one-frame videos).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.model.embedding import Codebooks, SubspaceLayout
from repro.utils.rng import rng_for
from repro.workloads.prompts import Question, encode_text, random_question
from repro.workloads.scene import Scene, random_scene
from repro.workloads.video import RenderParams, render_video, token_positions


@dataclass(frozen=True)
class Sample:
    """One evaluation item: a rendered video plus an encoded question.

    Attributes:
        visual_tokens: ``(M, hidden)`` patch embeddings in FHW order.
        text_tokens: ``(T, hidden)`` question embeddings; the query
            token is last.
        positions: ``(M, 3)`` integer (frame, row, col) coordinates.
        scene: The underlying scene (ground truth).
        question: The question and its ground-truth answer.
    """

    visual_tokens: np.ndarray
    text_tokens: np.ndarray
    positions: np.ndarray
    scene: Scene
    question: Question
    codebooks: Codebooks

    @property
    def num_visual_tokens(self) -> int:
        return int(self.visual_tokens.shape[0])

    @property
    def num_text_tokens(self) -> int:
        return int(self.text_tokens.shape[0])

    @property
    def grid(self) -> tuple[int, int, int]:
        """(frames, height, width) of the visual token grid."""
        return (
            self.scene.num_frames,
            self.scene.grid_height,
            self.scene.grid_width,
        )


@dataclass(frozen=True)
class DatasetProfile:
    """Generation parameters for one synthetic benchmark."""

    name: str
    num_frames: int
    grid_height: int
    grid_width: int
    num_objects: int
    num_text_tokens: int
    motion_scale: float
    render: RenderParams = field(default_factory=RenderParams)
    is_video: bool = True

    @property
    def visual_tokens(self) -> int:
        return self.num_frames * self.grid_height * self.grid_width


VIDEO_PROFILES: dict[str, DatasetProfile] = {
    "videomme": DatasetProfile(
        name="videomme", num_frames=8, grid_height=7, grid_width=7,
        num_objects=4, num_text_tokens=12, motion_scale=0.5,
    ),
    "mlvu": DatasetProfile(
        name="mlvu", num_frames=12, grid_height=6, grid_width=6,
        num_objects=3, num_text_tokens=12, motion_scale=0.25,
        render=RenderParams(frame_noise=1.8, change_fraction=0.015),
    ),
    "mvbench": DatasetProfile(
        name="mvbench", num_frames=8, grid_height=7, grid_width=7,
        num_objects=3, num_text_tokens=10, motion_scale=0.9,
        render=RenderParams(frame_noise=2.2, change_fraction=0.035),
    ),
}

IMAGE_PROFILES: dict[str, DatasetProfile] = {
    "vqav2": DatasetProfile(
        name="vqav2", num_frames=1, grid_height=12, grid_width=12,
        num_objects=3, num_text_tokens=10, motion_scale=0.0, is_video=False,
        render=RenderParams(texture_smoothness=2.0),
    ),
    "mme": DatasetProfile(
        name="mme", num_frames=1, grid_height=12, grid_width=12,
        num_objects=4, num_text_tokens=12, motion_scale=0.0, is_video=False,
        render=RenderParams(texture_smoothness=1.5),
    ),
    "mmbench": DatasetProfile(
        name="mmbench", num_frames=1, grid_height=14, grid_width=14,
        num_objects=5, num_text_tokens=12, motion_scale=0.0, is_video=False,
        render=RenderParams(texture_smoothness=1.2),
    ),
}

ALL_PROFILES: dict[str, DatasetProfile] = {**VIDEO_PROFILES, **IMAGE_PROFILES}


def get_profile(name: str) -> DatasetProfile:
    """Look up a profile by benchmark name."""
    try:
        return ALL_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(ALL_PROFILES)}"
        ) from None


def make_sample(
    profile: DatasetProfile,
    codebooks: Codebooks,
    seed: int,
    sample_index: int,
    stream_label: str | None = None,
) -> Sample:
    """Generate one sample of a dataset profile.

    ``stream_label`` overrides the rng stream label (default: the
    profile name).  Scenario families pass their canonical name here
    so their samples draw from the scenario's own stream instead of
    colliding with the base dataset's.
    """
    label = profile.name if stream_label is None else stream_label
    stream = rng_for(seed, "dataset", label, sample_index)
    scene_seed = int(stream.integers(2**31))
    scene = random_scene(
        num_frames=profile.num_frames,
        grid_height=profile.grid_height,
        grid_width=profile.grid_width,
        num_objects=profile.num_objects,
        seed=scene_seed,
        motion_scale=profile.motion_scale,
        sample_index=sample_index,
    )
    question = random_question(scene, scene_seed, sample_index)
    visual = render_video(scene, codebooks, profile.render, scene_seed,
                          sample_index)
    text = encode_text(question, codebooks, profile.num_text_tokens,
                       scene_seed, sample_index)
    return Sample(
        visual_tokens=visual,
        text_tokens=text,
        positions=token_positions(scene),
        scene=scene,
        question=question,
        codebooks=codebooks,
    )


SAMPLE_CACHE_MAX_ENTRIES = 16
"""LRU bound on memoized samples (per process).  One ``all --samples
1`` pass touches 13 distinct samples, so 16 keeps every one of them
resident while a long-lived serve process stays at a few MB; an
evicted sample re-rendered later is bit-identical — eviction only
costs time."""

_SampleKey = tuple[str, SubspaceLayout, int, int, int]
_samples: OrderedDict[_SampleKey, Sample] = OrderedDict()
_samples_lock = threading.Lock()


def clear_sample_memo() -> None:
    """Drop every memoized sample, as a freshly started process has none.

    The next :func:`make_dataset_span` call renders its samples anew;
    tests use this to compare a span against independent generation
    rather than against the objects an earlier call left in the memo.
    """
    with _samples_lock:
        _samples.clear()


def _freeze(sample: Sample) -> Sample:
    """Mark a sample's arrays read-only before it is shared."""
    for array in (sample.visual_tokens, sample.text_tokens,
                  sample.positions):
        array.flags.writeable = False
    return sample


def make_dataset_span(
    name: str,
    layout: SubspaceLayout,
    start: int,
    stop: int,
    seed: int = 0,
    vocab_seed: int = 0,
) -> list[Sample]:
    """Generate items ``start .. stop`` of the named benchmark.

    Generation is *prefix-stable*: sample ``i`` depends only on
    ``(seed, dataset, i)`` — every stream is drawn from
    :func:`repro.utils.rng.rng_for` keyed by the sample index, and the
    codebooks derive from ``(layout, vocab_seed)`` alone — so the same
    index yields a bit-identical sample no matter which span requests
    it or how many samples the full dataset has.  Per-sample evaluation
    shards rest on this: a span evaluated in isolation sees exactly the
    items the serial whole-cell loop would have fed it.

    The same property makes samples safe to share, so each one is
    rendered once per process: samples are memoized per
    ``(canonical name, layout, seed, vocab_seed, index)`` in an LRU of
    :data:`SAMPLE_CACHE_MAX_ENTRIES` entries, and only the missing
    indices of a span are generated.  Every method, INT8 arm and sweep
    point of a cell then evaluates the same objects; their arrays are
    read-only, so a consumer writing into one raises instead of
    corrupting the next evaluation.

    Args:
        name: One of the keys of :data:`ALL_PROFILES`, or a scenario
            spec (any spelling; see :mod:`repro.workloads.scenarios`).
        layout: Hidden-dimension layout of the consuming model (the
            same logical dataset is re-embedded per model, just as the
            real benchmarks are re-tokenized per VLM).
        start: First sample index (inclusive).
        stop: Last sample index (exclusive).
        seed: Experiment seed (varies scenes and questions).
        vocab_seed: Codebook seed; must match the model's
            ``vocab_seed`` (the shared "vocabulary").
    """
    if start < 0 or stop < start:
        raise ValueError(
            f"invalid sample span [{start}, {stop}): need 0 <= start <= stop"
        )
    # Lazy: scenarios import this module, so the dispatch can't be a
    # top-level import.  Scenario names carry a family prefix
    # ("mtconv:...") that no base profile uses.
    from repro.workloads.scenarios import (
        SCENARIO_FAMILIES,
        is_scenario_name,
        parse_scenario,
    )

    if is_scenario_name(name):
        spec = parse_scenario(name)
        family = SCENARIO_FAMILIES[spec.family]
        name = spec.name

        def generate(codebooks: Codebooks, index: int) -> Sample:
            return family.generate(spec, codebooks, seed, index)
    else:
        profile = get_profile(name)

        def generate(codebooks: Codebooks, index: int) -> Sample:
            return make_sample(profile, codebooks, seed, index)

    # Rendered under the lock, as ModelCache builds models: concurrent
    # runs asking for the same sample then render it once, not twice.
    samples = []
    codebooks = None
    with _samples_lock:
        for index in range(start, stop):
            key = (name, layout, seed, vocab_seed, index)
            sample = _samples.get(key)
            if sample is None:
                if codebooks is None:
                    codebooks = Codebooks(layout, seed=vocab_seed)
                sample = _samples[key] = _freeze(generate(codebooks, index))
                while len(_samples) > SAMPLE_CACHE_MAX_ENTRIES:
                    _samples.popitem(last=False)
            else:
                _samples.move_to_end(key)
            samples.append(sample)
    return samples


def make_dataset(
    name: str,
    layout: SubspaceLayout,
    num_samples: int,
    seed: int = 0,
    vocab_seed: int = 0,
) -> list[Sample]:
    """Generate ``num_samples`` items of the named benchmark.

    Equivalent to :func:`make_dataset_span` over ``[0, num_samples)``;
    see there for the prefix-stability guarantee and argument details.
    """
    return make_dataset_span(
        name, layout, 0, num_samples, seed=seed, vocab_seed=vocab_seed
    )
