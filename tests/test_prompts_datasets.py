"""Tests for repro.workloads.prompts and repro.workloads.datasets."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.runner import evaluate_span
from repro.model.embedding import QUESTION_SLOTS, Codebooks
from repro.workloads import datasets
from repro.workloads.datasets import (
    ALL_PROFILES,
    IMAGE_PROFILES,
    SAMPLE_CACHE_MAX_ENTRIES,
    VIDEO_PROFILES,
    clear_sample_memo,
    get_profile,
    make_dataset,
    make_dataset_span,
    make_sample,
)
from repro.workloads.scenarios import SCENARIO_FAMILIES, parse_scenario
from repro.workloads.prompts import encode_text, question_for, random_question
from repro.workloads.scene import random_scene


class TestQuestions:
    def test_question_for_color(self):
        scene = random_scene(2, 5, 5, 2, seed=1)
        obj = scene.objects[0]
        q = question_for(obj, "color")
        assert q.answer_index == obj.color_index
        assert obj.kind in q.text

    def test_question_for_motion(self):
        scene = random_scene(2, 5, 5, 2, seed=1)
        obj = scene.objects[1]
        q = question_for(obj, "motion")
        assert q.answer_index == obj.motion_index

    def test_unknown_slot(self):
        scene = random_scene(2, 5, 5, 1, seed=1)
        with pytest.raises(ValueError):
            question_for(scene.objects[0], "size")

    def test_random_question_references_scene_object(self):
        scene = random_scene(2, 5, 5, 3, seed=2)
        q = random_question(scene, seed=2)
        assert q.kind_index in {o.kind_index for o in scene.objects}
        assert q.slot in QUESTION_SLOTS


class TestEncodeText:
    def test_shape(self, tiny_codebooks, tiny_layout):
        scene = random_scene(2, 5, 5, 2, seed=3)
        q = random_question(scene, seed=3)
        tokens = encode_text(q, tiny_codebooks, 6, seed=3)
        assert tokens.shape == (6, tiny_layout.hidden)

    def test_query_token_is_last_and_carries_probe(self, tiny_codebooks,
                                                   tiny_layout):
        scene = random_scene(2, 5, 5, 2, seed=4)
        q = random_question(scene, seed=4)
        tokens = encode_text(q, tiny_codebooks, 5, seed=4)
        probe = tiny_codebooks.kind_probe_codes[q.kind_index]
        query_obj = tokens[-1][tiny_layout.object_slice]
        sim = query_obj @ probe / np.linalg.norm(query_obj)
        assert sim > 0.9

    def test_needs_one_token(self, tiny_codebooks):
        scene = random_scene(2, 5, 5, 1, seed=5)
        q = random_question(scene, seed=5)
        with pytest.raises(ValueError):
            encode_text(q, tiny_codebooks, 0, seed=5)


class TestDatasets:
    def test_profiles_cover_paper_benchmarks(self):
        assert set(VIDEO_PROFILES) == {"videomme", "mlvu", "mvbench"}
        assert set(IMAGE_PROFILES) == {"vqav2", "mme", "mmbench"}

    def test_image_profiles_single_frame(self):
        for profile in IMAGE_PROFILES.values():
            assert profile.num_frames == 1
            assert not profile.is_video

    def test_get_profile_unknown(self):
        with pytest.raises(KeyError):
            get_profile("imagenet")

    def test_make_dataset_deterministic(self, tiny_layout):
        a = make_dataset("videomme", tiny_layout, 2, seed=0)
        clear_sample_memo()
        b = make_dataset("videomme", tiny_layout, 2, seed=0)
        assert a[0] is not b[0]
        np.testing.assert_array_equal(a[0].visual_tokens, b[0].visual_tokens)
        assert a[0].question == b[0].question

    def test_samples_differ_across_index(self, tiny_layout):
        samples = make_dataset("videomme", tiny_layout, 2, seed=0)
        assert not np.array_equal(samples[0].visual_tokens,
                                  samples[1].visual_tokens)

    def test_sample_consistency(self, tiny_sample):
        assert tiny_sample.visual_tokens.shape[0] == (
            tiny_sample.scene.num_visual_tokens
        )
        assert tiny_sample.positions.shape == (
            tiny_sample.num_visual_tokens, 3
        )
        grid = tiny_sample.grid
        assert grid == (tiny_sample.scene.num_frames,
                        tiny_sample.scene.grid_height,
                        tiny_sample.scene.grid_width)

    def test_answer_in_vocab(self, tiny_samples):
        for sample in tiny_samples:
            names = sample.codebooks.slot_names(sample.question.slot)
            assert 0 <= sample.question.answer_index < len(names)


def fresh_sample(name, layout, seed, index):
    """Generate one sample without going through the memo."""
    codebooks = Codebooks(layout, seed=0)
    if name in ALL_PROFILES:
        return make_sample(get_profile(name), codebooks, seed, index)
    spec = parse_scenario(name)
    return SCENARIO_FAMILIES[spec.family].generate(spec, codebooks, seed,
                                                   index)


def assert_same_sample(a, b):
    assert a.visual_tokens.tobytes() == b.visual_tokens.tobytes()
    assert a.text_tokens.tobytes() == b.text_tokens.tobytes()
    assert a.positions.tobytes() == b.positions.tobytes()
    assert a.scene == b.scene
    assert a.question == b.question


class TestSampleMemo:
    @settings(max_examples=18, deadline=None)
    @given(
        name=st.sampled_from(
            ["videomme", "vqav2", "mtconv:turns=2,history=3",
             "mtconv:profile=vqav2,turns=3", "stream:frames=4,churn=0.5",
             "tenantmix:tenants=3,burst=2"]
        ),
        seed=st.integers(0, 3),
        cuts=st.lists(st.integers(1, 5), max_size=3),
    )
    def test_memoized_samples_match_fresh_generation(
        self, tiny_layout, name, seed, cuts
    ):
        clear_sample_memo()
        bounds = [0, *sorted(set(cuts)), 6]
        spans = [
            make_dataset_span(name, tiny_layout, start, stop, seed=seed)
            for start, stop in zip(bounds, bounds[1:])
        ]
        partitioned = [sample for span in spans for sample in span]
        whole = make_dataset_span(name, tiny_layout, 0, 6, seed=seed)
        assert len(partitioned) == len(whole) == 6
        for index, (part, full) in enumerate(zip(partitioned, whole)):
            fresh = fresh_sample(name, tiny_layout, seed, index)
            assert_same_sample(part, fresh)
            assert_same_sample(full, fresh)

    def test_spelling_variants_share_entries(self, tiny_layout):
        a, = make_dataset_span("mtconv:turns=2,history=3", tiny_layout,
                               0, 1, seed=41)
        b, = make_dataset_span("mtconv:history=3,turns=2,seed=0",
                               tiny_layout, 0, 1, seed=41)
        assert a is b

    def test_returned_arrays_are_read_only(self, tiny_layout):
        sample, = make_dataset_span("videomme", tiny_layout, 0, 1, seed=42)
        for array in (sample.visual_tokens, sample.text_tokens,
                      sample.positions):
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(ValueError):
            sample.visual_tokens += 1.0

    def test_memo_never_exceeds_its_bound(self, tiny_layout):
        total = 2 * SAMPLE_CACHE_MAX_ENTRIES + 3
        samples = make_dataset_span("vqav2", tiny_layout, 0, total, seed=43)
        assert len(samples) == total
        assert len(datasets._samples) <= SAMPLE_CACHE_MAX_ENTRIES
        for index in range(0, total, 5):
            make_dataset_span("mme", tiny_layout, index, index + 5, seed=43)
            assert len(datasets._samples) <= SAMPLE_CACHE_MAX_ENTRIES
        # An evicted sample is rendered again, bit-identically.
        again, = make_dataset_span("vqav2", tiny_layout, 0, 1, seed=43)
        assert again is not samples[0]
        assert_same_sample(again, samples[0])

    def test_concurrent_threads_get_identical_samples(self, tiny_layout,
                                                      monkeypatch):
        calls = []
        real = datasets.make_sample

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(datasets, "make_sample", counting)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(slot):
            barrier.wait()
            results[slot] = make_dataset_span("mvbench", tiny_layout, 0, 3,
                                              seed=44)

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(calls) == [0, 1, 2]
        for result in results[1:]:
            assert [id(s) for s in result] == [id(s) for s in results[0]]

    def test_methods_of_one_cell_render_the_sample_once(self, monkeypatch):
        calls = []
        real = datasets.make_sample

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(datasets, "make_sample", counting)
        for method in ("dense", "cmc", "focus"):
            evaluate_span("minicpm", "vqav2", method, (0, 1), seed=45)
        assert calls == [0]
