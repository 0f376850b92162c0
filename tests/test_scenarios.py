"""Tests for the generative scenario families (:mod:`repro.workloads.
scenarios`).

Covers the spec grammar (canonicalization, digests, validation), the
prefix-stability contract of every family (hypothesis: span ``(0, n)``
is a byte-identical prefix of span ``(0, m)`` for random seeds and
params), and the engine-level consequence: growing ``--samples`` on a
warm cache re-executes only the suffix samples, zero prefix jobs —
mirroring ``test_eval_sharding.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ExperimentEngine, ResultCache
from repro.engine import registry
from repro.eval import reporting  # noqa: F401  (attaches formatters)
from repro.workloads import (
    Sample,
    is_scenario_name,
    make_dataset_span,
    parse_scenario,
    scenario_names,
)
from repro.workloads.datasets import clear_sample_memo

FAMILIES = ("mtconv", "stream", "tenantmix")


def assert_sample_prefix(shorter: list[Sample], longer: list[Sample]):
    """Every sample of ``shorter`` is byte-identical in ``longer``.

    The two lists must come from independent renders (clear the sample
    memo between them): comparing a memoized sample with itself would
    prove nothing.
    """
    assert len(shorter) <= len(longer)
    for i, (a, b) in enumerate(zip(shorter, longer)):
        assert a is not b, i
        assert a.visual_tokens.tobytes() == b.visual_tokens.tobytes(), i
        assert a.text_tokens.tobytes() == b.text_tokens.tobytes(), i
        assert a.positions.tobytes() == b.positions.tobytes(), i
        assert a.scene == b.scene, i
        assert a.question == b.question, i


class TestSpecGrammar:
    def test_families_registered(self):
        assert scenario_names() == sorted(FAMILIES)

    def test_canonical_name_fills_defaults_and_sorts(self):
        spec = parse_scenario("mtconv:turns=2,seed=3")
        assert spec.name == \
            "mtconv:seed=3,history=4,profile=videomme,turns=2"
        assert spec.family == "mtconv"
        assert spec.seed == 3
        assert spec.param_map["turns"] == 2

    def test_spellings_share_one_content_address(self):
        variants = [
            "mtconv:turns=2,seed=3",
            "mtconv:seed=3,turns=2",
            "mtconv: seed=3 , turns=2,",
            "mtconv:seed=3,turns=2,history=4,profile=videomme",
        ]
        specs = [parse_scenario(v) for v in variants]
        assert len({s.name for s in specs}) == 1
        assert len({s.digest for s in specs}) == 1
        # Round trip: the canonical name parses back to itself.
        assert parse_scenario(specs[0].name).name == specs[0].name

    def test_digest_is_hex_and_param_sensitive(self):
        a, b = parse_scenario("mtconv"), parse_scenario("mtconv:turns=9")
        assert a.digest != b.digest
        assert len(a.digest) == 16
        int(a.digest, 16)

    @pytest.mark.parametrize("bad", [
        "",
        "nope",
        "nope:seed=1",
        "mtconv:bogus=1",
        "mtconv:turns",
        "mtconv:turns=",
        "mtconv:turns=x",
        "mtconv:seed=x",
        "mtconv:turns=0",
        "mtconv:history=0",
        "mtconv:profile=unknown",
        "stream:churn=0",
        "stream:churn=1.5",
        "stream:churn=nan",
        "stream:frames=0",
        "tenantmix:tenants=0",
        "tenantmix:tenants=99",
        "tenantmix:burst=0",
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_scenario(bad)

    def test_is_scenario_name(self):
        assert is_scenario_name("mtconv")
        assert is_scenario_name("stream:churn=0.5")
        assert not is_scenario_name("videomme")
        assert not is_scenario_name(42)


SPEC_STRATEGY = st.one_of(
    st.builds(
        "mtconv:seed={},turns={},history={},profile={}".format,
        st.integers(0, 3), st.integers(1, 3), st.integers(1, 4),
        st.sampled_from(["vqav2", "videomme"]),
    ),
    st.builds(
        "stream:seed={},frames={},churn={}".format,
        st.integers(0, 3), st.integers(2, 8),
        st.sampled_from([0.1, 0.5, 1.0]),
    ),
    st.builds(
        "tenantmix:seed={},tenants={},burst={}".format,
        st.integers(0, 3), st.integers(1, 4), st.integers(1, 3),
    ),
)


class TestPrefixStability:
    @settings(max_examples=12, deadline=None)
    @given(
        spec=SPEC_STRATEGY,
        seed=st.integers(0, 2),
        n=st.integers(1, 4),
        extra=st.integers(1, 4),
    )
    def test_shorter_span_is_byte_identical_prefix(
        self, tiny_layout, spec, seed, n, extra
    ):
        short = make_dataset_span(spec, tiny_layout, 0, n, seed=seed)
        # A fresh memo stands in for another process (an eval shard or
        # pool worker) rendering the longer span on its own.
        clear_sample_memo()
        long = make_dataset_span(spec, tiny_layout, 0, n + extra,
                                 seed=seed)
        assert_sample_prefix(short, long)

    def test_mid_span_matches_full_generation(self, tiny_layout):
        for spec in ("mtconv:turns=2", "stream:frames=4", "tenantmix"):
            full = make_dataset_span(spec, tiny_layout, 0, 6)
            clear_sample_memo()
            mid = make_dataset_span(spec, tiny_layout, 2, 5)
            assert_sample_prefix(mid, full[2:5])

    def test_mtconv_kv_history_grows_within_a_conversation(
        self, tiny_layout
    ):
        turns = make_dataset_span("mtconv:turns=3,history=4",
                                  tiny_layout, 0, 3)
        lengths = [s.num_text_tokens for s in turns]
        assert lengths[0] < lengths[1] < lengths[2]
        # All turns share the conversation's video.
        assert turns[0].visual_tokens.tobytes() == \
            turns[2].visual_tokens.tobytes()

    def test_stream_churn_preserves_token_budget(self, tiny_layout):
        samples = make_dataset_span("stream:frames=6,churn=0.9",
                                    tiny_layout, 0, 3)
        for sample in samples:
            assert sample.num_visual_tokens == \
                6 * sample.scene.grid_height * sample.scene.grid_width
            assert sample.positions.shape == (sample.num_visual_tokens, 3)

    def test_tenantmix_mixes_shapes(self, tiny_layout):
        samples = make_dataset_span("tenantmix:tenants=4,burst=1",
                                    tiny_layout, 0, 10)
        assert len({s.visual_tokens.shape for s in samples}) > 1

    def test_experiment_seed_and_spec_seed_both_matter(self, tiny_layout):
        base, = make_dataset_span("mtconv", tiny_layout, 0, 1, seed=0)
        reseeded, = make_dataset_span("mtconv", tiny_layout, 0, 1, seed=1)
        respecced, = make_dataset_span("mtconv:seed=1", tiny_layout,
                                       0, 1, seed=0)
        assert base.visual_tokens.tobytes() != \
            reseeded.visual_tokens.tobytes()
        assert base.visual_tokens.tobytes() != \
            respecced.visual_tokens.tobytes()


@pytest.mark.slow
class TestEngineSuffixOnlyReruns:
    """Grown --samples over a warm cache re-executes zero prefix jobs."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_grown_samples_execute_only_the_suffix(self, family):
        cache = ResultCache()
        small = ExperimentEngine(cache=cache)
        try:
            registry.run_experiments(
                ["scenario"], small, scenario=family, num_samples=2,
                methods=("dense",),
            )
            assert small.stats.executed_by_kind["eval"] == 2
        finally:
            small.close()

        large = ExperimentEngine(cache=cache)
        try:
            results = registry.run_experiments(
                ["scenario"], large, scenario=family, num_samples=4,
                methods=("dense",),
            )
            # Zero prefix jobs re-run: only the 2 new suffix samples.
            assert large.stats.executed_by_kind["eval"] == 2
            assert cache.stats.hits_by_kind["eval"] == 2
        finally:
            large.close()
        report = registry.format_result("scenario", results["scenario"])
        assert family in report

    def test_spelling_variants_hit_the_same_cache(self):
        cache = ResultCache()
        first = ExperimentEngine(cache=cache)
        try:
            registry.run_experiments(
                ["scenario"], first, scenario="mtconv:turns=2,seed=1",
                num_samples=2, methods=("dense",),
            )
        finally:
            first.close()
        second = ExperimentEngine(cache=cache)
        try:
            registry.run_experiments(
                ["scenario"], second, scenario="mtconv:seed=1,turns=2",
                num_samples=2, methods=("dense",),
            )
            assert second.stats.executed == 0
        finally:
            second.close()

    def test_result_reports_digest_and_canonical_name(self):
        engine = ExperimentEngine()
        try:
            results = registry.run_experiments(
                ["scenario"], engine, scenario="tenantmix:burst=2",
                num_samples=2, methods=("dense",),
            )
        finally:
            engine.close()
        result = results["scenario"]
        spec = parse_scenario("tenantmix:burst=2")
        assert result.scenario == spec.name
        assert result.digest == spec.digest
        assert result.cells["dense"][0] >= 0.0
        assert np.isfinite(result.cells["dense"][2])
