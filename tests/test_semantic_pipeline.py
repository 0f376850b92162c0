"""Tests for the Semantic Concentrator and the full Focus plugin."""

import numpy as np
import pytest

from repro.config import FocusConfig
from repro.core.pipeline import GATHER_SITES, FocusPlugin
from repro.core.semantic import SemanticConcentrator
from repro.eval.metrics import computation_sparsity


def _uniform_probs(heads, s):
    return np.full((heads, s, s), 1.0 / s, dtype=np.float32)


class TestSemanticConcentrator:
    def _sec(self, num_layers=4):
        config = FocusConfig(retention_schedule={1: 0.5, 3: 0.25},
                             schedule_depth=4)
        return SemanticConcentrator(config, num_layers)

    def test_target_tokens(self):
        sec = self._sec()
        assert sec.target_tokens(1, 100) == 50
        assert sec.target_tokens(3, 100) == 25
        assert sec.target_tokens(0, 100) is None

    def test_prune_selects_most_attended(self):
        sec = self._sec()
        s, text = 10, 2
        probs = _uniform_probs(1, s)
        is_text = np.zeros(s, dtype=bool)
        is_text[-text:] = True
        # Text row 8 attends strongly to image tokens 1 and 5.
        probs[0, 8, 1] = 0.9
        probs[0, 8, 5] = 0.8
        linear = np.arange(s)
        decision = sec.prune(3, probs, is_text, 8, linear)
        assert decision is not None
        kept_images = np.nonzero(decision.keep[:8])[0]
        assert set(kept_images) == {1, 5}
        assert decision.keep[8:].all()

    def test_no_prune_when_budget_met(self):
        sec = self._sec()
        s = 6
        probs = _uniform_probs(1, s)
        is_text = np.zeros(s, dtype=bool)
        is_text[-2:] = True
        # Only 4 image tokens remain but the original count was 20:
        # budget at layer 3 is 5 >= 4 -> no pruning.
        assert sec.prune(3, probs, is_text, 20, np.arange(s)) is None

    def test_no_prune_off_schedule(self):
        sec = self._sec()
        s = 8
        probs = _uniform_probs(1, s)
        is_text = np.zeros(s, dtype=bool)
        is_text[-1:] = True
        assert sec.prune(2, probs, is_text, 7, np.arange(s)) is None

    def test_event_and_metadata(self):
        sec = self._sec()
        s = 12
        probs = _uniform_probs(2, s)
        is_text = np.zeros(s, dtype=bool)
        is_text[-2:] = True
        decision = sec.prune(1, probs, is_text, 10, np.arange(s))
        assert decision is not None
        assert decision.event.candidates == 10
        assert decision.event.selected == 5
        assert decision.metadata_bits > 0
        assert sec.sorter_cycles_for(decision.event) > 0


class TestFocusPlugin:
    def test_end_to_end_sparsity(self, tiny_model, tiny_sample,
                                 tiny_focus_config):
        plugin = FocusPlugin(tiny_model, tiny_focus_config)
        result = tiny_model.forward(tiny_sample, plugin)
        sparsity = computation_sparsity(result.trace, tiny_model.config,
                                        tiny_sample)
        assert 0.1 < sparsity < 0.95

    def test_sec_only_prunes_tokens(self, tiny_model, tiny_sample,
                                    tiny_focus_config):
        plugin = FocusPlugin(tiny_model, tiny_focus_config,
                             enable_sic=False)
        result = tiny_model.forward(tiny_sample, plugin)
        assert result.final_tokens < (tiny_sample.num_visual_tokens
                                      + tiny_sample.num_text_tokens)
        assert result.trace.sec_events
        assert all(g.input_unique is None for g in result.trace.gemms)

    def test_sic_only_keeps_tokens(self, tiny_model, tiny_sample,
                                   tiny_focus_config):
        plugin = FocusPlugin(tiny_model, tiny_focus_config,
                             enable_sec=False)
        result = tiny_model.forward(tiny_sample, plugin)
        assert result.final_tokens == (tiny_sample.num_visual_tokens
                                       + tiny_sample.num_text_tokens)
        assert not result.trace.sec_events
        gathered = [g for g in result.trace.gemms
                    if g.input_unique is not None]
        assert gathered

    def test_gather_sites(self, tiny_model, tiny_sample, tiny_focus_config):
        plugin = FocusPlugin(tiny_model, tiny_focus_config)
        result = tiny_model.forward(tiny_sample, plugin)
        gathered_names = {g.name for g in result.trace.gemms
                          if g.input_unique is not None}
        assert gathered_names == set(GATHER_SITES)

    def test_combined_sparser_than_parts(self, tiny_model, tiny_samples,
                                         tiny_focus_config):
        def mean_sparsity(**kwargs):
            values = []
            for sample in tiny_samples:
                plugin = FocusPlugin(tiny_model, tiny_focus_config, **kwargs)
                result = tiny_model.forward(sample, plugin)
                values.append(computation_sparsity(
                    result.trace, tiny_model.config, sample
                ))
            return float(np.mean(values))

        sec_only = mean_sparsity(enable_sic=False)
        sic_only = mean_sparsity(enable_sec=False)
        both = mean_sparsity()
        assert both > sec_only
        assert both > sic_only

    def test_token_wise_coarser_than_vector_wise(self, tiny_model,
                                                 tiny_samples,
                                                 tiny_focus_config):
        vector, token = [], []
        for sample in tiny_samples:
            r_vec = tiny_model.forward(
                sample, FocusPlugin(tiny_model, tiny_focus_config)
            )
            r_tok = tiny_model.forward(
                sample,
                FocusPlugin(tiny_model, tiny_focus_config, token_wise=True),
            )
            vector.append(computation_sparsity(
                r_vec.trace, tiny_model.config, sample))
            token.append(computation_sparsity(
                r_tok.trace, tiny_model.config, sample))
        assert np.mean(vector) >= np.mean(token)

    def test_accuracy_preserved(self, tiny_model, tiny_samples,
                                tiny_focus_config):
        # On this deliberately harsh 3-layer model the scaled schedule
        # prunes to 40% at layer 0; tolerate a larger drop than the
        # production 12-layer models show (Table II: ~1-2%).
        dense = [tiny_model.forward(s).correct for s in tiny_samples]
        focus = [
            tiny_model.forward(
                s, FocusPlugin(tiny_model, tiny_focus_config)
            ).correct
            for s in tiny_samples
        ]
        assert sum(focus) >= sum(dense) - 2

    def test_metadata_recorded(self, tiny_model, tiny_sample,
                               tiny_focus_config):
        plugin = FocusPlugin(tiny_model, tiny_focus_config)
        result = tiny_model.forward(tiny_sample, plugin)
        assert result.trace.metadata_bits > 0
        assert result.trace.sic_comparisons > 0
        assert result.trace.tile_lengths

    def test_constructor_accepts_int_config_model(self, tiny_model,
                                                  tiny_model_config):
        for arg in (tiny_model, tiny_model_config,
                    tiny_model_config.num_layers):
            plugin = FocusPlugin(arg, FocusConfig())
            assert plugin.sec.num_layers == tiny_model_config.num_layers

    def test_plans_shared_only_between_equal_layouts(
        self, tiny_model, tiny_samples, tiny_focus_config, monkeypatch
    ):
        """One plugin over many samples: a tile plan built for one
        sample serves another with the same layout, and is never served
        to a different layout (even one at the same token-set version)."""
        from repro.core.gather import SimilarityGather

        served = []
        build = SimilarityGather._tile_plan

        def checked(self, positions, is_text, grid, tile, tokens):
            plan = build(self, positions, is_text, grid, tile, tokens)
            fresh = self._lane_table(positions[0], is_text[0], grid, tile)
            np.testing.assert_array_equal(plan.table[0], fresh)
            served.append((tokens[0], tile, id(plan)))
            return plan

        monkeypatch.setattr(SimilarityGather, "_tile_plan", checked)
        plugin = FocusPlugin(tiny_model, tiny_focus_config)
        traces = []
        layouts = []
        for sample in tiny_samples[:2]:
            start = len(served)
            traces.append(tiny_model.forward(sample, plugin).trace)
            layouts.append({(t, tile) for t, tile, _ in served[start:]})
        shared = layouts[0] & layouts[1]
        assert shared, "equal initial layouts must share plans"
        assert layouts[1] - layouts[0], "pruned layouts must differ"
        plans = {}
        for token, tile, plan_id in served:
            assert plans.setdefault((token, tile), plan_id) == plan_id
        # Shared plans change nothing: each sample's trace equals the
        # one a fresh plugin produces for it alone.
        for sample, trace in zip(tiny_samples[:2], traces):
            fresh = FocusPlugin(tiny_model, tiny_focus_config)
            assert tiny_model.forward(sample, fresh).trace == trace
