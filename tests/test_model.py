"""Tests for repro.model (spec, weights, forward engine)."""

import numpy as np
import pytest

from repro.model.plugins import InferencePlugin
from repro.model.spec import ModelConfig
from repro.model.vlm import SyntheticVLM
from repro.model.weights import build_all_weights, build_layer_weights
from repro.model.zoo import MODEL_CONFIGS, VIDEO_MODELS, get_model_config


class TestModelConfig:
    def test_head_dim(self, tiny_model_config):
        assert tiny_model_config.head_dim == 32

    def test_rejects_bad_hidden(self):
        with pytest.raises(ValueError):
            ModelConfig(name="bad", hidden=60)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            ModelConfig(name="bad", hidden=64, num_heads=3)

    def test_dense_macs_positive_and_monotone(self, tiny_model_config):
        small = tiny_model_config.dense_macs(10, 5)
        large = tiny_model_config.dense_macs(20, 5)
        assert 0 < small < large

    def test_dense_macs_formula(self):
        config = ModelConfig(name="t", hidden=64, num_layers=1, num_heads=2,
                             ffn_mult=3)
        s, d, f = 10, 64, 192
        expected = s*d*3*d + s*d*s + s*s*d + s*d*d + 2*s*d*f
        assert config.dense_macs(8, 2) == expected


class TestZoo:
    def test_video_models_registered(self):
        for name in VIDEO_MODELS:
            assert name in MODEL_CONFIGS

    def test_head_dim_is_vector_size(self):
        for config in MODEL_CONFIGS.values():
            assert config.head_dim == 32

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model_config("gpt-5")

    def test_models_have_distinct_seeds(self):
        seeds = [c.seed for c in MODEL_CONFIGS.values()]
        assert len(set(seeds)) == len(seeds)


class TestWeights:
    def test_shapes(self, tiny_model_config):
        w = build_layer_weights(tiny_model_config, 0)
        d = tiny_model_config.hidden
        assert w.wq.shape == (d, d)
        assert w.w_fc1.shape == (d, tiny_model_config.ffn_hidden)
        assert w.w_fc2.shape == (tiny_model_config.ffn_hidden, d)

    def test_deterministic(self, tiny_model_config):
        a = build_layer_weights(tiny_model_config, 1)
        b = build_layer_weights(tiny_model_config, 1)
        np.testing.assert_array_equal(a.wq, b.wq)

    def test_layers_differ(self, tiny_model_config):
        a = build_layer_weights(tiny_model_config, 0)
        b = build_layer_weights(tiny_model_config, 1)
        assert not np.array_equal(a.wq, b.wq)

    def test_wo_protects_object_channel(self, tiny_model_config):
        w = build_layer_weights(tiny_model_config, 0)
        layout = tiny_model_config.layout
        np.testing.assert_array_equal(
            w.wo[:, layout.object_slice], 0.0
        )

    def test_fc2_protects_circuit_channels(self, tiny_model_config):
        w = build_layer_weights(tiny_model_config, 0)
        layout = tiny_model_config.layout
        np.testing.assert_array_equal(w.w_fc2[:, layout.object_slice], 0.0)
        np.testing.assert_array_equal(w.w_fc2[:, layout.attribute_slice], 0.0)
        np.testing.assert_array_equal(w.w_fc2[:, layout.position_slice], 0.0)

    def test_out_gain_decays_with_depth(self, tiny_model_config):
        layout = tiny_model_config.layout
        attr = layout.attribute_slice
        w0 = build_layer_weights(tiny_model_config, 0)
        w2 = build_layer_weights(tiny_model_config, 2)
        gain0 = np.abs(np.diag(w0.wo[: attr.stop - attr.start, attr])).mean()
        gain2 = np.abs(np.diag(w2.wo[: attr.stop - attr.start, attr])).mean()
        assert gain2 < gain0

    def test_build_all(self, tiny_model_config):
        weights = build_all_weights(tiny_model_config)
        assert len(weights) == tiny_model_config.num_layers


class TestForward:
    def test_answers_are_valid_indices(self, tiny_model, tiny_samples):
        for sample in tiny_samples:
            result = tiny_model.forward(sample)
            names = sample.codebooks.slot_names(sample.question.slot)
            assert 0 <= result.predicted_index < len(names)

    def test_dense_accuracy_on_tiny_task(self, tiny_model, tiny_samples):
        correct = [tiny_model.forward(s).correct for s in tiny_samples]
        assert sum(correct) >= len(correct) - 1

    def test_trace_records_all_gemms(self, tiny_model, tiny_sample):
        result = tiny_model.forward(tiny_sample)
        names = {g.name for g in result.trace.gemms}
        assert names == {"qkv", "qk", "pv", "o_proj", "fc1", "fc2"}
        per_layer = len(result.trace.gemms) / tiny_model.config.num_layers
        assert per_layer == 6

    def test_trace_dense_macs_match_formula(self, tiny_model, tiny_sample):
        result = tiny_model.forward(tiny_sample)
        analytic = tiny_model.config.dense_macs(
            tiny_sample.num_visual_tokens, tiny_sample.num_text_tokens
        )
        assert result.trace.total_macs == analytic

    def test_initial_tokens_recorded(self, tiny_model, tiny_sample):
        result = tiny_model.forward(tiny_sample)
        expected = (tiny_sample.num_visual_tokens
                    + tiny_sample.num_text_tokens)
        assert result.trace.initial_tokens == expected

    def test_dimension_mismatch_raises(self, tiny_sample):
        other = SyntheticVLM(ModelConfig(name="wide", hidden=128,
                                         num_layers=1, num_heads=4))
        with pytest.raises(ValueError):
            other.forward(tiny_sample)

    def test_deterministic_forward(self, tiny_model, tiny_sample):
        a = tiny_model.forward(tiny_sample)
        b = tiny_model.forward(tiny_sample)
        assert a.predicted_index == b.predicted_index
        assert a.trace.total_macs == b.trace.total_macs


class TestTokenState:
    def test_apply_keep_prunes(self, tiny_model, tiny_sample):
        state = tiny_model.initial_state(tiny_sample)
        keep = np.ones(state.num_tokens, dtype=bool)
        keep[:5] = False
        before = state.num_tokens
        state.apply_keep(keep)
        assert state.num_tokens == before - 5
        assert state.version == 1

    def test_apply_keep_protects_text(self, tiny_model, tiny_sample):
        state = tiny_model.initial_state(tiny_sample)
        keep = np.ones(state.num_tokens, dtype=bool)
        keep[-1] = False  # last token is text
        with pytest.raises(ValueError):
            state.apply_keep(keep)

    def test_apply_keep_shape_check(self, tiny_model, tiny_sample):
        state = tiny_model.initial_state(tiny_sample)
        with pytest.raises(ValueError):
            state.apply_keep(np.ones(3, dtype=bool))


class TestPluginHooks:
    def test_hook_call_order(self, tiny_model, tiny_sample):
        calls = []

        class Recorder(InferencePlugin):
            def begin(self, batch):
                calls.append("begin")

            def on_visual_tokens(self, state):
                calls.append("visual")

            def before_layer(self, layer_index, state):
                calls.append(f"layer{layer_index}")

            def finish(self, batch):
                calls.append("finish")

        tiny_model.forward(tiny_sample, Recorder())
        assert calls[0] == "begin"
        assert calls[1] == "visual"
        assert calls[-1] == "finish"
        layers = [c for c in calls if c.startswith("layer")]
        assert layers == [f"layer{i}"
                          for i in range(tiny_model.config.num_layers)]

    def test_gemm_input_sites(self, tiny_model, tiny_sample):
        sites = []

        class Recorder(InferencePlugin):
            def gemm_input(self, layer_index, site, x, batch, producers, n):
                sites.append(site)
                return x, [None] * batch.num_lanes

        tiny_model.forward(tiny_sample, Recorder())
        assert set(sites) == {"qkv", "o_proj", "fc1"}
