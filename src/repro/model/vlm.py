"""The synthetic VLM forward engine.

:class:`SyntheticVLM` runs a causal transformer over the concatenated
``[visual tokens | text tokens]`` sequence (the layout of Fig. 5's
attention matrix), invokes :class:`~repro.model.plugins.InferencePlugin`
hooks at the points where concentration methods intervene, and records
every executed GEMM into a :class:`~repro.accel.trace.ModelTrace` for
the hardware simulator.

There is one forward path: :meth:`SyntheticVLM.forward_batch` runs a
stack of same-shape samples as one ``(lanes, tokens, hidden)`` pass,
and :meth:`SyntheticVLM.forward` is its one-lane case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.trace import GemmTrace, ModelTrace
from repro.model.functional import attention_scores, rms_norm, softmax
from repro.model.plugins import DENSE_PLUGIN, DedupStats, InferencePlugin
from repro.model.spec import ModelConfig
from repro.model.weights import LayerWeights, build_all_weights
from repro.quant.int8 import fake_quant_int8
from repro.utils.fp import quantize_fp16
from repro.workloads.datasets import Sample

TEXT_POSITION = np.array([-1, -1, -1], dtype=np.int64)
"""Sentinel FHW position for text tokens (never block-matched)."""


def _flat_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stacked ``(L, s, k) @ (k, n)`` as one flattened 2D GEMM.

    A single ``(L*s, k) @ (k, n)`` call replaces the gufunc's L
    per-slice GEMMs; each output row is the same row-by-column dot
    either way, so the result is bit-identical while the BLAS kernel
    sees one large matrix instead of L small ones.
    """
    lanes, s, k = x.shape
    return (x.reshape(lanes * s, k) @ w).reshape(lanes, s, w.shape[1])


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack``, but a copy-free view when there is one lane."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


@dataclass
class TokenState:
    """Mutable token stream threaded through the forward pass.

    Attributes:
        hidden: Current hidden states, shape ``(tokens, hidden)``.
        positions: Integer (frame, row, col) per token; text tokens
            carry :data:`TEXT_POSITION`.
        is_text: Boolean mask of text tokens (never pruned).
        original_index: Index of each surviving token in the initial
            sequence.
        num_image_initial: Image-token count before any compression.
        grid: (frames, height, width) of the visual grid.
        trace: Execution trace being accumulated.
        scratch: Free-form storage for plugins (e.g. attention
            summaries used by FrameFusion).
    """

    hidden: np.ndarray
    positions: np.ndarray
    is_text: np.ndarray
    original_index: np.ndarray
    num_image_initial: int
    grid: tuple[int, int, int]
    trace: ModelTrace = field(default_factory=ModelTrace)
    scratch: dict = field(default_factory=dict)
    version: int = 0
    """Incremented whenever the token set changes; plugins use it to
    invalidate cached position-derived structures."""

    @property
    def num_tokens(self) -> int:
        return int(self.hidden.shape[0])

    @property
    def num_image(self) -> int:
        return int(np.count_nonzero(~self.is_text))

    @property
    def num_text(self) -> int:
        return int(np.count_nonzero(self.is_text))

    def apply_keep(self, keep: np.ndarray) -> None:
        """Prune the token stream to the boolean mask ``keep``.

        Text tokens must all be kept; methods only compress the visual
        stream (every method in the paper excludes text tokens).
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.num_tokens,):
            raise ValueError("keep mask must cover the current token set")
        if not keep[self.is_text].all():
            raise ValueError("text tokens cannot be pruned")
        self.hidden = self.hidden[keep]
        self.positions = self.positions[keep]
        self.is_text = self.is_text[keep]
        self.original_index = self.original_index[keep]
        self.version += 1


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of one forward pass."""

    predicted_index: int
    correct: bool
    trace: ModelTrace
    final_tokens: int


@dataclass
class BatchState:
    """Token state of a forward pass over a stack of samples.

    ``hidden`` is the master ``(lanes, tokens, hidden)`` stack; each
    lane's :class:`TokenState` views its slice (``lane.hidden`` is
    ``batch.hidden[i]`` between hooks), so per-lane bookkeeping —
    positions, versions, traces, scratch — runs unchanged on views of
    the stacked data.  All lanes hold the same token count at every
    point of the pass (samples are bucketed by shape, and only
    :attr:`~repro.model.plugins.InferencePlugin.stackable` plugins run
    more than one lane), so the stack stays rectangular end to end.
    """

    lanes: list[TokenState]
    hidden: np.ndarray

    @property
    def num_lanes(self) -> int:
        return len(self.lanes)

    @property
    def num_tokens(self) -> int:
        return int(self.hidden.shape[1])

    def set_hidden(self, hidden: np.ndarray) -> None:
        """Install a new stack and re-point every lane's view at it."""
        self.hidden = hidden
        for index, lane in enumerate(self.lanes):
            lane.hidden = hidden[index]

    def restack(self) -> None:
        """Re-stack the lanes' hidden states after per-lane hooks.

        Raises if the lanes diverged in shape — the rectangularity
        invariant the stack rests on.
        """
        shapes = {lane.hidden.shape for lane in self.lanes}
        if len(shapes) != 1:
            raise ValueError(
                f"lanes diverged in shape after pruning: {sorted(shapes)}"
            )
        self.set_hidden(_stack([lane.hidden for lane in self.lanes]))


class SyntheticVLM:
    """A constructed-weight VLM with pluggable concentration hooks."""

    quantized: bool = False
    """Whether this is the INT8 variant
    (:func:`~repro.quant.int8.quantize_model`): its weights are INT8
    rounded, and every concentrated GEMM's input is rounded per token
    before the plugin sees it."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.layers: list[LayerWeights] = build_all_weights(config)

    def initial_state(self, sample: Sample) -> TokenState:
        """Assemble the token stream ``[visual | text]`` for a sample."""
        cfg = self.config
        if sample.visual_tokens.shape[1] != cfg.hidden:
            raise ValueError(
                f"sample hidden dim {sample.visual_tokens.shape[1]} does not"
                f" match model hidden dim {cfg.hidden}"
            )
        hidden = np.concatenate(
            [sample.visual_tokens, sample.text_tokens], axis=0
        )
        hidden = quantize_fp16(hidden, cfg.fp16)
        num_image = sample.num_visual_tokens
        num_text = sample.num_text_tokens
        positions = np.concatenate(
            [sample.positions, np.tile(TEXT_POSITION, (num_text, 1))], axis=0
        )
        is_text = np.zeros(num_image + num_text, dtype=bool)
        is_text[num_image:] = True
        return TokenState(
            hidden=hidden,
            positions=positions,
            is_text=is_text,
            original_index=np.arange(num_image + num_text),
            num_image_initial=num_image,
            grid=sample.grid,
        )

    def forward(
        self, sample: Sample, plugin: InferencePlugin | None = None
    ) -> InferenceResult:
        """Run the model on one sample: a one-lane :meth:`forward_batch`."""
        return self.forward_batch([sample], plugin)[0]

    def forward_batch(
        self, samples: list[Sample], plugin: InferencePlugin | None = None
    ) -> list[InferenceResult]:
        """Run the model on a stack of same-shape samples at once.

        The samples must share their token layout (visual/text counts
        and grid — callers bucket by shape); the whole stack then runs
        as one tensorized pass over ``(lanes, tokens, hidden)`` arrays.
        Every stacked operation applies the same kernel to each lane
        slice (one flattened GEMM per weight, norms and softmax reduce
        over trailing axes, elementwise ops are elementwise), so each
        lane's :class:`InferenceResult` — answer, trace, token counts
        — is bit-identical to a one-lane pass of that sample, for
        every stack size.  More than one lane needs a
        :attr:`~repro.model.plugins.InferencePlugin.stackable` plugin.
        """
        plugin = plugin or DENSE_PLUGIN
        if not samples:
            return []
        if len(samples) > 1 and not plugin.stackable:
            raise ValueError(
                f"{type(plugin).__name__} does not stack; run its samples"
                " one lane at a time"
            )
        lanes = [self.initial_state(sample) for sample in samples]
        shapes = {
            (lane.num_tokens, lane.grid, int(lane.num_image_initial))
            for lane in lanes
        }
        if len(shapes) != 1:
            raise ValueError(
                f"forward_batch needs same-shape samples, got {sorted(shapes)}"
            )
        batch = BatchState(lanes=lanes, hidden=np.empty(0))
        batch.set_hidden(_stack([lane.hidden for lane in lanes]))
        for lane in lanes:
            lane.trace.initial_tokens = lane.num_tokens
        plugin.begin(batch)
        for lane in lanes:
            plugin.on_visual_tokens(lane)
        batch.restack()

        last_writers: list[GemmTrace | None] = [None] * len(lanes)
        for layer_index, weights in enumerate(self.layers):
            for lane in lanes:
                plugin.before_layer(layer_index, lane)
            batch.restack()
            last_writers = self._run_layer(
                layer_index, weights, batch, plugin, last_writers
            )
            for lane in lanes:
                lane.trace.tokens_per_layer.append(lane.num_tokens)
        plugin.finish(batch)

        results = []
        for sample, lane in zip(samples, lanes):
            predicted = self._readout(sample, lane)
            results.append(InferenceResult(
                predicted_index=predicted,
                correct=predicted == sample.question.answer_index,
                trace=lane.trace,
                final_tokens=lane.num_tokens,
            ))
        return results

    def _run_layer(
        self,
        layer_index: int,
        weights: LayerWeights,
        batch: BatchState,
        plugin: InferencePlugin,
        last_writers: list[GemmTrace | None],
    ) -> list[GemmTrace]:
        """One transformer layer over the whole lane stack.

        Per-lane trace records are appended at the same points for
        every lane, so each lane's trace is its one-lane trace.
        """
        cfg = self.config
        d, heads, head_dim = cfg.hidden, cfg.num_heads, cfg.head_dim
        lanes = batch.lanes
        num_lanes = batch.num_lanes

        x = batch.hidden                              # (L, s, d)
        normed = rms_norm(x)
        normed, _ = self._concentrated_gemm(
            plugin, layer_index, "qkv", normed, batch, last_writers,
            k=d, n=3 * d,
        )
        q = _flat_matmul(normed, weights.wq)
        k = _flat_matmul(normed, weights.wk)
        v = _flat_matmul(normed, weights.wv)

        s = batch.num_tokens
        q_h = q.reshape(num_lanes, s, heads, head_dim).transpose(0, 2, 1, 3)
        k_h = k.reshape(num_lanes, s, heads, head_dim).transpose(0, 2, 1, 3)
        v_h = v.reshape(num_lanes, s, heads, head_dim).transpose(0, 2, 1, 3)
        scores = attention_scores(q_h, k_h, head_dim)
        for lane in lanes:
            lane.trace.add(
                GemmTrace(name="qk", layer=layer_index, m=s, k=d, n=s)
            )
        # The scores are this layer's own array: normalize them in place.
        probs = softmax(scores, axis=-1, out=scores)

        if plugin.needs_attention_summary:
            # Attention received per key, averaged over heads and
            # queries; computed only for plugins that declare the need
            # (importance-style baselines such as FrameFusion).
            for index, lane in enumerate(lanes):
                lane.scratch["attn_received"] = probs[index].mean(axis=(0, 1))

        keeps = plugin.after_attention_probs(layer_index, probs, batch)
        if keeps is not None:
            # Semantic pruning, per lane: only retained query rows
            # proceed to P x V; keys/values of this layer stay full
            # (they were already computed), exactly as in Sec. V-C.
            # Equal budgets keep the stack rectangular (restack checks).
            pruned = [
                probs[index][:, keep, :]
                for index, keep in enumerate(keeps)
            ]
            for lane, keep in zip(lanes, keeps):
                lane.apply_keep(keep)
            batch.restack()
            probs = _stack(pruned)
        x = batch.hidden
        s_q = probs.shape[2]

        ctx = (probs @ v_h).transpose(0, 2, 1, 3).reshape(num_lanes, s_q, d)
        pv_traces = [
            lane.trace.add(
                GemmTrace(name="pv", layer=layer_index, m=s_q, k=s, n=d)
            )
            for lane in lanes
        ]

        ctx, o_traces = self._concentrated_gemm(
            plugin, layer_index, "o_proj", ctx, batch, pv_traces, k=d, n=d,
        )
        attn_out = _flat_matmul(ctx, weights.wo)
        x = quantize_fp16(x + attn_out, cfg.fp16)

        normed2 = rms_norm(x)
        normed2, _ = self._concentrated_gemm(
            plugin, layer_index, "fc1", normed2, batch, o_traces,
            k=d, n=cfg.ffn_hidden,
        )
        # tanh rather than GELU: GELU's positive DC offset would add an
        # identical mean vector to every token's residual each layer,
        # inflating inter-token similarity toward 1 by depth and
        # erasing the hidden-state redundancy structure SIC operates on.
        h = np.tanh(_flat_matmul(normed2, weights.w_fc1))
        fc2_traces = [
            lane.trace.add(
                GemmTrace(name="fc2", layer=layer_index, m=s_q,
                          k=cfg.ffn_hidden, n=d)
            )
            for lane in lanes
        ]
        x = quantize_fp16(x + _flat_matmul(h, weights.w_fc2), cfg.fp16)

        batch.set_hidden(x)
        return fc2_traces

    def _concentrated_gemm(
        self,
        plugin: InferencePlugin,
        layer_index: int,
        site: str,
        x: np.ndarray,
        batch: BatchState,
        producers: list[GemmTrace | None],
        k: int,
        n: int,
    ) -> tuple[np.ndarray, list[GemmTrace]]:
        """Apply the plugin's input gather; record per-lane GEMM traces.

        The INT8 variant rounds the stacked input per token first, so
        the similarity matcher compares the values the INT8 datapath
        would; the per-row scale keeps lanes independent.
        """
        if self.quantized:
            x = fake_quant_int8(x, axis=-1)
        x, stats_list = plugin.gemm_input(
            layer_index, site, x, batch, producers, n
        )
        traces = []
        for lane, stats, producer in zip(batch.lanes, stats_list, producers):
            trace = GemmTrace(
                name=site, layer=layer_index, m=x.shape[1], k=k, n=n
            )
            if stats is not None:
                self._annotate(trace, producer, stats, lane)
            lane.trace.add(trace)
            traces.append(trace)
        return x, traces

    @staticmethod
    def _annotate(
        trace: GemmTrace,
        producer: GemmTrace | None,
        stats: DedupStats,
        state: TokenState,
    ) -> None:
        trace.input_unique = stats.unique_vectors
        trace.vector_size = stats.vector_size
        trace.input_map_bits = stats.map_bits
        trace.scatter_ops = stats.scatter_ops
        state.trace.metadata_bits += stats.map_bits
        state.trace.tile_lengths.extend(stats.tile_lengths)
        state.trace.tile_rows.extend(stats.tile_rows)
        if producer is not None:
            producer.output_compressed_rows = stats.unique_vectors
            producer.output_map_bits = stats.map_bits
            producer.vector_size = stats.vector_size

    def _readout(self, sample: Sample, state: TokenState) -> int:
        """Decode the answer from the query token's attribute sub-space."""
        layout = self.config.layout
        query_hidden = state.hidden[-1]
        slot = sample.question.slot
        if slot == "color":
            attr = query_hidden[layout.color_slice]
        else:
            attr = query_hidden[layout.motion_slice]
        return sample.codebooks.decode_slot(attr, slot)
