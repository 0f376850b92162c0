"""Rendering scenes into visual token embeddings.

This module plays the role of the VLM's vision encoder + projector: it
turns a :class:`~repro.workloads.scene.Scene` into the sequence of
visual token embeddings the LLM consumes, ordered frame-major then
row-major (the FHW order the paper's convolution-style layouter
assumes).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.model.embedding import Codebooks, SubspaceLayout, positional_code
from repro.utils.rng import rng_for
from repro.workloads.scene import Scene, coverage_map


@dataclass(frozen=True)
class RenderParams:
    """Gains and noise levels of the synthetic vision encoder.

    Attributes:
        object_gain: Magnitude of object-identity codes in patch
            embeddings.
        attribute_gain: Magnitude of colour/motion codes.
        texture_gain: Magnitude of the background texture field.
        texture_smoothness: Gaussian sigma of the spatial texture
            field; larger values increase *spatial* redundancy.
        frame_noise: Magnitude of the per-frame change on *changed*
            texture channels; smaller values increase temporal
            redundancy.
        change_fraction: Fraction of texture channels that change
            between frames.  Real inter-frame differences are
            *structured* — a few feature channels (lighting, motion
            cues) move while the rest hold still — which is exactly why
            short sub-vectors are far more often near-identical than
            whole tokens (Fig. 2(b)).  Isotropic noise would invert
            that trend.
        position_gain: Magnitude of the (frame, row, col) positional
            code.
        feature_noise: I.i.d. noise over the full embedding, modelling
            encoder jitter.
        attribute_noise: Per-patch perturbation of the attribute codes.
            A single patch is an unreliable witness of the object's
            attribute; the dense model recovers it by averaging over
            all the object's patches, so methods that prune or distort
            patches pay a measurable accuracy cost — the mechanism
            behind the paper's Table II accuracy deltas.
    """

    object_gain: float = 1.0
    attribute_gain: float = 1.0
    texture_gain: float = 0.8
    texture_smoothness: float = 1.5
    frame_noise: float = 1.8
    change_fraction: float = 0.02
    position_gain: float = 0.25
    feature_noise: float = 0.01
    attribute_noise: float = 0.35
    background_residue: float = 0.5
    """Frame-stable low-level response of the object/attribute channels
    on background patches.  Real encoders emit non-zero features in
    every channel; without this, background sub-vectors in the unused
    channels would be pure noise with random (near-zero) inter-frame
    cosine, which distorts the Fig. 2(b) granularity statistics."""


def _import_scipy() -> None:
    from scipy import ndimage  # noqa: F401


# scipy is imported lazily (it is about half of ``import repro.cli``),
# but a process about to fork loads it first: worker-pool children then
# inherit it instead of each importing it again on their first render.
os.register_at_fork(before=_import_scipy)


def _background_texture(
    scene: Scene, dim: int, smoothness: float, rng: np.random.Generator
) -> np.ndarray:
    """Smooth spatial texture field, identical for every frame.

    Spatial smoothing makes neighbouring patches similar (intra-frame
    redundancy); reusing the same field across frames makes co-located
    patches nearly identical (inter-frame redundancy).
    """
    from scipy import ndimage

    field = rng.standard_normal(
        (scene.grid_height, scene.grid_width, dim)
    ).astype(np.float32)
    field = ndimage.gaussian_filter(field, sigma=(smoothness, smoothness, 0.0))
    norms = np.linalg.norm(field, axis=-1, keepdims=True)
    return field / np.maximum(norms, 1e-8)


def render_video(
    scene: Scene,
    codebooks: Codebooks,
    params: RenderParams,
    seed: int,
    sample_index: int = 0,
) -> np.ndarray:
    """Render a scene into visual token embeddings.

    Returns:
        Array of shape ``(num_visual_tokens, hidden)`` in FHW order:
        token ``f * H * W + r * W + c`` is patch ``(r, c)`` of frame
        ``f``.
    """
    layout: SubspaceLayout = codebooks.layout
    hidden = layout.hidden
    rng = rng_for(seed, "render", sample_index)
    texture = _background_texture(
        scene, layout.quarter, params.texture_smoothness, rng
    )
    residue = _background_texture(
        scene, 2 * layout.quarter, params.texture_smoothness, rng
    )

    tokens = np.zeros((scene.num_visual_tokens, hidden), dtype=np.float32)
    token_index = 0
    for frame in range(scene.num_frames):
        cover = coverage_map(scene, frame)
        total_cover = np.clip(cover.sum(axis=0), 0.0, 1.0)
        change_mask = (
            rng.random((scene.grid_height, scene.grid_width, layout.quarter))
            < params.change_fraction
        )
        frame_jitter = (
            params.frame_noise
            * change_mask
            * rng.standard_normal(
                (scene.grid_height, scene.grid_width, layout.quarter)
            )
        ).astype(np.float32)
        half = layout.quarter // 2
        for row in range(scene.grid_height):
            for col in range(scene.grid_width):
                emb = np.zeros(hidden, dtype=np.float32)
                for obj_i, obj in enumerate(scene.objects):
                    weight = float(cover[obj_i, row, col])
                    if weight == 0.0:
                        continue
                    emb[layout.object_slice] += (
                        params.object_gain * weight
                        * codebooks.kind_codes[obj.kind_index]
                    )
                    color = codebooks.color_codes[obj.color_index]
                    motion = codebooks.motion_codes[obj.motion_index]
                    if params.attribute_noise > 0.0:
                        color = color + params.attribute_noise * (
                            rng.standard_normal(half).astype(np.float32)
                            / np.sqrt(half)
                        )
                        motion = motion + params.attribute_noise * (
                            rng.standard_normal(half).astype(np.float32)
                            / np.sqrt(half)
                        )
                    emb[layout.color_slice] += (
                        params.attribute_gain * weight * color
                    )
                    emb[layout.motion_slice] += (
                        params.attribute_gain * weight * motion
                    )
                background_weight = 1.0 - float(total_cover[row, col])
                emb[layout.texture_slice] = params.texture_gain * (
                    background_weight * texture[row, col]
                    + frame_jitter[row, col]
                )
                emb[: 2 * layout.quarter] += (
                    params.background_residue * background_weight
                    * residue[row, col]
                )
                emb[layout.position_slice] = (
                    params.position_gain
                    * positional_code(frame, row, col, layout.quarter)
                )
                tokens[token_index] = emb
                token_index += 1
    tokens += params.feature_noise * rng.standard_normal(tokens.shape).astype(
        np.float32
    )
    return tokens


def token_positions(scene: Scene) -> np.ndarray:
    """FHW coordinates of every visual token, shape ``(M, 3)``.

    Column order is ``(frame, row, col)``, matching the layouter's
    addressing equations (Fig. 7).
    """
    grid = np.indices(
        (scene.num_frames, scene.grid_height, scene.grid_width)
    )
    return grid.reshape(3, -1).T.astype(np.int64)
