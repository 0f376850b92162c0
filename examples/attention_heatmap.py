"""Fig. 2(a) reproduction: attention heatmaps shift with the prompt.

Renders one scene, asks two different questions about two different
objects, and prints ASCII heatmaps of the cross-modal importance the
SEC computes.  The attended region follows the referenced object —
the property that makes static importance metrics inadequate and
motivates prompt-aware pruning.

Run:  python examples/attention_heatmap.py
"""

import numpy as np

from repro.core.importance import importance_scores
from repro.model import SyntheticVLM, get_model_config
from repro.model.functional import causal_mask, rms_norm, softmax
from repro.model.plugins import InferencePlugin
from repro.workloads.datasets import get_profile, make_sample
from repro.workloads.prompts import encode_text, question_for
from repro.model.embedding import Codebooks

SHADES = " .:-=+*#%@"


class _ProbeCapture(InferencePlugin):
    """Capture the query token's layer-0 attention over image tokens.

    (The SEC's importance also folds in the other text rows via
    :func:`importance_scores`; for visualization the query row alone
    gives the crispest picture of the prompt-conditioned shift.)
    """

    def __init__(self) -> None:
        self.importance = None

    def after_attention_probs(self, layer_index, probs, batch):
        if layer_index == 0:
            lane = batch.lanes[0]  # one lane: the probe does not stack
            num_image = int((~lane.is_text).sum())
            self.importance = probs[0, :, -1, :num_image].max(axis=0)
        return None


def heatmap(values: np.ndarray, height: int, width: int) -> str:
    grid = values.reshape(height, width)
    grid = grid / max(grid.max(), 1e-9)
    rows = []
    for row in grid:
        rows.append("".join(
            SHADES[min(int(v * (len(SHADES) - 1) + 0.5), len(SHADES) - 1)]
            for v in row
        ))
    return "\n".join(rows)


def main() -> None:
    config = get_model_config("llava-video")
    model = SyntheticVLM(config)
    codebooks = Codebooks(config.layout, seed=0)
    profile = get_profile("videomme")
    sample = make_sample(profile, codebooks, seed=3, sample_index=1)
    scene = sample.scene

    print("scene objects:")
    for obj in scene.objects:
        print(f"  {obj.color} {obj.kind} ({obj.motion}) at"
              f" ({obj.row:.1f}, {obj.col:.1f})")
    print()

    frames, height, width = sample.grid
    for obj in scene.objects[:2]:
        question = question_for(obj, "color")
        text = encode_text(question, codebooks, profile.num_text_tokens,
                           seed=3, sample_index=1)
        probed = type(sample)(
            visual_tokens=sample.visual_tokens,
            text_tokens=text,
            positions=sample.positions,
            scene=scene,
            question=question,
            codebooks=codebooks,
        )
        capture = _ProbeCapture()
        model.forward(probed, capture)
        frame0 = capture.importance[: height * width]
        print(f'Q: "{question.text}"  -> importance over frame 0:')
        print(heatmap(frame0, height, width))
        print()
    print("The bright region follows the object the question references"
          " (Fig. 2(a)).")


if __name__ == "__main__":
    main()
