"""
Hard examples and the two-level contrastive term
================================================

The contrastive loss never sees the whole sequence.  Per class it gets
a budget: misclassified samples first, then samples near activity
boundaries, then random fill.  Segment-level examples (one pooled
embedding per contiguous run) join the same loss so samples are also
pulled toward their segment summaries.  Each level is one pool: a matrix
of unit-norm embedding rows plus one class label per row.
"""
import numpy as np

from tempseg import (ModelConfig, build_example_set, default_synth_config,
                     init_params, label_runs, mstcn_forward,
                     select_hard_examples, supervised_contrast,
                     synthesize_sequence)

config = default_synth_config(num_classes=3, dim=4, total_length=400,
                              dwell_min=40, dwell_max=90)
sequence = synthesize_sequence(config)

model_cfg = ModelConfig(input_dim=4, num_classes=3, num_stages=1,
                        layers_per_stage=3, hidden_channels=12,
                        projection_dim=6)
params = init_params(model_cfg, seed=0)
outputs = mstcn_forward(sequence.features, params, model_cfg, project=True)
predictions = np.argmax(outputs[-1].probs.values, axis=1)

_, starts, _ = label_runs(sequence.labels)
boundaries = starts[1:]   # a boundary is every run start but the first
wrong = int(np.sum(predictions != sequence.labels))
print(f"untrained model: {wrong}/{len(sequence)} samples wrong, "
      f"{len(boundaries)} activity boundaries")

# Per-class selection: half the budget goes to mistakes, boundaries top
# it up, random samples fill whatever is left.
rng = np.random.default_rng(0)
plan = select_hard_examples(predictions, sequence.labels, k_per_class=8,
                            boundary_radius=2, rng=rng)
for cls, indices in sorted(plan.items()):
    near = np.min(np.abs(indices[:, None] - boundaries[None, :]), axis=1)
    misses = np.sum(predictions[indices] != sequence.labels[indices])
    print(f"  class {cls}: {len(indices)} picks, {misses} misclassified, "
          f"{np.sum(near <= 2)} within 2 of a boundary")

# The full example set is two pools drawn from the stage's projection
# head: the hard samples gathered as one matrix, and one pooled,
# re-normalized embedding per contiguous run of a class.
samples, segments = build_example_set(outputs[-1].projected, predictions,
                                      sequence.labels, rng, k_per_class=8,
                                      boundary_radius=2,
                                      include_segments=True)
print(f"\nexample set: {len(samples)} sample-level rows "
      f"{samples.embeddings.shape} + {len(segments)} segment-level rows "
      f"{segments.embeddings.shape}")

sample_only = supervised_contrast([samples], temperature=0.1)
both = supervised_contrast([samples, segments], temperature=0.1)
print(f"contrastive loss, samples only:       {sample_only.values:.4f}")
print(f"contrastive loss, samples + segments: {both.values:.4f}")
print("\nsegment embeddings act as extra positives: same-class samples"
      "\nare pulled toward a common summary, not just toward each other.")
