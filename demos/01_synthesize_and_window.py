"""
Synthetic activity streams and the multi-class window problem
=============================================================

Builds a few synthetic sensor sequences and measures how often a
fixed-size sliding window straddles an activity boundary.  The rate
grows quickly with window size, which is the argument for labeling
every sample instead of labeling windows.
"""
from dataclasses import replace

import numpy as np

from tempseg import (default_synth_config, label_runs,
                     multiclass_window_rate, synthesize_sequence)

# Five activity classes on six channels.  Each class is a bank of
# per-channel sinusoids; transitions cross-fade over a few samples.
config = default_synth_config(num_classes=5, dim=6, total_length=2000)
sequence = synthesize_sequence(config)

print(f"sequence: {len(sequence)} samples x {sequence.features.shape[1]} "
      f"channels")

classes, starts, ends = label_runs(sequence.labels)
print(f"{len(classes)} activity segments; first five:")
for cls, start, end in zip(classes[:5], starts, ends):
    print(f"  class {cls}: samples [{start}, {end}) length {end - start}")

# How many windows span more than one activity?  Average over a few
# independently drawn sequences so the numbers are stable.
sequences = [synthesize_sequence(replace(config, seed=s)) for s in range(5)]
print("\nwindows spanning more than one activity (stride 1):")
for size in (8, 16, 24, 48, 64):
    rate = np.mean([multiclass_window_rate(s, size, 1) for s in sequences])
    bar = "#" * int(rate * 60)
    print(f"  size {size:3d}: {rate * 100:5.1f}%  {bar}")

print("\nEven modest windows are ambiguous for a whole-window label;"
      "\na per-sample labeler sidesteps the problem entirely.")
