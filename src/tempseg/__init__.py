"""Joint segmentation and recognition of multivariate time series.

A multi-stage temporal convolutional model labels every sample of a
sensor stream, trained with per-sample cross-entropy plus a contrastive
term over hard samples and segment summaries.  Everything runs on a
small reverse-mode autodiff core over numpy float64 arrays.
"""

from .autodiff import CompGraph, Tensor, grad_check
from .data import (NormStats, SensorSequence, SynthConfig,
                   default_synth_config, label_runs, load_csv_dataset,
                   multiclass_window_rate, normalize_features,
                   split_sequences, synthesize_sequence, write_csv_sequence)
from .losses import (ContrastPool, LossBreakdown, info_nce,
                     supervised_contrast, total_objective)
from .metrics import MetricsReport, evaluate_predictions
from .model import (ModelConfig, ModelParams, StageOutput, init_params,
                    mstcn_forward, predict_labels, project)
from .sampling import (build_example_set, sample_pool, segment_pool,
                       select_hard_examples)
from .train import (TrainConfig, TrainState, evaluate, fit,
                    init_train_state, load_checkpoint, save_checkpoint,
                    train_epoch)

__version__ = "0.1.0"

__all__ = [
    "CompGraph", "Tensor", "grad_check",
    "NormStats", "SensorSequence", "SynthConfig", "default_synth_config",
    "label_runs", "load_csv_dataset", "multiclass_window_rate",
    "normalize_features", "split_sequences", "synthesize_sequence",
    "write_csv_sequence",
    "ContrastPool", "LossBreakdown", "info_nce", "supervised_contrast",
    "total_objective",
    "MetricsReport", "evaluate_predictions",
    "ModelConfig", "ModelParams", "StageOutput", "init_params",
    "mstcn_forward", "predict_labels", "project",
    "build_example_set", "sample_pool", "segment_pool",
    "select_hard_examples",
    "TrainConfig", "TrainState", "evaluate", "fit", "init_train_state",
    "load_checkpoint", "save_checkpoint", "train_epoch",
    "__version__",
]
