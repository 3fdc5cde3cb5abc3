"""Multi-stage temporal convolutional model.

A stage maps its input channels to a hidden width with a 1x1 adapter, runs a
stack of dilated residual blocks (dilation doubling per layer, one
`autodiff.residual_block` graph node each), and exposes
two views of the result: hidden features and per-sample class logits.  The
unit-normalized projection for contrastive training is computed from the
features on demand (`project`), only where something reads it.  Stage
n >= 2 consumes the previous stage's per-sample class probabilities, so
later stages refine earlier predictions and gradients flow through the
whole cascade.

Every op after the dilated stack is per-sample, so an output sample
depends only on the inputs within `receptive_radius` of it; that is what
lets inference label a long recording in overlapping chunks exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    num_classes: int
    num_stages: int = 2
    layers_per_stage: int = 6
    hidden_channels: int = 32
    projection_dim: int = 16
    kernel_size: int = 3

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.num_stages < 1 or self.layers_per_stage < 1:
            raise ValueError("num_stages and layers_per_stage must be >= 1")
        if self.hidden_channels < 1 or self.projection_dim < 1:
            raise ValueError("hidden_channels and projection_dim must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be a positive odd integer")


def receptive_radius(config: ModelConfig) -> int:
    """Samples on each side of t that can influence output t.

    Block i of a stage reaches (k-1)/2 * 2^i samples per side, the 1x1
    convs and the softmax reach none, and stages compose additively.
    """
    half_kernel = (config.kernel_size - 1) // 2
    return config.num_stages * half_kernel * (2 ** config.layers_per_stage - 1)


@dataclass
class BlockParams:
    """One dilated residual block: dilated conv + ReLU, then a 1x1 mix."""
    dilated_w: Tensor
    dilated_b: Tensor
    mix_w: Tensor
    mix_b: Tensor


@dataclass
class StageParams:
    adapter_w: Tensor
    adapter_b: Tensor
    blocks: list[BlockParams]
    classifier_w: Tensor
    classifier_b: Tensor
    proj_hidden_w: Tensor
    proj_hidden_b: Tensor
    proj_out_w: Tensor
    proj_out_b: Tensor


@dataclass
class ModelParams:
    stages: list[StageParams]

    def named_parameters(self):
        """Yield (name, tensor) pairs in a stable order."""
        for s, stage in enumerate(self.stages):
            prefix = f"stage{s}"
            yield f"{prefix}.adapter.w", stage.adapter_w
            yield f"{prefix}.adapter.b", stage.adapter_b
            for l, blk in enumerate(stage.blocks):
                yield f"{prefix}.block{l}.dilated.w", blk.dilated_w
                yield f"{prefix}.block{l}.dilated.b", blk.dilated_b
                yield f"{prefix}.block{l}.mix.w", blk.mix_w
                yield f"{prefix}.block{l}.mix.b", blk.mix_b
            yield f"{prefix}.classifier.w", stage.classifier_w
            yield f"{prefix}.classifier.b", stage.classifier_b
            yield f"{prefix}.proj_hidden.w", stage.proj_hidden_w
            yield f"{prefix}.proj_hidden.b", stage.proj_hidden_b
            yield f"{prefix}.proj_out.w", stage.proj_out_w
            yield f"{prefix}.proj_out.b", stage.proj_out_b

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


@dataclass
class StageOutput:
    features: Tensor    # T x F hidden features
    logits: Tensor      # T x C, pre-softmax
    probs: Tensor       # T x C, rows sum to 1


def build_params(config: ModelConfig, make) -> ModelParams:
    """ModelParams whose every tensor of shape `shape` holds make(shape).

    make is called once per tensor, in a fixed order: per stage, every
    block's dilated and mix tensors, then the adapter, classifier and
    projection tensors.  That order is init_params' draw order; tensor
    names live only in `ModelParams.named_parameters`.
    """
    f = config.hidden_channels
    k = config.kernel_size
    c = config.num_classes

    def tensor(*shape):
        return Tensor(make(shape))

    stages = []
    for s in range(config.num_stages):
        c_in = config.input_dim if s == 0 else c
        blocks = [BlockParams(dilated_w=tensor(f, f, k), dilated_b=tensor(f),
                              mix_w=tensor(f, f, 1), mix_b=tensor(f))
                  for _ in range(config.layers_per_stage)]
        stages.append(StageParams(
            adapter_w=tensor(f, c_in, 1), adapter_b=tensor(f),
            blocks=blocks,
            classifier_w=tensor(c, f, 1), classifier_b=tensor(c),
            proj_hidden_w=tensor(f, f, 1), proj_hidden_b=tensor(f),
            proj_out_w=tensor(config.projection_dim, f, 1),
            proj_out_b=tensor(config.projection_dim),
        ))
    return ModelParams(stages=stages)


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Uniform init scaled by fan-in; biases start at zero.

    A single generator seeded once makes the draw order, and therefore the
    parameters, fully reproducible.
    """
    rng = np.random.default_rng(seed)

    def draw(shape):
        if len(shape) == 1:
            return np.zeros(shape)
        _, c_in, k = shape
        bound = np.sqrt(6.0 / (c_in * k))
        return rng.uniform(-bound, bound, size=shape)

    return build_params(config, draw)


def parameter_count(config: ModelConfig) -> int:
    """Scalars that init_params allocates for config, without allocating."""
    f, c, p = config.hidden_channels, config.num_classes, config.projection_dim
    block = f * f * (config.kernel_size + 1) + 2 * f
    stage = config.layers_per_stage * block + (c + f + p) * f + c + 2 * f + p
    adapters = f * (config.input_dim + (config.num_stages - 1) * c)
    return config.num_stages * stage + adapters


def sstcn_forward(x: Tensor, stage: StageParams) -> Tensor:
    """Single-stage forward: adapter, then the dilated residual stack."""
    h = ad.conv1d_dilated(x, stage.adapter_w, stage.adapter_b, dilation=1)
    for i, blk in enumerate(stage.blocks):
        h = ad.residual_block(h, blk.dilated_w, blk.dilated_b, blk.mix_w,
                              blk.mix_b, dilation=2 ** i)
    return h


def classify(features: Tensor, stage: StageParams) -> Tensor:
    return ad.conv1d_dilated(features, stage.classifier_w, stage.classifier_b,
                             dilation=1)


def project(features: Tensor, stage: StageParams) -> Tensor:
    """The stage's contrastive embedding: T x P, unit-norm rows (zero rows
    allowed), as one `autodiff.projection_head` graph node."""
    return ad.projection_head(features, stage.proj_hidden_w,
                              stage.proj_hidden_b, stage.proj_out_w,
                              stage.proj_out_b)


def stage_forward(x: Tensor, stage: StageParams) -> StageOutput:
    """One stage on a T x c_in input: adapter, dilated residual stack,
    classifier and softmax."""
    z = sstcn_forward(x, stage)
    logits = classify(z, stage)
    return StageOutput(z, logits, ad.softmax_rows(logits))


def checked_features(features, params: ModelParams,
                     config: ModelConfig) -> np.ndarray:
    """features as a float64 T x input_dim array; ValueError otherwise, or
    where params do not have config's stage count."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != config.input_dim:
        raise ValueError(
            f"expected T x {config.input_dim} features, got {features.shape}")
    if len(params.stages) != config.num_stages:
        raise ValueError("parameter stage count does not match config")
    return features


def mstcn_forward(features: np.ndarray, params: ModelParams,
                  config: ModelConfig) -> list[StageOutput]:
    """Run the full cascade on one sequence of shape T x input_dim."""
    stage_in = Tensor(checked_features(features, params, config))
    outputs = []
    for stage in params.stages:
        outputs.append(stage_forward(stage_in, stage))
        stage_in = outputs[-1].probs
    return outputs


def predict_labels(probs: np.ndarray) -> np.ndarray:
    """One recording's labels from its T x C final-stage probabilities:
    the argmax of each row.  The one place labels are derived from model
    outputs."""
    return np.argmax(probs, axis=1)
