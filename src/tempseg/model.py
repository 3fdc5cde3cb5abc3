"""Multi-stage temporal convolutional model.

A stage maps its input channels to a hidden width with a 1x1 adapter, runs a
stack of dilated residual blocks (dilation doubling per layer, one
`autodiff.residual_block` graph node each), and reads two heads off the
hidden features, which die inside it: per-sample class logits and, on
request, the unit-normalized projection for contrastive training.  In
`mstcn_forward`, the one loop that chains the stages, stage n >= 2
consumes the previous stage's class probabilities, so later stages
refine earlier predictions and gradients flow through the whole cascade.

Every op after the dilated stack is per-sample, so an output sample
depends only on the inputs within `receptive_radius` of it; that is what
lets inference label a long recording in overlapping chunks exactly.

The parameters' storage is one float64 array, `ModelParams.block`: each
tensor's `values` views its slice, in `named_parameters()` order, and
nothing rebinds it.  `parameter_views` alone computes the offsets.
"""

import contextlib
import math
from dataclasses import dataclass, fields
from itertools import accumulate, islice

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
    block: np.ndarray   # the storage that every tensor views

    def named_parameters(self):
        """(name, tensor) pairs in field order, the block's: "stage{s}.", in
        a block "block{l}.", then the field name with its last "_" as "."."""
        def walk(prefix, params):
            for field in fields(params):
                value = getattr(params, field.name)
                if field.name == "blocks":
                    for l, blk in enumerate(value):
                        yield from walk(f"{prefix}block{l}.", blk)
                else:
                    yield prefix + ".".join(field.name.rsplit("_", 1)), value
        for s, stage in enumerate(self.stages):
            yield from walk(f"stage{s}.", stage)

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """`flat`, laid out as `block`, as one view per tensor."""
        return parameter_views(flat, [t.shape for t in self.tensors()])

    def first_non_finite(self, flat: np.ndarray) -> str:
        """The first tensor whose slice of `flat` is not finite, by name."""
        return next(name for (name, _), part
                    in zip(self.named_parameters(), self.split(flat))
                    if not np.isfinite(part).all())


@dataclass
class StageOutput:
    logits: Tensor              # T x C, pre-softmax
    probs: Tensor               # T x C, rows sum to 1
    projected: Tensor | None    # T x P unit-norm rows, None unless asked


def parameter_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive slices of the 1-D `flat`, reshaped one to each shape:
    views where `flat` is contiguous."""
    ends = list(accumulate(map(math.prod, shapes), initial=0))
    return [flat[start:end].reshape(shape)
            for start, end, shape in zip(ends, ends[1:], shapes)]


def build_params(config: ModelConfig, values) -> ModelParams:
    """ModelParams over a new float64 block, a copy of `values`; tensors
    take consecutive slices in named_parameters() order, which is the
    order of `shapes` and of the StageParams and BlockParams fields."""
    block = np.array(np.reshape(values, parameter_count(config)),
                     dtype=np.float64)
    f, c, p = config.hidden_channels, config.num_classes, config.projection_dim
    k, layers = config.kernel_size, config.layers_per_stage
    shapes = []
    for s in range(config.num_stages):
        c_in = config.input_dim if s == 0 else c
        shapes += ([(f, c_in, 1), (f,)]
                   + [(f, f, k), (f,), (f, f, 1), (f,)] * layers
                   + [(c, f, 1), (c,), (f, f, 1), (f,), (p, f, 1), (p,)])
    tensors = map(Tensor, parameter_views(block, shapes))
    stages = [StageParams(*islice(tensors, 2),
                          [BlockParams(*islice(tensors, 4))
                           for _ in range(layers)], *islice(tensors, 6))
              for _ in range(config.num_stages)]
    return ModelParams(stages=stages, block=block)


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Uniform init scaled by fan-in; biases start at zero.

    A single generator seeded once draws the weights, per stage: each
    block's dilated then mix weight, then the adapter, classifier and
    projection weights; so the parameters are fully reproducible.
    """
    rng = np.random.default_rng(seed)
    params = build_params(config, np.zeros(parameter_count(config)))
    for stage in params.stages:
        blocks = [w for blk in stage.blocks for w in (blk.dilated_w, blk.mix_w)]
        for w in blocks + [stage.adapter_w, stage.classifier_w,
                           stage.proj_hidden_w, stage.proj_out_w]:
            bound = np.sqrt(6.0 / (w.shape[1] * w.shape[2]))    # fan-in
            w.values[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def parameter_count(config: ModelConfig) -> int:
    """The size of config's parameter block, without allocating it."""
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


def stage_forward(x: Tensor, stage: StageParams, proj: bool) -> StageOutput:
    """One stage on a T x c_in input: adapter, dilated residual stack,
    classifier and softmax, and the projection if `proj`."""
    z = sstcn_forward(x, stage)
    logits = classify(z, stage)
    return StageOutput(logits, ad.softmax_rows(logits),
                       project(z, stage) if proj else None)


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
                  config: ModelConfig, *, record_from: int = 0,
                  kept_from: int = 0, project: bool = False
                  ) -> list[StageOutput]:
    """The one loop that chains the stages, on a T x input_dim sequence.
    Stages before `record_from` run under `no_grad`, entered here; those
    from `kept_from` on are returned, projected if `project`."""
    x = Tensor(checked_features(features, params, config))
    outputs = []
    for s, stage in enumerate(params.stages):
        with ad.no_grad() if s < record_from else contextlib.nullcontext():
            out = stage_forward(x, stage, project and s >= kept_from)
        if s >= kept_from:
            outputs.append(out)
        x = out.probs
        del out     # an unkept stage's logits die before the next runs
    return outputs


def predict_labels(probs: np.ndarray) -> np.ndarray:
    """One recording's labels from its T x C final-stage probabilities:
    the argmax of each row.  The one place labels are derived from model
    outputs."""
    return np.argmax(probs, axis=1)
