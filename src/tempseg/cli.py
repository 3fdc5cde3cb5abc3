"""Command-line front end.

Subcommands
    generate   synthesize a dataset (train/val/test CSV files + manifest)
    train      fit a model, writing a checkpoint and a JSON-lines log
    eval       score a checkpoint on a dataset (metrics, predictions,
               embeddings for external projection tools)
    predict    label a dataset with a checkpoint (labels read and ignored)
    gradcheck  finite-difference audit of every differentiable op
    ablate     run the five standard variants over several seeds

Configuration is a plain-text file of `key = value` lines (# comments
allowed).  Command-line flags override file values, which override the
built-in defaults below; the --variant flag is applied last since it
defines the experiment row.  Unknown keys are rejected.  Every command is
a pure function of its config: re-running overwrites outputs identically,
and makes its output directory only once its inputs pass their checks.
Seeds must be >= 0.
Every CSV it writes (datasets, predictions, embeddings, ablation tables)
goes through `data.write_table`: floats print with %.17g, integers
exactly, lines end in LF.  It formats blocks of rows with numpy array
operations, byte for byte as `%` would; a float next to a 17-digit
rounding tie, a non-finite or extreme float and an object column's ints
go through `%` itself.

Ablation variants:
    1  single stage, no contrast        2  multi-stage, no contrast
    3  single stage, full contrast      4  multi-stage, sample-level only
    5  multi-stage, full contrast
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data as dt
from . import model as md
from . import train as tr
from .gradcheck_suite import OP_CHECKS, check_full_objective
from .metrics import evaluate_predictions

_TOLERANCE = 1e-4   # gradcheck pass threshold


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_auto_int(text: str):
    return None if text == "auto" else int(text)


def _parse_subjects(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _key(default, parse, help_text):
    return field(default=default,
                 metadata={"parse": parse, "help": help_text})


@dataclass(frozen=True)
class ExperimentConfig:
    """One flat namespace over model, objective, optimizer, and data keys.

    Each field is one config key with its default, parser and help text.
    This table is the documentation of record for the config file format.
    A key shared with ModelConfig, TrainConfig, SynthConfig,
    default_synth_config or split_sequences takes its owner's default.
    """
    # model
    num_classes: int | None = _key(None, _parse_auto_int, "label count; auto = infer from data")
    num_stages: int = _key(md.ModelConfig.num_stages, int, "refinement stages")
    layers_per_stage: int = _key(md.ModelConfig.layers_per_stage, int, "dilated blocks per stage")
    hidden_channels: int = _key(md.ModelConfig.hidden_channels, int, "feature width inside a stage")
    projection_dim: int = _key(md.ModelConfig.projection_dim, int, "contrastive embedding width")
    kernel_size: int = _key(md.ModelConfig.kernel_size, int, "dilated conv kernel width (odd)")
    # objective
    temperature: float = _key(tr.TrainConfig.temperature, float, "contrastive similarity temperature")
    contrast_weight: float = _key(tr.TrainConfig.contrast_weight, float, "contrastive term weight (0 disables)")
    # optimization
    epochs: int = _key(tr.TrainConfig.epochs, int, "training epochs")
    learning_rate: float = _key(tr.TrainConfig.learning_rate, float, "optimizer step size")
    batch_size: int = _key(tr.TrainConfig.batch_size, int, "sequences per optimizer step")
    k_per_class: int = _key(tr.TrainConfig.k_per_class, int, "hard examples kept per class")
    boundary_radius: int = _key(tr.TrainConfig.boundary_radius, int, "half-width of the boundary zone")
    include_segments: bool = _key(tr.TrainConfig.include_segments, _parse_bool, "add segment-level contrast examples")
    seed: int = _key(tr.TrainConfig.seed, int, "master seed (init, shuffling, synthesis)")
    # synthetic data
    synth_classes: int = _key(dt.default_synth_config.__kwdefaults__["num_classes"], int, "classes in generated data")
    synth_dim: int = _key(dt.default_synth_config.__kwdefaults__["dim"], int, "channels in generated data")
    signal_seed: int = _key(dt.default_synth_config.__kwdefaults__["signal_seed"], int, "seed for the per-class signal banks")
    noise_std: float = _key(dt.SynthConfig.noise_std, float, "additive noise level")
    dwell_min: int = _key(dt.SynthConfig.dwell_min, int, "shortest run length")
    dwell_max: int = _key(dt.SynthConfig.dwell_max, int, "longest run length")
    transition_blur: int = _key(dt.SynthConfig.transition_blur, int, "cross-fade half-width at boundaries")
    total_length: int = _key(dt.SynthConfig.total_length, int, "samples per generated sequence")
    sample_rate_hz: float = _key(dt.SynthConfig.sample_rate_hz, float, "sampling rate of the time grid")
    num_train: int = _key(10, int, "generated training sequences")
    num_val: int = _key(2, int, "generated validation sequences")
    num_test: int = _key(2, int, "generated test sequences")
    # dataset handling
    data_dir: str = _key("data", str, "dataset root (train/val/test subdirs, or flat)")
    normalize: bool = _key(True, _parse_bool, "z-score features with train statistics")
    train_fraction: float = _key(dt.split_sequences.__kwdefaults__["train_fraction"], float, "train share of a flat data_dir when no subject id is named")
    val_fraction: float = _key(dt.split_sequences.__kwdefaults__["val_fraction"], float, "validation share of a flat data_dir when no subject id is named")
    val_subjects: tuple[int, ...] = _key((), _parse_subjects, "comma-separated validation subject ids; a flat data_dir is then split by subject")
    test_subjects: tuple[int, ...] = _key((), _parse_subjects, "comma-separated test subject ids; a flat data_dir is then split by subject")
    # ablation
    ablate_seeds: int = _key(5, int, "seeds per variant in the ablation table")

    def synth_config(self) -> dt.SynthConfig:
        """The generator's config; its sizes are checked here first, so
        the error names these keys, not the generator's parameters."""
        for key in ("synth_classes", "synth_dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got "
                                 f"{getattr(self, key)}")
        return dt.default_synth_config(
            num_classes=self.synth_classes, dim=self.synth_dim,
            signal_seed=self.signal_seed, noise_std=self.noise_std,
            dwell_min=self.dwell_min, dwell_max=self.dwell_max,
            transition_blur=self.transition_blur,
            total_length=self.total_length,
            sample_rate_hz=self.sample_rate_hz, seed=self.seed)

    def _build(self, cls, **given):
        """cls from given values plus this config's same-named keys."""
        shared = {f.name: getattr(self, f.name)
                  for f in dataclasses.fields(cls) if f.name not in given}
        return cls(**given, **shared)

    def model_config(self, input_dim: int, num_classes: int) -> md.ModelConfig:
        return self._build(md.ModelConfig, input_dim=input_dim,
                           num_classes=num_classes)

    def train_config(self) -> tr.TrainConfig:
        """The TrainConfig, built after the model keys are checked too, so
        a command that builds it first rejects any bad key before it loads
        data or writes output.  The input dim, which the data always sets,
        and an `auto` class count are checked at their smallest legal
        values."""
        self.model_config(1, 2 if self.num_classes is None
                          else self.num_classes)
        return self._build(tr.TrainConfig)


_PARSERS = {f.name: f.metadata["parse"]
            for f in dataclasses.fields(ExperimentConfig)}


def parse_config_file(path) -> dict:
    """Read `key = value` lines into parsed values; unknown keys rejected."""
    path = Path(path)
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, text = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, text = key.strip(), text.strip()
            if key not in _PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _PARSERS[key](text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {key}: {exc}") from exc
    return values


def load_experiment_config(config_path=None, overrides: dict | None = None
                           ) -> ExperimentConfig:
    values = {} if config_path is None else parse_config_file(config_path)
    for key, value in (overrides or {}).items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = value
    return ExperimentConfig(**values)


def variant_settings(variant: int) -> dict:
    """Config overrides realizing one standard ablation row."""
    table = {1: {"num_stages": 1, "contrast_weight": 0.0},
             2: {"contrast_weight": 0.0},
             3: {"num_stages": 1},
             4: {"include_segments": False},
             5: {}}
    if variant not in table:
        raise ValueError(f"variant must be in [1, 5], got {variant}")
    return table[variant]


# ---------------------------------------------------------------- commands

def cmd_generate(cfg: ExperimentConfig, out_dir) -> int:
    counts = {"train": cfg.num_train, "val": cfg.num_val, "test": cfg.num_test}
    for split, n in counts.items():
        if n < 0:
            raise ValueError(f"num_{split} must be >= 0, got {n}")
    out = Path(out_dir)
    base = cfg.synth_config()
    manifest = {
        "seed": cfg.seed,
        "synth": {f.name: np.asarray(getattr(base, f.name)).tolist()
                  for f in dataclasses.fields(base) if f.name != "seed"},
        "splits": {},
    }
    offset = 0
    rates = []
    for split, n in counts.items():
        split_dir = out / split
        split_dir.mkdir(parents=True, exist_ok=True)
        names = []
        for i in range(n):
            seq_cfg = replace(base, seed=cfg.seed + offset)
            offset += 1
            seq = dt.synthesize_sequence(seq_cfg)
            name = f"seq_{i:03d}.csv"
            dt.write_csv_sequence(split_dir / name, seq)
            names.append(name)
            # a recording shorter than the window holds no window
            if split == "train" and len(seq) >= 24:
                rates.append(dt.multiclass_window_rate(seq, 24, 1))
        manifest["splits"][split] = names
    if rates:
        manifest["multiclass_window_rate_24_1"] = float(np.mean(rates))
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {offset} sequences under {out}")
    return 0


def _load_splits(cfg: ExperimentConfig):
    """Train/val/test from subdirectories, or one flat dir split."""
    root = Path(cfg.data_dir)
    if (root / "train").is_dir():
        if cfg.val_subjects or cfg.test_subjects:
            raise ValueError("val_subjects and test_subjects need a flat "
                             f"data_dir, but {root} has a train/ subdir")
        # the layout fixes the split, but bad fractions are still an error
        dt.split_sequences([], train_fraction=cfg.train_fraction,
                           val_fraction=cfg.val_fraction)
        def maybe(name):
            sub = root / name
            if not sub.is_dir() or not any(sub.glob("*.csv")):
                return []
            return dt.load_csv_dataset(sub)
        return dt.load_csv_dataset(root / "train"), maybe("val"), \
            maybe("test")
    sequences = dt.load_csv_dataset(root)
    return dt.split_sequences(sequences, train_fraction=cfg.train_fraction,
                              val_fraction=cfg.val_fraction,
                              val_subjects=cfg.val_subjects,
                              test_subjects=cfg.test_subjects)


def _resolve_dims(cfg: ExperimentConfig, splits) -> tuple[int, int]:
    """The model's input and class counts: every recording must have the
    first one's channel count, and `num_classes`, where set, must cover
    the largest label."""
    everything = [s for split in splits for s in split]
    dim = everything[0].features.shape[1]
    for seq in everything:
        if seq.features.shape[1] != dim:
            raise ValueError(f"recordings differ in channel count: {dim} "
                             f"and {seq.features.shape[1]}")
    largest = max(int(s.labels.max()) for s in everything)
    classes = largest + 1
    if cfg.num_classes is not None:
        if classes > cfg.num_classes:
            raise ValueError(f"dataset has {classes} classes, config allows "
                             f"{cfg.num_classes}")
        classes = cfg.num_classes
    _check_fits_in_memory(cfg.model_config(dim, classes), largest)
    return dim, classes


def _check_fits_in_memory(model_cfg: md.ModelConfig, largest_label: int):
    """Reject a model whose parameters and two Adam moments (8 bytes each)
    exceed physical memory, where the system reports it, before any of it
    is allocated: one stray large label would size the classifier."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    need = 24 * md.parameter_count(model_cfg)
    if 0 < memory < need:
        raise ValueError(
            f"cannot allocate {need} bytes to train a "
            f"{model_cfg.num_classes}-class model (largest label "
            f"{largest_label}): physical memory is {memory} bytes")


def _prepared_splits(cfg: ExperimentConfig):
    """The checked, normalized splits, with the model's dims."""
    train, val, test = _load_splits(cfg)
    if not train:
        raise ValueError("the training split is empty")
    dim, classes = _resolve_dims(cfg, (train, val, test))
    stats = None
    if cfg.normalize:
        train, rest, stats = dt.normalize_features(train, val + test)
        val, test = rest[:len(val)], rest[len(val):]
    return train, val, test, dim, classes, stats


def _train_once(cfg: ExperimentConfig, train_cfg: tr.TrainConfig,
                splits_bundle, log_fn=None):
    """Fit one model; returns the state with best-snapshot params applied.

    train_cfg is cfg.train_config(), built (and so validated) by the
    caller before any data is loaded or output written.
    """
    train, val, _test, dim, classes, stats = splits_bundle
    state = tr.init_train_state(cfg.model_config(dim, classes), cfg.seed)
    state.norm_stats = stats
    tr.fit(state, train, val, train_cfg, log_fn=log_fn)
    state.params = state.best_params
    return state


def cmd_train(cfg: ExperimentConfig, out_dir, variant=None) -> int:
    train_cfg = cfg.train_config()
    bundle = _prepared_splits(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "training_log.jsonl", "w") as fh:
        def log_record(record):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        state = _train_once(cfg, train_cfg, bundle, log_record)
    metadata = {"seed": cfg.seed, "variant": variant or 0,
                "best_epoch": state.best_epoch,
                "best_metric": state.best_metric}
    tr.save_checkpoint(state, out / "model.ckpt", metadata=metadata)
    if state.best_metric is None:
        why = "no validation split" if not bundle[1] else "no epoch trained"
        print(f"checkpoint {out / 'model.ckpt'} (latest parameters, "
              f"epoch {state.best_epoch}: {why})")
    else:
        print(f"checkpoint {out / 'model.ckpt'} (best epoch "
              f"{state.best_epoch}, validation F1 {state.best_metric:.4f})")
    return 0


def _forward_dataset(checkpoint_path, data_path, embed: bool):
    """A checkpoint's truth, labels (taken per recording), probabilities
    and embeddings (only if `embed`) over a dataset, each concatenated,
    with the checkpoint's normalization applied."""
    state = tr.load_checkpoint(checkpoint_path)
    sequences = dt.load_csv_dataset(data_path, state.model_config.input_dim)
    if state.norm_stats is not None:
        sequences = [replace(s, features=state.norm_stats.apply(s.features))
                     for s in sequences]
    probs, embeds = zip(*tr.final_stage_outputs(
        state.params, state.model_config, sequences, embed))
    return (np.concatenate([s.labels for s in sequences]),
            np.concatenate([md.predict_labels(p) for p in probs]),
            np.concatenate(probs), np.concatenate(embeds) if embed else None)


def _names(prefix, matrix) -> list[str]:
    """Column names prefix_0 .. prefix_(k-1) for a k-column matrix."""
    return [f"{prefix}_{j}" for j in range(matrix.shape[1])]


def cmd_eval(checkpoint_path, data_path, out_dir) -> int:
    """Score a checkpoint; dropped zero embedding rows warn on stderr."""
    truth, preds, probs, embeds = _forward_dataset(checkpoint_path,
                                                   data_path, embed=True)
    report = evaluate_predictions(truth, preds, probs, probs.shape[1])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(report.to_json() + "\n")
    index = np.arange(len(preds))
    dt.write_table(out / "predictions.csv",
                   ["index", "truth", "pred", *_names("prob", probs)],
                   [index, truth, preds, probs])
    # a zero row is a dead projection, meaningless to a projection tool
    live = np.any(embeds, axis=1)
    if not live.all():
        print(f"warning: dropped {np.sum(~live)} zero embedding rows",
              file=sys.stderr)
    dt.write_table(out / "embeddings.csv",
                   ["index", "truth", *_names("e", embeds)],
                   [index[live], truth[live], embeds[live]])
    print(f"macro F1 {report.macro_f1:.4f}, Jaccard {report.jaccard:.4f} "
          f"on {report.total_samples} samples")
    return 0


def cmd_predict(checkpoint_path, data_path, out_dir) -> int:
    _truth, preds, probs, _embeds = _forward_dataset(
        checkpoint_path, data_path, embed=False)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dt.write_table(out / "predictions.csv",
                   ["index", "pred", *_names("prob", probs)],
                   [np.arange(len(preds)), preds, probs])
    print(f"wrote {len(preds)} predictions to {out / 'predictions.csv'}")
    return 0


def cmd_gradcheck(seed: int = 0) -> int:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    checks = {name: functools.partial(check, np.random.default_rng(seed))
              for name, check in sorted(OP_CHECKS.items())}
    checks["full_objective"] = functools.partial(check_full_objective,
                                                 seed_start=seed)
    failures = 0
    for name, check in checks.items():
        error = check()
        ok = error < _TOLERANCE
        failures += not ok
        print(f"{name:<24} max_rel_error={error:.3e} "
              f"{'PASS' if ok else 'FAIL'}")
    return 1 if failures else 0


def cmd_ablate(cfg: ExperimentConfig, out_dir) -> int:
    """Print each run's scores as it finishes, then the summary."""
    if cfg.ablate_seeds < 1:
        raise ValueError(f"ablate_seeds must be >= 1, got {cfg.ablate_seeds}")
    runs = []   # every variant's config is checked before loading
    for variant in range(1, 6):
        for offset in range(cfg.ablate_seeds):
            run_cfg = dataclasses.replace(
                cfg, seed=cfg.seed + offset, **variant_settings(variant))
            runs.append((variant, run_cfg, run_cfg.train_config()))
    base_bundle = _prepared_splits(cfg)
    test = base_bundle[2]
    if not test:
        raise ValueError("ablation needs a non-empty test split")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    variants = np.array([variant for variant, _, _ in runs])
    f1s, jis = np.empty(len(runs)), np.empty(len(runs))
    for i, (variant, run_cfg, train_cfg) in enumerate(runs):
        best = _train_once(run_cfg, train_cfg, base_bundle)
        report, _ = tr.evaluate(best.params, best.model_config, test)
        f1s[i], jis[i] = report.macro_f1, report.jaccard
        print(f"variant {variant} seed {run_cfg.seed}: "
              f"F1 {report.macro_f1:.4f} JI {report.jaccard:.4f}")
    dt.write_table(out / "ablation_runs.csv",
                   ["variant", "seed", "macro_f1", "jaccard"],
                   [variants, [run_cfg.seed for _, run_cfg, _ in runs],
                    f1s, jis])

    groups = [(f1s[variants == v], jis[variants == v]) for v in range(1, 6)]
    summary = np.array([[f.mean(), f.std(), j.mean(), j.std()]
                        for f, j in groups])
    dt.write_table(out / "ablation_summary.csv",
                   ["variant", "macro_f1_mean", "macro_f1_std",
                    "jaccard_mean", "jaccard_std"],
                   [np.arange(1, 6), summary])
    for variant, (f1_mean, f1_std, ji_mean, ji_std) in enumerate(summary, 1):
        print(f"variant {variant}: F1 {f1_mean:.4f} ± {f1_std:.4f}"
              f", JI {ji_mean:.4f} ± {ji_std:.4f}")
    return 0


# ------------------------------------------------------------- entry point

def _add_config_flags(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="key = value configuration file")
    parser.add_argument("--seed", type=int, metavar="N")
    parser.add_argument("--stages", type=int, metavar="N",
                        dest="num_stages")
    parser.add_argument("--lambda", type=float, metavar="X",
                        dest="contrast_weight",
                        help="contrastive term weight")
    parser.add_argument("--tau", type=float, metavar="X",
                        dest="temperature", help="contrastive temperature")


def _config_from_args(args) -> ExperimentConfig:
    overrides = {key: value for key, value in vars(args).items()
                 if key in _PARSERS and value is not None}
    variant = getattr(args, "variant", None)
    if variant is not None:
        overrides.update(variant_settings(variant))
    return load_experiment_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempseg",
        description="Joint segmentation and recognition on sensor streams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a CSV dataset")
    _add_config_flags(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=lambda a: cmd_generate(_config_from_args(a), a.out))

    p = sub.add_parser("train", help="fit a model")
    _add_config_flags(p)
    p.add_argument("--variant", type=int, choices=range(1, 6),
                   metavar="{1..5}", help="standard ablation row to run")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=lambda a: cmd_train(_config_from_args(a), a.out,
                                            a.variant))

    p = sub.add_parser("eval", help="score a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=lambda a: cmd_eval(a.checkpoint, a.data, a.out))

    p = sub.add_parser("predict", help="label a dataset")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=lambda a: cmd_predict(a.checkpoint, a.data, a.out))

    p = sub.add_parser("gradcheck", help="audit gradients of every op")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.set_defaults(func=lambda a: cmd_gradcheck(a.seed))

    p = sub.add_parser("ablate", help="run the five standard variants")
    _add_config_flags(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=lambda a: cmd_ablate(_config_from_args(a), a.out))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
