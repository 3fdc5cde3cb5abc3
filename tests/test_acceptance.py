"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL
line with the measured values.  The heavy convergence and ablation
checks run real training, so this file takes a few minutes.
"""

import time
from dataclasses import replace

import numpy as np

import tempseg.autodiff as ad
import tempseg.metrics as mt
from tempseg.cli import main
from tempseg.data import (default_synth_config, load_csv_dataset,
                          multiclass_window_rate, normalize_features,
                          synthesize_sequence, write_csv_sequence)
from tempseg.losses import info_nce, total_objective
from tempseg.model import ModelConfig, init_params, mstcn_forward
from tempseg.train import (TrainConfig, evaluate, fit, init_train_state,
                           load_checkpoint, save_checkpoint)

from test_metrics import (scores_to_probs, set_arithmetic_metrics,
                          trapezoid_auc)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def standard_split(data_seed, n_train=10, n_val=2, n_test=2,
                   **synth_overrides):
    base = default_synth_config(**synth_overrides)
    seqs = [synthesize_sequence(replace(base, seed=data_seed + i))
            for i in range(n_train + n_val + n_test)]
    train, rest, _ = normalize_features(seqs[:n_train], seqs[n_train:])
    return train, rest[:n_val], rest[n_val:]


def test_criterion_1_gradient_correctness(capsys):
    start = time.monotonic()
    code = main(["gradcheck"])
    elapsed = time.monotonic() - start
    lines = capsys.readouterr().out.strip().splitlines()
    errors = [float(line.split("max_rel_error=")[1].split()[0])
              for line in lines]
    ok = code == 0 and max(errors) < 1e-4 and elapsed < 30
    report(capsys, 1, ok,
           f"{len(errors)} ops audited, max rel error {max(errors):.2e} "
           f"(< 1e-4), {elapsed:.1f}s (< 30s)")


def test_criterion_2_loss_identities(capsys):
    t, c = 17, 4
    loss = ad.softmax_cross_entropy(ad.Tensor(np.zeros((t, c))),
                                    np.zeros(t, dtype=np.int64))
    ce_err = abs(loss.values - np.log(c))

    unit = np.zeros(5)
    unit[0] = 1.0
    nce_err = 0.0
    for n_neg in (1, 3, 10):
        value = info_nce(unit, unit, [unit] * n_neg, temperature=1.0)
        nce_err = max(nce_err, abs(value - np.log(1 + n_neg)))

    cfg = ModelConfig(input_dim=3, num_classes=4, num_stages=3,
                      layers_per_stage=2, hidden_channels=8,
                      projection_dim=4)
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    labels = rng.integers(0, 4, size=40)
    outs = mstcn_forward(x, params, cfg)
    total, _ = total_objective([o.logits for o in outs], labels,
                               [([], [])] * 3,
                               contrast_weight=0.0, temperature=0.1)
    ce_sum = sum(ad.softmax_cross_entropy(ad.Tensor(o.logits.values),
                                          labels).values for o in outs)
    sum_err = abs(total.values - ce_sum)

    ok = ce_err < 1e-9 and nce_err < 1e-9 and sum_err < 1e-12
    report(capsys, 2, ok,
           f"uniform-logit CE off ln C by {ce_err:.1e} (< 1e-9), "
           f"equal-similarity InfoNCE off ln(1+|N|) by {nce_err:.1e} "
           f"(< 1e-9), lambda=0 total off sum of CE by {sum_err:.1e} "
           f"(< 1e-12)")


def test_criterion_3_metrics_oracles(capsys):
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    mismatches = 0
    auc_err = 0.0
    auc_checked = 0
    for _ in range(1000):
        c = int(rng.integers(2, 7))
        t = int(rng.integers(1, 51))
        truth = rng.integers(0, c, size=t)
        pred = rng.integers(0, c, size=t)
        conf = mt.confusion_matrix(truth, pred, c)
        p, r, f1, mp, mr, mf = mt.precision_recall_f1(conf)
        per, macros = set_arithmetic_metrics(truth.tolist(), pred.tolist(),
                                             c)
        for cls in range(c):
            mismatches += (p[cls] != per[cls]["precision"]
                           or r[cls] != per[cls]["recall"]
                           or f1[cls] != per[cls]["f1"])
        mismatches += (mp != macros["precision"] or mr != macros["recall"]
                       or mf != macros["f1"])
        mismatches += mt.jaccard_index(truth, pred, c) != macros["jaccard"]

        if t >= 4:
            btruth = rng.integers(0, 2, size=t)
            if len(np.unique(btruth)) == 2:
                scores = np.round(rng.uniform(size=t), 2)
                per_auc, _ = mt.roc_auc(btruth, scores_to_probs(scores))
                auc_err = max(
                    auc_err,
                    abs(per_auc[0] - trapezoid_auc(scores, btruth == 0)),
                    abs(per_auc[1] - trapezoid_auc(1 - scores,
                                                   btruth == 1)))
                auc_checked += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and auc_err < 1e-9 and elapsed < 10
    report(capsys, 3, ok,
           f"1000 pairs exact (0 mismatches), AUC vs trapezoid "
           f"{auc_err:.1e} over {auc_checked} cases (< 1e-9), "
           f"{elapsed:.1f}s (< 10s)")


def test_criterion_4_multiclass_window_pathology(capsys):
    base = default_synth_config()
    seqs = [synthesize_sequence(replace(base, seed=s)) for s in range(5)]
    rates = {size: float(np.mean([multiclass_window_rate(s, size, 1)
                                  for s in seqs]))
             for size in (8, 24, 64)}
    ok = rates[24] > 0.05 and rates[8] <= rates[24] <= rates[64]
    report(capsys, 4, ok,
           f"rate(24,1) = {rates[24]:.4f} (> 0.05), nondecreasing "
           f"{rates[8]:.4f} <= {rates[24]:.4f} <= {rates[64]:.4f}")


def test_criterion_5_synthetic_convergence(capsys):
    start = time.monotonic()
    results = []
    for seed in range(5):
        train, val, test = standard_split(seed * 1000)
        model_cfg = ModelConfig(input_dim=6, num_classes=5)
        train_cfg = TrainConfig(epochs=30, batch_size=1, seed=seed)
        state = init_train_state(model_cfg, seed)
        fit(state, train, val, train_cfg)
        rep, _ = evaluate(state.best_params, model_cfg, test)
        results.append((rep.macro_f1, rep.jaccard))
    elapsed = time.monotonic() - start
    passes = sum(f1 >= 0.90 and ji >= 0.80 for f1, ji in results)
    summary = ", ".join(f"seed {s}: F1 {f1:.3f}/JI {ji:.3f}"
                        for s, (f1, ji) in enumerate(results))
    ok = passes >= 4 and elapsed < 600
    report(capsys, 5, ok,
           f"{passes}/5 seeds reach F1 >= 0.90 and JI >= 0.80 "
           f"({summary}), {elapsed:.0f}s (< 600s)")


def test_criterion_6_ablation_ordering(tmp_path, capsys):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text("transition_blur = 8\ntotal_length = 1000\n"
                       "num_train = 6\nnum_val = 1\nnum_test = 1\n"
                       "seed = 7919\n")
    abl_cfg = tmp_path / "abl.cfg"
    abl_cfg.write_text(f"data_dir = {tmp_path / 'data'}\n"
                       "transition_blur = 8\nseed = 100\nepochs = 12\n"
                       "batch_size = 1\nablate_seeds = 5\n")
    assert main(["generate", "--config", str(gen_cfg),
                 "--out", str(tmp_path / "data")]) == 0
    assert main(["ablate", "--config", str(abl_cfg),
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()

    rows = (tmp_path / "out" / "ablation_summary.csv").read_text()
    table = {}
    for line in rows.splitlines()[1:]:
        cells = line.split(",")
        table[int(cells[0])] = (float(cells[3]), float(cells[4]))
    means = {v: table[v][0] for v in table}
    ok = means[5] >= means[2] and means[5] >= means[1]
    detail = ", ".join(f"variant {v}: JI {table[v][0]:.4f} +- "
                       f"{table[v][1]:.4f}" for v in sorted(table))
    report(capsys, 6, ok,
           f"mean test JI variant 5 >= variants 2 and 1 ({detail})")


def test_criterion_7_determinism(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("synth_classes = 3\nsynth_dim = 3\ntotal_length = 300\n"
                   "dwell_min = 20\ndwell_max = 60\nnum_train = 3\n"
                   "num_val = 1\nnum_test = 1\n"
                   f"data_dir = {tmp_path / 'data'}\n"
                   "layers_per_stage = 3\nhidden_channels = 12\n"
                   "projection_dim = 6\nepochs = 3\nbatch_size = 1\n"
                   "k_per_class = 6\n")
    assert main(["generate", "--config", str(cfg),
                 "--out", str(tmp_path / "data")]) == 0
    for name in ("a", "b"):
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / name)]) == 0
        assert main(["eval", str(tmp_path / name / "model.ckpt"),
                     str(tmp_path / "data" / "test"),
                     "--out", str(tmp_path / name / "eval")]) == 0
    capsys.readouterr()

    ckpt_same = ((tmp_path / "a" / "model.ckpt").read_bytes()
                 == (tmp_path / "b" / "model.ckpt").read_bytes())
    metrics_same = ((tmp_path / "a" / "eval" / "metrics.json").read_bytes()
                    == (tmp_path / "b" / "eval" / "metrics.json")
                    .read_bytes())
    ok = ckpt_same and metrics_same
    report(capsys, 7, ok,
           f"repeated cmd_train: checkpoints byte-identical = {ckpt_same}, "
           f"metrics JSON identical = {metrics_same}")


def test_criterion_8_round_trips(tmp_path, capsys):
    train, val, test = standard_split(0, n_train=2, n_val=1, n_test=1,
                                      total_length=300, num_classes=3,
                                      dim=3)
    model_cfg = ModelConfig(input_dim=3, num_classes=3, num_stages=2,
                            layers_per_stage=2, hidden_channels=8,
                            projection_dim=4)
    state = init_train_state(model_cfg, seed=0)
    fit(state, train, val, TrainConfig(epochs=2, batch_size=1, seed=0))
    before, _ = evaluate(state.params, model_cfg, test)
    save_checkpoint(state, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    after, _ = evaluate(loaded.params, loaded.model_config, test)
    ckpt_exact = before.to_json() == after.to_json()

    seq = synthesize_sequence(default_synth_config())
    write_csv_sequence(tmp_path / "seq.csv", seq)
    back = load_csv_dataset(tmp_path / "seq.csv")[0]
    data_err = float(np.max(np.abs(back.features - seq.features)))
    labels_same = np.array_equal(back.labels, seq.labels)

    ok = ckpt_exact and data_err <= 1e-12 and labels_same
    report(capsys, 8, ok,
           f"checkpoint round-trip evaluation identical = {ckpt_exact}, "
           f"dataset round-trip max error {data_err:.1e} (<= 1e-12), "
           f"labels preserved = {labels_same}")
