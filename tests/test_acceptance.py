"""Acceptance suite: oracle cross-checks plus end-to-end statistical gates.

Each check prints one PASS/FAIL line on the terminal (bypassing pytest's
capture) and asserts the same condition.  The end-to-end gates run the
full eight-stage pipeline on the bundled demo corpus; set
TOPICAUDIT_SMS_TSV to a ham/spam TSV path to run them against a real
corpus instead.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from topicaudit import (attribution, classifiers, cli, corpus, demo,
                        features, profiling, scoring)
from topicaudit.config import load_config
from topicaudit.pipeline import _load_csr, _read_scores

STAGES = ("prepare", "train", "explain", "profile", "score",
          "evaluate", "repair", "report")
EQUIVALENT_DETECTORS = ("entropy", "doctor_alpha", "doctor_beta", "odin")


def _verdict(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f"  [{detail}]" if detail else ""
        print(f"\nacceptance {num:2d} {name}: "
              f"{'PASS' if ok else 'FAIL'}{suffix}")


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    tsv = os.environ.get("TOPICAUDIT_SMS_TSV")
    if tsv is None:
        tsv = root / "sms.tsv"
        demo.write_tsv(tsv, demo.generate())
    out = root / "run"
    out.mkdir()
    cfg_file = root / "config.json"
    cfg_file.write_text(json.dumps({"dataset_path": str(tsv),
                                    "out_dir": str(out)}), encoding="utf-8")
    start = time.monotonic()
    for stage in STAGES:
        rc = cli.main([stage, "--config", str(cfg_file)])
        assert rc == 0, f"stage {stage} failed during the acceptance run"
    elapsed = time.monotonic() - start
    return SimpleNamespace(cfg=load_config(cfg_file), cfg_file=cfg_file,
                           tsv=Path(tsv), out=out, elapsed=elapsed)


# ------------------------------------------------------------- criterion 1

def _brute_shapley(predict_fn, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Exact Shapley values over all 2^d coalitions, averaging the
    prediction with coalition features pinned to x across background rows."""
    d = x.size
    values = np.empty(2 ** d)
    for m in range(2 ** d):
        mask = np.array([(m >> j) & 1 for j in range(d)], dtype=bool)
        z = np.where(mask[None, :], x[None, :], rows)
        values[m] = float(np.asarray(predict_fn(z)).mean())
    fact = [math.factorial(i) for i in range(d + 1)]
    phi = np.zeros(d)
    for m in range(2 ** d):
        s = bin(m).count("1")
        w = fact[s] * fact[d - s - 1] / fact[d]
        for j in range(d):
            if not (m >> j) & 1:
                phi[j] += w * (values[m | (1 << j)] - values[m])
    return phi


def test_c01_shapley_oracle(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(3)

    d = 7
    rows = rng.uniform(-1.0, 1.0, (6, d))
    x = rng.uniform(1.5, 2.5, d)
    a, b = rng.normal(size=d), rng.normal(size=d)

    def bent(Z):
        return np.tanh(Z @ a) + 0.5 * np.sin(Z @ b)

    bg = attribution.Background(rows=rows, ids=tuple(range(6)))
    got = attribution.kernel_shap(bent, x, bg, seed=0)
    phi = np.array([got.phi.get(j, 0.0) for j in range(d)])
    expected = _brute_shapley(bent, x, rows)
    err_brute = float(np.abs(phi - expected).max())

    d2 = 10
    w = rng.normal(size=d2)
    bias = float(rng.normal())
    rows2 = rng.uniform(0.0, 1.0, (8, d2))
    x2 = rng.uniform(2.0, 3.0, d2)
    bg2 = attribution.Background(rows=rows2, ids=tuple(range(8)))
    model = classifiers.LinearModel(kind="logreg", weights=w, bias=bias)
    kern = attribution.kernel_shap(lambda Z: Z @ w + bias, x2, bg2, seed=0)
    lin_phi, _ = attribution.linear_shap(model, x2, bg2.mean)
    err_lin = max(abs(kern.phi.get(j, 0.0) - lin_phi[j]) for j in range(d2))

    elapsed = time.monotonic() - start
    ok = err_brute <= 1e-6 and err_lin <= 1e-6 and elapsed < 10.0
    _verdict(capsys, 1, "shapley oracle", ok,
             f"brute err {err_brute:.2e}, linear err {err_lin:.2e}, "
             f"{elapsed:.1f}s")
    assert ok


# ------------------------------------------------------------- criterion 2

def test_c02_local_accuracy(full_run, capsys):
    start = time.monotonic()
    messages, _ = corpus.read_dataset(full_run.out / "dataset.jsonl")
    test_ids = [m.id for m in messages if m.split == "test"]
    rng = np.random.default_rng(0)
    sample = [test_ids[i] for i in
              rng.choice(len(test_ids), size=100, replace=False)]

    ids = [m.id for m in messages]
    space = features.read_space(full_run.out / "space.json")
    X, _ = _load_csr(full_run.cfg, "acceptance", full_run.out / "vectors.npz",
                     "prepare", ids, space.n_columns)
    phi, shap = _load_csr(full_run.cfg, "acceptance",
                          full_run.out / "shap.npz", "explain", ids,
                          space.n_columns)
    row_of = {msg_id: i for i, msg_id in enumerate(ids)}
    model = classifiers.read_model(full_run.out / "model.json")
    plus = attribution.polarity_supports(phi, "plus")
    minus = attribution.polarity_supports(phi, "minus")
    assert str(shap["explained_output"]) == "margin"

    margins = X @ model.weights + model.bias
    worst = 0.0
    for mid in sample:
        i = row_of[mid]
        recon = (shap["base_values"][i] + plus[i].sum() - minus[i].sum())
        worst = max(worst, abs(recon - margins[i]))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 120.0
    _verdict(capsys, 2, "local accuracy", ok,
             f"max err {worst:.2e} over 100 messages, {elapsed:.0f}s")
    assert ok


# ------------------------------------------------------------- criterion 3

def test_c03_nmf_objective_and_recovery(capsys):
    worst_rise = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.random((30, 12))
        _, _, trace = profiling.nmf(X, n_topics=4, max_iters=200, seed=seed)
        diffs = np.diff(trace)
        slack = 1e-9 * np.maximum(1.0, np.array(trace[:-1]))
        worst_rise = max(worst_rise, float((diffs - slack).max()))

    rng = np.random.default_rng(99)
    u = rng.random(20) + 0.5
    v = rng.random(9) + 0.5
    X1 = np.outer(u, v)
    W, H, _ = profiling.nmf(X1, n_topics=1, max_iters=5000, tol=0.0, seed=0)
    rel = float(np.linalg.norm(X1 - W @ H) / np.linalg.norm(X1))

    ok = worst_rise <= 0.0 and rel <= 1e-6
    _verdict(capsys, 3, "nmf monotone + rank-1 recovery", ok,
             f"rank-1 rel err {rel:.2e}")
    assert ok


# ------------------------------------------------------------- criterion 4

def _js_direct(p: np.ndarray, q: np.ndarray) -> float:
    m = 0.5 * (p + q)

    def kl(a: np.ndarray) -> float:
        total = 0.0
        for ai, mi in zip(a, m):
            if ai > 0.0:
                total += ai * math.log(ai / mi)
        return total

    return 0.5 * (kl(p) + kl(q))


def test_c04_js_divergence_oracle(capsys):
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(1000):
        dim = 2 + i % 15
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        if i % 5 == 0 and dim > 2:
            p[0] = 0.0
            p /= p.sum()
        got = scoring.js_divergence(p, q)
        worst = max(worst, abs(got - _js_direct(p, q)))
        assert 0.0 <= got <= scoring.LN2 + 1e-12
        assert got == scoring.js_divergence(q, p)
    ok = worst <= 1e-12
    _verdict(capsys, 4, "jensen-shannon oracle", ok, f"max err {worst:.2e}")
    assert ok


# ------------------------------------------------------------- criterion 5

def test_c05_auroc_oracle(capsys):
    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(50):
        n_pos = int(rng.integers(1, 100))
        n_neg = int(rng.integers(1, 201 - n_pos))
        n = n_pos + n_neg
        if trial % 2 == 0:
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(0, 5, size=n).astype(float)
        flags = np.zeros(n, dtype=bool)
        flags[rng.choice(n, size=n_pos, replace=False)] = True
        got = scoring.auroc(scores, flags)
        pos, neg = scores[flags], scores[~flags]
        wins = float((pos[:, None] > neg[None, :]).sum())
        wins += 0.5 * float((pos[:, None] == neg[None, :]).sum())
        expected = wins / (len(pos) * len(neg))
        worst = max(worst, abs(got - expected))
    ok = worst == 0.0
    _verdict(capsys, 5, "auroc all-pairs oracle", ok, f"max err {worst:.2e}")
    assert ok


# ------------------------------------------------------------- criterion 6

def _group_means(scores: dict[str, np.ndarray]) -> dict[str, float]:
    xmap = scores["xmap_original"]
    test = (scores["split"] == "test") & ~np.isnan(xmap)
    out = {}
    for name, predicted, gold in (("tp", 1, 1), ("fp", 1, 0),
                                  ("tn", 0, 0), ("fn", 0, 1)):
        vals = xmap[test & (scores["predicted"] == predicted)
                    & (scores["gold"] == gold)]
        out[name] = float(np.mean(vals)) if vals.size else float("nan")
    return out


def test_c06_divergence_separation(full_run, capsys):
    means = _group_means(_read_scores(full_run.cfg, "acceptance"))
    fp_ratio = means["fp"] / means["tp"]
    fn_ratio = means["fn"] / means["tn"]
    ok = (fp_ratio >= 1.5 and fn_ratio >= 1.2
          and full_run.elapsed < 30 * 60)
    _verdict(capsys, 6, "divergence separation", ok,
             f"fp/tp {fp_ratio:.2f} (>=1.5), fn/tn {fn_ratio:.2f} (>=1.2), "
             f"pipeline {full_run.elapsed:.0f}s")
    assert ok


# ------------------------------------------------------------- criterion 7

def test_c07_detector_quality(full_run, capsys):
    table = _read_scores(full_run.cfg, "acceptance")
    pos = ((table["split"] == "test") & (table["predicted"] == 1)
           & ~np.isnan(table["xmap_original"]))
    scores = table["xmap_original"][pos]
    flags = table["gold"][pos] != table["predicted"][pos]
    point = scoring.auroc(scores, flags)
    assert point is not None

    # Stratified bootstrap: resample within the misclassified and the
    # correct groups so every resample keeps both classes populated.
    rng = np.random.default_rng(42)
    mis, cor = scores[flags], scores[~flags]
    boots = np.empty(2000)
    for i in range(2000):
        s = np.concatenate([rng.choice(mis, mis.size, replace=True),
                            rng.choice(cor, cor.size, replace=True)])
        f = np.zeros(s.size, dtype=bool)
        f[:mis.size] = True
        boots[i] = scoring.auroc(s, f)
    lower = float(np.percentile(boots, 1.0))
    ok = point >= 0.85 and lower > 0.5
    _verdict(capsys, 7, "detector quality (positive subset)", ok,
             f"auroc {point:.4f} (>=0.85), bootstrap p01 {lower:.4f} (>0.5)")
    assert ok


# ------------------------------------------------------------- criterion 8

def test_c08_output_detector_equivalence(full_run, capsys):
    report = json.loads(
        (full_run.out / "detector_report.json").read_text(encoding="utf-8"))
    spread = 0.0
    for subset, body in report["subsets"].items():
        aurocs = [body["detectors"][d]["auroc"]
                  for d in EQUIVALENT_DETECTORS]
        assert all(a is not None for a in aurocs), subset
        spread = max(spread, max(aurocs) - min(aurocs))
    ok = spread <= 1e-12
    _verdict(capsys, 8, "binary output-detector equivalence", ok,
             f"max auroc spread {spread:.2e}")
    assert ok


# ------------------------------------------------------------- criterion 9

def test_c09_repair_accounting(capsys):
    rng = np.random.default_rng(5)
    ids = list(range(24))
    polarity_of = {i: ("plus" if i % 2 else "minus") for i in ids}
    xmap = {i: float(rng.uniform(0.05, scoring.LN2 - 0.05)) for i in ids}
    rejections = [
        scoring.Rejection(threshold=0.4, rejected_ids=tuple(ids[:12]),
                          true_rejections=tuple(ids[:5]),
                          false_rejections=tuple(ids[5:12])),
        scoring.Rejection(threshold=0.3, rejected_ids=tuple(ids[12:]),
                          true_rejections=tuple(ids[12:20]),
                          false_rejections=tuple(ids[20:])),
    ]
    false_all = ids[5:12] + ids[20:]
    true_all = ids[:5] + ids[12:20]
    taus = {"plus": 0.3, "minus": 0.5}
    got = scoring.repair(rejections, xmap, taus, polarity_of)

    def comes_back(i: int) -> bool:
        return xmap[i] <= taus[polarity_of[i]]

    exp_rec = [i for i in false_all if comes_back(i)]
    exp_leak = [i for i in true_all if comes_back(i)]
    exact = (got.recov_r == len(exp_rec) / len(false_all)
             and got.leak_r == len(exp_leak) / len(true_all)
             and got.n_correct_fix == len(exp_rec) - len(exp_leak)
             and got.re_accepted_ids == tuple(sorted(exp_rec + exp_leak)))

    closed = scoring.repair(rejections, xmap,
                            {"plus": 0.0, "minus": 0.0}, polarity_of)
    opened = scoring.repair(rejections, xmap,
                            {"plus": scoring.LN2, "minus": scoring.LN2},
                            polarity_of)
    extremes = ((closed.recov_r, closed.leak_r) == (0.0, 0.0)
                and (opened.recov_r, opened.leak_r) == (1.0, 1.0))

    ok = exact and extremes
    _verdict(capsys, 9, "repair accounting", ok,
             f"recov {got.n_recovery}, leak {got.n_leakage}, "
             f"extremes (0,0)/(1,1)")
    assert ok


# ------------------------------------------------------------ criterion 10

def test_c10_determinism(full_run, capsys, tmp_path):
    out2 = tmp_path / "run2"
    out2.mkdir()
    cfg2 = tmp_path / "config.json"
    cfg2.write_text(json.dumps({"dataset_path": str(full_run.tsv),
                                "out_dir": str(out2)}), encoding="utf-8")
    for stage in STAGES:
        assert cli.main([stage, "--config", str(cfg2)]) == 0

    names = sorted(p.name for p in full_run.out.iterdir())
    same_names = names == sorted(p.name for p in out2.iterdir())
    diffs = [name for name in names
             if (full_run.out / name).read_bytes() != (out2 / name).read_bytes()]
    ok = same_names and not diffs
    _verdict(capsys, 10, "byte-identical reruns", ok,
             "all artifacts match" if ok else f"differs: {', '.join(diffs)}")
    assert ok
