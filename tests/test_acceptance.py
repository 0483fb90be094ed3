"""Release gate: nine checks, one verdict line each.

Every check runs at its stated tolerance against the bundled synthetic
generator; nothing here is downscaled or stubbed. Three of the checks
(leakage-ordering, code-prior-moments, expansion-ablation) encode targets
this architecture does not reach on the bundled generator. They fail
honestly rather than being weakened; README's "Known failing checks"
section carries the analysis.
"""

import json
import math
import subprocess
import sys
import time
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import pytest

import conftest
from privemb.datagen import SynthParams, synth_graph
from privemb.evaluation import ClassifierSpec, audit
from privemb.gradcheck import run_suite
from privemb.models import disc_loss, obf_loss
from privemb.numkit import Rng, bce_with_logits, pin_blas_threads, softmax_cross_entropy
from privemb.training import TrainConfig, train

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2, 3, 4)
EVAL_REPEATS = 5
SPEC = ClassifierSpec()  # the 1-hidden-layer MLP is the canonical auditor
# processes that train and audit the runs, one BLAS thread each, so that the
# gate uses both cores of a 2-core machine; a run's bits do not depend on
# the process that makes it. A multiprocessing pool, not concurrent.futures:
# leaving its block on the time limit's exception terminates the workers,
# where a ProcessPoolExecutor would wait for a worker that never ends
WORKERS = 2

_DATA = None
_CACHE = {}


def report(label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def dataset():
    global _DATA
    if _DATA is None:
        _DATA = synth_graph(SynthParams())
    return _DATA


def _key(variant, seed, kw):
    return variant, seed, tuple(sorted(kw.items()))


def _metrics(key):
    """Train one run on generator defaults and audit it with the MLP."""
    variant, seed, kw = key
    kw = dict(kw)
    g, schema = dataset()
    cfg = TrainConfig(variant=variant, seed=seed, **kw)
    res = train(g, schema, cfg)
    rows = audit(res.Z, g, schema, [SPEC],
                 {"privacy": "gate/attack", "utility": "gate/utility", "link": "gate/link"},
                 cfg, repeats=EVAL_REPEATS, fraction=0.5, utility_fraction=0.7)
    means = {(r.task, r.metric): r.mean for r in rows}
    m = {
        "att_f1": means["privacy", "MacroF1"],
        "att_acc": means["privacy", "ACC"],
        "util_f1": means["utility:utility", "MacroF1"],
        "link_acc": means["link", "ACC"],
    }
    if res.z_code is not res.Z:
        m["code_mean_max"] = float(np.abs(res.z_code.mean(axis=0)).max())
        m["code_std_min"] = float(res.z_code.std(axis=0).min())
        m["code_std_max"] = float(res.z_code.std(axis=0).max())
    return m


def fill(*runs):
    """Put the metrics of each (variant, kw) run at every seed into _CACHE;
    the missing ones are made by a pool of WORKERS processes."""
    todo = [k for k in dict.fromkeys(_key(v, s, kw) for v, kw in runs for s in SEEDS)
            if k not in _CACHE]
    if todo:
        dataset()  # made once, before a forked worker inherits it
        with Pool(WORKERS, initializer=pin_blas_threads) as pool:
            _CACHE.update(zip(todo, pool.map(_metrics, todo, chunksize=1)))


def run_metrics(variant, seed, **kw):
    """The metrics of one run, which ``fill`` has made."""
    return _CACHE[_key(variant, seed, kw)]


def seed_mean(variant, metric, **kw):
    return float(np.mean([run_metrics(variant, s, **kw)[metric] for s in SEEDS]))


def trend_ok(means, decreasing, slack=0.02):
    """Monotone up to one adjacent violation of at most ``slack``."""
    diffs = np.diff(means)
    wrong = [d for d in diffs if d > 1e-12] if decreasing \
        else [-d for d in diffs if d < -1e-12]
    return len(wrong) == 0 or (len(wrong) == 1 and wrong[0] <= slack)


# ----------------------------------------------------------------- checks


def test_gradient_suite():
    start = time.perf_counter()
    results = run_suite(tol=1e-4, step=1e-5)
    elapsed = time.perf_counter() - start
    worst = max(r.max_error for r in results)
    ok = all(r.passed for r in results) and elapsed < 60.0
    report("gradients", ok,
           f"{len(results)} checks, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_analytic_loss_values():
    tol = 1e-9
    checks = []

    loss, _ = bce_with_logits(np.zeros((2, 2)), np.array([[1.0, 0], [0, 1.0]]))
    checks.append(("bce at zero", loss, math.log(2.0)))

    loss, _ = bce_with_logits(np.array([[2.0]]), np.array([[1.0]]))
    checks.append(("bce confident", loss, math.log(1.0 + math.exp(-2.0))))

    onehot = np.eye(4)
    loss, _ = softmax_cross_entropy(np.zeros((4, 4)), onehot, np.arange(4))
    checks.append(("uniform 4-way", loss, math.log(4.0)))

    zero = (np.zeros((3, 4)), np.zeros(4), np.zeros((4, 1)), np.zeros(1))
    loss, _, _ = disc_loss(Rng(0).randn(5, 3), Rng(1).randn(5, 3), *zero)
    checks.append(("disc at half", loss, 2.0 * math.log(2.0)))

    checks.append(("penalty off", obf_loss(1.234, None, 0.0), 1.234))
    checks.append(("penalty arithmetic", obf_loss(1.0, 0.5, 10.0), -4.0))

    worst = max(abs(got - want) for _, got, want in checks)
    report("analytic-values", worst <= tol,
           f"{len(checks)} closed-form values, max err {worst:.2e}")


def test_leakage_ordering_across_variants():
    start = time.perf_counter()
    apge = dict(lam=1.0, d_prime=16)
    fill(("GAE", {}), ("GAE_RM", {}), ("APGE", apge))
    att = {v: seed_mean(v, "att_f1", **(apge if v == "APGE" else {}))
           for v in ("GAE", "GAE_RM", "APGE")}
    link = {v: seed_mean(v, "link_acc", **(apge if v == "APGE" else {}))
            for v in ("GAE", "APGE")}
    util = {v: seed_mean(v, "util_f1", **(apge if v == "APGE" else {}))
            for v in ("GAE", "APGE")}
    elapsed = time.perf_counter() - start

    ok = (att["GAE"] >= att["GAE_RM"] >= att["APGE"]
          and att["GAE"] >= 0.80
          and att["GAE"] - att["APGE"] >= 0.15
          and link["APGE"] >= link["GAE"] - 0.06
          and util["APGE"] >= util["GAE"] - 0.10
          and elapsed < 900.0)
    report("leakage-ordering", ok,
           f"attack F1 GAE {att['GAE']:.3f} / GAE_RM {att['GAE_RM']:.3f} / "
           f"APGE {att['APGE']:.3f} (need gap >= 0.15); "
           f"link ACC {link['GAE']:.3f} -> {link['APGE']:.3f}; "
           f"utility F1 {util['GAE']:.3f} -> {util['APGE']:.3f}; "
           f"{elapsed:.0f}s")


def test_attack_resistance_vs_lambda():
    lams = (0.0, 1.0, 10.0, 100.0)
    fill(*(("APGE", dict(lam=lam, d_prime=16)) for lam in lams))
    means = [seed_mean("APGE", "att_f1", lam=lam, d_prime=16) for lam in lams]
    ok = trend_ok(means, decreasing=True)
    report("lambda-trend", ok,
           "attack F1 " + " -> ".join(f"{m:.3f}" for m in means)
           + " over penalty 0/1/10/100")


def test_code_width_trends():
    widths = (2, 4, 8, 16)
    fill(*(("APGE", dict(lam=1.0, d_prime=w)) for w in widths))
    util = [seed_mean("APGE", "util_f1", lam=1.0, d_prime=w) for w in widths]
    att = [seed_mean("APGE", "att_f1", lam=1.0, d_prime=w) for w in widths]
    ok = trend_ok(util, decreasing=False) and trend_ok(att, decreasing=False)
    report("code-width-trend", ok,
           "utility F1 " + " -> ".join(f"{m:.3f}" for m in util)
           + "; attack F1 " + " -> ".join(f"{m:.3f}" for m in att)
           + " over code width 2/4/8/16")


def test_code_prior_moments():
    worst = {"mean": 0.0, "std_lo": 1.0, "std_hi": 1.0}
    fill(("APDGE", dict(d_prime=16)), ("APGE", dict(lam=1.0, d_prime=16)))
    for variant in ("APDGE", "APGE"):
        kw = dict(d_prime=16) if variant == "APDGE" else dict(lam=1.0, d_prime=16)
        for seed in SEEDS:
            m = run_metrics(variant, seed, **kw)
            worst["mean"] = max(worst["mean"], m["code_mean_max"])
            worst["std_lo"] = min(worst["std_lo"], m["code_std_min"])
            worst["std_hi"] = max(worst["std_hi"], m["code_std_max"])
    ok = (worst["mean"] <= 0.3 and 0.5 <= worst["std_lo"]
          and worst["std_hi"] <= 1.5)
    report("code-prior-moments", ok,
           f"per-dim |mean| <= {worst['mean']:.2f} (limit 0.3), "
           f"std in [{worst['std_lo']:.2f}, {worst['std_hi']:.2f}] "
           f"(limits [0.5, 1.5])")


def test_expansion_ablation():
    fill(("APGE", dict(lam=1.0, d_prime=16)), ("APGE_NOEXP", dict(lam=1.0, d_prime=16)))
    full_link = seed_mean("APGE", "link_acc", lam=1.0, d_prime=16)
    full_att = seed_mean("APGE", "att_f1", lam=1.0, d_prime=16)
    flat_link = seed_mean("APGE_NOEXP", "link_acc", lam=1.0, d_prime=16)
    flat_att = seed_mean("APGE_NOEXP", "att_f1", lam=1.0, d_prime=16)
    gap = full_link - flat_link
    att_diff = abs(full_att - flat_att)
    ok = gap >= 0.03 and att_diff < 0.05
    report("expansion-ablation", ok,
           f"link ACC gap {gap:+.3f} (need >= +0.03), "
           f"attack F1 diff {att_diff:.3f} (need < 0.05)")


def test_byte_identical_reruns(tmp_path):
    conf = {
        "seed": 12,
        "output": str(tmp_path / "unused"),
        "synth": {"n": 200},
        "model": {"variant": "APGE", "d": 16, "d_prime": 8, "hidden": 32,
                  "T": 30, "lambda": 1.0},
        "eval": {"repeats": 3, "classifiers": ["mlp"]},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(conf))

    def one_pass(tag):
        out = tmp_path / tag
        r = subprocess.run([sys.executable, "-m", "privemb", "train",
                            "--config", str(config), "--out", str(out),
                            "--deterministic"], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        r = subprocess.run([sys.executable, "-m", "privemb", "attack",
                            "--config", str(config), "--out", str(out),
                            "--embeddings", str(out / "embeddings.csv"),
                            "--deterministic"], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return ((out / "embeddings.csv").read_bytes(),
                (out / "report.csv").read_bytes())

    emb_a, rep_a = one_pass("a")
    emb_b, rep_b = one_pass("b")
    ok = emb_a == emb_b and rep_a == rep_b
    report("determinism", ok,
           f"embeddings {len(emb_a)} bytes and report {len(rep_a)} bytes "
           "identical across processes")


def test_fullscale_harness_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    ok = readme.exists()
    text = readme.read_text() if ok else ""
    needed = ("Facebook100", "sampled", "role")
    missing = [w for w in needed if w not in text]
    ok = ok and not missing
    report("fullscale-harness", ok,
           "README documents the external-data harness"
           + (f" (missing: {missing})" if missing else
              "; large-graph runs switch to the sampled link loss"))
