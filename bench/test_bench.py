"""Tests of the benchmark itself: each output check catches a wrong output,
and the traced call counts follow the training schedule.

    python3 -m pytest bench -q

The fixtures run the real workloads' set-up and commands once (about a
minute in all) under ``.bench_runs/test``.
"""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import APGE, AUDIT, GAE, setup  # noqa: E402

SEED = 3


def _fresh(name):
    root = BENCH.parent / ".bench_runs" / "test" / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return root


def _traced_train(w):
    """Set up the workload, run its train command traced, return (root, totals)."""
    root = _fresh(w.name)
    setup(w, root, SEED)
    tracer = Tracer()
    tracer.install()
    try:
        result = run_op(w.ops[0], root, tracer)
    finally:
        tracer.uninstall()
    assert result["rc"] == 0, result["output"]
    return root, tracer.totals


@pytest.fixture(scope="module")
def apge_run():
    return _traced_train(APGE)


@pytest.fixture(scope="module")
def gae_run():
    return _traced_train(GAE)


def _training_problems(w, root, z=None, trace=None):
    out = root / w.ops[0].out
    z = checks.read_embeddings(out / "embeddings.csv") if z is None else z
    trace = checks.read_table(out / "loss_trace.csv") if trace is None else trace
    return checks.check_training(z, trace, checks.read_graph(root / "inputs"), SEED,
                                 w.variant, w.link_mode)


@pytest.mark.parametrize("which", ["apge_run", "gae_run"])
def test_training_outputs_pass(which, request):
    w = {"apge_run": APGE, "gae_run": GAE}[which]
    root, _ = request.getfixturevalue(which)
    out = root / w.ops[0].out
    z = checks.read_embeddings(out / "embeddings.csv")
    trace = checks.read_table(out / "loss_trace.csv")
    assert checks.check_embeddings(z, checks.read_graph(root / "inputs")[0], w.d) == []
    assert checks.check_trace(trace, w.variant, w.iterations) == []
    assert _training_problems(w, root) == []


@pytest.mark.parametrize("which", ["apge_run", "gae_run"])
def test_row_shuffled_embeddings_fail_loss_and_auc(which, request):
    w = {"apge_run": APGE, "gae_run": GAE}[which]
    root, _ = request.getfixturevalue(which)
    z = checks.read_embeddings(root / w.ops[0].out / "embeddings.csv")
    shuffled = z[np.random.default_rng(0).permutation(z.shape[0])]
    problems = _training_problems(w, root, z=shuffled)
    assert any("link BCE" in p for p in problems), problems
    assert any("AUC" in p for p in problems), problems


@pytest.mark.parametrize("which", ["apge_run", "gae_run"])
def test_scaled_trace_fails_loss(which, request):
    w = {"apge_run": APGE, "gae_run": GAE}[which]
    root, _ = request.getfixturevalue(which)
    trace = checks.read_table(root / w.ops[0].out / "loss_trace.csv")
    doubled = [dict(row, l_link=repr(2.0 * float(row["l_link"]))) for row in trace]
    problems = _training_problems(w, root, trace=doubled)
    assert any("link BCE" in p for p in problems), problems


def test_call_counts_follow_the_schedule(apge_run, gae_run):
    _, apge = apge_run
    _, gae = gae_run

    def calls(totals, name):
        return totals.get(name, {}).get("calls", 0)

    assert calls(apge, "models.link_loss_exact") == APGE.iterations
    assert calls(apge, "models.link_loss_sampled") == 0
    assert calls(gae, "models.link_loss_sampled") == GAE.iterations
    assert calls(gae, "models.link_loss_exact") == 0
    # four encoder forwards per APGE iteration, one per GAE iteration, plus
    # the final release
    assert calls(apge, "models.encoder_forward") == 4 * APGE.iterations + 1
    assert calls(gae, "models.encoder_forward") == GAE.iterations + 1


def _attack_rows(root):
    op = AUDIT.ops[0]
    result = run_op(op, root, None)
    assert result["rc"] == 0, result["output"]
    return checks.read_table(root / op.out / "report.csv")


def test_permuted_planted_labels_fail_bayes():
    root = _fresh(AUDIT.name)
    setup(AUDIT, root, SEED)
    bayes = checks.bayes_rates()["privacy"]
    rows = _attack_rows(root)
    assert checks.check_bayes(rows, "privacy", bayes, ("softmax",)) == []

    path = root / "inputs/attributes.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    col = table[0].index("private")
    labels = [row[col] for row in table[1:]]
    labels = [labels[i] for i in np.random.default_rng(0).permutation(len(labels))]
    for row, label in zip(table[1:], labels):
        row[col] = label
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(table)
    problems = checks.check_bayes(_attack_rows(root), "privacy", bayes, ("softmax",))
    assert any("below the Bayes rate" in p for p in problems), problems


def test_bayes_check_flags_an_accuracy_above_the_bayes_rate():
    rows = [{"task": "privacy", "classifier": "knn", "metric": "ACC", "mean": "0.9"}]
    assert checks.check_bayes(rows, "privacy", 0.77, ())


def test_auc_matches_pair_counting():
    rng = np.random.default_rng(1)
    pos = rng.integers(0, 5, 40).astype(float)
    neg = rng.integers(0, 5, 30).astype(float)
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    assert checks.auc(pos, neg) == pytest.approx(wins / (pos.size * neg.size), abs=1e-12)


def test_link_bce_matches_the_dense_formula():
    rng = np.random.default_rng(2)
    n = 700
    z = 0.3 * rng.standard_normal((n, 5))
    edges = np.unique(np.sort(rng.integers(0, n, (900, 2)), axis=1), axis=0)
    edges = edges[edges[:, 0] != edges[:, 1]]
    t = np.eye(n)
    t[edges[:, 0], edges[:, 1]] = t[edges[:, 1], edges[:, 0]] = 1.0
    x = z @ z.T
    pw = (t.size - t.sum()) / t.sum()
    dense = np.mean(pw * t * np.logaddexp(0, -x) + (1 - t) * np.logaddexp(0, x))
    assert checks.link_bce(z, edges)[0] == pytest.approx(dense, rel=1e-12)


def test_loss_check_follows_a_turning_curve():
    """Near the turn of a parabola the last steps are small, yet the next
    value is still predicted within the change of the step."""
    rng = np.random.default_rng(4)
    n = 300
    z = 0.3 * rng.standard_normal((n, 5))
    edges = np.unique(np.sort(rng.integers(0, n, (400, 2)), axis=1), axis=0)
    edges = edges[edges[:, 0] != edges[:, 1]]
    released = checks.link_bce(z, edges)[0]
    a, t_next = 1e-4, 21
    trace = [{"l_link": repr(released + a * ((t - t_next + 1.5) ** 2 - 2.25))}
             for t in range(1, t_next)]
    gap, allowed, _ = checks.link_loss_gap(z, edges, trace, sampled=False)
    assert gap == pytest.approx(2 * a) and gap <= allowed
    shifted = [{"l_link": repr(float(row["l_link"]) + 10 * a)} for row in trace]
    gap, allowed, _ = checks.link_loss_gap(z, edges, shifted, sampled=False)
    assert gap > allowed


def test_bayes_rates():
    assert checks.bayes_rates()["privacy"] == pytest.approx(0.773373, abs=1e-6)
    # four classes: P(the true coordinate is the largest), by Monte Carlo
    rng = np.random.default_rng(3)
    x = rng.standard_normal((400000, 4))
    x[:, 0] += AUDIT.params["sep"]
    mc = np.mean(np.argmax(x, axis=1) == 0)
    assert checks.bayes_rates()["utility:utility"] == pytest.approx(mc, abs=3e-3)


def test_run_fails_without_program_source():
    root = _fresh("no-source")
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", root)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", APGE.name,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
