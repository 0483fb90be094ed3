"""Golden output bytes: three small runs, the audits of one of them and a
sweep on each axis, whose output files keep their sha256 digests.

A refactor that claims "same bytes" is checked here. A change that alters
output bytes on purpose updates ``DIGESTS`` and logs old -> new in
CHANGES.md with its reason. The bits depend on the BLAS kernels OpenBLAS
picks for the CPU, so the platform the digests were taken on is stored
beside them, and a mismatch names what differs from it.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from privemb.cli import main
from privemb.evaluation import SWEEP_AXES

# where DIGESTS were taken
RECORDED = {"numpy": "2.4.6", "OpenBLAS": "0.3.31.188.0",
            "CPU": "Intel(R) Xeon(R) Processor"}

DIGESTS = {
    "apge-exact/embeddings.csv":
        "a69ec9cbd504955900aee5b019805569964870a9065c28e8ee957c36603069f4",
    "apge-exact/loss_trace.csv":
        "3d1fc47d92c94c7940e913f5b3f543c763d8c7441875566c5fd84da0efc46176",
    "gae-sampled/embeddings.csv":
        "93f42fc25c0cb9f09d6524bbae5374bd873d9d18e3534cd8e754676cc59f6dce",
    "gae-sampled/loss_trace.csv":
        "73498cec1aaa8d9c1229e98378a0ba91c01687942e35d9c0eb658341c370f952",
    "attack/report.csv":
        "29d2909a862aa6455af8d2be7bf5ed9a59725cf3f9b6a4d64de75b19822105aa",
    "eval-attr/report.csv":
        "fd3551aa351063ff96996a62e12f6961d03d56de48edf79de062ce65dde62e69",
    "eval-link/report.csv":
        "fc91dea982d0dc7cf23446d132197945adc2608a1a8e5df019ff3aeb1417f67b",
    "sweep-dprime/report.csv":
        "776c09e7cd9677d6824e4cfbfef639dfeaa04aebcc9ed71902fdf0df942dfc7c",
    "sweep-fraction/report.csv":
        "66a14b84f702d5df08176ed046be84f5e7b46d46288dbbdfc0cb824e34d84efa",
    "sweep-lambda/report.csv":
        "107a521c8b86c6d7a5a15c0e9130f233d5d439302448f5d36cc84b8342976157",
}

SYNTH = {"n": 200, "private_classes": 2, "utility_classes": 3, "p_in": 0.08, "p_out": 0.01}

RUNS = {
    "apge-exact": {"synth": SYNTH, "model": {"variant": "APGE", "d": 16, "d_prime": 4,
                                             "hidden": 32, "T": 30, "link_loss": "exact"}},
    "gae-sampled": {"synth": dict(SYNTH, n=120), "model": {"variant": "GAE", "d": 8,
                                                           "hidden": 16, "T": 10,
                                                           "link_loss": "sampled"}},
}
AUDITS = ("attack", "eval-attr", "eval-link")
AUDIT_EVAL = {"classifiers": ["softmax", "mlp", "knn"], "repeats": 2}
# two values per axis, two models per value, one classifier
SWEEP_EVAL = {"classifiers": ["mlp"], "sweep_repeats": 2, "lambda_values": [0.0, 1.0],
              "dprime_values": [2, 4], "fractions": [0.3, 0.5]}


def _platform() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "OpenBLAS": blas.get("version"), "CPU": cpu}


def _command(tmp, command, run, *extra, evaluation=AUDIT_EVAL, out=None):
    config = tmp / f"{run}.json"
    config.write_text(json.dumps(dict(RUNS[run], seed=5, output=str(tmp / run),
                                      eval=evaluation)))
    out = tmp / (out or (run if command == "train" else command))
    assert main([command, "--config", str(config), "--out", str(out), *extra]) == 0
    return out


_OUTPUTS = {}


def _outputs(tmp_path_factory, run):
    """The folder of ``run``'s outputs, made once per session; the audits
    read the APGE run's embedding."""
    if run not in _OUTPUTS:
        tmp = tmp_path_factory.mktemp("golden")
        if run == "audits":
            embeddings = _outputs(tmp_path_factory, "apge-exact") / "apge-exact/embeddings.csv"
            for command in AUDITS:
                _command(tmp, command, "apge-exact", "--embeddings", str(embeddings))
        else:
            _command(tmp, "train", run)
        _OUTPUTS[run] = tmp
    return _OUTPUTS[run]


def _check(folder, names):
    digests = {name: hashlib.sha256((folder / name).read_bytes()).hexdigest() for name in names}
    changed = [f"{name}: {digest}" for name, digest in digests.items() if digest != DIGESTS[name]]
    if changed:
        now = _platform()
        moved = [f"{key} {RECORDED[key]} -> {now[key]}" for key in RECORDED
                 if now[key] != RECORDED[key]]
        cause = ("the platform differs from the recorded one: " + "; ".join(moved) if moved
                 else "numpy, OpenBLAS and the CPU are as recorded, so the program's "
                      "output changed")
        pytest.fail("output bytes changed (" + cause + "); new digests:\n  "
                    + "\n  ".join(changed))


@pytest.mark.parametrize("run", sorted(RUNS))
def test_training_outputs(tmp_path_factory, run):
    _check(_outputs(tmp_path_factory, run), [f"{run}/embeddings.csv", f"{run}/loss_trace.csv"])


def test_audit_reports(tmp_path_factory):
    _check(_outputs(tmp_path_factory, "audits"), [f"{c}/report.csv" for c in AUDITS])


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_sweep_reports(tmp_path, axis):
    _command(tmp_path, "sweep", "apge-exact", "--axis", axis, evaluation=SWEEP_EVAL,
             out=f"sweep-{axis}")
    _check(tmp_path, [f"sweep-{axis}/report.csv"])
