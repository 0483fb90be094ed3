"""privemb benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from its
``src/``. The run makes the workload's inputs from the seed (set-up,
repeated and timed), runs rounds of the workload's CLI commands in a
worker process for about S seconds, checks the outputs apart from the
program, and prints one line per metric and, last, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from spans recorded around the program's public functions.

All times are process CPU seconds with BLAS pinned to one thread: on a
shared machine wall time also counts the time the process is not
scheduled, and the single-threaded program's CPU time is its busy time.
Wall times are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up repeats, in two batches: before the rounds and after them, each
# of at least SETUP_MIN_REPEATS and SETUP_MIN_CPU_S; the machine's speed
# drifts by tens of percent within seconds, so the median needs many
# repeats spread out in time
SETUP_MIN_REPEATS = 3
SETUP_MIN_CPU_S = 1.5
WORKER_TIMEOUT_S = 150

LAYER_METRICS = {
    "cli.train_s": "s", "cli.attack_s": "s", "cli.eval-attr_s": "s", "cli.eval-link_s": "s",
    "datagen.synth_graph_s": "s",
    "graphcore.save_graph_s": "s", "graphcore.load_graph_s": "s",
    "graphcore.split_edges_s": "s", "graphcore.split_edges.rng_calls": "count",
    "graphcore.normalize_adjacency_s": "s",
    "training.train_s": "s", "training.prepare_batch_s": "s",
    "training.export_embeddings_s": "s", "training.load_embeddings_s": "s",
    "models.encoder_forward.calls_per_iter": "1/iter", "models.encoder_forward_s": "s",
    "models.encoder_backward.calls_per_iter": "1/iter", "models.encoder_backward_s": "s",
    "models.link_loss_exact_s": "s", "models.link_loss_exact.calls": "count",
    "numkit.bce_with_logits_s": "s",
    "models.link_loss_sampled_s": "s", "models.link_loss_sampled.calls": "count",
    "models.link_loss_sampled.peak_mb": "MB", "models.sample_negative_pairs_s": "s",
    "models.attr_loss_s": "s", "models.attacker_loss_s": "s", "models.disc_loss_s": "s",
    "models.gen_fool_loss_s": "s",
    "numkit.spmm_s": "s", "numkit.spmm.calls": "count", "numkit.Adam.step_s": "s",
    "numkit.softmax_cross_entropy_s": "s",
    "evaluation.fit.mlp_s": "s", "evaluation.fit.softmax_s": "s",
    "evaluation.predict.knn_s": "s", "evaluation.predict.knn.peak_mb": "MB",
    "evaluation.link_eval.self_s": "s", "evaluation.link_eval.rng_calls": "count",
    "evaluation.split_nodes.calls_per_repeat": "1/split",
    "tracing.overhead_pct": "%",
}


def _prepare_imports():
    """Pin BLAS to one thread, for this process and the worker, before
    numpy loads; import the program from this tree's src/, never from
    elsewhere."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "privemb" / "cli.py").is_file():
        sys.exit(f"bench: no program source at {src / 'privemb'}")
    sys.path[:0] = [str(src), str(BENCH)]
    import privemb
    if Path(privemb.__file__).resolve().parent != (src / "privemb").resolve():
        sys.exit(f"bench: privemb was imported from {privemb.__file__}, not {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def layer_value(name, totals, w):
    """One per-layer metric from the span totals of one round."""
    def total(span, key):
        return totals.get(span, {}).get(key, 0)

    if name == "models.encoder_forward.calls_per_iter":
        calls = total("models.encoder_forward", "calls")
        # the last release after the final iteration is not part of one
        return (calls - 1) / w.iterations if calls else 0.0
    if name == "models.encoder_backward.calls_per_iter":
        calls = total("models.encoder_backward", "calls")
        return calls / w.iterations if calls else 0.0
    if name == "evaluation.split_nodes.calls_per_repeat":
        calls = total("evaluation.split_nodes", "calls")
        return calls / w.node_splits if w.node_splits else 0.0
    for suffix, key in ((".self_s", "self_s"), (".rng_calls", "rng_calls"),
                        (".calls", "calls"), (".peak_mb", "peak_mb"), ("_s", "s")):
        if name.endswith(suffix):
            return total(name[:-len(suffix)], key)
    raise KeyError(name)


def run_setup(w, root, seed, trace):
    """Make the inputs at least SETUP_MIN_REPEATS times and until
    SETUP_MIN_CPU_S have passed; returns per-repeat CPU seconds and,
    traced, per-repeat span totals."""
    from tracer import Tracer
    from workloads import setup

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    times, totals = [], []
    try:
        while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_CPU_S:
            if tracer is not None:
                tracer.reset()
            cpu = time.process_time()
            setup(w, root, seed)
            times.append(time.process_time() - cpu)
            if tracer is not None:
                totals.append(tracer.totals)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times, totals


def run_worker(w, root, seconds, trace):
    result = root / "worker.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), w.name, str(root), str(seconds),
           str(trace), str(result)]
    proc = subprocess.run(cmd, timeout=WORKER_TIMEOUT_S, capture_output=True, text=True)
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"bench: worker exited with {proc.returncode}")
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return json.loads(result.read_text(encoding="utf-8"))["rounds"], peak_mb


def op_problems(w, root, op):
    """Check the last outputs of one command; returns a list of problems."""
    import checks
    from workloads import AUDIT

    conf = json.loads((root / op.config).read_text(encoding="utf-8"))
    out = root / op.out
    if op.command == "train":
        graph = checks.read_graph(root / "inputs")
        z = checks.read_embeddings(out / "embeddings.csv")
        trace = checks.read_table(out / "loss_trace.csv")
        problems = checks.check_embeddings(z, graph[0], w.d)
        problems += checks.check_trace(trace, w.variant, w.iterations)
        if not problems:
            problems += checks.check_training(z, trace, graph, conf["seed"], w.variant,
                                              w.link_mode)
        return problems
    rows = checks.read_table(out / "report.csv")
    classifiers = conf.get("eval", {}).get("classifiers", ["mlp"])
    task = {"attack": "privacy", "eval-attr": "utility:utility", "eval-link": "link"}[op.command]
    problems = checks.check_report(rows, task, classifiers)
    if w is AUDIT and task in ("privacy", "utility:utility"):
        tight = ("softmax",) if task == "privacy" else ()
        problems += checks.check_bayes(rows, task, checks.bayes_rates()[task], tight)
    return problems


def evaluate(w, root, rounds):
    """(attempted, failed, problems by command, exit failures) over every
    round. A command fails when it exits non-zero, when its outputs fail a
    check, or when they differ in bytes from the first round's."""
    problems = {}
    for op in w.ops:
        try:
            problems[op.command] = op_problems(w, root, op)
        except (OSError, ValueError, KeyError) as e:
            problems[op.command] = [f"outputs unreadable: {e!r}"]
    owner = {f: op.command for f in w.deterministic for op in w.ops if f.startswith(op.out + "/")}
    first = rounds[0]["hashes"]
    attempted = failed = 0
    exits = []
    for r, record in enumerate(rounds, 1):
        changed = {owner[f] for f, h in record["hashes"].items() if h is None or h != first[f]}
        for cmd in sorted(changed):
            problems[cmd].append(f"round {r} wrote different bytes than round 1")
        for op in record["ops"]:
            attempted += 1
            failed += bool(op["rc"] != 0 or problems[op["command"]])
            if op["rc"] != 0:
                exits.append(f"{op['command']} in round {r} exited {op['rc']}: "
                             f"{op['output'].strip()[-300:]}")
    return attempted, failed, problems, exits


def main(argv=None):
    args = parse_args(argv)
    _prepare_imports()
    import numpy
    import scipy

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    root = ROOT / ".bench_runs" / w.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)

    setup_times, setup_totals = run_setup(w, root, args.seed, args.trace)
    rounds, peak_mb = run_worker(w, root, args.seconds, args.trace)
    # the inputs are deterministic, so making them again rewrites the same bytes
    more_times, more_totals = run_setup(w, root, args.seed, args.trace)
    setup_times += more_times
    setup_totals += more_totals
    attempted, failed, problems, exits = evaluate(w, root, rounds)
    correct = not any(problems[op["command"]] for r in rounds for op in r["ops"]
                      if op["rc"] == 0)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]

    def round_cpu(r):
        return sum(op["cpu_s"] for op in r["ops"])

    info = {"workload": w.name, "seed": args.seed, "trace": args.trace,
            "rounds": len(rounds), "nproc": os.cpu_count(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}
    print(json.dumps(info))
    for i, r in enumerate(rounds, 1):
        print(f"round {i}{' traced' if r['traced'] else ''}: " + ", ".join(
            f"{op['command']} {op['cpu_s']:.3f} s cpu ({op['user_s']:.2f} user + "
            f"{op['sys_s']:.2f} sys) / {op['wall_s']:.3f} s wall"
            for op in r["ops"]))
    for line in exits:
        print(f"FAILED {line}")
    for cmd, found in problems.items():
        for p in found:
            print(f"CHECK FAILED {cmd}: {p}")

    if args.trace:
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            if name == "tracing.overhead_pct":
                # against the untraced rounds after the warm-up round
                value = 100.0 * (statistics.median(round_cpu(r) for r in traced)
                                 / statistics.median(round_cpu(r) for r in plain[1:]) - 1.0)
            elif name == "graphcore.save_graph_s":
                value = statistics.median(layer_value(name, t, w) for t in setup_totals)
            else:
                value = statistics.median(layer_value(name, r["totals"], w) for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "commands_s": {"value": statistics.median(round_cpu(r) for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"attempted: {attempted}, failed: {failed}, correct: {correct}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (root / "result.json").write_text(json.dumps(dict(info, **result), indent=1) + "\n",
                                      encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
