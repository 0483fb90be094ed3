"""Runs the rounds of one workload in a process of its own.

Usage: python3 worker.py WORKLOAD ROOT SECONDS TRACE RESULT_JSON

Each round calls ``privemb.cli.main`` once per command of the workload,
in this process, and times it in process CPU time. Rounds repeat while
the next one is expected to end within SECONDS, and there are at least
the workload's ``min_rounds`` (two or more), so every run can compare the
bytes of two rounds. With TRACE=1 the
first two rounds run untraced (a warm-up, then the reference for the
tracing overhead) and at least one more with the tracer installed. The
parent reads the peak RSS of this process once it has exited, so the
inputs the parent made are not counted in it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from privemb.cli import main  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PLAIN_ROUNDS_BEFORE_TRACE = 2


def run_op(op, root, tracer):
    argv = op.argv(root)
    sink = io.StringIO()
    cpu = time.process_time()
    before = os.times()
    wall = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            if tracer is None:
                rc = main(argv)
            else:
                rc = tracer.span(f"cli.{op.command}", main, argv)
        except Exception:  # an uncaught program error fails this command only
            traceback.print_exc()
            rc = -1
    after = os.times()
    return {"command": op.command, "rc": rc, "cpu_s": time.process_time() - cpu,
            "user_s": after.user - before.user, "sys_s": after.system - before.system,
            "wall_s": time.perf_counter() - wall, "output": sink.getvalue()[-2000:]}


def digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def main_worker(name, root, seconds, trace, result_path):
    w = WORKLOADS[name]
    tracer = None
    rounds = []
    start = time.perf_counter()
    while True:
        if trace and len(rounds) == PLAIN_ROUNDS_BEFORE_TRACE:
            tracer = Tracer()
            tracer.install()
        if tracer is not None:
            tracer.reset()
        began = time.perf_counter()
        ops = [run_op(op, root, tracer) for op in w.ops]
        record = {"ops": ops, "traced": tracer is not None,
                  "hashes": {f: digest(root / f) for f in w.deterministic}}
        if tracer is not None:
            record["totals"] = tracer.totals
            record["spans"] = tracer.spans
        rounds.append(record)
        now = time.perf_counter()
        enough = PLAIN_ROUNDS_BEFORE_TRACE + 1 if trace else w.min_rounds
        if len(rounds) >= enough and now - start + (now - began) > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    Path(result_path).write_text(json.dumps({"rounds": rounds}), encoding="utf-8")


if __name__ == "__main__":
    main_worker(sys.argv[1], Path(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1",
                sys.argv[5])
