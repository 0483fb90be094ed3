import os
import signal
import tracemalloc

# One BLAS thread, as the benchmark runs, set before numpy loads: the suite
# runs the same single-threaded products on any machine, and the gate's
# many small fits do not fight over cores with each other or a neighbour
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from privemb.datagen import SynthParams, synth_graph  # noqa: E402

# Property tests replay the same examples on every run, so a failure
# reproduces and tier-1 timing stays flat.
settings.register_profile("privemb", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("privemb")

# Wall-clock seconds a test may take before it fails, so that a loop that
# never ends fails its test instead of hanging the suite. The slowest
# acceptance test took 101 s on a 2-core VM; theirs is above that and above
# leakage-ordering's own 900 s bound, which stays the check of the gate's speed.
UNIT_LIMIT = 120
ACCEPTANCE_LIMIT = 1000


class TimeLimitExceeded(BaseException):
    """Raised in a test that ran past its limit. Not an Exception, so that
    neither the program's handlers nor hypothesis's retries catch it."""


@pytest.fixture(autouse=True)
def time_limit(request):
    limit = ACCEPTANCE_LIMIT if request.node.get_closest_marker("acceptance") else UNIT_LIMIT

    def overran(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past its {limit} s limit")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(limit)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# One verdict line per release-gate check, echoed after the run summary so
# they stay visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_synth():
    """A small planted graph shared by tests that only need shapes/behavior,
    not statistical power."""
    params = SynthParams(n=60, private_classes=2, utility_classes=3,
                         p_in=0.3, p_out=0.05, rho=0.4, flip_rate=0.1, seed=11)
    return synth_graph(params)


@pytest.fixture(scope="session")
def default_synth():
    return synth_graph(SynthParams(seed=1))


def assert_close(a, b, tol=1e-9):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, f"shape {a.shape} vs {b.shape}"
    err = np.max(np.abs(a - b)) if a.size else 0.0
    assert err <= tol, f"max abs err {err:.3e} > {tol:.1e}"


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of the allocations made by fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def self_looped_adjacency(n, edges):
    """The dense 0/1 matrix np.eye(n) with both directions of each edge set."""
    a = np.eye(n)
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def adam_reference(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam as one expression per parameter with fresh
    temporaries; returns step(grads), which updates ``params`` in place."""
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    t = [0]

    def step(grads):
        t[0] += 1
        b1c = 1.0 - beta1 ** t[0]
        b2c = 1.0 - beta2 ** t[0]
        for k, p in params.items():
            g = grads[k]
            m[k] *= beta1
            m[k] += (1.0 - beta1) * g
            v[k] *= beta2
            v[k] += (1.0 - beta2) * (g * g)
            p -= lr * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + eps)

    return step
