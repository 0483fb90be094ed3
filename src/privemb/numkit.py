"""Float64 numeric kernels with hand-written backward passes.

Everything here is pure and deterministic: the same inputs and the same
seed produce the same bits on every platform. Dense carriers are numpy
float64 arrays, sparse carriers are scipy CSR matrices.

This module never imports scipy.sparse: it adds about 20 MB of resident
memory to a process, and no audit or synth command needs it. ``spmm``
takes a CSR matrix that training built.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
from pathlib import Path

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


class NumericError(ArithmeticError):
    """A training step or an audit fit produced a non-finite value."""


def pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread, so that no product's bits
    depend on the machine's core count. Where numpy ships no OpenBLAS that
    exports scipy_openblas_set_num_threads64_, this does nothing and the
    environment (OPENBLAS_NUM_THREADS) sets the count."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*scipy_openblas*")):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
        return


def spmm(s, b: np.ndarray) -> np.ndarray:
    """Sparse (CSR) times dense."""
    return s @ b


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(cotangent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Subgradient convention: zero at the kink."""
    return cotangent * (x > 0.0)


def _exp_neg_abs(x, out=None):
    """exp(-|x|), with -|x| taken as min(x, -x) so a NaN keeps its sign."""
    t = np.negative(x, out=out)
    np.minimum(x, t, out=t)
    return np.exp(t, out=t)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: with e = exp(-|x|) it is
    1 / (1 + e) for x >= 0 and e / (1 + e) below, so exp never overflows."""
    e = _exp_neg_abs(x)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def softplus(x: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), without overflow:
    +inf stays inf, -inf gives 0 and NaN propagates.

    ``out`` (which may be ``x`` itself) and ``scratch`` are optional float64
    arrays of x's shape; given both, the call allocates nothing.
    """
    t = _exp_neg_abs(x, out=scratch)
    np.log1p(t, out=t)
    out = np.maximum(x, 0.0, out=out)
    out += t
    return out


def bce_with_logits(logits: np.ndarray, targets: np.ndarray, pos_weight: float = 1.0):
    """Weighted binary cross-entropy over every entry.

    loss = mean( pos_weight * t * softplus(-x) + (1 - t) * softplus(x) )

    Returns (loss, grad) where grad is the exact derivative with respect to
    the logits, including the mean scaling.
    """
    per = pos_weight * targets * softplus(-logits) + (1.0 - targets) * softplus(logits)
    loss = float(per.mean())
    s = sigmoid(logits)
    grad = (pos_weight * targets * (s - 1.0) + (1.0 - targets) * s) / logits.size
    return loss, grad


def softmax_cross_entropy(logits: np.ndarray, onehot: np.ndarray, mask: np.ndarray):
    """Mean softmax cross-entropy over the rows selected by ``mask``, a 1-D
    array of row indices.

    Rows outside the mask contribute nothing and receive zero gradient.
    The masked rows of ``onehot`` are one-hot and the mask is not empty.
    """
    ym = onehot[mask]
    # the kernel leaves log p in its scratch copy of the masked logits
    logp = logits[mask]
    grad = np.zeros_like(logits)
    grad[mask] = softmax_cross_entropy_grad(logp, ym, np.empty_like(logp), mask.size)
    return float(-(ym * logp).sum() / mask.size), grad


def softmax_cross_entropy_grad(logits: np.ndarray, onehot: np.ndarray,
                               out: np.ndarray, rows: int) -> np.ndarray:
    """Gradient of the mean softmax cross-entropy over a block of one-hot
    labeled rows; ``rows`` is the row count of the whole mean, so the blocks
    of one batch can be computed one at a time. ``softmax_cross_entropy``
    computes through it.

    Writes the gradient into ``out`` and uses ``logits`` as scratch: both
    must be C-contiguous float64 arrays of one shape, and ``logits`` holds
    the log-probabilities afterwards.
    """
    # the row max as a running maximum over the columns: a max is exact in
    # any order, and m strided passes beat one reduction over short rows
    row_max = out[:, 0]
    np.copyto(row_max, logits[:, 0])
    for j in range(1, logits.shape[1]):
        np.maximum(row_max, logits[:, j], out=row_max)
    logits -= row_max[:, None]
    np.exp(logits, out=out)
    logits -= np.log(out.sum(axis=1, keepdims=True))
    np.exp(logits, out=out)
    out -= onehot
    out /= rows
    return out


# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam(object):
    """Bias-corrected Adam over a named collection of parameter arrays,
    which it keeps and updates in place."""

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        # two scratch arrays per parameter, so a step allocates nothing
        self._scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}

    def step(self, grads: dict) -> None:
        """Apply one update in place to every parameter.

        p -= lr * (m / b1c) / (sqrt(v / b2c) + eps), evaluated in that order.
        """
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for k, p in self.params.items():
            g = grads[k]
            m = self.m[k]
            v = self.v[k]
            s1, s2 = self._scratch[k]
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
            m += s1
            v *= ADAM_BETA2
            np.multiply(g, g, out=s2)
            s2 *= 1.0 - ADAM_BETA2
            v += s2
            np.divide(m, b1c, out=s1)
            s1 *= self.lr
            np.divide(v, b2c, out=s2)
            np.sqrt(s2, out=s2)
            s2 += ADAM_EPS
            s1 /= s2
            p -= s1


def derive_seed(seed: int, label: str) -> int:
    """Expand one top-level seed into an independent per-component seed."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Rng(object):
    """Seeded deterministic RNG.

    Gaussian draws use the Marsaglia polar transform on top of the uniform
    stream, so the sequence depends only on the seed.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def random(self, size=None):
        return self._gen.random(size=size)

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size=size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, x):
        return self._gen.permutation(x)

    def randn(self, rows: int, cols: int) -> np.ndarray:
        need = rows * cols
        chunks = []
        have = 0
        while have < need:
            k = max(64, need - have)
            uv = self._gen.uniform(-1.0, 1.0, size=(k, 2))
            s = uv[:, 0] ** 2 + uv[:, 1] ** 2
            ok = (s > 0.0) & (s < 1.0)
            uv = uv[ok]
            s = s[ok]
            f = np.sqrt(-2.0 * np.log(s) / s)
            pair = uv * f[:, None]
            vals = pair.reshape(-1)
            chunks.append(vals)
            have += vals.size
        return np.concatenate(chunks)[:need].reshape(rows, cols)

    def glorot(self, rows: int, cols: int) -> np.ndarray:
        """Glorot uniform init: bound sqrt(6 / (rows + cols))."""
        bound = math.sqrt(6.0 / (rows + cols))
        return self._gen.uniform(-bound, bound, size=(rows, cols))


def grad_check(fn, params: dict, step: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``fn(params) -> (loss, grads)`` must be deterministic and must read the
    arrays in ``params`` fresh on every call. Returns the worst error over
    all coordinates, scaled by max(1, |analytic|, |numeric|).
    """
    _, grads = fn(params)
    kept = {k: np.array(grads[k], dtype=np.float64, copy=True) for k in params}
    worst = 0.0
    for name, p in params.items():
        g = kept[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape mismatch for '{name}'")
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            hi, _ = fn(params)
            p[idx] = orig - step
            lo, _ = fn(params)
            p[idx] = orig
            numeric = (hi - lo) / (2.0 * step)
            err = abs(numeric - g[idx]) / max(1.0, abs(numeric), abs(g[idx]))
            if err > worst:
                worst = err
    return worst
