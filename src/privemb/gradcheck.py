"""Finite-difference verification of every kernel and composite loss.

Each registered case builds a small deterministic problem, evaluates the
analytic gradient, and compares it against central differences. The CLI
``gradcheck`` command prints one line per case; the suite is also the first
acceptance gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import SynthParams, synth_graph
from .graphcore import onehot
from .models import (
    VARIANT_SPECS,
    VARIANTS,
    attacker_loss,
    attr_loss,
    disc_loss,
    encoder_backward,
    encoder_forward,
    gen_fool_loss,
    init_state,
    link_loss,
    link_loss_exact,
    obfuscator_losses,
    sample_negative_pairs,
)
from .numkit import Rng, bce_with_logits, derive_seed, grad_check, relu, relu_backward, softmax_cross_entropy
from .training import TrainConfig, prepare_batch

DEFAULT_TOLERANCE = 1e-4
SEED = 7  # every case's problem derives from it


@dataclass
class CheckResult:
    name: str
    max_error: float
    passed: bool


def tiny_problem(variant: str):
    """A 12-node synthetic graph with small widths, one per variant."""
    params = SynthParams(n=12, private_classes=2, utility_classes=3,
                         p_in=0.65, p_out=0.35, rho=0.5, flip_rate=0.2, seed=SEED)
    g, schema = synth_graph(params)
    batch = prepare_batch(g, schema, variant, g.edges)
    spec = VARIANT_SPECS[variant]
    cfg = TrainConfig(variant=variant, d=5, hidden=6, d_prime=3 if spec.disentangles else None,
                      lam=0.7 if spec.purges else None,
                      seed=derive_seed(SEED, f"state/{variant}")).resolved()
    return g, schema, batch, cfg, init_state(cfg, batch)


def _away_from_kinks(rng, rows, cols, margin=1e-3):
    x = rng.randn(rows, cols)
    x[np.abs(x) < margin] += 4.0 * margin
    return x


def _kernel_cases():
    rng = Rng(derive_seed(SEED, "kernels"))
    cases = []

    x0 = _away_from_kinks(rng, 4, 5)
    cot = rng.randn(4, 5)
    cases.append(("kernel/relu", lambda p: (
        float((cot * relu(p["x"])).sum()), {"x": relu_backward(cot, p["x"])}), {"x": x0.copy()}))

    logits = rng.randn(4, 5)
    targets = (rng.random((4, 5)) < 0.4).astype(np.float64)
    def bce_case(p):
        loss, grad = bce_with_logits(p["x"], targets, pos_weight=3.0)
        return loss, {"x": grad}

    cases.append(("kernel/bce_with_logits", bce_case, {"x": logits.copy()}))

    ce_logits = rng.randn(6, 4)
    ce_targets = onehot(rng.integers(0, 4, size=6) + 1, 4)
    mask = np.array([0, 2, 3, 5])
    def ce_case(p):
        loss, grad = softmax_cross_entropy(p["x"], ce_targets, mask)
        return loss, {"x": grad}

    cases.append(("kernel/softmax_cross_entropy", ce_case, {"x": ce_logits.copy()}))
    return cases


def _loss_cases():
    g, schema, batch, cfg, state = tiny_problem("APGE")
    rng = Rng(derive_seed(SEED, "losses"))
    n = g.n
    cases = []

    z0 = rng.randn(n, 4)
    lap, lx = batch.laplacian, batch.lx
    def link_exact_fn(p):
        loss, dz = link_loss_exact(p["z"], (lap.indptr, lap.indices), batch.pos_weight)
        return loss, {"z": dz}

    cases.append(("loss/link_exact", link_exact_fn, {"z": z0.copy()}))

    neg_rng = Rng(derive_seed(SEED, "negs"))
    negatives = sample_negative_pairs(batch, 3 * lap.nnz, neg_rng)

    def link_sampled_fn(p):
        loss, dz = link_loss(p["z"], batch, negatives)
        return loss, {"z": dz}

    cases.append(("loss/link_sampled", link_sampled_fn, {"z": z0.copy()}))

    onehot, mask = batch.utility[schema.utility_attributes[0]]
    wc0 = rng.glorot(4, onehot.shape[1])

    def attr_fn(p):
        loss, dz, dwc = attr_loss(p["z"], p["wc"], onehot, mask)
        return loss, {"z": dz, "wc": dwc}

    cases.append(("loss/attr_head", attr_fn, {"z": z0.copy(), "wc": wc0.copy()}))

    wa0 = rng.glorot(4, batch.privacy_onehot.shape[1])
    ba0 = rng.randn(1, batch.privacy_onehot.shape[1]).ravel()

    def att_fn(p):
        loss, dz, dwa, dba = attacker_loss(p["z"], p["wa"], p["ba"],
                                           batch.privacy_onehot, batch.privacy_mask)
        return loss, {"z": dz, "wa": dwa, "ba": dba}

    cases.append(("loss/attacker", att_fn,
                  {"z": z0.copy(), "wa": wa0.copy(), "ba": ba0.copy()}))

    real = rng.randn(n, 3)
    fake = rng.randn(n, 3)
    dstate = {"Wd1": rng.glorot(3, 8), "bd1": rng.randn(1, 8).ravel(),
              "Wd2": rng.glorot(8, 1), "bd2": rng.randn(1, 1).ravel()}

    def disc_fn(p):
        loss, grads, _ = disc_loss(real, fake, p["Wd1"], p["bd1"], p["Wd2"], p["bd2"])
        return loss, grads

    cases.append(("loss/discriminator", disc_fn,
                  {k: v.copy() for k, v in dstate.items()}))

    enc = {"W0": state.W0.copy(), "W1": state.W1.copy()}

    def disc_chain_fn(p):
        z, cache = encoder_forward(lap, lx, p["W0"], p["W1"])
        loss, _, dfake = disc_loss(real, z, state.Wd1, state.bd1, state.Wd2, state.bd2)
        dw0, dw1 = encoder_backward(dfake, cache, lap, lx, p["W1"])
        return loss, {"W0": dw0, "W1": dw1}

    cases.append(("loss/discriminator_encoder_chain", disc_chain_fn,
                  {k: v.copy() for k, v in enc.items()}))

    def fool_chain_fn(p):
        z, cache = encoder_forward(lap, lx, p["W0"], p["W1"])
        loss, dfake = gen_fool_loss(z, state.Wd1, state.bd1, state.Wd2, state.bd2)
        dw0, dw1 = encoder_backward(dfake, cache, lap, lx, p["W1"])
        return loss, {"W0": dw0, "W1": dw1}

    cases.append(("loss/generator_fool_chain", fool_chain_fn,
                  {k: v.copy() for k, v in enc.items()}))
    return cases


def _obfuscator_cases():
    cases = []
    for variant in VARIANTS:
        g, schema, batch, cfg, state = tiny_problem(variant)
        lam = cfg.lam or 0.0

        def obf_fn(params, state=state, batch=batch, lam=lam):
            parts, grads = obfuscator_losses(state, batch, lam=lam)
            return parts["l_obf"], grads

        cases.append((f"obfuscator/{variant}", obf_fn, state.obf_params()))
    return cases


def all_cases():
    return _kernel_cases() + _loss_cases() + _obfuscator_cases()


def run_suite() -> list:
    results = []
    for name, fn, params in all_cases():
        err = grad_check(fn, params)
        results.append(CheckResult(name=name, max_error=err, passed=err < DEFAULT_TOLERANCE))
    return results
