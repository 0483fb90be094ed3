"""Full-batch adversarial training loops and embedding export."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .graphcore import (
    AttributeSchema,
    EdgeSplit,
    Graph,
    InputError,
    _read_table,
    build_features,
    normalize_adjacency,
    onehot_labels,
    split_edges,
    write_rows,
)
from .models import (
    VARIANT_SPECS,
    Batch,
    attacker_loss,
    disc_loss,
    encoder_forward,
    gen_fool_loss,
    init_state,
    obfuscator_losses,
    release_embedding,
    release_from_code,
)
from .numkit import Adam, NumericError, Rng, derive_seed, spmm

SAMPLED_MODE_THRESHOLD = 3000

# bytes a sampled step may hold, checked before training. It counts 40 per
# negative: the key and the loss's sorted key, int32 column, logit and
# gradient are 36 (the sampler peaks at 32); 4 cover what does not grow. It
# adds 16 per entry of the n x width decoder input: the float64 dz and the
# sparse product beside it. The link audit checks its pair-feature table
# against the same budget (evaluation.link_eval)
LINK_MEMORY_BUDGET = 1 << 30

TRACE_COLUMNS = ("iter", "l_link", "l_attr", "l_att", "l_dc", "l_obf")


class ConfigError(ValueError):
    """A run configuration is inconsistent or incomplete."""


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    ``lam`` weighs the adversarial penalty and only applies to variants with
    an attacker; ``d_prime`` is the compressed code width and only applies
    to variants with prior matching. ``link_mode`` 'auto' switches to the
    sampled reconstruction loss above SAMPLED_MODE_THRESHOLD nodes.
    """

    variant: str = "GAE"
    d: int = 64
    d_prime: int = None
    hidden: int = 128
    lam: float = None
    iterations: int = 200
    k_att: int = 1
    k_dis: int = 1
    lr: float = 1e-3
    lr_att: float = 1e-3
    lr_dis: float = 1e-3
    lr_gen: float = None
    link_mode: str = "auto"
    negs_per_pos: int = 5
    edge_holdout: float = 0.15
    seed: int = 0

    def resolved(self) -> "TrainConfig":
        """Validate and fill variant-dependent defaults."""
        if self.variant not in VARIANT_SPECS:
            raise ConfigError(f"unknown variant '{self.variant}'")
        spec = VARIANT_SPECS[self.variant]
        if self.iterations < 1 or self.k_att < 1 or self.k_dis < 1:
            raise ConfigError("iteration counts must be at least 1")
        lr_gen = self.lr_dis if self.lr_gen is None else float(self.lr_gen)
        if min(self.lr, self.lr_att, self.lr_dis, lr_gen) <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 < self.edge_holdout < 1.0:
            raise ConfigError("edge_holdout must be strictly between 0 and 1")
        if self.link_mode not in ("auto", "exact", "sampled"):
            raise ConfigError(f"unknown link_mode '{self.link_mode}'")
        if self.negs_per_pos < 1:
            raise ConfigError("negs_per_pos must be at least 1")
        if self.d < 1 or self.hidden < 1:
            raise ConfigError("dimensions must be positive")

        lam = self.lam
        if spec.purges:
            lam = 1.0 if lam is None else float(lam)
            if lam < 0:
                raise ConfigError("lam must be non-negative")
        elif lam is not None:
            raise ConfigError(f"lam does not apply to variant '{self.variant}'")

        d_prime = self.d_prime
        if spec.disentangles:
            d_prime = 16 if d_prime is None else int(d_prime)
            if d_prime < 1:
                raise ConfigError("d_prime must be positive")
        elif d_prime is not None:
            raise ConfigError(f"d_prime does not apply to variant '{self.variant}'")

        # a disentangling variant without expansion releases its code
        d = d_prime if spec.disentangles and not spec.expands else self.d
        return replace(self, lam=lam, d_prime=d_prime, d=d, lr_gen=lr_gen)


@dataclass
class EmbeddingResult:
    """Released embedding plus everything needed to audit the run."""

    Z: np.ndarray
    z_code: np.ndarray
    trace: list
    config: TrainConfig
    wall_time: float
    edge_split: EdgeSplit


def prepare_batch(g: Graph, schema: AttributeSchema, variant: str,
                  train_edges: np.ndarray) -> Batch:
    """Assemble the per-run tensors. A variant that drops the private
    feature (GAE_RM) leaves it out of the feature matrix."""
    exclude = (schema.private_attribute,) if VARIANT_SPECS[variant].drops_private_feature else ()
    features = build_features(g, schema, exclude)
    laplacian = normalize_adjacency(g, train_edges)
    # the targets are the self-looped training adjacency: L's sparsity pattern
    link_keys = np.repeat(np.arange(g.n), np.diff(laplacian.indptr)) * g.n + laplacian.indices
    utility = {name: onehot_labels(g, schema, name) for name in schema.utility_attributes}
    privacy_onehot, privacy_mask = onehot_labels(g, schema, schema.private_attribute)
    return Batch(
        laplacian=laplacian,
        features=features,
        link_keys=link_keys,
        utility=utility,
        privacy_onehot=privacy_onehot,
        privacy_mask=privacy_mask,
    )


def _check_link_memory(n: int, width: int, nnz: int, negs_per_pos: int) -> None:
    """Refuse a sampled step that would exceed LINK_MEMORY_BUDGET."""
    need = 40 * negs_per_pos * nnz + 16 * n * width
    if need > LINK_MEMORY_BUDGET:
        raise ConfigError(f"the sampled link loss needs {need / 2**20:.0f} MiB for its negative "
                          f"pairs and gradient at n={n}, over the "
                          f"{LINK_MEMORY_BUDGET / 2**20:.0f} MiB budget; "
                          "lower negatives_per_positive")


def _require_finite(value, component: str, iteration: int):
    """A loss or an array, returned when every value is finite."""
    if value is None or not np.isfinite(value).all():
        raise NumericError(f"{component} is not finite at iteration {iteration}")
    return value


def _finite_grads(grads: dict, iteration: int) -> dict:
    for name, g in grads.items():
        _require_finite(g, f"gradient of {name}", iteration)
    return grads


def train(g: Graph, schema: AttributeSchema, cfg: TrainConfig) -> EmbeddingResult:
    """Run the variant's training schedule and return the released embedding.

    Per iteration: attacker variants first take ``k_att`` attacker steps on
    a frozen embedding, then one obfuscator step updates encoder, expansion,
    and decoder heads; prior-matching variants follow with ``k_dis``
    discriminator steps against fresh Gaussian rows and one generator step
    that nudges the encoder toward fooling the discriminator. Plain
    variants reduce to the obfuscator step alone.
    """
    cfg = cfg.resolved()
    start = time.perf_counter()

    split = split_edges(g, cfg.edge_holdout, derive_seed(cfg.seed, "edges"))
    batch = prepare_batch(g, schema, cfg.variant, split.train_edges)
    utility_dims = {name: schema.classes[name] for name in schema.utility_attributes}
    m_private = schema.classes[schema.private_attribute]
    state = init_state(cfg.variant, batch.features.shape[1], cfg.hidden,
                       cfg.d, cfg.d_prime or cfg.d, utility_dims, m_private, cfg.seed)

    mode = cfg.link_mode
    if mode == "auto":
        mode = "sampled" if g.n > SAMPLED_MODE_THRESHOLD else "exact"
    if mode == "sampled":
        # the decoder input's width: every utility head reads it
        width = next(iter(state.heads.values())).shape[0]
        _check_link_memory(g.n, width, batch.link_keys.size, cfg.negs_per_pos)
    rng_neg = Rng(derive_seed(cfg.seed, "negatives"))
    rng_prior = Rng(derive_seed(cfg.seed, "prior"))

    spec = VARIANT_SPECS[cfg.variant]
    opt_obf = Adam(state.obf_params(), lr=cfg.lr)
    opt_att = Adam(state.attacker_params(), lr=cfg.lr_att) if spec.purges else None
    opt_dis = Adam(state.disc_params(), lr=cfg.lr_dis) if spec.disentangles else None
    # The fool step only moves the code projection W1. Letting it touch W0
    # as well turns the obfuscator/generator pair into a tug-of-war over the
    # hidden layer that reliably kills ReLU units on small graphs; W1 alone
    # controls the code's location and scale, which is all prior matching
    # needs.
    opt_gen = Adam({"W1": state.W1}, lr=cfg.lr_gen) if spec.disentangles else None
    lam = cfg.lam if spec.purges else 0.0

    trace = []
    for t in range(1, cfg.iterations + 1):
        row = {"iter": t, **dict.fromkeys(TRACE_COLUMNS[1:])}

        # The attacker and discriminator steps leave the encoder alone, so
        # one forward before the obfuscator step and one after it serve
        # every step of the iteration.
        forward = encoder_forward(batch.laplacian, batch.laplacian_features(), state.W0, state.W1)
        if spec.purges:
            z = release_from_code(state, forward[0])
            for _ in range(cfg.k_att):
                l_step, _, dwa, dba = attacker_loss(z, state.Wa, state.ba,
                                                    batch.privacy_onehot,
                                                    batch.privacy_mask)
                _require_finite(l_step, "l_att", t)
                opt_att.step(state.attacker_params(), _finite_grads({"Wa": dwa, "ba": dba}, t))

        parts, grads = obfuscator_losses(state, batch, lam=lam, link_mode=mode,
                                         rng=rng_neg, negs_per_pos=cfg.negs_per_pos,
                                         forward=forward)
        row["l_link"] = _require_finite(parts["l_link"], "l_link", t)
        row["l_attr"] = _require_finite(parts["l_attr"], "l_attr", t)
        if parts["l_att"] is not None:
            row["l_att"] = _require_finite(parts["l_att"], "l_att", t)
        row["l_obf"] = _require_finite(parts["l_obf"], "l_obf", t)
        opt_obf.step(state.obf_params(), _finite_grads(grads, t))

        if spec.disentangles:
            z_code, hidden = encoder_forward(batch.laplacian, batch.laplacian_features(),
                                             state.W0, state.W1)
            for _ in range(cfg.k_dis):
                prior = rng_prior.randn(g.n, z_code.shape[1])
                l_dc, dgrads, _ = disc_loss(prior, z_code, state.Wd1, state.bd1,
                                            state.Wd2, state.bd2)
                _require_finite(l_dc, "l_dc", t)
                opt_dis.step(state.disc_params(), _finite_grads(dgrads, t))
            row["l_dc"] = l_dc
            l_fool, dfake = gen_fool_loss(z_code, state.Wd1, state.bd1,
                                          state.Wd2, state.bd2)
            _require_finite(l_fool, "l_gen", t)
            # the W1 half of encoder_backward: the generator step moves W1 only
            dw1 = hidden.T @ spmm(batch.laplacian, dfake)
            opt_gen.step({"W1": state.W1}, _finite_grads({"W1": dw1}, t))

        trace.append(row)

    z_code, z = release_embedding(state, batch)
    _require_finite(z, "the released embedding", cfg.iterations)
    return EmbeddingResult(
        Z=z,
        z_code=z_code,
        trace=trace,
        config=cfg,
        wall_time=time.perf_counter() - start,
        edge_split=split,
    )


def export_embeddings(result, path) -> None:
    """Write the released embedding as CSV with 17 significant digits,
    enough for a bit-exact float64 round-trip, a block of rows at a time."""
    z = result.Z if hasattr(result, "Z") else np.asarray(result, dtype=np.float64)
    header = ",".join(f"z_{j}" for j in range(z.shape[1]))
    row = ",".join(["%.17g"] * z.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        write_rows(fh, row, z)


def load_embeddings(path) -> np.ndarray:
    """Read an embeddings CSV: a header line, then one row of floats per
    node. A bad or non-finite row raises InputError naming its line."""
    with open(path, encoding="utf-8", newline="") as fh:
        fh.readline()
        z, line_of = _read_table(fh, "embeddings", ",", np.float64, line=2)
        bad = ~np.isfinite(z).all(axis=1)
        if bad.any():
            raise InputError(f"embeddings line {line_of(int(np.argmax(bad)))}: non-finite value")
    return z


def export_trace(trace, path) -> None:
    """Loss trace CSV; components a variant never computes stay blank."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in trace:
            cells = [str(row["iter"])]
            for col in TRACE_COLUMNS[1:]:
                value = row.get(col)
                cells.append("" if value is None else f"{value:.12g}")
            fh.write(",".join(cells) + "\n")
