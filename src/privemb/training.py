"""Full-batch adversarial training loops and embedding export."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial

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
    write_floats,
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
    sample_negative_pairs,
)
from .numkit import Adam, NumericError, Rng, derive_seed, spmm

SAMPLED_MODE_THRESHOLD = 3000

# bytes a sampled step may hold, checked before training. The link audit
# checks its pair-feature table against the same budget (evaluation.link_eval)
LINK_MEMORY_BUDGET = 1 << 30
# bytes per negative pair a sampled step holds: the sampler peaks at 8, its
# int64 keys; the loss holds 20, the handed-over int32 column and the loss
# term and gradient of each pair on the side it works on (the positives,
# at most one per negative, hold 16 beside the negatives' columns); 4 cover
# the blocks that do not grow. The sampler also holds up to 24 per positive,
# the keys and filter it makes from L, so the check counts one more pair per
# positive; and it adds 16 per entry of the n x width decoder input: the
# float64 dz and the sparse product beside it
LINK_BYTES_PER_NEGATIVE = 24

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
        for key, count in (("T", self.iterations), ("k_att", self.k_att), ("k_dis", self.k_dis)):
            if count < 1:
                raise ConfigError(f"{key} must be at least 1")
        lr_gen = self.lr_dis if self.lr_gen is None else float(self.lr_gen)
        if min(self.lr, self.lr_att, self.lr_dis, lr_gen) <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 < self.edge_holdout < 1.0:
            raise ConfigError("edge_holdout must be strictly between 0 and 1")
        if self.link_mode not in ("auto", "exact", "sampled"):
            raise ConfigError(f"unknown link_loss '{self.link_mode}'")
        if self.negs_per_pos < 1:
            raise ConfigError("negatives_per_positive must be at least 1")
        if self.d < 1 or self.hidden < 1:
            raise ConfigError("dimensions must be positive")

        lam = self.lam
        if spec.purges:
            lam = 1.0 if lam is None else float(lam)
            if lam < 0:
                raise ConfigError("lambda must be non-negative")
        elif lam is not None:
            raise ConfigError(f"lambda does not apply to variant '{self.variant}'")

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
    """Released embedding, its code and the run's loss trace."""

    Z: np.ndarray
    z_code: np.ndarray
    trace: list
    wall_time: float


def prepare_batch(g: Graph, schema: AttributeSchema, variant: str,
                  train_edges: np.ndarray) -> Batch:
    """Assemble the per-run tensors. A variant that drops the private
    feature (GAE_RM) leaves it out of the feature matrix."""
    exclude = (schema.private_attribute,) if VARIANT_SPECS[variant].drops_private_feature else ()
    laplacian = normalize_adjacency(g.n, train_edges)
    utility = {name: onehot_labels(g, schema, name) for name in schema.utility_attributes}
    privacy_onehot, privacy_mask = onehot_labels(g, schema, schema.private_attribute)
    return Batch(
        laplacian=laplacian,
        lx=spmm(laplacian, build_features(g, schema, exclude)),
        utility=utility,
        privacy_onehot=privacy_onehot,
        privacy_mask=privacy_mask,
    )


def edge_split(g: Graph, cfg: TrainConfig) -> EdgeSplit:
    """The run's edge split: ``train`` trains on its training edges and the
    link audit scores its held-out pairs."""
    return split_edges(g, cfg.edge_holdout, derive_seed(cfg.seed, "edges"))


def _check_link_memory(n: int, width: int, nnz: int, negs_per_pos: int) -> None:
    """Refuse a sampled step that would exceed LINK_MEMORY_BUDGET, naming
    the key to lower: the release width where the n x width arrays alone
    exceed it, the count of negatives otherwise."""
    dense = 16 * n * width
    need = LINK_BYTES_PER_NEGATIVE * (negs_per_pos + 1) * nnz + dense
    budget = f"over the {LINK_MEMORY_BUDGET / 2**20:.0f} MiB budget"
    if dense > LINK_MEMORY_BUDGET:
        raise ConfigError(f"the sampled link loss needs {dense / 2**20:.0f} MiB for its n x {width} "
                          f"gradient alone at n={n}, {budget}; lower model.d "
                          "(model.d_prime for APGE_NOEXP)")
    if need > LINK_MEMORY_BUDGET:
        raise ConfigError(f"the sampled link loss needs {need / 2**20:.0f} MiB for its negative "
                          f"pairs and gradient at n={n}, {budget}; lower negatives_per_positive")


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
    spec = VARIANT_SPECS[cfg.variant]
    # every utility head, and a purging variant's attacker, trains on labeled nodes
    for name in schema.utility_attributes + ((schema.private_attribute,) if spec.purges else ()):
        if not (g.attributes[name] > 0).any():
            raise InputError(f"attribute '{name}' has no labeled node to train on")

    batch = prepare_batch(g, schema, cfg.variant, edge_split(g, cfg).train_edges)
    state = init_state(cfg, batch)

    # the exact link loss, or negatives drawn afresh at every obfuscator step
    draw_negatives = None
    if cfg.link_mode == "sampled" or (cfg.link_mode == "auto" and g.n > SAMPLED_MODE_THRESHOLD):
        # the decoder input's width: every utility head reads it
        width = next(iter(state.heads.values())).shape[0]
        nnz = batch.laplacian.nnz
        _check_link_memory(g.n, width, nnz, cfg.negs_per_pos)
        draw_negatives = partial(sample_negative_pairs, batch, cfg.negs_per_pos * nnz,
                                 Rng(derive_seed(cfg.seed, "negatives")))
    rng_prior = Rng(derive_seed(cfg.seed, "prior"))

    opt_obf = Adam(state.obf_params(), lr=cfg.lr)
    opt_att = Adam({"Wa": state.Wa, "ba": state.ba}, lr=cfg.lr_att) if spec.purges else None
    opt_dis = (Adam({"Wd1": state.Wd1, "bd1": state.bd1, "Wd2": state.Wd2, "bd2": state.bd2},
                    lr=cfg.lr_dis) if spec.disentangles else None)
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
        forward = encoder_forward(batch.laplacian, batch.lx, state.W0, state.W1)
        if spec.purges:
            z = release_from_code(state, forward[0])
            for _ in range(cfg.k_att):
                l_step, _, dwa, dba = attacker_loss(z, state.Wa, state.ba,
                                                    batch.privacy_onehot,
                                                    batch.privacy_mask)
                _require_finite(l_step, "l_att", t)
                opt_att.step(_finite_grads({"Wa": dwa, "ba": dba}, t))

        parts, grads = obfuscator_losses(state, batch, lam=lam, draw_negatives=draw_negatives,
                                         forward=forward)
        row["l_link"] = _require_finite(parts["l_link"], "l_link", t)
        row["l_attr"] = _require_finite(parts["l_attr"], "l_attr", t)
        if parts["l_att"] is not None:
            row["l_att"] = _require_finite(parts["l_att"], "l_att", t)
        row["l_obf"] = _require_finite(parts["l_obf"], "l_obf", t)
        opt_obf.step(_finite_grads(grads, t))

        if spec.disentangles:
            z_code, hidden = encoder_forward(batch.laplacian, batch.lx, state.W0, state.W1)
            for _ in range(cfg.k_dis):
                prior = rng_prior.randn(g.n, z_code.shape[1])
                l_dc, dgrads, _ = disc_loss(prior, z_code, state.Wd1, state.bd1,
                                            state.Wd2, state.bd2)
                _require_finite(l_dc, "l_dc", t)
                opt_dis.step(_finite_grads(dgrads, t))
            row["l_dc"] = l_dc
            l_fool, dfake = gen_fool_loss(z_code, state.Wd1, state.bd1,
                                          state.Wd2, state.bd2)
            _require_finite(l_fool, "l_gen", t)
            # the W1 half of encoder_backward: the generator step moves W1 only
            dw1 = hidden.T @ spmm(batch.laplacian, dfake)
            opt_gen.step(_finite_grads({"W1": dw1}, t))

        trace.append(row)

    z_code, z = release_embedding(state, batch)
    _require_finite(z, "the released embedding", cfg.iterations)
    return EmbeddingResult(
        Z=z,
        z_code=z_code,
        trace=trace,
        wall_time=time.perf_counter() - start,
    )


def export_embeddings(z: np.ndarray, path) -> None:
    """Write an (n, d) float64 embedding as CSV, each value as '%.17g' would
    print it: 17 significant digits, enough for a bit-exact float64
    round-trip. The file is binary, so its lines end in LF everywhere."""
    header = ",".join(f"z_{j}" for j in range(z.shape[1])) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        write_floats(fh, z)


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
