"""Encoder, decoders, adversaries, and their hand-written gradients.

Six wiring variants, one row each of ``VARIANT_SPECS``, share one two-layer
graph-convolution encoder and combine two privacy mechanisms:

  disentangling  the decoder also sees the one-hot private label, and a
                 discriminator matches the d_prime-wide code to a Gaussian
                 prior
  purging        an adversarial attacker on the released embedding is
                 penalized

APDGE disentangles, APPGE purges and APGE does both. APDGE and APGE expand
the code linearly to the release width; APGE_NOEXP is APGE releasing the
code itself. GAE is plain reconstruction, and GAE_RM also removes the
private attribute from the features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numkit import (
    Rng,
    derive_seed,
    relu,
    relu_backward,
    sigmoid,
    softmax_cross_entropy,
    softplus,
    spmm,
)

if TYPE_CHECKING:  # imported where a CSR matrix is built; see numkit
    import scipy.sparse as sp


@dataclass(frozen=True)
class VariantSpec:
    """The mechanisms one variant wires (see the module docstring)."""

    disentangles: bool
    purges: bool
    expands: bool
    drops_private_feature: bool = False


VARIANT_SPECS = {
    "GAE": VariantSpec(disentangles=False, purges=False, expands=False),
    "GAE_RM": VariantSpec(disentangles=False, purges=False, expands=False,
                          drops_private_feature=True),
    "APDGE": VariantSpec(disentangles=True, purges=False, expands=True),
    "APPGE": VariantSpec(disentangles=False, purges=True, expands=False),
    "APGE": VariantSpec(disentangles=True, purges=True, expands=True),
    "APGE_NOEXP": VariantSpec(disentangles=True, purges=True, expands=False),
}
VARIANTS = tuple(VARIANT_SPECS)

_DISC_HIDDEN = 64


@dataclass
class ModelState:
    """All trainable parameters for one variant, as ``init_state`` wires
    them: the expansion (We), discriminator (Wd1/bd1/Wd2/bd2) and attacker
    (Wa/ba) blocks are None where the variant lacks them. ``heads`` maps
    each utility attribute name to its decoder weight matrix.
    """

    W0: np.ndarray
    W1: np.ndarray
    heads: dict
    We: np.ndarray = None
    Wd1: np.ndarray = None
    bd1: np.ndarray = None
    Wd2: np.ndarray = None
    bd2: np.ndarray = None
    Wa: np.ndarray = None
    ba: np.ndarray = None

    def obf_params(self) -> dict:
        """Encoder, expansion, and decoder heads: everything the
        reconstruction objective trains."""
        out = {"W0": self.W0, "W1": self.W1}
        if self.We is not None:
            out["We"] = self.We
        for name, w in self.heads.items():
            out[f"head:{name}"] = w
        return out


def init_state(cfg, batch: Batch) -> ModelState:
    """Glorot-initialize weights, zero biases, one derived stream per tensor.
    The widths come from the resolved ``TrainConfig`` and the batch."""

    def glorot(name, rows, cols):
        return Rng(derive_seed(cfg.seed, f"init/{name}")).glorot(rows, cols)

    spec = VARIANT_SPECS[cfg.variant]
    m_private = batch.privacy_onehot.shape[1]
    enc_out = cfg.d_prime if spec.disentangles else cfg.d
    dec_in = cfg.d + (m_private if spec.disentangles else 0)

    kwargs = dict(
        W0=glorot("W0", batch.lx.shape[1], cfg.hidden),
        W1=glorot("W1", cfg.hidden, enc_out),
        heads={name: glorot(f"head:{name}", dec_in, onehot.shape[1])
               for name, (onehot, _) in batch.utility.items()},
    )
    if spec.expands:
        kwargs["We"] = glorot("We", cfg.d_prime, cfg.d)
    if spec.disentangles:
        kwargs["Wd1"] = glorot("Wd1", enc_out, _DISC_HIDDEN)
        kwargs["bd1"] = np.zeros(_DISC_HIDDEN)
        kwargs["Wd2"] = glorot("Wd2", _DISC_HIDDEN, 1)
        kwargs["bd2"] = np.zeros(1)
    if spec.purges:
        kwargs["Wa"] = glorot("Wa", cfg.d, m_private)
        kwargs["ba"] = np.zeros(m_private)
    return ModelState(**kwargs)


@dataclass
class Batch:
    """Per-run tensors shared by every loss: normalized adjacency L, the
    encoder's first propagation ``lx`` = L @ X (no weight enters it), and
    label blocks. The 0/1 reconstruction targets are one at L's nonzeros,
    the training edges both ways plus the self-loops; both link losses and
    the negative sampler read them as L's CSR pattern."""

    laplacian: sp.csr_matrix
    lx: np.ndarray
    utility: dict
    privacy_onehot: np.ndarray
    privacy_mask: np.ndarray

    @property
    def n(self) -> int:
        return self.lx.shape[0]

    @property
    def pos_weight(self) -> float:
        nnz = self.laplacian.nnz
        return (self.n * self.n - nnz) / nnz


def _positive_filter(keys):
    """(table, bits): a bool table of 2**bits slots, set at the slot of each
    int64 key, so a key whose slot is clear is not among ``keys``. At least
    8 slots per key keep under 1/8 of the slots set, and so of the other
    keys hitting one; the table takes at most 16 bytes per key."""
    bits = max(10, (8 * keys.size - 1).bit_length())
    table = np.zeros(1 << bits, dtype=bool)
    table[_key_slots(keys, bits)] = True
    return table, bits


def _key_slots(keys, bits: int) -> np.ndarray:
    """Multiplicative (Fibonacci) hash of int64 keys to ``bits``-bit slots,
    in wrapping uint64 arithmetic."""
    mixed = keys.astype(np.uint64)
    mixed *= np.uint64(0x9E3779B97F4A7C15)
    return np.right_shift(mixed, np.uint64(64 - bits), out=mixed)


def encoder_forward(lap, lx, w0, w1):
    """Two graph convolutions, Z = L relu(L X W0) W1, from ``lx`` = L @ X. The
    cache is relu(L X W0): positive exactly where L X W0 is, a NaN in neither."""
    hidden = lx @ w0
    np.maximum(hidden, 0.0, out=hidden)
    z = spmm(lap, hidden @ w1)
    return z, hidden


def encoder_backward(dz, hidden, lap, lx, w1):
    dmix = spmm(lap, dz)
    dw1 = hidden.T @ dmix
    dhidden = dmix @ w1.T
    # the ReLU's subgradient, zero at the kink, applied in place
    np.multiply(dhidden, hidden > 0.0, out=dhidden)
    # X.T @ L @ dhidden, with L symmetric (normalize_adjacency builds it so)
    dw0 = lx.T @ dhidden
    return dw0, dw1


def _pattern_rows(indptr, start: int, stop: int) -> np.ndarray:
    """The row of each entry start..stop-1 of a CSR pattern."""
    first = int(np.searchsorted(indptr, start, side="right")) - 1
    last = int(np.searchsorted(indptr, stop))
    counts = np.diff(np.clip(indptr[first:last + 1], start, stop))
    return np.repeat(np.arange(first, last), counts)


# rows per block of the upper triangle in the exact link loss
_TRI_ROWS = 64


def link_loss_exact(z_in, positives, pos_weight):
    """Weighted BCE of every inner-product logit against 0/1 targets.

    ``positives`` is the CSR pattern (indptr, columns) of the nonzeros,
    symmetric with sorted columns: L's, which ``normalize_adjacency`` builds
    so. Equals ``bce_with_logits(z_in @ z_in.T, targets, pos_weight)`` with
    dz = (g + g.T) @ z_in, but never builds dense targets or logits: with
    softplus(-x) = softplus(x) - x the loss is one dense softplus plus a
    correction on the nonzeros, and the logit gradient is the symmetric
    sigmoid(X) / n^2 plus a sparse matrix C on those nonzeros. The logits
    are streamed a block of _TRI_ROWS rows of the upper triangle at a time,
    so the call holds three blocks of _TRI_ROWS x n besides O(nnz) arrays.
    """
    import scipy.sparse as sp

    indptr, cols = positives
    n = z_in.shape[0]
    size = float(n * n)
    rows = _pattern_rows(indptr, 0, cols.size)
    # pair (r, c) is read from the block of lo = min(r, c), at (lo - s, hi - s)
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    order = np.argsort(lo)
    bounds = np.searchsorted(lo[order], np.arange(0, n + _TRI_ROWS, _TRI_ROWS))
    x_pos = np.empty(cols.size)
    # each block adds its softplus, the square diagonal part once and the
    # rectangle right of it twice, then turns into sigmoid(x) =
    # exp(x - softplus(x)) in place and adds its share of sigmoid @ z_in
    # to its own rows and, transposed, to the rows below it
    bufs = [np.empty(min(_TRI_ROWS, n) * n) for _ in range(3)]
    dz = np.zeros(z_in.shape)
    total = 0.0
    for b, s in enumerate(range(0, n, _TRI_ROWS)):
        h = min(_TRI_ROWS, n - s)
        x, sp_x, scratch = (buf[:h * (n - s)].reshape(h, n - s) for buf in bufs)
        np.matmul(z_in[s:s + h], z_in[s:].T, out=x)
        mine = order[bounds[b]:bounds[b + 1]]
        x_pos[mine] = x[lo[mine] - s, hi[mine] - s]
        softplus(x, out=sp_x, scratch=scratch)
        total += float(sp_x[:, :h].sum()) + 2.0 * float(sp_x[:, h:].sum())
        np.subtract(x, sp_x, out=x)
        np.exp(x, out=x)
        dz[s:s + h] += x @ z_in[s:]
        dz[s + h:] += x[:, h:].T @ z_in[s:s + h]
    # softplus and the sigmoid are elementwise, so at the nonzeros they are
    # the kernels on x_pos
    sp_pos = softplus(x_pos)
    total += float(((pos_weight - 1.0) * sp_pos - pos_weight * x_pos).sum())
    # (r, c) and (c, r) read one logit, so C is symmetric and C + C.T is C
    # with each value doubled, on the same pattern: one product, the bits of two
    c = sp.csr_matrix((2.0 * (((pos_weight - 1.0) * np.exp(x_pos - sp_pos) - pos_weight) / size),
                       cols, indptr), shape=(n, n))
    dz *= 2.0 / size
    dz += c @ z_in
    return total / size, dz


# pairs per chunk of gathered endpoint rows in the sampled loss: two
# gathered blocks of 512 rows of 65 floats stay in a core's L2 cache
_PAIR_CHUNK = 512
# pairs per block of the sampler's draws and of the sampled loss's rows,
# sigmoid and softplus: under 1 MB of temporaries
_PAIR_BLOCK = 16384


def link_loss_sampled(z_in, positives, negatives, n_neg_total):
    """Balanced link loss over all positives plus sampled negatives.

    Each side is a CSR pattern (indptr, int32 columns) of its pairs (i, j)
    in i*n+j key order, a repeated pair as repeated entries: the positives
    are L's own pattern, the negatives ``sample_negative_pairs``'s. Scaled
    so that sampling every negative exactly once reproduces the exact-mode
    value and gradient. The logits read their rows in sequence, the loss
    sums in key order, and the logit gradients G form a CSR matrix on the
    side's own pattern, so that dz = G @ z_in + G.T @ z_in; the products
    sum repeated entries. Besides its pattern a side holds 16 bytes per
    pair: the loss terms and the gradients.
    """
    import scipy.sparse as sp

    n = z_in.shape[0]
    scale = n_neg_total / float(n * n)
    loss = 0.0
    dz = np.zeros(z_in.shape)
    for (indptr, cols), target in ((positives, 1.0), (negatives, 0.0)):
        size = cols.size
        x = np.empty(size)
        g = np.empty(size)
        for b in range(0, size, _PAIR_BLOCK):
            e = min(b + _PAIR_BLOCK, size)
            rows, cols_b = _pattern_rows(indptr, b, e), cols[b:e]
            x_b = np.empty(e - b)
            for s in range(0, e - b, _PAIR_CHUNK):
                t = s + _PAIR_CHUNK
                x_b[s:t] = np.einsum("ij,ij->i", z_in[rows[s:t]], z_in[cols_b[s:t]])
            g[b:e] = scale * (sigmoid(x_b) - target) / size
            # softplus(-x) against a positive target, softplus(x) against zero
            x_b *= 1.0 - 2.0 * target
            x[b:e] = softplus(x_b, out=x_b)
        loss += float(x.mean())
        del x  # before the products' n x width arrays
        grad = sp.csr_matrix((g, cols, indptr), shape=(n, n))
        dz += grad @ z_in
        dz += grad.T @ z_in
        del grad, g  # before the next side's arrays
    return scale * loss, dz


def sample_negative_pairs(batch: Batch, count: int, rng: Rng):
    """The CSR pattern (indptr, int32 columns) of ``count`` ordered pairs
    with a zero reconstruction target, drawn with replacement; a pair drawn
    twice is two entries.

    Each round draws every candidate it still needs, at least 256, in
    blocks of _PAIR_BLOCK rows; a draw split into blocks reads the same
    stream as one whole draw. A candidate whose filter slot is clear is
    accepted at once; only the filter's hits are looked up among the
    positives' sorted keys, made with the filter from L in each call. The
    accepted keys i*n+j fill one int64 array, 8 bytes per pair, sorted in
    place, whose first half then holds the int32 columns; the second half
    is given back.
    """
    n = batch.n
    lap = batch.laplacian
    pos_keys = _pattern_rows(lap.indptr, 0, lap.nnz) * n + lap.indices
    table, bits = _positive_filter(pos_keys)
    to_key = np.array([n, 1], dtype=np.int64)
    cols = np.empty(2 * count, dtype=np.int32)
    keys = cols.view(np.int64)
    have = 0
    while have < count:
        k = max(256, count - have)
        for s in range(0, k, _PAIR_BLOCK):
            # keys i*n+j of a block of candidates
            cand = rng.integers(0, n, size=(min(_PAIR_BLOCK, k - s), 2)) @ to_key
            hits = np.flatnonzero(table[_key_slots(cand, bits)])
            # looked up in key order, which keeps the binary searches in cache
            hits = hits[np.argsort(cand[hits])]
            hit_keys = cand[hits]
            idx = np.minimum(np.searchsorted(pos_keys, hit_keys), pos_keys.size - 1)
            accept = np.ones(cand.size, dtype=bool)
            accept[hits[pos_keys[idx] == hit_keys]] = False
            cand = cand[accept][:count - have]
            keys[have:have + cand.size] = cand
            have += cand.size
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    # a block of columns lands on the bytes of keys already read
    for b in range(0, count, _PAIR_BLOCK):
        e = min(b + _PAIR_BLOCK, count)
        cols[b:e] = keys[b:e] % n
    # no view of the buffer is left, so it shrinks in place; refcheck would
    # also count a tracer's or debugger's reference to ``cols`` itself
    del keys
    cols.resize(count, refcheck=False)
    return indptr, cols


def link_loss(z_in, batch: Batch, negatives=None):
    """The exact loss over every pair, or the sampled one over all the
    positives and the ``negatives`` pattern of ``sample_negative_pairs``."""
    lap = batch.laplacian
    positives = (lap.indptr, lap.indices)
    if negatives is None:
        return link_loss_exact(z_in, positives, batch.pos_weight)
    return link_loss_sampled(z_in, positives, negatives, batch.n * batch.n - lap.nnz)


def attr_loss(z_in, wc, onehot, mask):
    """Masked softmax cross-entropy for one utility head.

    Returns (loss, d_z_in, d_wc).
    """
    logits = z_in @ wc
    loss, g = softmax_cross_entropy(logits, onehot, mask)
    return loss, g @ wc.T, z_in.T @ g


def _disc_forward(z, wd1, bd1, wd2, bd2):
    pre = z @ wd1 + bd1
    hidden = relu(pre)
    q = (hidden @ wd2).ravel() + bd2[0]
    return q, pre, hidden


def _disc_backward(dq, z, pre, hidden, wd1, wd2):
    dq = dq[:, None]
    dwd2 = hidden.T @ dq
    dbd2 = np.array([dq.sum()])
    dhidden = dq @ wd2.T
    dpre = relu_backward(dhidden, pre)
    dwd1 = z.T @ dpre
    dbd1 = dpre.sum(axis=0)
    dz = dpre @ wd1.T
    return {"Wd1": dwd1, "bd1": dbd1, "Wd2": dwd2, "bd2": dbd2}, dz


def disc_loss(real, fake, wd1, bd1, wd2, bd2):
    """Discriminator objective mean(-log D(real) - log(1 - D(fake))).

    Returns (loss, grads over discriminator parameters, d_fake) so the same
    forward pass serves both the discriminator step and gradient checks
    through the encoder.
    """
    q_r, pre_r, hid_r = _disc_forward(real, wd1, bd1, wd2, bd2)
    q_f, pre_f, hid_f = _disc_forward(fake, wd1, bd1, wd2, bd2)
    loss = float(softplus(-q_r).mean()) + float(softplus(q_f).mean())
    dq_r = (sigmoid(q_r) - 1.0) / q_r.size
    dq_f = sigmoid(q_f) / q_f.size
    grads_r, _ = _disc_backward(dq_r, real, pre_r, hid_r, wd1, wd2)
    grads_f, dfake = _disc_backward(dq_f, fake, pre_f, hid_f, wd1, wd2)
    grads = {k: grads_r[k] + grads_f[k] for k in grads_r}
    return loss, grads, dfake


def gen_fool_loss(fake, wd1, bd1, wd2, bd2):
    """Non-saturating generator objective mean(-log D(fake)).

    Returns (loss, d_fake); discriminator parameters are left alone.
    """
    q, pre, hidden = _disc_forward(fake, wd1, bd1, wd2, bd2)
    loss = float(softplus(-q).mean())
    dq = (sigmoid(q) - 1.0) / q.size
    _, dfake = _disc_backward(dq, fake, pre, hidden, wd1, wd2)
    return loss, dfake


def attacker_loss(z, wa, ba, onehot, mask):
    """Cross-entropy of the linear softmax attacker on labeled rows.

    Returns (loss, d_z, d_wa, d_ba).
    """
    logits = z @ wa + ba
    loss, g = softmax_cross_entropy(logits, onehot, mask)
    return loss, g @ wa.T, z.T @ g, g.sum(axis=0)


def obf_loss(l_recon: float, l_att, lam: float) -> float:
    """Obfuscator objective: reconstruction minus lam times attacker loss;
    ``l_att`` may be None only at lam 0."""
    return l_recon - (lam * l_att if lam else 0.0)


def release_from_code(state: ModelState, z_code) -> np.ndarray:
    """The released embedding for a code: expanded when the variant wires
    an expansion layer, the code itself otherwise."""
    return z_code @ state.We if state.We is not None else z_code


def release_embedding(state: ModelState, batch: Batch):
    """Forward pass only: returns (code Z', released embedding Z)."""
    z_code, _ = encoder_forward(batch.laplacian, batch.lx, state.W0, state.W1)
    return z_code, release_from_code(state, z_code)


def obfuscator_losses(state: ModelState, batch: Batch, lam: float = 0.0,
                      draw_negatives=None, forward=None):
    """Joint forward and backward pass for the obfuscator update.

    Computes the link loss, every utility head loss, and (when the variant
    wires an attacker) the attacker loss, then
    backpropagates the combined objective to every parameter in
    ``state.obf_params()``. Attacker and discriminator weights are treated
    as constants here.

    ``draw_negatives`` returns the negatives' pattern of a sampled link
    loss; None selects the exact loss. It is called as ``link_loss``'s
    argument, so the pattern is freed when the link loss returns, before
    the backward pass.

    ``forward`` is the ``encoder_forward`` result for the current encoder
    weights when the caller already has it; it is computed here otherwise.

    Returns (parts, grads): ``parts`` holds l_link, l_attr, l_att (None when
    not computed), l_recon, and l_obf.
    """
    if forward is None:
        forward = encoder_forward(batch.laplacian, batch.lx, state.W0, state.W1)
    z_code, cache = forward
    z = release_from_code(state, z_code)
    concat = state.Wd1 is not None
    # disentangling variants wire Wd1 and also decode the private one-hot (zeros if missing)
    z_in = np.hstack([z, batch.privacy_onehot]) if concat else z

    l_link, dz_in = link_loss(z_in, batch, draw_negatives() if draw_negatives else None)
    grads = {}
    l_attr = 0.0
    for name, (onehot, mask) in batch.utility.items():
        l_c, dz_c, dwc = attr_loss(z_in, state.heads[name], onehot, mask)
        l_attr += l_c
        dz_in += dz_c
        grads[f"head:{name}"] = dwc
    # reconstruction objective: link loss plus every utility head loss
    l_recon = l_link + l_attr

    d = z.shape[1]
    dz = dz_in[:, :d] if concat else dz_in

    l_att = None
    if state.Wa is not None:
        l_att, dz_att, _, _ = attacker_loss(z, state.Wa, state.ba,
                                            batch.privacy_onehot, batch.privacy_mask)
        if lam:
            dz = dz - lam * dz_att
    l_obf = obf_loss(l_recon, l_att, lam if l_att is not None else 0.0)

    if state.We is not None:
        grads["We"] = z_code.T @ dz
        dz_code = dz @ state.We.T
    else:
        dz_code = dz
    grads["W0"], grads["W1"] = encoder_backward(dz_code, cache, batch.laplacian,
                                                batch.lx, state.W1)
    parts = {
        "l_link": l_link,
        "l_attr": l_attr,
        "l_att": l_att,
        "l_recon": l_recon,
        "l_obf": l_obf,
    }
    return parts, grads
