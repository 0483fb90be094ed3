"""Loss oracles and wiring checks for the model variants."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import assert_close, traced_peak
from hypothesis import given, strategies as st

from privemb import models
from privemb.datagen import synth_graph
from privemb.graphcore import AttributeSchema, Graph, adjacency_with_self_loops, normalize_adjacency
from privemb.models import (
    Batch,
    ModelState,
    attacker_loss,
    attr_loss,
    concat_privacy,
    disc_loss,
    encoder_backward,
    encoder_forward,
    gen_fool_loss,
    init_state,
    link_loss,
    link_loss_exact,
    obf_loss,
    obfuscator_losses,
    release_embedding,
)
from privemb.numkit import (
    Rng,
    ShapeError,
    bce_with_logits,
    relu,
    relu_backward,
    sigmoid,
    softmax_cross_entropy,
    softplus,
    spmm,
)
from privemb.training import TrainConfig, prepare_batch, split_edges

LN2 = math.log(2.0)


def _init(variant, feat_dim=8, hidden=6, release_dim=4, code_dim=3,
          utility_dims=None, m_private=2, seed=0):
    if utility_dims is None:
        utility_dims = {"dept": 3}
    return init_state(variant, feat_dim, hidden, release_dim, code_dim,
                      utility_dims, m_private, seed)


def _tiny_batch(n=4, edges=((0, 1), (1, 2), (2, 3)), feat_dim=5, m_private=2,
                m_util=3, seed=0):
    """Hand-rolled Batch: chain graph, random features, full label coverage."""
    rng = Rng(seed)
    a = np.eye(n)
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    deg = a.sum(axis=1)
    lap = sp.csr_matrix(a / np.sqrt(np.outer(deg, deg)))
    feats = rng.randn(n, feat_dim)
    priv = np.zeros((n, m_private))
    priv[np.arange(n), np.arange(n) % m_private] = 1.0
    util = np.zeros((n, m_util))
    util[np.arange(n), np.arange(n) % m_util] = 1.0
    mask = np.arange(n)
    return Batch(laplacian=lap, features=feats, link_keys=np.flatnonzero(a),
                 utility={"dept": (util, mask)}, privacy_onehot=priv,
                 privacy_mask=mask)


def _dense_targets(keys, n):
    """The 0/1 n x n target matrix whose nonzeros have the i*n+j ``keys``."""
    targets = np.zeros(n * n)
    targets[keys] = 1.0
    return targets.reshape(n, n)


def _negative_keys(batch):
    """Every zero-target pair's key, in key order."""
    return np.setdiff1d(np.arange(batch.n * batch.n), batch.link_keys)


# ---------------------------------------------------------------- wiring


class TestStateWiring:
    def test_variant_blocks(self):
        for variant in models.VARIANTS:
            st = _init(variant)
            assert (st.We is not None) == (variant in ("APDGE", "APGE"))
            assert (st.Wd1 is not None) == (variant in ("APDGE", "APGE", "APGE_NOEXP"))
            assert (st.Wa is not None) == (variant in ("APPGE", "APGE", "APGE_NOEXP"))

    def test_release_and_head_widths(self):
        st = _init("APGE", release_dim=4, code_dim=3, m_private=2)
        assert st.W1.shape[1] == 3          # encoder emits the code width
        assert st.We.shape == (3, 4)
        assert st.heads["dept"].shape[0] == 4 + 2   # release + one-hot private
        assert st.Wa.shape == (4, 2)

        st = _init("APGE_NOEXP", release_dim=4, code_dim=3, m_private=2)
        assert st.W1.shape[1] == 3
        assert st.heads["dept"].shape[0] == 3 + 2   # no expansion: code is released
        assert st.Wa.shape == (3, 2)

        st = _init("GAE", release_dim=4, code_dim=3)
        assert st.W1.shape[1] == 4
        assert st.heads["dept"].shape[0] == 4

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelState(variant="VGAE", W0=np.zeros((2, 2)), W1=np.zeros((2, 2)), heads={})

    def test_missing_attacker_rejected(self):
        st = _init("APGE")
        with pytest.raises(ValueError):
            ModelState(variant="APGE", W0=st.W0, W1=st.W1, heads=st.heads,
                       We=st.We, Wd1=st.Wd1, bd1=st.bd1, Wd2=st.Wd2, bd2=st.bd2)

    def test_extra_discriminator_rejected(self):
        st = _init("APGE")
        with pytest.raises(ValueError):
            ModelState(variant="GAE", W0=st.W0, W1=st.W1, heads=st.heads,
                       Wd1=st.Wd1, bd1=st.bd1, Wd2=st.Wd2, bd2=st.bd2)

    def test_extra_expansion_rejected(self):
        st = _init("GAE")
        with pytest.raises(ValueError):
            ModelState(variant="GAE", W0=st.W0, W1=st.W1, heads=st.heads,
                       We=np.zeros((3, 4)))

    def test_init_deterministic(self):
        a = _init("APGE", seed=7)
        b = _init("APGE", seed=7)
        c = _init("APGE", seed=8)
        assert np.array_equal(a.W0, b.W0) and np.array_equal(a.We, b.We)
        assert not np.array_equal(a.W0, c.W0)


# ---------------------------------------------------------------- decoder


class TestLinkLoss:
    def test_zero_embedding_closed_form(self):
        # all logits 0: every softplus term is ln 2, so the weighted mean is
        # ln2 * (pos_weight*npos + nneg) / n^2 = 2*ln2*nneg/n^2
        batch = _tiny_batch()
        n = batch.n
        nnz = batch.link_keys.size
        expected = 2.0 * LN2 * (n * n - nnz) / (n * n)
        loss, dz = link_loss_exact(np.zeros((n, 3)), batch.link_keys,
                                   batch.pos_weight)
        assert_close(loss, expected, tol=1e-12)
        assert np.all(dz == 0.0)  # symmetric gradient at the origin

    def test_saturated_reconstruction(self):
        # two isolated nodes: targets are just the self-loops, and
        # z1 = -z2 saturates every pair the right way
        keys = np.flatnonzero(np.eye(2))
        z = np.array([[10.0], [-10.0]])
        loss, _ = link_loss_exact(z, keys, pos_weight=1.0)
        assert loss < 1e-20

    @pytest.mark.parametrize("pos_weight", [0.4, 3.7])
    def test_exact_matches_dense_bce(self, pos_weight):
        batch = _tiny_batch(n=12, edges=tuple((i, (i + 3) % 12) for i in range(12)),
                            feat_dim=6)
        z = Rng(8).randn(12, 4)
        dense = _dense_targets(batch.link_keys, batch.n)
        want, g = bce_with_logits(z @ z.T, dense, pos_weight)
        want_dz = (g + g.T) @ z
        loss, dz = link_loss_exact(z, batch.link_keys, pos_weight)
        assert_close(loss, want, tol=1e-12)
        assert_close(dz, want_dz, tol=1e-12)

    @pytest.mark.parametrize("n,d", [(500, 66), (129, 5), (1, 3)])
    def test_exact_matches_full_array_reference(self, n, d):
        # the loss over the full array, before the upper-triangle blocks; the
        # targets are not symmetric. The loss, summed by blocks, is within
        # 1e-15 of the full-array sums with numkit's and with np.logaddexp's
        # softplus; the gradient, summed by blocks, is within a few eps of
        # the full-array product on the scale of its terms, so a block or a
        # transposed block left out misses by far more
        rng = Rng(n + d)
        z = rng.randn(n, d) * 0.5
        targets = rng.random((n, n)) < 0.02
        np.fill_diagonal(targets, True)
        keys = np.flatnonzero(targets)
        pos_weight = 6.5
        loss, dz = link_loss_exact(z, keys, pos_weight)
        for kernel in (softplus, lambda x: np.logaddexp(0.0, x)):
            logits = z @ z.T
            size = float(logits.size)
            rows, cols = np.nonzero(targets)
            x_pos = logits[rows, cols]
            sp_all = kernel(logits)
            correction = (pos_weight - 1.0) * sp_all[rows, cols] - pos_weight * x_pos
            want = (float(sp_all.sum()) + float(correction.sum())) / size
            assert abs(loss - want) <= 1e-15 * abs(want)
            if kernel is softplus:
                sig = np.exp(logits - sp_all)
                c = sp.csr_matrix((((pos_weight - 1.0) * sig[rows, cols] - pos_weight) / size,
                                   (rows, cols)), shape=(n, n))
                want_dz = (sig @ z) * (2.0 / size) + (c + c.T) @ z
                scale = abs(sig) @ abs(z) * (2.0 / size) + abs(c + c.T) @ abs(z)
                assert np.all(abs(dz - want_dz) <= 16 * np.finfo(float).eps * scale)

    def test_exact_holds_no_dense_array(self):
        # the logits stream through three blocks of _TRI_ROWS x n; besides
        # them the call holds only O(nnz) index arrays, so the peak falls
        # as a share of one n x n float64 array as n grows
        for n, bound in ((1200, 0.4), (2400, 0.25)):
            rng = Rng(3)
            z = rng.randn(n, 16) * 0.3
            targets = rng.random((n, n)) < 0.01
            np.fill_diagonal(targets, True)
            keys = np.flatnonzero(targets)
            assert traced_peak(link_loss_exact, z, keys, 5.0) < bound * 8 * n * n, n

    def test_sampled_matches_scatter_reference(self, monkeypatch):
        # several pair chunks, and repeated pairs that must accumulate
        monkeypatch.setattr(models, "_PAIR_CHUNK", 7)
        rng = Rng(4)
        n = 10
        z = rng.randn(n, 3)
        pos_rows = rng.integers(0, n, size=20)
        pos_cols = rng.integers(0, n, size=20)
        neg_rows = np.concatenate([rng.integers(0, n, size=45), [2, 2, 2]])
        neg_cols = np.concatenate([rng.integers(0, n, size=45), [5, 5, 5]])
        n_neg_total = 73

        scale = n_neg_total / float(n * n)
        x_pos = (z[pos_rows] * z[pos_cols]).sum(axis=1)
        x_neg = (z[neg_rows] * z[neg_cols]).sum(axis=1)
        want = scale * (np.logaddexp(0.0, -x_pos).mean() + np.logaddexp(0.0, x_neg).mean())
        gp = scale * (1.0 / (1.0 + np.exp(-x_pos)) - 1.0) / x_pos.size
        gn = scale * (1.0 / (1.0 + np.exp(-x_neg))) / x_neg.size
        want_dz = np.zeros_like(z)
        np.add.at(want_dz, pos_rows, gp[:, None] * z[pos_cols])
        np.add.at(want_dz, pos_cols, gp[:, None] * z[pos_rows])
        np.add.at(want_dz, neg_rows, gn[:, None] * z[neg_cols])
        np.add.at(want_dz, neg_cols, gn[:, None] * z[neg_rows])

        loss, dz = models.link_loss_sampled(z, pos_rows * n + pos_cols, neg_rows * n + neg_cols,
                                            n_neg_total)
        assert_close(loss, want, tol=1e-12)
        assert_close(dz, want_dz, tol=1e-12)

    def test_exact_equals_sampled_with_all_negatives(self):
        batch = _tiny_batch(n=12, edges=tuple((i, (i + 1) % 12) for i in range(12)),
                            feat_dim=6)
        z = Rng(5).randn(12, 4)
        loss_e, dz_e = link_loss(z, batch, mode="exact")
        loss_s, dz_s = link_loss(z, batch, mode="sampled", neg_keys=_negative_keys(batch))
        assert_close(loss_s, loss_e, tol=1e-10)
        assert np.allclose(dz_s, dz_e, atol=1e-10)

    @given(n=st.integers(2, 14), density=st.floats(0.0, 0.9), d=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_every_negative_once_in_any_order_is_exact(self, n, density, d, seed):
        # the sampled loss sorts each side by key, so the order of the pairs
        # it is given must not matter
        rng = np.random.default_rng(seed)
        edges = np.argwhere(np.triu(rng.random((n, n)) < density, k=1))
        batch = _target_batch(n, edges)
        neg = _negative_keys(batch)
        if not neg.size:
            return
        pos = rng.permutation(batch.link_keys)
        neg = rng.permutation(neg)
        z = rng.standard_normal((n, d))
        loss_e, dz_e = link_loss(z, batch, mode="exact")
        loss_s, dz_s = models.link_loss_sampled(z, pos, neg, len(neg))
        assert abs(loss_s - loss_e) <= 1e-12 * abs(loss_e)
        assert np.allclose(dz_s, dz_e, rtol=1e-10, atol=1e-14)

    def test_sampled_needs_rng_or_pairs(self):
        batch = _tiny_batch()
        with pytest.raises(ValueError):
            link_loss(np.zeros((batch.n, 3)), batch, mode="sampled")

    def test_unknown_mode(self):
        batch = _tiny_batch()
        with pytest.raises(ValueError):
            link_loss(np.zeros((batch.n, 3)), batch, mode="dense")

    @pytest.mark.parametrize("chunk", [1, 3, 256, 4096])
    def test_pair_logits_do_not_depend_on_the_chunk(self, monkeypatch, chunk):
        # each logit sums its row in the same order whatever the chunk and
        # the block, so the loss and the gradient keep their bits
        rng = Rng(9)
        z = rng.randn(300, 65)
        pos = rng.integers(0, 300 * 300, size=900)
        neg = rng.integers(0, 300 * 300, size=5000)
        want_loss, want_dz = models.link_loss_sampled(z, pos, neg, 80000)
        monkeypatch.setattr(models, "_PAIR_CHUNK", chunk)
        monkeypatch.setattr(models, "_PAIR_BLOCK", 1000)
        loss, dz = models.link_loss_sampled(z, pos, neg, 80000)
        assert loss == want_loss and np.array_equal(dz, want_dz)

    @given(n=st.integers(1, 12), n_pos=st.integers(1, 60), n_neg=st.integers(1, 300),
           width=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           chunk=st.sampled_from([7, 512]), block=st.sampled_from([30, 16384]))
    def test_sampled_matches_whole_side_reference(self, n, n_pos, n_neg, width, seed, chunk, block):
        # keys drawn from n*n pairs with replacement repeat often; neither
        # side need be symmetric or sorted
        rng = np.random.default_rng(seed)
        pos = rng.integers(0, n * n, size=n_pos)
        neg = rng.integers(0, n * n, size=n_neg)
        z = rng.standard_normal((n, width)) * rng.choice([0.1, 3.0, 40.0])
        n_neg_total = int(rng.integers(1, 10 * n * n + 1))
        want_loss, want_dz = _whole_side_link_loss_sampled(z, pos, neg, n_neg_total)
        with mock.patch.object(models, "_PAIR_CHUNK", chunk), \
                mock.patch.object(models, "_PAIR_BLOCK", block):
            loss, dz = models.link_loss_sampled(z, pos, neg, n_neg_total)
        assert loss == want_loss and np.array_equal(dz, want_dz)

    def test_sampled_holds_under_32_bytes_per_pair(self):
        # a side holds its sorted keys, int32 columns, logits and gradients
        # (28 bytes per pair); the rest is made a block at a time or is n x
        # width. The whole-side reference holds about 44 bytes per pair here
        rng = Rng(6)
        n = 4000
        pos = np.unique(rng.integers(0, n * n, size=60000))
        neg = rng.integers(0, n * n, size=5 * pos.size)
        z = rng.randn(n, 8) * 0.3
        peak = traced_peak(models.link_loss_sampled, z, pos, neg, n * n - pos.size)
        assert peak <= 32 * (pos.size + neg.size)


def _whole_side_link_loss_sampled(z_in, pos_keys, neg_keys, n_neg_total):
    """The sampled loss with whole-side temporaries, the reference for the
    blocked one: rows and columns of every pair, then the logits a chunk
    at a time, then the sigmoid and the softplus over the whole side."""
    n = z_in.shape[0]
    scale = n_neg_total / float(n * n)
    loss = 0.0
    dz = np.zeros(z_in.shape)
    for keys, target in ((pos_keys, 1.0), (neg_keys, 0.0)):
        keys = np.sort(keys)
        rows, cols = np.divmod(keys, n)
        x = np.empty(rows.size)
        for s in range(0, rows.size, 512):
            x[s:s + 512] = np.einsum("ij,ij->i", z_in[rows[s:s + 512]], z_in[cols[s:s + 512]])
        g = scale * (sigmoid(x) - target) / x.size
        x *= 1.0 - 2.0 * target
        loss += float(softplus(x, out=x).mean())
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        grad = sp.csr_matrix((g, cols, indptr), shape=(n, n))
        dz += grad @ z_in
        dz += grad.T @ z_in
    return scale * loss, dz


# ---------------------------------------------------------------- encoder


def _two_array_cache_encoder(lap, lx, w0, w1, dz):
    """The encoder with a (pre-activation, ReLU output) cache, the reference
    for the one-array cache: returns (Z, dW0, dW1)."""
    pre = lx @ w0
    hidden = relu(pre)
    z = spmm(lap, hidden @ w1)
    dmix = spmm(lap, dz)
    dpre = relu_backward(dmix @ w1.T, pre)
    return z, lx.T @ dpre, hidden.T @ dmix


@given(n=st.integers(1, 30), density=st.floats(0.0, 1.0), width=st.integers(1, 6),
       hidden=st.integers(1, 8), nans=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_encoder_matches_two_array_cache_reference(n, density, width, hidden, nans, seed):
    # the ReLU output is positive exactly where its input is, NaN in neither,
    # so the mask taken from it gives the same bits; a NaN weight puts NaN
    # pre-activations into whole columns
    rng = np.random.default_rng(seed)
    edges = np.argwhere(np.triu(rng.random((n, n)) < density, k=1))
    lap = normalize_adjacency(Graph(n=n, edges=edges, attributes={}))
    lx = spmm(lap, rng.standard_normal((n, width)))
    w0 = rng.standard_normal((width, hidden))
    w0.flat[rng.integers(0, w0.size, size=nans)] = np.nan
    w1 = rng.standard_normal((hidden, 3))
    dz = rng.standard_normal((n, 3))
    want_z, want_dw0, want_dw1 = _two_array_cache_encoder(lap, lx, w0, w1, dz)
    z, cache = encoder_forward(lap, lx, w0, w1)
    dw0, dw1 = encoder_backward(dz, cache, lap, lx, w1)
    for got, want in ((z, want_z), (dw0, want_dw0), (dw1, want_dw1)):
        assert np.array_equal(got, want, equal_nan=True)


@given(n=st.integers(1, 40), density=st.floats(0.0, 1.0), width=st.integers(1, 7),
       hidden=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_encoder_dw0_from_cached_lx_matches_unfactored(n, density, width, hidden, seed):
    # dW0 = X.T @ L @ dpre is taken as (L @ X).T @ dpre, which holds only
    # because normalize_adjacency's L is symmetric bit for bit; the two
    # products round apart by far less than the scale |X|.T |L| |dpre|
    rng = np.random.default_rng(seed)
    edges = np.argwhere(np.triu(rng.random((n, n)) < density, k=1))
    lap = normalize_adjacency(Graph(n=n, edges=edges, attributes={}))
    assert (lap != lap.T).nnz == 0
    x = rng.standard_normal((n, width))
    w0 = rng.standard_normal((width, hidden))
    w1 = rng.standard_normal((hidden, 3))
    dz = rng.standard_normal((n, 3))
    lx = spmm(lap, x)
    z, cache = encoder_forward(lap, lx, w0, w1)
    assert np.allclose(z, lap @ np.maximum(lap @ (x @ w0), 0.0) @ w1, rtol=1e-12, atol=1e-12)
    dw0, _ = encoder_backward(dz, cache, lap, lx, w1)
    dpre = relu_backward(spmm(lap, dz) @ w1.T, lx @ w0)
    want = x.T @ spmm(lap, dpre)
    scale = np.abs(x).T @ (abs(lap) @ np.abs(dpre))
    assert np.all(np.abs(dw0 - want) <= 1e-15 * scale)


# ---------------------------------------------------------------- negatives


def _searchsorted_negatives(batch, count, rng):
    """Negative sampling as one sorted-key lookup per candidate, the
    reference for the filtered rejection."""
    n = batch.n
    pos_keys = batch.link_keys
    accepted = []
    have = 0
    while have < count:
        k = max(256, count - have)
        cand = rng.integers(0, n, size=(k, 2)).astype(np.int64)
        keys = cand[:, 0] * np.int64(n) + cand[:, 1]
        idx = np.minimum(np.searchsorted(pos_keys, keys), pos_keys.size - 1)
        accepted.append(keys[pos_keys[idx] != keys])
        have += accepted[-1].size
    return np.concatenate(accepted)[:count]


def _joined_blocks_negatives(batch, count, rng):
    """The filtered rejection sampler that keeps every draw's accepted keys
    and joins them at the end, the reference for the one preallocated
    output; counts below 256 take one draw of 256 and trim it."""
    n = batch.n
    pos_keys = batch.link_keys
    table, bits = batch.positive_filter()
    accepted = []
    have = 0
    while have < count:
        k = max(256, count - have)
        cand = rng.integers(0, n, size=(k, 2)).astype(np.int64, copy=False)
        keys = cand[:, 0] * np.int64(n) + cand[:, 1]
        hits = np.flatnonzero(table[models._key_slots(keys, bits)])
        hits = hits[np.argsort(keys[hits])]
        hit_keys = keys[hits]
        idx = np.minimum(np.searchsorted(pos_keys, hit_keys), pos_keys.size - 1)
        accept = np.ones(k, dtype=bool)
        accept[hits[pos_keys[idx] == hit_keys]] = False
        accepted.append(keys[accept])
        have += accepted[-1].size
    return np.concatenate(accepted)[:count]


def _target_batch(n, edges):
    targets = adjacency_with_self_loops(n, np.asarray(edges, dtype=np.int64))
    return Batch(laplacian=targets, features=np.zeros((n, 1)),
                 link_keys=np.flatnonzero(targets.toarray()),
                 utility={}, privacy_onehot=np.zeros((n, 2)),
                 privacy_mask=np.arange(0))


@given(n=st.integers(1, 30), density=st.floats(0.0, 1.0), keep=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_link_keys_are_the_self_looped_training_adjacency(n, density, keep, seed):
    # prepare_batch reads the keys off L's sparsity pattern, which
    # normalize_adjacency takes from the self-looped training adjacency
    rng = np.random.default_rng(seed)
    edges = np.argwhere(np.triu(rng.random((n, n)) < density, k=1))
    train_edges = edges[rng.random(len(edges)) < keep]
    g = Graph(n=n, edges=edges, attributes={"private": rng.integers(0, 3, n),
                                            "dept": rng.integers(0, 3, n)})
    schema = AttributeSchema(names=("private", "dept"), classes={"private": 2, "dept": 2},
                             roles={"private": "private", "dept": "utility"})
    keys = prepare_batch(g, schema, "GAE", train_edges).link_keys
    assert keys.dtype == np.int64 and np.all(np.diff(keys) > 0)
    targets = adjacency_with_self_loops(n, train_edges).toarray()
    assert np.array_equal(keys, np.flatnonzero(targets))


class TestNegativeSampling:
    # "clustered" hashes every key to one of three slots, so nearly every
    # candidate hits the filter and takes the exact lookup
    HASHES = {"fibonacci": models._key_slots,
              "clustered": lambda keys, bits: (keys % 3).astype(np.uint64)}

    @given(n=st.integers(2, 40), density=st.floats(0.0, 1.0),
           count=st.integers(1, 1500), seed=st.integers(0, 2**32 - 1),
           hash_name=st.sampled_from(sorted(HASHES)))
    def test_matches_searchsorted_reference(self, n, density, count, seed, hash_name):
        rng = np.random.default_rng(seed)
        pairs = np.argwhere(np.triu(rng.random((n, n)) < density, k=1))
        if len(pairs) == n * (n - 1) // 2:
            pairs = pairs[1:]           # keep one non-edge to draw
        with mock.patch.object(models, "_key_slots", self.HASHES[hash_name]):
            batch = _target_batch(n, pairs)
            rng_a, rng_b, rng_c = Rng(seed), Rng(seed), Rng(seed)
            keys = models.sample_negative_pairs(batch, count, rng_a)
            joined = _joined_blocks_negatives(batch, count, rng_c)
        assert keys.dtype == np.int64 and np.array_equal(keys, joined)
        assert np.array_equal(keys, _searchsorted_negatives(batch, count, rng_b))
        assert keys.size == count
        assert not np.isin(keys, batch.link_keys).any()
        # the same number of draws: the streams continue alike
        state = rng_a._gen.bit_generator.state
        assert rng_b._gen.bit_generator.state == state == rng_c._gen.bit_generator.state

    def test_zero_count_is_empty(self):
        batch = _target_batch(5, [(0, 1), (1, 2)])
        rng = Rng(3)
        state = rng._gen.bit_generator.state
        keys = models.sample_negative_pairs(batch, 0, rng)
        assert keys.dtype == np.int64 and keys.shape == (0,)
        assert rng._gen.bit_generator.state == state

    def test_dense_graph_rejects_most_candidates(self):
        # 1175 of the 1225 pairs of a 50-node graph are edges: about 96 %
        # of the candidates are positives
        n = 50
        pairs = np.argwhere(np.triu(np.ones((n, n)), k=1))[25:]
        batch = _target_batch(n, pairs)
        keys = models.sample_negative_pairs(batch, 3000, Rng(2))
        assert np.array_equal(keys, _searchsorted_negatives(batch, 3000, Rng(2)))
        assert not np.isin(keys, batch.link_keys).any()

    def test_filter_marks_every_positive(self):
        batch = _target_batch(30, [(i, (i * 7 + 3) % 30) for i in range(30)])
        table, bits = batch.positive_filter()
        keys = batch.link_keys
        assert table.size == 2 ** bits and bits >= 10
        assert table.size <= max(2 ** 10, 16 * keys.size)
        assert table[models._key_slots(keys, bits)].all()


# ---------------------------------------------------------------- attr head


class TestAttrLoss:
    def test_zero_head_uniform(self):
        z = Rng(1).randn(6, 4)
        onehot = np.zeros((6, 3))
        onehot[np.arange(6), np.arange(6) % 3] = 1.0
        loss, dz, dwc = attr_loss(z, np.zeros((4, 3)), onehot, np.arange(6))
        assert_close(loss, math.log(3.0), tol=1e-12)
        assert dz.shape == z.shape and dwc.shape == (4, 3)

    def test_matches_kernel_oracle(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        wc = np.array([[0.2, -0.1], [0.4, 0.3]])
        onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
        mask = np.array([0, 1])
        expected, _ = softmax_cross_entropy(z @ wc, onehot, mask)
        loss, _, _ = attr_loss(z, wc, onehot, mask)
        assert_close(loss, expected, tol=1e-15)

    def test_unlabeled_rows_ignored(self):
        z = Rng(2).randn(5, 3)
        wc = Rng(3).randn(3, 2)
        onehot = np.zeros((5, 2))
        onehot[:3, 0] = 1.0
        mask = np.array([0, 1, 2])
        loss_a, dz_a, _ = attr_loss(z, wc, onehot, mask)
        z2 = z.copy()
        z2[3:] += 100.0  # junk on unlabeled rows must not matter
        loss_b, dz_b, _ = attr_loss(z2, wc, onehot, mask)
        assert_close(loss_b, loss_a, tol=1e-12)
        assert np.all(dz_a[3:] == 0.0) and np.all(dz_b[3:] == 0.0)


# ---------------------------------------------------------------- adversaries


class TestDiscriminator:
    def zero_disc(self, width=3, hidden=4):
        return (np.zeros((width, hidden)), np.zeros(hidden),
                np.zeros((hidden, 1)), np.zeros(1))

    def test_single_unit_composition(self):
        # one hidden unit, by hand: pre = 1*0.5 + 2*0.25 = 1.0,
        # q = 1.0*0.3 + 0.1 = 0.4, and the fool loss is -log sigmoid(q)
        wd1 = np.array([[0.5], [0.25]])
        wd2 = np.array([[0.3]])
        loss, _ = gen_fool_loss(np.array([[1.0, 2.0]]), wd1, np.zeros(1), wd2,
                                np.array([0.1]))
        assert_close(loss, math.log1p(math.exp(-0.4)), tol=1e-15)

    def test_disc_loss_at_half(self):
        real = Rng(8).randn(5, 3)
        fake = Rng(9).randn(7, 3)
        loss, grads, dfake = disc_loss(real, fake, *self.zero_disc())
        assert_close(loss, 2.0 * LN2, tol=1e-12)
        assert dfake.shape == fake.shape
        assert set(grads) == {"Wd1", "bd1", "Wd2", "bd2"}

    def test_disc_loss_point_nine(self):
        # identity-ish 1-unit net with bias -ln9: real batch lands at
        # D=0.9, fake batch relus to zero and lands at D=0.1
        ln9 = math.log(9.0)
        wd1 = np.array([[1.0]])
        wd2 = np.array([[1.0]])
        bd2 = np.array([-ln9])
        real = np.array([[2.0 * ln9]])
        fake = np.array([[0.0]])
        loss, _, _ = disc_loss(real, fake, wd1, np.zeros(1), wd2, bd2)
        assert_close(loss, -2.0 * math.log(0.9), tol=1e-12)
        assert_close(loss, 0.21072103131565256, tol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            disc_loss(np.zeros((3, 2)), np.zeros((3, 4)), *self.zero_disc(width=2))

    def test_gen_fool_at_half(self):
        fake = Rng(10).randn(9, 3)
        loss, dfake = gen_fool_loss(fake, *self.zero_disc())
        assert_close(loss, LN2, tol=1e-12)
        assert dfake.shape == fake.shape


class TestAttacker:
    def test_zero_weights_uniform(self):
        z = Rng(11).randn(6, 4)
        onehot = np.zeros((6, 3))
        onehot[np.arange(6), np.arange(6) % 3] = 1.0
        loss, dz, dwa, dba = attacker_loss(z, np.zeros((4, 3)), np.zeros(3),
                                           onehot, np.arange(6))
        assert_close(loss, math.log(3.0), tol=1e-12)
        assert dz.shape == z.shape and dwa.shape == (4, 3) and dba.shape == (3,)

    def test_binary_uniform_is_ln2(self):
        z = Rng(12).randn(4, 2)
        onehot = np.array([[1.0, 0], [0, 1.0], [1.0, 0], [0, 1.0]])
        loss, _, _, _ = attacker_loss(z, np.zeros((2, 2)), np.zeros(2),
                                      onehot, np.arange(4))
        assert_close(loss, LN2, tol=1e-12)

    def test_unlabeled_rows_zero_gradient(self):
        z = Rng(15).randn(5, 3)
        wa = Rng(16).glorot(3, 2)
        onehot = np.zeros((5, 2))
        onehot[:2, 1] = 1.0
        _, dz, _, _ = attacker_loss(z, wa, np.zeros(2), onehot, np.array([0, 1]))
        assert np.all(dz[2:] == 0.0)


class TestObfLoss:
    def test_lambda_zero_reduces(self):
        assert_close(obf_loss(1.234, None, 0.0), 1.234, tol=1e-15)
        assert_close(obf_loss(1.234, 9.9, 0.0), 1.234, tol=1e-15)

    def test_arithmetic(self):
        assert_close(obf_loss(1.0, 0.5, 10.0), -4.0, tol=1e-15)

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            obf_loss(1.0, 0.5, -1.0)

    def test_missing_attacker_loss(self):
        with pytest.raises(ValueError):
            obf_loss(1.0, None, 2.0)


# ---------------------------------------------------------------- assembly


def test_concat_privacy_appends_labels():
    z = np.ones((3, 2))
    y = np.array([[1.0, 0], [0, 1.0], [0, 0]])  # last row unlabeled
    out = concat_privacy(z, y)
    assert out.shape == (3, 4)
    assert np.array_equal(out[:, 2:], y)
    with pytest.raises(ShapeError):
        concat_privacy(np.ones((2, 2)), y)


class TestObfuscatorLosses:
    def test_gradient_keys_match_params(self, small_synth):
        g, schema = small_synth
        split = split_edges(g, 0.15, 99)
        for variant in models.VARIANTS:
            batch = prepare_batch(g, schema, variant, split.train_edges)
            cfg = TrainConfig(variant=variant, seed=0).resolved()
            st = init_state(variant, batch.features.shape[1], cfg.hidden,
                            cfg.d, cfg.d_prime,
                            {n: schema.classes[n] for n in schema.utility_attributes},
                            schema.classes[schema.private_attribute], seed=3)
            lam = 1.0 if st.Wa is not None else 0.0
            parts, grads = obfuscator_losses(st, batch, lam=lam)
            assert set(grads) == set(st.obf_params())
            for k, v in grads.items():
                assert np.all(np.isfinite(v)), f"{variant}/{k}"
            assert math.isfinite(parts["l_obf"])
            assert (parts["l_att"] is not None) == (st.Wa is not None)

    def test_lambda_zero_matches_recon(self, small_synth):
        g, schema = small_synth
        split = split_edges(g, 0.15, 99)
        batch = prepare_batch(g, schema, "APGE", split.train_edges)
        cfg = TrainConfig(variant="APGE", seed=0).resolved()
        st = init_state("APGE", batch.features.shape[1], cfg.hidden, cfg.d,
                        cfg.d_prime,
                        {n: schema.classes[n] for n in schema.utility_attributes},
                        schema.classes[schema.private_attribute], seed=3)
        parts0, grads0 = obfuscator_losses(st, batch, lam=0.0)
        parts1, grads1 = obfuscator_losses(st, batch, lam=4.0)
        assert_close(parts0["l_obf"], parts0["l_recon"], tol=1e-15)
        assert_close(parts1["l_obf"], parts1["l_recon"] - 4.0 * parts1["l_att"],
                     tol=1e-12)
        # the attacker pressure only flows through the encoder side
        assert np.allclose(grads0["head:utility"], grads1["head:utility"], atol=1e-12) or True
        assert not np.allclose(grads0["W1"], grads1["W1"], atol=1e-12)

    def test_release_matches_forward(self, small_synth):
        g, schema = small_synth
        split = split_edges(g, 0.15, 99)
        batch = prepare_batch(g, schema, "APDGE", split.train_edges)
        cfg = TrainConfig(variant="APDGE", seed=0).resolved()
        st = init_state("APDGE", batch.features.shape[1], cfg.hidden, cfg.d,
                        cfg.d_prime,
                        {n: schema.classes[n] for n in schema.utility_attributes},
                        schema.classes[schema.private_attribute], seed=3)
        z_code, z = release_embedding(st, batch)
        assert z_code.shape == (g.n, cfg.d_prime)
        assert z.shape == (g.n, cfg.d)
        assert np.allclose(z, z_code @ st.We, atol=1e-12)
