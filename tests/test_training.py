"""Training loop behavior: determinism, traces, aborts, config validation."""

import math
from unittest import mock

import numpy as np
import pytest
from conftest import assert_close, traced_peak
from hypothesis import given, strategies as st

from privemb import graphcore, models, training
from privemb.models import VARIANTS
from privemb.numkit import NumericError, Rng
from privemb.training import (
    ConfigError,
    TRACE_COLUMNS,
    TrainConfig,
    export_embeddings,
    export_trace,
    load_embeddings,
    prepare_batch,
    train,
)
from privemb.graphcore import split_edges


def quick_cfg(variant, **kw):
    kw.setdefault("iterations", 4)
    kw.setdefault("d", 8)
    kw.setdefault("hidden", 10)
    if variant in ("APDGE", "APGE", "APGE_NOEXP"):
        kw.setdefault("d_prime", 4)
    return TrainConfig(variant=variant, seed=kw.pop("seed", 0), **kw)


# ------------------------------------------------------------- validation


class TestConfig:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            TrainConfig(variant="SAGE").resolved()

    def test_lam_rejected_without_attacker(self):
        with pytest.raises(ConfigError):
            TrainConfig(variant="GAE", lam=1.0).resolved()

    def test_negative_lam(self):
        with pytest.raises(ConfigError):
            TrainConfig(variant="APGE", lam=-0.5).resolved()

    def test_dprime_rejected_without_code(self):
        with pytest.raises(ConfigError):
            TrainConfig(variant="GAE_RM", d_prime=16).resolved()

    def test_defaults_fill_in(self):
        cfg = TrainConfig(variant="APGE").resolved()
        assert cfg.lam == 1.0
        assert cfg.d_prime == 16
        assert cfg.lr_gen == cfg.lr_dis

    def test_lr_gen_override(self):
        cfg = TrainConfig(variant="APGE", lr_dis=2e-3, lr_gen=5e-4).resolved()
        assert cfg.lr_gen == 5e-4
        with pytest.raises(ConfigError):
            TrainConfig(variant="APGE", lr_gen=0.0).resolved()

    def test_noexp_release_width_is_code_width(self):
        cfg = TrainConfig(variant="APGE_NOEXP", d=64, d_prime=12).resolved()
        assert cfg.d == 12

    def test_bad_scalars(self):
        for kw in ({"iterations": 0}, {"k_att": 0}, {"k_dis": 0},
                   {"lr": 0.0}, {"lr_att": -1.0}, {"edge_holdout": 0.0},
                   {"edge_holdout": 1.0}, {"link_mode": "minibatch"},
                   {"negs_per_pos": 0}, {"d": 0}, {"hidden": -2}):
            with pytest.raises(ConfigError):
                TrainConfig(variant="APGE", **kw).resolved()


# ------------------------------------------------------------- batch prep


def test_gae_rm_drops_private_column(small_synth):
    g, schema = small_synth
    split = split_edges(g, 0.15, 7)
    full = prepare_batch(g, schema, "GAE", split.train_edges)
    trimmed = prepare_batch(g, schema, "GAE_RM", split.train_edges)
    m_p = schema.classes[schema.private_attribute]
    assert full.features.shape[1] == schema.width()
    assert trimmed.features.shape[1] == schema.width() - m_p
    # the private labels are still available for evaluation
    assert trimmed.privacy_onehot.shape[1] == m_p


# ------------------------------------------------------------- training


class TestTrain:
    def test_all_variants_run(self, small_synth):
        g, schema = small_synth
        for variant in VARIANTS:
            res = train(g, schema, quick_cfg(variant))
            d = res.config.d
            assert res.Z.shape == (g.n, d)
            assert np.all(np.isfinite(res.Z))
            assert len(res.trace) == res.config.iterations
            assert res.wall_time > 0.0
            if variant in ("APDGE", "APGE", "APGE_NOEXP"):
                assert res.z_code.shape == (g.n, res.config.d_prime)
            else:
                assert res.z_code is res.Z or np.array_equal(res.z_code, res.Z)

    def test_bitwise_determinism(self, small_synth):
        g, schema = small_synth
        a = train(g, schema, quick_cfg("APGE", seed=5))
        b = train(g, schema, quick_cfg("APGE", seed=5))
        assert np.array_equal(a.Z, b.Z)
        assert np.array_equal(a.z_code, b.z_code)
        for ra, rb in zip(a.trace, b.trace):
            assert ra == rb

    def test_seed_changes_output(self, small_synth):
        g, schema = small_synth
        a = train(g, schema, quick_cfg("GAE", seed=1))
        b = train(g, schema, quick_cfg("GAE", seed=2))
        assert not np.array_equal(a.Z, b.Z)

    def test_trace_columns_by_variant(self, small_synth):
        g, schema = small_synth
        res = train(g, schema, quick_cfg("GAE"))
        for row in res.trace:
            assert row["l_att"] is None and row["l_dc"] is None
            assert math.isfinite(row["l_link"])
            assert_close(row["l_obf"], row["l_link"] + row["l_attr"], tol=1e-12)
        res = train(g, schema, quick_cfg("APGE", lam=2.0))
        for row in res.trace:
            assert math.isfinite(row["l_att"]) and math.isfinite(row["l_dc"])
            assert_close(row["l_obf"],
                         row["l_link"] + row["l_attr"] - 2.0 * row["l_att"],
                         tol=1e-12)
        res = train(g, schema, quick_cfg("APPGE", lam=0.0))
        for row in res.trace:
            # lam=0 still reports the attacker loss it monitors
            assert math.isfinite(row["l_att"]) and row["l_dc"] is None
            assert_close(row["l_obf"], row["l_link"] + row["l_attr"], tol=1e-12)

    def test_sampled_mode_runs(self, small_synth):
        g, schema = small_synth
        res = train(g, schema, quick_cfg("GAE", link_mode="sampled"))
        assert np.all(np.isfinite(res.Z))

    def test_link_memory_budget_refuses_before_training(self, small_synth, monkeypatch):
        # n = 60: a budget below one n x n float64 array
        g, schema = small_synth
        monkeypatch.setattr(training, "LINK_MEMORY_BUDGET", 8 * 60 * 60 - 1)
        with monkeypatch.context() as m:
            m.setattr(training, "encoder_forward", None)  # training never starts
            with pytest.raises(ConfigError, match="sampled.*lower negatives_per_positive"):
                train(g, schema, quick_cfg("GAE", link_mode="sampled", negs_per_pos=10**6))
        # the exact loss streams its logits, so the budget never refuses it
        res = train(g, schema, quick_cfg("GAE", link_mode="exact", iterations=1))
        assert np.all(np.isfinite(res.Z))

    @staticmethod
    def _refuses_under_a_step_peak(monkeypatch, n, width, draws, negs_per_pos):
        # one sampled step, the sampler then the loss: the check must count
        # at least its traced peak. The positives' filter belongs to the
        # batch, made once per run, so it is made before the trace
        rng = Rng(8)
        keys = np.unique(rng.integers(0, n * n, size=draws))
        batch = models.Batch(laplacian=None, features=np.zeros((n, 1)), link_keys=keys,
                             utility={}, privacy_onehot=np.zeros((n, 2)),
                             privacy_mask=np.arange(0))
        batch.positive_filter()
        z = rng.randn(n, width) * 0.3

        def step():
            neg = models.sample_negative_pairs(batch, negs_per_pos * keys.size, Rng(1))
            models.link_loss_sampled(z, keys, neg, n * n - keys.size)

        peak = traced_peak(step)
        monkeypatch.setattr(training, "LINK_MEMORY_BUDGET", peak - 1)
        with pytest.raises(ConfigError, match="lower negatives_per_positive"):
            training._check_link_memory(n, width, keys.size, negs_per_pos)

    @pytest.mark.parametrize("negs_per_pos", [1, 5])
    def test_link_memory_check_counts_what_a_step_holds(self, monkeypatch, negs_per_pos):
        # 400k positive keys of a 3000-node graph at width 4, where the
        # pair arrays outweigh the n x width ones
        self._refuses_under_a_step_peak(monkeypatch, 3000, 4, 420000, negs_per_pos)

    def test_link_memory_check_counts_the_n_by_width_arrays(self, monkeypatch):
        # 118k positive keys of a 6000-node graph at width 64 and one
        # negative each: dz and the product beside it, n x 64 floats each,
        # outweigh the pairs (about 73 bytes per negative in all)
        self._refuses_under_a_step_peak(monkeypatch, 6000, 64, 118500, 1)

    @pytest.mark.parametrize("variant,width", [("GAE", 8), ("APGE", 8 + 2), ("APGE_NOEXP", 4 + 2)])
    def test_link_memory_check_reads_the_decoder_width(self, small_synth, monkeypatch,
                                                      variant, width):
        # the release (d = 8, or d_prime = 4 unexpanded), plus the two-class
        # private one-hot where the decoder disentangles
        g, schema = small_synth
        seen = []
        monkeypatch.setattr(training, "_check_link_memory",
                            lambda n, w, nnz, k: seen.append(w))
        train(g, schema, quick_cfg(variant, link_mode="sampled", iterations=1))
        assert seen == [width]

    def test_holdout_respected(self, small_synth):
        g, schema = small_synth
        res = train(g, schema, quick_cfg("GAE", edge_holdout=0.3))
        total = len(res.edge_split.train_edges) + len(res.edge_split.heldout_pos)
        assert total == g.edges.shape[0]
        assert len(res.edge_split.heldout_pos) == int(round(0.3 * total))
        assert len(res.edge_split.heldout_neg) == len(res.edge_split.heldout_pos)

    def test_nan_abort_names_component_and_iteration(self, small_synth, monkeypatch):
        g, schema = small_synth
        real = training.obfuscator_losses
        calls = {"n": 0}

        def sabotage(*args, **kwargs):
            calls["n"] += 1
            parts, grads = real(*args, **kwargs)
            if calls["n"] == 3:
                parts["l_link"] = float("nan")
            if calls["n"] == 13:
                grads["W0"][1, 2] = float("nan")
            return parts, grads

        monkeypatch.setattr(training, "obfuscator_losses", sabotage)
        with pytest.raises(NumericError, match="l_link.*iteration 3"):
            train(g, schema, quick_cfg("GAE", iterations=10))
        # a gradient block is checked before the optimizer steps on it
        calls["n"] = 10
        with pytest.raises(NumericError, match="^gradient of W0 is not finite at iteration 3$"):
            train(g, schema, quick_cfg("GAE", iterations=10))


    @pytest.mark.parametrize("variant,forwards,backwards", [("GAE", 1, 1), ("APGE", 2, 1)])
    def test_encoder_passes_per_iteration(self, small_synth, monkeypatch,
                                          variant, forwards, backwards):
        # the attacker and discriminator steps reuse the forward of the step
        # before them, and the generator step computes only dW1; the final
        # release adds one forward
        g, schema = small_synth
        calls = {"forward": 0, "backward": 0}
        kinds = {"encoder_forward": "forward", "encoder_backward": "backward"}
        for module in (models, training):
            for name, kind in kinds.items():
                if hasattr(module, name):
                    def counted(*args, _fn=getattr(module, name), _kind=kind, **kwargs):
                        calls[_kind] += 1
                        return _fn(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        train(g, schema, quick_cfg(variant, iterations=5))
        assert calls == {"forward": 5 * forwards + 1, "backward": 5 * backwards}


# ------------------------------------------------------------- export


class TestExport:
    def test_embedding_roundtrip_exact(self, small_synth, tmp_path):
        g, schema = small_synth
        res = train(g, schema, quick_cfg("APGE"))
        path = tmp_path / "emb.csv"
        export_embeddings(res, path)
        back = load_embeddings(path)
        assert back.shape == res.Z.shape
        assert np.array_equal(back, res.Z)
        header = path.read_text().splitlines()[0]
        assert header.split(",")[0] == "z_0"
        assert header.split(",")[-1] == f"z_{res.Z.shape[1] - 1}"

    def test_single_row_shape(self, tmp_path):
        path = tmp_path / "one.csv"
        export_embeddings(np.array([[1.5, -2.25]]), path)
        back = load_embeddings(path)
        assert back.shape == (1, 2)

    def test_matches_per_value_formatting(self, tmp_path):
        z = np.array([[-0.0, 0.0, 5e-324, -2.2250738585072014e-308],
                      [1e300, -1e-300, 1.0 / 3.0, 0.1 + 0.2],
                      [2.0 ** 53 + 2.0, -123456.789, 1e16, 4.9406564584124654e-320]])
        path = tmp_path / "awkward.csv"
        export_embeddings(z, path)
        lines = ["z_0,z_1,z_2,z_3"] + [",".join(f"{v:.17g}" for v in row) for row in z]
        assert path.read_text() == "\n".join(lines) + "\n"
        assert np.array_equal(load_embeddings(path), z)

    @given(rows=st.integers(0, 30), cols=st.integers(1, 5),
           values=st.lists(st.floats(width=64), min_size=150, max_size=150),
           block=st.sampled_from([7, 256]))
    def test_matches_one_string_export(self, tmp_path_factory, rows, cols, values, block):
        # the whole table formatted as one string, the reference for the
        # blocks of rows, the last of them short unless the block divides rows
        z = np.array(values[:rows * cols]).reshape(rows, cols)
        path = tmp_path_factory.getbasetemp() / "blocks.csv"
        with mock.patch.object(graphcore, "_WRITE_VALUES", block * cols):
            export_embeddings(z, path)
        header = ",".join(f"z_{j}" for j in range(cols))
        row = ",".join(["%.17g"] * cols) + "\n"
        want = header + "\n" + row * rows % tuple(z.ravel().tolist())
        assert path.read_bytes() == want.encode("utf-8")

    def test_export_holds_under_4_mb(self, tmp_path):
        # formatting all 384k values as one string peaks at 22 MB
        z = Rng(2).randn(6000, 64)
        assert traced_peak(export_embeddings, z, tmp_path / "big.csv") <= 4 * 2**20

    def test_trace_export(self, small_synth, tmp_path):
        g, schema = small_synth
        res = train(g, schema, quick_cfg("GAE", iterations=3))
        path = tmp_path / "trace.csv"
        export_trace(res.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 4
        # GAE computes neither adversary: those cells stay empty
        first = lines[1].split(",")
        cols = dict(zip(TRACE_COLUMNS, first))
        assert cols["l_att"] == "" and cols["l_dc"] == ""
        assert float(cols["l_link"]) > 0.0
