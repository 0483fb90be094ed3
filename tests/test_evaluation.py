"""Metric oracles and evaluation protocol checks."""

import csv
import inspect

import numpy as np
import pytest
from conftest import adam_reference, assert_close, traced_peak
from hypothesis import given, strategies as st

from privemb import evaluation, training
from privemb.datagen import SynthParams, synth_graph
from privemb.evaluation import (
    REPORT_COLUMNS,
    ClassifierSpec,
    EvalRecord,
    _classification_eval,
    accuracy,
    audit,
    fit_classifier,
    link_eval,
    macro_f1,
    sweep,
    write_report,
)
from privemb.graphcore import AttributeSchema, Graph, InputError, split_edges
from privemb.numkit import (NumericError, Rng, derive_seed, softmax_cross_entropy,
                            softmax_cross_entropy_grad)
from privemb.training import TrainConfig


def onehot_of(labels, m):
    z = np.zeros((labels.size, m))
    z[np.arange(labels.size), labels - 1] = 1.0
    return z


# ---------------------------------------------------------------- metrics


class TestMetrics:
    def test_perfect(self):
        y = np.array([1, 2, 3, 1, 2, 3])
        assert accuracy(y, y) == 1.0
        assert macro_f1(y, y, 3) == 1.0

    def test_hand_confusion(self):
        true = np.array([1, 1, 2, 2])
        pred = np.array([1, 2, 2, 2])
        assert_close(accuracy(true, pred), 0.75, tol=1e-15)
        # class 1: P=1, R=1/2, F1=2/3; class 2: P=2/3, R=1, F1=4/5
        assert_close(macro_f1(true, pred, 2), (2.0 / 3.0 + 4.0 / 5.0) / 2.0,
                     tol=1e-12)

    def test_constant_predictor(self):
        true = np.array([1, 1, 2, 2])
        pred = np.ones(4, dtype=int)
        assert_close(accuracy(true, pred), 0.5, tol=1e-15)
        assert_close(macro_f1(true, pred, 2), 1.0 / 3.0, tol=1e-12)

    def test_absent_class_counts_zero(self):
        true = np.array([1, 1, 2])
        pred = np.array([1, 1, 2])
        # class 3 never appears: macro mean still divides by 3
        assert_close(macro_f1(true, pred, 3), 2.0 / 3.0, tol=1e-12)

    def test_bounded(self):
        rng = Rng(0)
        true = rng.integers(1, 5, size=50)
        pred = rng.integers(1, 5, size=50)
        assert 0.0 <= accuracy(true, pred) <= 1.0
        assert 0.0 <= macro_f1(true, pred, 4) <= 1.0


# ---------------------------------------------------------------- battery


class TestClassifiers:
    def separable(self):
        rng = Rng(3)
        x = rng.randn(60, 4) * 0.1
        labels = np.repeat([1, 2, 3], 20)
        x[:20, 0] += 5.0
        x[20:40, 1] += 5.0
        x[40:, 2] += 5.0
        return x, labels

    @pytest.mark.parametrize("kind", ["softmax", "mlp", "knn"])
    def test_fits_separable(self, kind):
        x, labels = self.separable()
        predict = fit_classifier(ClassifierSpec(kind=kind), x, labels, 3, seed=0)
        assert np.array_equal(predict(x), labels)

    def test_knn_chunks_match_one_shot(self, monkeypatch):
        # a budget of 3 query rows per chunk over 10 query rows; integer
        # coordinates make distance ties that the stable order must keep
        rng = Rng(2)
        x = rng.integers(0, 3, size=(9, 2)).astype(np.float64)
        q = rng.integers(0, 3, size=(10, 2)).astype(np.float64)
        monkeypatch.setattr(evaluation, "_KNN_CHUNK_BYTES", 3 * 8 * 9 * 2)
        d2 = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        want = np.argsort(d2, axis=1, kind="stable")[:, :4]
        assert np.array_equal(evaluation._knn_nearest(q, x, 4), want)

    @pytest.mark.parametrize("n,m", [(37, 2), (50, 4)])
    def test_softmax_matches_per_step_reference(self, n, m):
        x, y0, q = self.problem(n, m)
        spec = ClassifierSpec(kind="softmax", lr=0.05, steps=40)
        predict = evaluation._fit_softmax(x, y0 + 1, m, spec, seed=0)
        got = inspect.getclosurevars(predict).nonlocals
        w = np.zeros((x.shape[1], m))
        b = np.zeros(m)
        step = adam_reference({"w": w, "b": b}, spec.lr)
        for _ in range(spec.steps):
            _, g = softmax_cross_entropy(x @ w + b, onehot_of(y0 + 1, m), np.arange(n))
            step({"w": x.T @ g, "b": g.sum(axis=0)})
        assert np.array_equal(got["w"], w) and np.array_equal(got["b"], b)
        assert np.array_equal(predict(q), np.argmax(q @ w + b, axis=1) + 1)

    @pytest.mark.parametrize("n,m", [(37, 2), (50, 4)])
    def test_mlp_matches_per_step_reference(self, n, m):
        x, y0, q = self.problem(n, m)
        spec = ClassifierSpec(kind="mlp", lr=0.05, steps=40, hidden=7)
        predict = evaluation._fit_mlp(x, y0 + 1, m, spec, seed=5)
        got = inspect.getclosurevars(predict).nonlocals
        rng = Rng(5)
        p = {"w1": rng.glorot(x.shape[1], spec.hidden), "b1": np.zeros(spec.hidden),
             "w2": rng.glorot(spec.hidden, m), "b2": np.zeros(m)}
        step = adam_reference(p, spec.lr)
        for _ in range(spec.steps):
            pre = x @ p["w1"] + p["b1"]
            h = np.maximum(pre, 0.0)
            _, g = softmax_cross_entropy(h @ p["w2"] + p["b2"], onehot_of(y0 + 1, m),
                                         np.arange(n))
            dh = (g @ p["w2"].T) * (pre > 0.0)
            step({"w1": x.T @ dh, "b1": dh.sum(axis=0),
                  "w2": h.T @ g, "b2": g.sum(axis=0)})
        for k in p:
            assert np.array_equal(got[k], p[k]), k
        h = np.maximum(q @ p["w1"] + p["b1"], 0.0)
        assert np.array_equal(predict(q), np.argmax(h @ p["w2"] + p["b2"], axis=1) + 1)

    def test_mlp_tiles_match_one_tile(self, monkeypatch):
        # tiles of 7 rows over 50: seven full tiles and a short last one
        x, y0, q = self.problem(50, 3)
        spec = ClassifierSpec(kind="mlp", lr=0.05, steps=40, hidden=7)
        whole = evaluation._fit_mlp(x, y0 + 1, 3, spec, seed=5)
        monkeypatch.setattr(evaluation, "_MLP_TILE_ROWS", 7)
        tiled = evaluation._fit_mlp(x, y0 + 1, 3, spec, seed=5)
        want = inspect.getclosurevars(whole).nonlocals
        got = inspect.getclosurevars(tiled).nonlocals
        for k in ("w1", "b1", "w2", "b2"):
            assert_close(got[k], want[k], tol=1e-12)
        assert np.array_equal(tiled(q), whole(q))

    def test_mlp_sums_rows_0_1023_then_the_rest(self):
        # a fit of 1100 rows is two tiles; the per-tile gradients are summed
        # in tile order, so the tile size fixes the weights' last bits
        x, y0, q = self.problem(1100, 3)
        n, m = x.shape[0], 3
        spec = ClassifierSpec(kind="mlp", lr=0.05, steps=6, hidden=7)
        got = inspect.getclosurevars(evaluation._fit_mlp(x, y0 + 1, m, spec, seed=5)).nonlocals
        rng = Rng(5)
        p = {"w1": rng.glorot(x.shape[1], spec.hidden), "b1": np.zeros(spec.hidden),
             "w2": rng.glorot(spec.hidden, m), "b2": np.zeros(m)}
        step = adam_reference(p, spec.lr)
        targets = onehot_of(y0 + 1, m)
        for _ in range(spec.steps):
            total = None
            for rows in (slice(0, 1024), slice(1024, n)):
                x_t = x[rows]
                pre = x_t @ p["w1"] + p["b1"]
                h = np.maximum(pre, 0.0)
                logits = h @ p["w2"] + p["b2"]
                g = softmax_cross_entropy_grad(logits, targets[rows], np.empty_like(logits), n)
                dh = (g @ p["w2"].T) * (pre > 0.0)
                part = {"w1": x_t.T @ dh, "b1": dh.sum(axis=0), "w2": h.T @ g, "b2": g.sum(axis=0)}
                total = part if total is None else {k: total[k] + part[k] for k in part}
            step(total)
        for k in p:
            assert got[k].tobytes() == p[k].tobytes(), k

    def test_mlp_fit_memory_stays_below_one_hidden_array(self):
        n, hidden = 20000, 64
        x = Rng(4).randn(n, 64)
        y0 = np.arange(n) % 2
        spec = ClassifierSpec(kind="mlp", steps=2, hidden=hidden)
        assert traced_peak(evaluation._fit_mlp, x, y0 + 1, 2, spec, 0) < n * hidden * 8

    def problem(self, n, m):
        rng = Rng(n + m)
        y0 = np.arange(n) % m
        x = rng.randn(n, 6) + y0[:, None] * 0.3
        return x, y0, rng.randn(11, 6)

    def test_knn_vote_picks_lowest_tied_label(self):
        x = np.array([[0.0], [1.0], [-1.0], [2.0]])
        predict = fit_classifier(ClassifierSpec(kind="knn", k=4), x,
                                 np.array([2, 1, 2, 1]), 3, seed=0)
        # two votes each for codes 1 and 2: the lower code wins, as bincount's argmax
        assert predict(np.array([[0.0]])).tolist() == [1]

    @given(n=st.integers(1, 40), nq=st.integers(1, 25), d=st.integers(1, 9),
           k=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["gauss", "ints", "dups", "large", "offset", "tiny",
                                 "huge"]),
           tiny_chunk=st.booleans())
    def test_knn_screen_matches_brute_force(self, n, nq, d, k, seed, kind, tiny_chunk):
        rng = np.random.default_rng(seed)
        if kind == "ints":
            x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
            q = rng.integers(0, 3, size=(nq, d)).astype(np.float64)
        elif kind == "dups":
            base = rng.standard_normal((3, d))
            x = base[rng.integers(0, 3, size=n)]
            q = np.vstack([x, rng.standard_normal((nq, d))])[rng.permutation(n + nq)[:nq]]
        else:
            scale, shift = {"gauss": (1.0, 0.0), "large": (1e6, 0.0),
                            "offset": (1.0, 1e8), "tiny": (1e-162, 0.0),
                            "huge": (1e200, 0.0)}[kind]
            x = rng.standard_normal((n, d)) * scale + shift
            q = rng.standard_normal((nq, d)) * scale + shift
        k = min(k, n)
        if kind == "huge":
            # every squared norm overflows, so no distance can be ranked
            with pytest.raises(NumericError, match="knn fit is not finite"):
                evaluation._knn_nearest(q, x, k, "knn fit")
            return
        saved = evaluation._KNN_CHUNK_BYTES
        evaluation._KNN_CHUNK_BYTES = 8 if tiny_chunk else saved
        want = np.argsort(((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2),
                          axis=1, kind="stable")[:, :k]
        try:
            got = evaluation._knn_nearest(q, x, k)
        finally:
            evaluation._KNN_CHUNK_BYTES = saved
        assert np.array_equal(got, want)

    def test_knn_refuses_distances_that_overflow(self):
        # squared norms 5e307 and 4.1e307 are finite, but both distances to
        # the query overflow to inf and would tie, naming row 0 for row 1
        x = np.array([[5e153, 5e153], [5e153, 4e153]])
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="^knn fit is not finite$"):
            evaluation._knn_nearest(np.array([[-5e153, -5e153]]), x, 1, "knn fit")

    def test_knn_peak_stays_under_half_the_block_budget(self):
        # 1000 training rows of width 64: 65 query rows per 4 MiB block
        rng = Rng(6)
        x = rng.randn(1000, 64)
        q = rng.randn(1000, 64)
        assert evaluation._KNN_CHUNK_BYTES == 4 * 2**20
        assert traced_peak(evaluation._knn_nearest, q, x, 5) < evaluation._KNN_CHUNK_BYTES // 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ClassifierSpec(kind="svm")


# ---------------------------------------------------------------- attack


def privacy_eval(z, labels, mask, num_classes, spec, fraction=0.5, seed=0, repeats=10,
                method=""):
    """The privacy task of ``audit`` run on its own."""
    return _classification_eval(z, labels, mask, num_classes, spec, fraction, seed, repeats,
                                method, "privacy")


class TestAttackEval:
    def leaky_setup(self, m=3, n=90):
        labels = np.tile(np.arange(1, m + 1), n // m)
        return onehot_of(labels, m), labels, np.arange(n)

    @pytest.mark.parametrize("kind", ["softmax", "mlp", "knn"])
    def test_leaky_embedding_caught(self, kind):
        z, labels, mask = self.leaky_setup()
        rows = privacy_eval(z, labels, mask, 3, ClassifierSpec(kind=kind),
                           fraction=0.5, seed=0, repeats=3)
        f1 = next(r for r in rows if r.metric == "MacroF1")
        assert f1.mean >= 0.99

    def test_noise_embedding_chance(self):
        rng = Rng(7)
        n = 200
        labels = np.tile([1, 2], n // 2)
        z = rng.randn(n, 16)
        rows = privacy_eval(z, labels, np.arange(n), 2, ClassifierSpec(),
                           fraction=0.5, seed=0, repeats=10)
        acc = next(r for r in rows if r.metric == "ACC")
        assert abs(acc.mean - 0.5) <= 0.05

    def test_record_fields(self):
        z, labels, mask = self.leaky_setup()
        rows = privacy_eval(z, labels, mask, 3, ClassifierSpec(), fraction=0.3,
                           seed=5, repeats=2, method="GAE")
        assert len(rows) == 2
        for r in rows:
            assert r.task == "privacy"
            assert r.method == "GAE"
            assert r.fraction == 0.3
            assert r.repeats == 2
            assert 0.0 <= r.mean <= 1.0 and r.std >= 0.0

    def test_reproducible(self):
        z, labels, mask = self.leaky_setup()
        a = privacy_eval(z, labels, mask, 3, ClassifierSpec(), seed=9, repeats=3)
        b = privacy_eval(z, labels, mask, 3, ClassifierSpec(), seed=9, repeats=3)
        assert a == b

    def test_impossible_split_reported(self):
        # two labeled nodes, two classes: one side of a 0.5 split can never
        # hold both classes
        z = np.eye(2)
        labels = np.array([1, 2])
        with pytest.raises(ValueError, match="training side"):
            privacy_eval(z, labels, np.array([0, 1]), 2, ClassifierSpec(),
                        fraction=0.5, repeats=1)


def test_data_faults_are_input_errors():
    z = np.eye(4)
    labels = np.array([1, 2, 1, 2])
    spec = ClassifierSpec(kind="softmax", steps=2)
    for mask in (np.array([], dtype=int), np.array([2])):
        with pytest.raises(InputError):
            privacy_eval(z, labels, mask, 2, spec, repeats=1)
    with pytest.raises(InputError, match="training side"):
        privacy_eval(z[:2], labels[:2], np.array([0, 1]), 2, spec, repeats=1)


def test_utility_eval_task_name():
    labels = np.tile(np.arange(1, 4), 30)
    z = onehot_of(labels, 3)
    rows = _classification_eval(z, labels, np.arange(90), 3, ClassifierSpec(), 0.7, 0, 2, "",
                                "utility:dept")
    assert all(r.task == "utility:dept" for r in rows)
    assert next(r for r in rows if r.metric == "MacroF1").mean >= 0.99


# ---------------------------------------------------------------- link


def clique_pair_graph():
    """Two 6-cliques, no cross edges: non-edges are exactly the cross pairs."""
    edges = []
    for base in (0, 6):
        for i in range(6):
            for j in range(i + 1, 6):
                edges.append((base + i, base + j))
    g = Graph(n=12, edges=np.array(edges, dtype=np.int64),
              attributes={"group": np.tile([1, 2], 6)})
    return g


class TestLinkEval:
    def test_separable_cliques(self):
        g = clique_pair_graph()
        split = split_edges(g, 0.2, 3)
        z = np.zeros((12, 2))
        z[:6, 0] = 1.5
        z[6:, 1] = 1.5
        rows = link_eval(z, split, ClassifierSpec(), seed=0)
        assert next(r.mean for r in rows if r.metric == "ACC") == 1.0
        assert next(r.mean for r in rows if r.metric == "MacroF1") == 1.0

    def test_random_embedding_chance(self, default_synth):
        g, schema = default_synth
        split = split_edges(g, 0.15, 21)
        z = Rng(4).randn(g.n, 16)
        rows = link_eval(z, split, ClassifierSpec(), seed=0)
        acc = next(r.mean for r in rows if r.metric == "ACC")
        n_test = 2 * len(split.heldout_pos)
        sigma = 0.5 / np.sqrt(n_test)
        assert abs(acc - 0.5) <= max(3.0 * sigma, 0.06)

    def test_reproducible(self):
        g = clique_pair_graph()
        split = split_edges(g, 0.2, 3)
        z = Rng(8).randn(12, 4)
        assert link_eval(z, split, ClassifierSpec(), seed=1) == \
            link_eval(z, split, ClassifierSpec(), seed=1)

    @pytest.mark.parametrize("block", [7, 512])
    def test_pair_table_rows_are_products(self, monkeypatch, block):
        # 40 and 33 pairs: with blocks of 7 both sides end in a short block
        monkeypatch.setattr(evaluation, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(2)
        z = rng.standard_normal((30, 5))
        a = rng.integers(0, 30, size=(40, 2))
        b = rng.integers(0, 30, size=(33, 2))
        want = np.vstack([z[a[:, 0]] * z[a[:, 1]], z[b[:, 0]] * z[b[:, 1]]])
        assert evaluation._pair_table(z, a, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["mlp", "softmax"])
    def test_link_eval_peak_is_about_one_table(self, kind):
        # the training table is two rows of width 64 per training edge; the
        # held-out table is smaller and built after it is dropped
        g, _ = synth_graph(SynthParams(n=1500, p_in=0.02, p_out=0.002, seed=3))
        split = split_edges(g, 0.15, 5)
        z = Rng(1).randn(g.n, 64)
        table = 2 * len(split.train_edges) * 64 * 8
        peak = traced_peak(link_eval, z, split, ClassifierSpec(kind=kind, steps=2))
        assert peak < 1.4 * table

    def test_memory_check_counts_both_tables_for_knn(self, monkeypatch):
        # 24 training edges and 6 held out: tables of 48 and 12 rows; kNN's
        # predictor keeps the first while the second is built
        g = clique_pair_graph()
        split = split_edges(g, 0.2, 3)
        z = Rng(8).randn(12, 4)
        monkeypatch.setattr(training, "LINK_MEMORY_BUDGET", 8 * 4 * 48)
        link_eval(z, split, ClassifierSpec(kind="mlp", steps=2), seed=1)
        with pytest.raises(InputError, match=f"needs {8 * 4 * 60} bytes"):
            link_eval(z, split, ClassifierSpec(kind="knn"), seed=1)

    def test_task_and_fraction(self):
        g = clique_pair_graph()
        split = split_edges(g, 0.2, 3)
        z = Rng(8).randn(12, 4)
        rows = link_eval(z, split, ClassifierSpec(), seed=1)
        for r in rows:
            assert r.task == "link"
            # knowledge fraction: share of edges the classifier trained on
            assert_close(r.fraction, 0.8, tol=1e-12)


# ---------------------------------------------------------------- reports


def report_rows(link, util, priv):
    mk = lambda task, mean: EvalRecord(method="m", task=task, classifier="mlp",
                                       fraction=0.5, metric="MacroF1",
                                       mean=mean, std=0.0, repeats=1)
    return [mk("link", link), mk("utility:dept", util), mk("privacy", priv)]


def test_write_report_roundtrip(tmp_path):
    rows = report_rows(0.82, 0.78, 0.52)
    path = tmp_path / "report.csv"
    write_report(rows, path)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(REPORT_COLUMNS)
    assert len(got) == 4
    assert got[1][0] == "m" and got[1][1] == "link"
    assert float(got[1][5]) == 0.82


# ---------------------------------------------------------------- audit


def test_audit_equals_direct_calls(small_synth):
    g0, _ = small_synth
    codes = Rng(4).integers(0, 4, size=g0.n)  # code 0: some nodes unlabeled
    g = Graph(n=g0.n, edges=g0.edges,
              attributes={"private": g0.attributes["private"],
                          "dept": g0.attributes["utility"], "year": codes})
    schema = AttributeSchema(names=("private", "dept", "year"),
                             classes={"private": 2, "dept": 3, "year": 3},
                             roles={"private": "private", "dept": "utility",
                                    "year": "utility"})
    z = Rng(5).randn(g.n, 4)
    cfg = TrainConfig(edge_holdout=0.2, seed=9)  # the link task scores the run's split
    split = split_edges(g, 0.2, derive_seed(9, "edges"))
    specs = [ClassifierSpec(kind="softmax", steps=20), ClassifierSpec(kind="knn")]
    kw = dict(repeats=2, fraction=0.4, utility_fraction=0.6, method="m")

    want = []
    for spec in specs:
        want += _classification_eval(z, g.attributes["private"], np.arange(g.n), 2, spec,
                                     0.4, derive_seed(9, "p"), 2, "m", "privacy")
    for name in ("dept", "year"):
        mask = np.flatnonzero(g.attributes[name])
        for spec in specs:
            want += _classification_eval(z, g.attributes[name], mask, 3, spec, 0.6,
                                         derive_seed(9, f"u/{name}"), 2, "m", f"utility:{name}")
    for spec in specs:
        want += link_eval(z, split, spec, seed=derive_seed(9, "l"), method="m")

    labels = {"privacy": "p", "utility": "u/{name}", "link": "l"}
    got = audit(z, g, schema, specs, labels, cfg, **kw)
    assert got == want
    assert audit(z, g, schema, specs, {"link": "l"}, cfg, **kw) == want[-4:]
    del kw["method"]  # the method defaults to the run's variant
    assert [r.method for r in audit(z, g, schema, specs, {"link": "l"}, cfg, **kw)] \
        == ["GAE"] * 4


# ---------------------------------------------------------------- sweeps


class TestSweep:
    def test_fraction_sweep_blocks(self, small_synth):
        g, schema = small_synth
        cfg = TrainConfig(variant="GAE", d=8, hidden=10, iterations=3)
        rows = sweep("fraction", [0.3, 0.5], g, schema, cfg,
                     [ClassifierSpec()], repeats=2, fraction=0.5, utility_fraction=0.7, seed=0)
        fractions = sorted({r.fraction for r in rows})
        assert fractions == [0.3, 0.5]
        assert all(r.task == "privacy" for r in rows)
        assert len(rows) == 4  # 2 values x 2 metrics

    def test_lambda_sweep_retrains(self, small_synth):
        g, schema = small_synth
        cfg = TrainConfig(variant="APGE", d=8, d_prime=4, hidden=10,
                          iterations=3)
        rows = sweep("lambda", [0.0, 1.0], g, schema, cfg, [ClassifierSpec()],
                     repeats=1, fraction=0.5, utility_fraction=0.7, seed=0)
        methods = {r.method for r in rows}
        assert methods == {"APGE[lambda=0]", "APGE[lambda=1]"}
        tasks = {r.task for r in rows}
        assert tasks == {"privacy", "utility:utility", "link"}
