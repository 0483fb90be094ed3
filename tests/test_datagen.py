"""Synthetic generator: determinism, planted structure, statistical sanity."""

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, strategies as st
from scipy import stats

from privemb import datagen
from privemb.datagen import SynthParams, synth_graph, synth_schema
from privemb.evaluation import ClassifierSpec, _classification_eval
from privemb.graphcore import load_graph, save_graph
from privemb.numkit import Rng, derive_seed
from privemb.training import TrainConfig, train


class TestParams:
    def test_class_count_floor(self):
        with pytest.raises(ValueError):
            SynthParams(private_classes=1)

    def test_n_floor(self):
        with pytest.raises(ValueError):
            SynthParams(n=5, private_classes=2, utility_classes=4)

    def test_probability_ordering(self):
        with pytest.raises(ValueError):
            SynthParams(p_in=0.01, p_out=0.08)
        with pytest.raises(ValueError):
            SynthParams(rho=1.5)


class TestStructure:
    def test_deterministic(self):
        a, _ = synth_graph(SynthParams(seed=42))
        b, _ = synth_graph(SynthParams(seed=42))
        c, _ = synth_graph(SynthParams(seed=43))
        assert np.array_equal(a.edges, b.edges)
        for name in a.attributes:
            assert np.array_equal(a.attributes[name], b.attributes[name])
        assert not np.array_equal(a.edges, c.edges)

    def test_schema_matches(self):
        params = SynthParams(private_classes=3, utility_classes=5)
        g, schema = synth_graph(params)
        assert schema.private_attribute == "private"
        assert schema.utility_attributes == ("utility",)
        assert schema.classes["private"] == 3
        assert schema.classes["feature"] == 5
        for name in schema.names:
            codes = g.attributes[name]
            assert codes.min() >= 1 and codes.max() <= schema.classes[name]

    def test_private_labels_balanced(self):
        g, _ = synth_graph(SynthParams(n=500, private_classes=2, seed=3))
        counts = np.bincount(g.attributes["private"], minlength=3)[1:]
        assert counts[0] == counts[1] == 250

    def test_edge_count_within_3_sigma(self):
        params = SynthParams(seed=9)
        g, _ = synth_graph(params)
        private = g.attributes["private"]
        iu, ju = np.triu_indices(params.n, k=1)
        same = private[iu] == private[ju]
        n_in = int(same.sum())
        n_out = same.size - n_in
        mean = n_in * params.p_in + n_out * params.p_out
        var = (n_in * params.p_in * (1 - params.p_in)
               + n_out * params.p_out * (1 - params.p_out))
        assert abs(g.edges.shape[0] - mean) <= 3.0 * np.sqrt(var)

    def test_rho_zero_labels_independent(self):
        g, _ = synth_graph(SynthParams(n=2000, rho=0.0, seed=5))
        table = np.zeros((2, 4))
        for p, u in zip(g.attributes["private"], g.attributes["utility"]):
            table[p - 1, u - 1] += 1
        _, pvalue, _, _ = stats.chi2_contingency(table)
        assert pvalue > 0.01

    def test_rho_one_labels_deterministic(self):
        g, _ = synth_graph(SynthParams(n=200, rho=1.0, seed=6))
        private = g.attributes["private"]
        utility = g.attributes["utility"]
        assert np.array_equal(utility, ((private - 1) % 4) + 1)

    def test_flip_rate_zero_copies_utility(self):
        g, _ = synth_graph(SynthParams(n=200, flip_rate=0.0, seed=7))
        assert np.array_equal(g.attributes["feature"], g.attributes["utility"])

    def test_flip_changes_class(self):
        g, _ = synth_graph(SynthParams(n=2000, flip_rate=1.0, seed=8))
        assert np.all(g.attributes["feature"] != g.attributes["utility"])


@pytest.mark.parametrize("block", [1, 150, 1000])
def test_edge_blocks_do_not_change_the_graph(monkeypatch, block):
    # one uniform per pair in row-major order whatever the block of rows,
    # so the same edges byte for byte; at the default block a 61-node graph,
    # like a 500-node one, is a single block
    params = SynthParams(n=61, seed=5)
    assert datagen._EDGE_BLOCK // 500 >= 499
    want, _ = synth_graph(params)
    monkeypatch.setattr(datagen, "_EDGE_BLOCK", block)
    got, _ = synth_graph(params)
    assert got.edges.dtype == want.edges.dtype and got.edges.shape == want.edges.shape
    assert got.edges.tobytes() == want.edges.tobytes()


def _per_pair_reference(params):
    """synth_graph with one label test and one comparison per node pair."""
    n, m_p, m_u = params.n, params.private_classes, params.utility_classes
    private = np.array([(i % m_p) + 1 for i in range(n)], dtype=np.int64)
    private = private[Rng(derive_seed(params.seed, "synth/private")).permutation(n)]
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(private[iu] == private[ju], params.p_in, params.p_out)
    keep = Rng(derive_seed(params.seed, "synth/edges")).random(iu.size) < prob
    edges = np.column_stack([iu[keep], ju[keep]])
    rng_util = Rng(derive_seed(params.seed, "synth/utility"))
    use_derived = rng_util.random(n) < params.rho
    uniform = rng_util.integers(1, m_u + 1, size=n)
    utility = np.where(use_derived, ((private - 1) % m_u) + 1, uniform).astype(np.int64)
    rng_feat = Rng(derive_seed(params.seed, "synth/feature"))
    flips = rng_feat.random(n) < params.flip_rate
    offsets = rng_feat.integers(1, m_u, size=n)
    feature = np.where(flips, ((utility - 1 + offsets) % m_u) + 1, utility).astype(np.int64)
    return edges, {"private": private, "utility": utility, "feature": feature}


@given(n=st.integers(8, 300), classes=st.sampled_from([(2, 2), (2, 4), (3, 2)]),
       p_in=st.sampled_from([0.0, 0.02, 0.3, 1.0]), p_out=st.sampled_from(["zero", "p_in", "low"]),
       block=st.sampled_from([1, 150, datagen._EDGE_BLOCK]), seed=st.integers(0, 2**31))
def test_screened_draw_matches_the_per_pair_draw(n, classes, p_in, p_out, block, seed):
    # only a draw under p_in is a candidate; keeping it on its labels' p is
    # the per-pair comparison on the same uniform, so the same edge bytes
    p_out = {"zero": 0.0, "p_in": p_in, "low": p_in / 7.0}[p_out]
    params = SynthParams(n=n, private_classes=classes[0], utility_classes=classes[1],
                         p_in=p_in, p_out=p_out, seed=seed)
    want_edges, want_attrs = _per_pair_reference(params)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(datagen, "_EDGE_BLOCK", block)
        g, _ = synth_graph(params)
    assert g.edges.dtype == want_edges.dtype and g.edges.shape == want_edges.shape
    assert g.edges.tobytes() == want_edges.tobytes()
    assert g.attributes.keys() == want_attrs.keys()
    for name, codes in want_attrs.items():
        assert g.attributes[name].dtype == codes.dtype
        assert g.attributes[name].tobytes() == codes.tobytes()


def test_synth_holds_no_per_pair_arrays():
    # a block's uniforms, 2 MB, and the candidates' indices; the per-pair
    # index pairs, label tests and probabilities took 10 MB here
    assert traced_peak(synth_graph, SynthParams(n=3000, p_in=0.01, p_out=0.001, seed=2)) < 6 * 2**20


def test_file_roundtrip(tmp_path):
    params = SynthParams(n=120, seed=13)
    g, schema = synth_graph(params)
    save_graph(g, schema, tmp_path / "edges.tsv", tmp_path / "attrs.tsv")
    back = load_graph(tmp_path / "edges.tsv", tmp_path / "attrs.tsv", schema)
    assert back.n == g.n
    assert np.array_equal(back.edges, g.edges)
    for name in schema.names:
        assert np.array_equal(back.attributes[name], g.attributes[name])


@pytest.mark.slow
def test_no_blocking_means_no_leak():
    """p_in = p_out and rho = 0: nothing ties the graph to the private label,
    so a GAE_RM embedding cannot beat chance by much."""
    params = SynthParams(n=300, p_in=0.04, p_out=0.04, rho=0.0, seed=17)
    g, schema = synth_graph(params)
    res = train(g, schema, TrainConfig(variant="GAE_RM", d=16, hidden=32,
                                       iterations=60, seed=0))
    labels = g.attributes["private"]
    mask = np.where(labels > 0)[0]
    rows = _classification_eval(res.Z, labels, mask, 2, ClassifierSpec(), 0.5, 0, 5, "",
                                "privacy")
    acc = next(r.mean for r in rows if r.metric == "ACC")
    assert abs(acc - 0.5) <= 0.08
