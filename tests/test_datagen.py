"""Synthetic generator: determinism, planted structure, statistical sanity."""

import numpy as np
import pytest
from scipy import stats

from privemb import datagen
from privemb.datagen import SynthParams, synth_graph, synth_schema
from privemb.evaluation import ClassifierSpec, _classification_eval
from privemb.graphcore import load_graph, save_graph
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
