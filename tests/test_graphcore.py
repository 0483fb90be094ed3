import csv
import io
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from privemb.graphcore import (
    AttributeSchema,
    Graph,
    InputError,
    build_features,
    canonical_edges,
    load_graph,
    normalize_adjacency,
    onehot_labels,
    sample_non_edges,
    save_graph,
    split_edges,
    split_nodes,
)
from privemb import evaluation, graphcore
from privemb.datagen import SynthParams, synth_graph
from privemb.evaluation import ClassifierSpec, link_eval
from privemb.numkit import Rng, derive_seed
from conftest import assert_close, self_looped_adjacency, traced_peak

SCHEMA = AttributeSchema(
    names=("status", "dept"),
    classes={"status": 2, "dept": 3},
    roles={"status": "private", "dept": "utility"},
)


def _load(edge_text, attr_text, schema=SCHEMA):
    """load_graph on an edge file and an attribute file holding these texts."""
    with tempfile.TemporaryDirectory() as tmp:
        edges, attributes = Path(tmp) / "edges.tsv", Path(tmp) / "attributes.csv"
        edges.write_text(edge_text, encoding="utf-8", newline="")
        attributes.write_text(attr_text, encoding="utf-8", newline="")
        return load_graph(edges, attributes, schema)


ATTRS = "node_id,status,dept\n10,1,2\n11,2,0\n12,1,3\n"


def test_loader_basic_and_remap():
    g = _load("10\t11\n11\t12\n", ATTRS)
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert list(g.attributes["status"]) == [1, 2, 1]
    assert list(g.attributes["dept"]) == [2, 0, 3]


def test_loader_dedups_and_drops_self_loops():
    g = _load("10\t11\n11\t10\n10\t10\n# comment\n\n11\t12\n", ATTRS)
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_loader_unknown_node():
    with pytest.raises(InputError, match="unknown node id 99"):
        _load("10\t99\n", ATTRS)


def test_loader_duplicate_node_id():
    bad = "node_id,status,dept\n10,1,2\n10,2,1\n"
    with pytest.raises(InputError, match="duplicate node id"):
        _load("", bad)


def test_loader_code_out_of_range():
    bad = "node_id,status,dept\n10,3,2\n"
    with pytest.raises(InputError, match="out of range"):
        _load("", bad)
    # code == M is valid, code 0 is missing
    ok = "node_id,status,dept\n10,2,0\n11,1,3\n"
    g = _load("10\t11\n", ok)
    assert list(g.attributes["dept"]) == [0, 3]


def test_loader_header_and_columns():
    with pytest.raises(InputError, match="node_id"):
        _load("", "id,status,dept\n10,1,2\n")
    with pytest.raises(InputError, match="columns"):
        _load("", "node_id,status\n10,1\n")


def test_loader_malformed_edge_line():
    with pytest.raises(InputError, match="two tab-separated"):
        _load("10 11\n", ATTRS)


_SPACES = st.sampled_from(["", " ", "  "])
_KNOWN = st.sampled_from(["10", "11", "12", "+10", "012"])


@st.composite
def _edge_file_line(draw):
    """One edge-file line without its terminator: an edge of known ids with
    spaces around them, a comment, a blank line, or a form the reader refuses
    or reads otherwise than int() per field."""
    kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank", "odd"]))
    if kind == "edge":
        a, b = draw(_KNOWN), draw(_KNOWN)
        return draw(_SPACES) + a + draw(_SPACES) + "\t" + draw(_SPACES) + b + draw(_SPACES)
    if kind == "comment":
        return "#" + draw(st.text(st.characters(exclude_characters="\n"), max_size=8))
    if kind == "blank":
        return ""
    return draw(st.sampled_from([
        "10\t99", "-10\t11", "10\t11\t12", "10\t11 # inline", "1_0\t11",
        "\u0661\u0660\t11", "10\t11\t", "\t10\t11", "10 11", "10\t", "+-10\t11",
        "10\t1e1", "\t", "10\t11\r", "99999999999999999999\t10", " ", "  # indented"]))


_INT64 = re.compile(r"\s*[+-]?[0-9]+\s*")


def _edge_reference(text, index):
    """The dense (u, v) pairs of an edge file read a line at a time in the
    reader's grammar, or the number of its first bad line and, for an
    unknown id, the id: a line that does not parse comes before one that
    names an unknown id."""
    ends = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].removesuffix("\r")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or "\r" in line or not all(_INT64.fullmatch(f) for f in fields):
            return lineno, None
        ends.append((lineno, [int(f) for f in fields]))
        if not all(-2**63 <= v < 2**63 for v in ends[-1][1]):
            return lineno, None
    for lineno, pair in ends:
        for v in pair:
            if v not in index:
                return lineno, v
    return [(index[a], index[b]) for _, (a, b) in ends]


@given(st.lists(_edge_file_line(), max_size=12), st.sampled_from(["\n", "\r\n"]),
       st.booleans())
def test_bulk_edge_reader_matches_line_scan(lines, newline, last_newline):
    # refused forms name their line and never load other numbers
    text = newline.join(lines) + (newline if last_newline else "")
    want = _edge_reference(text, {10: 0, 11: 1, 12: 2})
    if isinstance(want, tuple):
        lineno, unknown = want
        with pytest.raises(InputError) as err:
            _load(text, ATTRS)
        assert str(err.value).startswith(f"edge line {lineno}: ")
        if unknown is not None:
            assert str(err.value) == f"edge line {lineno}: unknown node id {unknown}"
    else:
        pairs = np.array(want, dtype=np.int64).reshape(-1, 2)
        assert np.array_equal(_load(text, ATTRS).edges, canonical_edges(pairs, 3))


def test_schema_validation():
    with pytest.raises(InputError, match="exactly one private"):
        AttributeSchema(names=("a",), classes={"a": 2}, roles={"a": "utility"})
    with pytest.raises(InputError, match="at least one utility"):
        AttributeSchema(names=("a",), classes={"a": 2}, roles={"a": "private"})
    with pytest.raises(InputError, match="at least 2 classes"):
        AttributeSchema(names=("a", "b"), classes={"a": 1, "b": 2},
                        roles={"a": "private", "b": "utility"})


def test_canonical_edges():
    # load_graph refuses an out-of-range endpoint before it canonicalizes
    out = canonical_edges(np.array([(2, 1), (1, 2), (0, 0), (3, 0)], dtype=np.int64), 4)
    assert out.tolist() == [[0, 3], [1, 2]]


def _canonical_reference(pairs):
    return sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})


@given(n=st.integers(1, 30),
       pairs=st.lists(st.tuples(st.integers(0, 32), st.integers(0, 32)), max_size=80))
def test_canonical_edges_matches_set_reference(n, pairs):
    # self-loops, duplicates and reversed pairs of in-range endpoints
    pairs = [(u % n, v % n) for u, v in pairs]
    want = _canonical_reference(pairs)
    out = canonical_edges(np.array(pairs, dtype=np.int64).reshape(-1, 2), n)
    assert out.dtype == np.int64 and out.shape == (len(want), 2)
    assert [tuple(e) for e in out.tolist()] == want


def test_laplacian_path_hand_values():
    # path 0-1-2: degrees with self-loops are 2, 3, 2
    g = Graph(n=3, edges=[(0, 1), (1, 2)],
              attributes={"status": [1, 1, 2], "dept": [1, 2, 3]})
    lap = normalize_adjacency(g.n, g.edges).toarray()
    assert_close(lap[0, 0], 0.5)
    assert_close(lap[0, 1], 1.0 / math.sqrt(6.0))
    assert_close(lap[1, 1], 1.0 / 3.0)
    assert_close(lap[0, 2], 0.0)
    assert_close(lap, lap.T)


def _dense_laplacian(n, edges):
    a = self_looped_adjacency(n, edges)
    deg = a.sum(axis=1)
    return a / np.sqrt(np.outer(deg, deg))


def test_laplacian_matches_dense_oracle(small_synth):
    g, schema = small_synth
    lap = normalize_adjacency(g.n, g.edges).toarray()
    assert_close(lap, _dense_laplacian(g.n, g.edges), tol=1e-12)


def _rebuilt_laplacian(n, edges):
    """D^-1/2 (A+I) D^-1/2 rebuilt through COO into a new sorted CSR, the
    reference for normalize_adjacency's scaling in place."""
    a = sp.csr_matrix(self_looped_adjacency(n, edges))
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    coo = a.tocoo()
    lap = sp.csr_matrix((inv_sqrt[coo.row] * inv_sqrt[coo.col], (coo.row, coo.col)),
                        shape=a.shape)
    lap.sort_indices()
    return lap


@given(n=st.integers(1, 40), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_laplacian_is_bitwise_symmetric(n, density, seed):
    # the encoder's backward pass uses L.T == L (models.encoder_backward)
    rng = np.random.default_rng(seed)
    edges = np.argwhere(np.triu(rng.random((n, n)) < density, k=1))
    for subset in (edges, edges[rng.random(len(edges)) < 0.5]):
        lap = normalize_adjacency(n, subset)
        want = _rebuilt_laplacian(n, subset)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(lap, part), getattr(want, part))
        lap = lap.toarray()
        assert np.array_equal(lap, lap.T)


@given(n=st.integers(2, 40), isolated=st.integers(0, 5), m=st.integers(0, 80),
       seed=st.integers(0, 2**32 - 1))
def test_laplacian_pattern_equals_its_transpose(n, isolated, m, seed):
    # the exact link loss reads its targets off L's pattern and makes one
    # product for C + C.T, which holds only if the pattern is symmetric with
    # sorted columns (models.link_loss_exact). Pairs in either direction,
    # some reversed again and some repeated, and nodes without an edge
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m)
    pairs = np.stack([u, (u + rng.integers(1, n, size=m)) % n], axis=1)
    edges = np.concatenate([pairs, pairs[rng.random(m) < 0.3, ::-1], pairs[rng.random(m) < 0.3]])
    total = n + isolated
    lap = normalize_adjacency(total, edges)
    keys = np.repeat(np.arange(total), np.diff(lap.indptr)) * total + lap.indices
    assert np.all(np.diff(keys) > 0)
    flipped = lap.T.tocsr()
    flipped.sort_indices()
    assert np.array_equal(lap.indptr, flipped.indptr)
    assert np.array_equal(lap.indices, flipped.indices)
    assert np.array_equal(np.diff(lap.indptr)[n:], np.ones(isolated, dtype=np.int64))


def test_laplacian_of_edge_subset(small_synth):
    g, _ = small_synth
    subset = g.edges[::3]
    # L over the training edges of a split has no entry at a held-out pair
    lap = normalize_adjacency(g.n, subset).toarray()
    assert_close(lap, _dense_laplacian(g.n, subset), tol=1e-12)


def test_build_features_layout():
    g = Graph(n=3, edges=[(0, 1)],
              attributes={"status": [1, 2, 0], "dept": [3, 0, 1]})
    x = build_features(g, SCHEMA)
    expected = np.array([
        [1, 0, 0, 0, 1],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
    ], dtype=np.float64)
    assert_close(x, expected)
    x_rm = build_features(g, SCHEMA, exclude=("status",))
    assert x_rm.shape == (3, 3)
    assert_close(x_rm, expected[:, 2:])


def test_onehot_labels_and_mask():
    g = Graph(n=3, edges=[(0, 1)],
              attributes={"status": [1, 0, 2], "dept": [1, 1, 1]})
    y, mask = onehot_labels(g, SCHEMA, "status")
    assert mask.tolist() == [0, 2]
    assert_close(y, [[1, 0], [0, 0], [0, 1]])


def test_split_nodes_sizes_and_disjoint():
    mask = np.arange(10)
    s = split_nodes(mask, 0.5, seed=4)
    assert len(s.train) == 5 and len(s.test) == 5
    assert set(s.train).isdisjoint(s.test)
    assert set(s.train) | set(s.test) == set(range(10))
    # deterministic
    s2 = split_nodes(mask, 0.5, seed=4)
    assert np.array_equal(s.train, s2.train)


@given(labeled=st.lists(st.integers(0, 10**6), min_size=2, max_size=80, unique=True),
       fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_split_nodes_is_a_partition(labeled, fraction, seed):
    mask = np.array(labeled, dtype=np.int64)
    k = int(round(fraction * mask.size))
    if k in (0, mask.size):
        with pytest.raises(InputError, match=f"of {mask.size} labeled nodes leaves an empty side"):
            split_nodes(mask, fraction, seed)
        return
    s = split_nodes(mask, fraction, seed)
    assert s.train.size == k and s.test.size == mask.size - k
    assert np.array_equal(np.sort(np.concatenate([s.train, s.test])), np.sort(mask))
    assert np.all(np.diff(s.train) > 0) and np.all(np.diff(s.test) > 0)


def test_split_nodes_rejects_degenerate():
    with pytest.raises(InputError, match="^a 0.01 split of 10 labeled nodes leaves an empty side$"):
        split_nodes(np.arange(10), 0.01, seed=0)
    with pytest.raises(InputError):
        split_nodes(np.array([3]), 0.5, seed=0)


def test_split_edges_data_faults_are_input_errors():
    attrs = {"status": [1, 1, 2], "dept": [1, 2, 3]}
    with pytest.raises(InputError, match="too few edges"):
        split_edges(Graph(n=3, edges=[(0, 1)], attributes=dict(attrs)), 0.5, seed=0)
    full = Graph(n=3, edges=[(0, 1), (0, 2), (1, 2)], attributes=dict(attrs))
    with pytest.raises(InputError, match="non-edges"):
        split_edges(full, 0.5, seed=0)
    with pytest.raises(InputError, match="^holding out 0 of 3 edges leaves an empty split side$"):
        split_edges(full, 0.15, seed=0)


def test_split_edges_counts(default_synth):
    g, _ = default_synth
    m = len(g.edges)
    s = split_edges(g, 0.15, seed=9)
    k = int(round(0.15 * m))
    assert len(s.heldout_pos) == k
    assert len(s.heldout_neg) == k
    assert len(s.train_edges) == m - k


def test_split_edges_disjoint_and_valid(default_synth):
    g, _ = default_synth
    s = split_edges(g, 0.15, seed=9)
    train = {tuple(e) for e in s.train_edges}
    held = {tuple(e) for e in s.heldout_pos}
    negs = {tuple(e) for e in s.heldout_neg}
    assert train.isdisjoint(held)
    assert negs.isdisjoint(tuple(e) for e in g.edges.tolist())
    assert all(u < v for u, v in negs)
    # deterministic
    s2 = split_edges(g, 0.15, seed=9)
    assert np.array_equal(s.heldout_neg, s2.heldout_neg)


def _split_edges_reference(g, holdout, seed):
    """The held-out negatives drawn against a set of (u, v) tuples."""
    m = len(g.edges)
    k = int(round(holdout * m))
    rng = Rng(seed)
    rng.permutation(m)
    existing = {(int(u), int(v)) for u, v in g.edges}
    negatives = []
    seen = set()
    while len(negatives) < k:
        u = int(rng.integers(0, g.n))
        v = int(rng.integers(0, g.n))
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in existing or e in seen:
            continue
        seen.add(e)
        negatives.append(e)
    return sorted(negatives)


def _non_edges_reference(n, taken, count, rng):
    """The non-edge keys drawn two scalars per candidate, against a set."""
    taken = set(taken)
    keys = []
    while len(keys) < count:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        key = min(u, v) * n + max(u, v)
        if u != v and key not in taken:
            taken.add(key)
            keys.append(key)
    return keys


@given(n=st.integers(2, 12), density=st.floats(0.0, 0.95), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_sample_non_edges_matches_scalar_draws(n, density, share, seed):
    # drawing up to every free pair makes repeats within a block common
    rng = np.random.default_rng(seed)
    pairs = np.argwhere(np.triu(rng.random((n, n)) < density, k=1))
    taken = rng.permutation(pairs[:, 0] * n + pairs[:, 1])
    free = n * (n - 1) // 2 - taken.size
    if not free:
        return
    count = max(1, int(share * free))
    got = sample_non_edges(n, taken, count, Rng(seed))
    assert got.dtype == np.int64
    assert got.tolist() == _non_edges_reference(n, taken.tolist(), count, Rng(seed))


def _link_negatives_reference(n, split, seed):
    """link_eval's training non-edges drawn against a set of (u, v) tuples."""
    forbidden = {(min(u, v), max(u, v)) for u, v in np.vstack(
        [split.train_edges, split.heldout_pos, split.heldout_neg]).tolist()}
    rng = Rng(derive_seed(seed, "link/negatives"))
    negs = []
    seen = set()
    while len(negs) < len(split.train_edges):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in forbidden or e in seen:
            continue
        seen.add(e)
        negs.append(e)
    return np.array(negs, dtype=np.int64)


@given(n=st.integers(3, 40), density=st.floats(0.02, 0.9),
       holdout=st.floats(0.05, 0.6), seed=st.integers(0, 2**32 - 1))
def test_split_edges_partition_matches_tuple_reference(n, density, holdout, seed):
    rng = np.random.default_rng(seed)
    edges = np.argwhere(np.triu(rng.random((n, n)) < density, k=1))
    g = Graph(n=n, edges=edges, attributes={})
    m = len(g.edges)
    k = int(round(holdout * m))
    if m < 2 or k in (0, m) or k > n * (n - 1) // 2 - m:
        return
    s = split_edges(g, holdout, seed)
    train = [tuple(e) for e in s.train_edges.tolist()]
    held = [tuple(e) for e in s.heldout_pos.tolist()]
    negs = [tuple(e) for e in s.heldout_neg.tolist()]
    all_edges = [tuple(e) for e in g.edges.tolist()]
    assert set(train).isdisjoint(held)
    assert sorted(train + held) == all_edges
    assert negs == sorted(set(negs)) and len(negs) == len(held)
    assert set(negs).isdisjoint(all_edges) and all(u < v for u, v in negs)
    assert s.heldout_neg.dtype == np.int64 and s.heldout_neg.shape == (k, 2)
    assert negs == _split_edges_reference(g, holdout, seed)

    # link_eval draws its training non-edges with the same sampler: the pair
    # features it trains on are those of the tuple loop's pairs, in its order
    z = np.random.default_rng(seed).random((n, 3))
    fitted = []

    def fit(spec, x, labels, num_classes, seed, task):
        fitted.append(x)
        return lambda q: np.ones(len(q), dtype=np.int64)

    spec = ClassifierSpec(kind="softmax", steps=1)
    with mock.patch.object(evaluation, "fit_classifier", fit):
        if n * (n - 1) // 2 - m - k < m - k:
            with pytest.raises(InputError, match="non-edges"):
                link_eval(z, s, spec, seed=seed)
            return
        link_eval(z, s, spec, seed=seed)
    ref = _link_negatives_reference(n, s, seed)
    assert np.array_equal(fitted[0][m - k:], z[ref[:, 0]] * z[ref[:, 1]])


def test_graph_roundtrip_through_files(tmp_path, small_synth):
    g, schema = small_synth
    ep = tmp_path / "edges.tsv"
    ap = tmp_path / "attrs.csv"
    save_graph(g, schema, ep, ap)
    g2 = load_graph(ep, ap, schema)
    assert g2.n == g.n
    assert np.array_equal(g2.edges, g.edges)
    for name in schema.names:
        assert np.array_equal(g2.attributes[name], g.attributes[name])


def test_load_graph_holds_under_100_bytes_per_edge(tmp_path):
    # a Python string per line of the edge file would take more than that
    g, schema = synth_graph(SynthParams(n=3000, p_in=0.01, p_out=0.001, seed=2))
    save_graph(g, schema, tmp_path / "edges.tsv", tmp_path / "attrs.csv")
    peak = traced_peak(load_graph, tmp_path / "edges.tsv", tmp_path / "attrs.csv", schema)
    assert peak < 100 * len(g.edges)


def _per_line_writer(g, schema, edges_path, attributes_path):
    """save_graph one edge line and one attribute row at a time."""
    with open(edges_path, "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write(f"{int(u)}\t{int(v)}\n")
    with open(attributes_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id"] + list(schema.names))
        for i in range(g.n):
            writer.writerow([i] + [int(g.attributes[name][i]) for name in schema.names])


@given(ids=st.lists(st.integers(-10**6, 10**12), min_size=2, max_size=60, unique=True),
       dense=st.booleans(), data=st.data(),
       names=st.sampled_from([("status", "dept"), ('a,"b"', "dept\nline"), ("x y", "ü;z")]),
       values=st.sampled_from([1, 7, graphcore._WRITE_VALUES]))
def test_save_graph_writes_the_per_line_bytes(ids, dense, data, names, values):
    # a graph loaded with dense or arbitrary node ids, from no edges up,
    # under attribute names that CSV must quote, written in blocks of rows
    n = len(ids)
    if dense:
        ids = list(range(n))
    schema = AttributeSchema(names=names, classes={names[0]: 2, names[1]: 3},
                             roles={names[0]: "private", names[1]: "utility"})
    ends = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(ends, ends), max_size=4 * n))
    codes = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                               min_size=n, max_size=n))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "e_in.tsv").write_text("".join(f"{ids[a]}\t{ids[b]}\n" for a, b in pairs))
        with open(tmp / "a_in.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node_id", *names])
            writer.writerows([i, *c] for i, c in zip(ids, codes))
        g = load_graph(tmp / "e_in.tsv", tmp / "a_in.csv", schema)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(graphcore, "_WRITE_VALUES", values)
            save_graph(g, schema, tmp / "e.tsv", tmp / "a.csv")
        _per_line_writer(g, schema, tmp / "e_ref.tsv", tmp / "a_ref.csv")
        assert (tmp / "e.tsv").read_bytes() == (tmp / "e_ref.tsv").read_bytes()
        assert (tmp / "a.csv").read_bytes() == (tmp / "a_ref.csv").read_bytes()


# ------------------------------------------------------------ float writer


def _percent_rows(table):
    """The reference bytes: each row's values as '%.17g', joined by ','."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist()).encode()


def _written(table):
    fh = io.BytesIO()
    graphcore.write_floats(fh, table)
    return fh.getvalue()


_DECADES = np.array([float(10**p) for p in range(16)] + [10.0**p for p in range(-4, 0)])

# cells the writer formats from their digits, and those it leaves to '%'
_FLOAT_TABLE = {
    "decades and neighbours": np.concatenate(
        [_DECADES, np.nextafter(_DECADES, 0), np.nextafter(_DECADES, np.inf)]),
    "ends of the digit range": [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16],
    "17-digit ties": [2251799813685247.75, 4503599627370495.5],
    "zeros and subnormals": [0.0, 5e-324, 4.9406564584124654e-320, 2.2250738585072009e-308],
    "non-finite": [np.nan, np.inf],
}


@pytest.mark.parametrize("name", sorted(_FLOAT_TABLE))
def test_float_writer_matches_percent_on_the_awkward_values(name):
    values = np.array(_FLOAT_TABLE[name], dtype=np.float64)
    column = np.concatenate([values, -values])[:, None]
    got, want = _written(column).splitlines(), _percent_rows(column).splitlines()
    assert got == want, [(g, w) for g, w in zip(got, want) if g != w]


@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=48),
       cols=st.sampled_from([1, 2, 3]))
def test_float_writer_matches_percent_on_any_bits(bits, cols):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    table = values[:len(values) // cols * cols].reshape(-1, cols)
    assert _written(table) == _percent_rows(table)


def test_float_writer_formats_its_range_without_percent(monkeypatch):
    # every cell in [1e-4, 1e16), every exponent k in -4..15 and both signs
    rng = Rng(5)
    table = 10.0 ** rng.uniform(-4, 16, size=(300, 7))
    table[:, 1::2] *= -1
    table[0, :4] = [1e-4, -1e-4, np.nextafter(1e16, 0), -np.nextafter(1e16, 0)]
    # trailing zeros, down to a value that prints with no '.'
    table[1] = [1.5, -2.25, 100.0, 1e15, 0.001, 123456.0, -7.0]

    def refuse(text, values):
        raise AssertionError(f"{values.size} cells went to the '%' fallback")

    monkeypatch.setattr(graphcore, "_fallback", refuse)
    assert _written(table) == _percent_rows(table)
