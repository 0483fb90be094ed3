"""Graph data model, file I/O, adjacency normalization, and splits.

Node identifiers are dense 0-based integers internally; the loader remaps
arbitrary integer ids from the attribute file to their order there.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .numkit import Rng

if TYPE_CHECKING:  # imported where a CSR matrix is built; see numkit
    import scipy.sparse as sp


class InputError(ValueError):
    """A data file or schema is malformed, or the data cannot support the
    requested split or evaluation."""


ROLES = ("private", "utility", "feature")


@dataclass(frozen=True)
class AttributeSchema:
    """Declares the categorical node attributes and their privacy roles.

    Codes run 1..M per attribute; code 0 marks a missing value. Exactly one
    attribute is private and at least one is utility.
    """

    names: tuple
    classes: dict
    roles: dict

    def __post_init__(self):
        if not self.names:
            raise InputError("schema declares no attributes")
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate attribute names in schema")
        for name in self.names:
            if name not in self.classes or name not in self.roles:
                raise InputError(f"attribute '{name}' missing classes or role")
            if self.roles[name] not in ROLES:
                raise InputError(f"unknown role '{self.roles[name]}' for '{name}'")
            m = self.classes[name]
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise InputError(f"attribute '{name}' needs a positive integer 'classes'")
            if self.roles[name] in ("private", "utility") and m < 2:
                raise InputError(f"attribute '{name}' needs at least 2 classes")
        private = [n for n in self.names if self.roles[n] == "private"]
        if len(private) != 1:
            raise InputError("schema must declare exactly one private attribute")
        if not any(self.roles[n] == "utility" for n in self.names):
            raise InputError("schema must declare at least one utility attribute")

    @classmethod
    def from_config(cls, mapping: dict) -> "AttributeSchema":
        """Build from ``{name: {"classes": M, "role": role}}`` preserving order."""
        if not isinstance(mapping, dict):
            raise InputError("schema must be an object")
        names = tuple(mapping)
        classes = {}
        roles = {}
        for name, entry in mapping.items():
            if not isinstance(entry, dict):
                raise InputError(f"schema entry for '{name}' must be an object")
            classes[name] = entry.get("classes")
            roles[name] = entry.get("role")
        return cls(names=names, classes=classes, roles=roles)

    @property
    def private_attribute(self) -> str:
        return next(n for n in self.names if self.roles[n] == "private")

    @property
    def utility_attributes(self) -> tuple:
        return tuple(n for n in self.names if self.roles[n] == "utility")


def canonical_edges(pairs, n: int) -> np.ndarray:
    """Normalize to unique (u, v) rows with u < v, sorted lexicographically;
    self-loops are dropped."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        u, v = pairs[np.argmax(bad)]
        raise InputError(f"edge endpoint out of range: ({u}, {v})")
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    keep = lo != hi
    keys = np.sort(lo[keep] * np.int64(n) + hi[keep])
    # every key is at least 1, so the first always differs from -1
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack([keys // n, keys % n], axis=1)


@dataclass
class Graph:
    """Undirected simple graph with integer-coded node attributes: edges
    (u, v) with 0 <= u < v < n, and one code per node for each attribute."""

    n: int
    edges: np.ndarray
    attributes: dict

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        for name, codes in self.attributes.items():
            self.attributes[name] = np.asarray(codes, dtype=np.int64)


def load_graph(edge_path, attribute_path, schema: AttributeSchema) -> Graph:
    """Load a graph from an edge list and an attribute table. Edge file: two
    node ids per line, tab-separated; self-loops are dropped and duplicates
    collapse. Attribute file: a CSV header ``node_id,<attr>,...`` naming
    every schema attribute, then one row of integers per node; codes run
    0..M with 0 meaning missing."""
    with open(attribute_path, encoding="utf-8", newline="") as fh:
        # a line at a time, so that the handle can tell where the rows start
        reader = csv.reader(iter(fh.readline, ""))
        header = next(reader, None)
        if header is None:
            raise InputError("attribute file is empty")
        header = [h.strip() for h in header]
        if not header or header[0] != "node_id":
            raise InputError("attribute header must start with 'node_id'")
        if set(header[1:]) != set(schema.names):
            raise InputError("attribute columns do not match the schema")
        table, line_of = _read_table(fh, "attribute", ",", np.int64, reader.line_num + 1,
                                     len(header))
        ids = table[:, 0]
        n = ids.size
        if n == 0:
            raise InputError("attribute file declares no nodes")
        # the files save_graph writes need no id map
        dense = np.array_equal(ids, np.arange(n))
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        repeats = order[1:][sorted_ids[1:] == sorted_ids[:-1]]
        if repeats.size:
            row = repeats.min()
            raise InputError(f"attribute line {line_of(row)}: duplicate node id {ids[row]}")
        m = np.array([schema.classes[name] for name in header[1:]])
        bad = (table[:, 1:] < 0) | (table[:, 1:] > m)
        if bad.any():
            row, j = np.argwhere(bad)[0]
            raise InputError(f"attribute line {line_of(row)}: code {table[row, j + 1]} of "
                             f"'{header[j + 1]}' out of range 0..{m[j]}")

    with open(edge_path, encoding="utf-8", newline="") as fh:
        ends, line_of = _read_table(fh, "edge", "\t", np.int64, 1, 2, "two tab-separated integers")
        if dense:
            pairs, unknown = ends, (ends < 0) | (ends >= n)
        else:
            at = np.minimum(np.searchsorted(sorted_ids, ends), n - 1)
            pairs, unknown = order[at], sorted_ids[at] != ends
        if unknown.any():
            row, col = np.argwhere(unknown)[0]
            raise InputError(f"edge line {line_of(row)}: unknown node id {ends[row, col]}")

    attributes = {name: table[:, header.index(name)].copy() for name in schema.names}
    return Graph(n=n, edges=canonical_edges(pairs, n), attributes=attributes)


def _read_table(fh, what: str, delimiter: str, dtype, line=1, width=None, form=None):
    """The table of ``dtype`` values in ``fh`` from its position on, which
    is line ``line`` of the file, and a function from a row's index to its
    line number. Every row holds ``width`` values, or as many as the first.
    np.loadtxt parses the table in bulk (README has the grammar). Only if
    that fails is the file read again, a line at a time, to name the first
    bad line in an InputError; ``form`` says there what a row should hold."""
    start = fh.tell()

    def data_lines():
        # each line np.loadtxt reads as a row, with its text sans comment and line end
        fh.seek(start)
        for i, raw in enumerate(fh, start=line):
            text = raw.split("#", 1)[0].removesuffix("\n").removesuffix("\r")
            if text:
                yield i, raw, text

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty table is no error here
        try:
            table = np.loadtxt(fh, dtype=dtype, delimiter=delimiter, ndmin=2)
        except ValueError:
            table = None
    if table is None or table.size and width not in (None, table.shape[1]):
        for i, raw, text in data_lines():
            count = text.count(delimiter) + 1
            width = width or count
            if count != width:
                raise InputError(f"{what} line {i}: {count} values, expected {form or width}")
            try:
                np.loadtxt([raw], dtype=dtype, delimiter=delimiter)
            except ValueError:
                raise InputError(f"{what} line {i}: " + ("non-numeric value" if dtype is np.float64
                                                         else "a value is not a 64-bit integer"))
        raise InputError(f"{what} file does not parse as a table")
    # an empty table comes back with one column
    return (table.reshape(-1, width or table.shape[1]),
            lambda row: next(islice(data_lines(), row, None))[0])


# values per block of a written table, formatted as one string: bounds the
# string and its tuple of Python numbers whatever the table's width
_WRITE_VALUES = 16384


def write_rows(fh, row: str, table: np.ndarray) -> None:
    """Write ``row`` formatted with each row of a 2-D table, a block of rows
    formatted as one string at a time."""
    step = max(1, _WRITE_VALUES // max(1, table.shape[1]))
    for s in range(0, table.shape[0], step):
        block = table[s:s + step]
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


def save_graph(g: Graph, schema: AttributeSchema, edges_path, attributes_path) -> None:
    """Write a graph in the formats ``load_graph`` reads, with dense ids."""
    with open(edges_path, "w", encoding="utf-8") as fh:
        write_rows(fh, "%d\t%d\n", g.edges)
    table = np.column_stack([np.arange(g.n)] + [g.attributes[name] for name in schema.names])
    with open(attributes_path, "w", encoding="utf-8", newline="") as fh:
        # csv quotes the names; the int rows need no quoting
        csv.writer(fh).writerow(["node_id"] + list(schema.names))
        write_rows(fh, ",".join(["%d"] * table.shape[1]) + "\r\n", table)


def normalize_adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetrically normalized self-looped adjacency D^-1/2 (A+I) D^-1/2
    over ``edges``, such as the training edges of a split: symmetric, with
    sorted columns and one entry per pair."""
    import scipy.sparse as sp

    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    lap = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    lap.sum_duplicates()
    lap.sort_indices()
    inv_sqrt = 1.0 / np.sqrt(np.asarray(lap.sum(axis=1)).ravel())
    rows = np.repeat(np.arange(n), np.diff(lap.indptr))
    lap.data[:] = inv_sqrt[rows] * inv_sqrt[lap.indices]
    return lap


def onehot(codes: np.ndarray, m: int) -> np.ndarray:
    """One row of m columns per code: a one in column c - 1 for code c, a
    zero row for code 0 (missing)."""
    out = np.zeros((codes.size, m))
    labeled = np.flatnonzero(codes)
    out[labeled, codes[labeled] - 1] = 1.0
    return out


def build_features(g: Graph, schema: AttributeSchema, exclude=()) -> np.ndarray:
    """The one-hot blocks of every attribute not excluded, side by side."""
    return np.hstack([onehot(g.attributes[name], schema.classes[name])
                      for name in schema.names if name not in exclude])


def onehot_labels(g: Graph, schema: AttributeSchema, name: str):
    """Return (onehot [n x M], mask of labeled node indices) for one attribute."""
    codes = g.attributes[name]
    return onehot(codes, schema.classes[name]), np.flatnonzero(codes)


@dataclass
class NodeSplit:
    train: np.ndarray
    test: np.ndarray


def split_nodes(mask: np.ndarray, fraction: float, seed: int) -> NodeSplit:
    """Shuffle the labeled node indices ``mask`` and cut them train/test at ``fraction``."""
    if mask.size < 2:
        raise InputError("need at least two labeled nodes to split")
    shuffled = mask[Rng(seed).permutation(mask.size)]
    k = int(round(fraction * mask.size))
    if k == 0 or k == mask.size:
        raise InputError(f"a {fraction:g} split of {mask.size} labeled nodes leaves "
                         "an empty side")
    return NodeSplit(train=np.sort(shuffled[:k]), test=np.sort(shuffled[k:]))


@dataclass
class EdgeSplit:
    train_edges: np.ndarray
    heldout_pos: np.ndarray
    heldout_neg: np.ndarray


def split_edges(g: Graph, holdout: float, seed: int) -> EdgeSplit:
    """Hold out a fraction of edges plus an equal number of sampled non-edges.

    Held-out pairs never reach training, so link evaluation is uncontaminated.
    """
    m = len(g.edges)
    if m < 2:
        raise InputError("graph has too few edges to split")
    k = int(round(holdout * m))
    if k == 0 or k == m:
        raise InputError(f"holding out {k} of {m} edges leaves an empty split side")
    rng = Rng(seed)
    perm = rng.permutation(m)
    held = g.edges[np.sort(perm[:k])]
    train = g.edges[np.sort(perm[k:])]
    n = g.n
    if k > n * (n - 1) // 2 - m:
        raise InputError("not enough non-edges to mirror the held-out set")
    keys = np.sort(sample_non_edges(n, g.edges[:, 0] * n + g.edges[:, 1], k, rng))
    heldout_neg = np.stack(np.divmod(keys, n), axis=1)
    return EdgeSplit(train_edges=train, heldout_pos=held, heldout_neg=heldout_neg)


def sample_non_edges(n: int, taken, count: int, rng: Rng) -> np.ndarray:
    """``count`` distinct u*n+v keys (u < v) outside the keys ``taken``, in
    draw order. Candidates are drawn in (k, 2) blocks, the same values in
    the same order as two scalar draws each, and accepted unless a self
    pair, taken or accepted before; a block may draw past the last key
    accepted. The caller checks that enough free pairs exist."""
    # sorted, and a sentinel above every key keeps each lookup in range
    taken = np.sort(np.append(taken, n * n))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < count:
        u, v = rng.integers(0, n, size=((count - keys.size) * 5 // 4 + 64, 2)).T
        cand = (np.minimum(u, v) * np.int64(n) + np.maximum(u, v))[u != v]
        cand = cand[taken[np.searchsorted(taken, cand)] != cand]
        # the first occurrence of each, in draw order
        cand = cand[np.sort(np.unique(cand, return_index=True)[1])]
        keys = np.concatenate([keys, cand])
        taken = np.sort(np.concatenate([taken, cand]))
    return keys[:count]
