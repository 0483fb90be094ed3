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


# values per block of the float writer, whose arrays take about 250 bytes
# a value
_FLOAT_VALUES = 8192

# The float writer lays each value out as a 24-byte cell, three
# little-endian words: the separator that precedes the value in column 0,
# the value's '%.17g' text right-aligned to column 23, and NUL bytes, which
# are deleted, elsewhere. With N the 17 significant digits and k the decimal
# exponent, X holds d0 in column 7 and the other 16 digits, as 4-digit
# groups, in columns 8-23; Y is X one column to the left. A cell is
# (X & MX) | (Y & MY) | P, with MX, MY and P picked by (sign, k, trailing
# zeros of N): for k < 0 the text is "0." and -k-1 zeros before X's digits,
# for k >= 0 Y gives the k+1 integer digits and a '.' follows them unless
# the fraction is all zeros. The last kind is a fallback cell, "%.17g".

def _digit_groups():
    """The text of 0000-9999 as 4-byte words, and its trailing zeros."""
    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    words = (digits + ord("0")).astype(np.uint8).view("<u4")[:, 0].astype("<u8")
    return words, (digits[:, ::-1] == 0).cumprod(axis=1).sum(axis=1)


def _float_layouts():
    """MX, MY and P for each (sign, k in -4..15, trailing zeros 0..16),
    then for a fallback cell: 9 rows of words, one column per cell kind."""
    rows = []
    for sign in (b"", b"-"):
        for k in range(-4, 16):
            for zeros in range(17):
                mx, my, p = bytearray(24), bytearray(24), bytearray(24)
                if k < 0:
                    lead = sign + b"0." + b"0" * (-k - 1)
                    p[7 - len(lead):7] = lead
                    mx[7:24 - zeros] = b"\xff" * (17 - zeros)
                else:
                    p[6 - len(sign):6] = sign
                    my[6:7 + k] = b"\xff" * (k + 1)
                    if zeros < 16 - k:
                        p[7 + k] = ord(".")
                        mx[8 + k:24 - zeros] = b"\xff" * (16 - k - zeros)
                mx[0] = 0xFF
                rows.append(mx + my + p)
    rows.append(b"\xff" + bytes(66) + b"%.17g")
    return np.frombuffer(b"".join(rows), "<u8").reshape(len(rows), 9).T.copy()


_GROUPS, _GROUP_ZEROS = _digit_groups()
_LAYOUTS = _float_layouts()
_LEAD = (np.arange(10, dtype="<u8") + ord("0")) << 56


def _split(a):
    """Veltkamp's split by 2**27 + 1: hi + lo == a, each half of 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


# 10**p is an exact double for p <= 22
_POW10 = np.array([float(10**p) for p in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _digits17(a, k):
    """a * 10**(16 - k) rounded half to even, exactly. Dekker's two-product
    gives y + e == a * 10**p with y the rounded product; for y >= 2**53, y
    is an even integer and e the exact remainder, so the digits are
    y + rint(e)."""
    p = 16 - k
    b, bh, bl = _POW10[p], _POW10_HI[p], _POW10_LO[p]
    ah, al = _split(a)
    y = a * b
    e = ((ah * bh - y) + ah * bl + al * bh) + al * bl
    return y.astype(np.int64) + np.rint(e).astype(np.int64)


def _fallback(text: bytes, values: np.ndarray) -> bytes:
    """Fill the "%.17g" cells of ``text`` with ``values``, in order."""
    return text % tuple(values.tolist())


def _float_cells(v: np.ndarray, seps: np.ndarray) -> bytes:
    """The '%.17g' texts of a 1-D float64 block, each after its separator.
    Values with 1e-4 <= |x| < 1e16 have k in [-4, 15] and print without an
    exponent; they are formatted from their digits, the rest by '%'."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    # a stand-in keeps log10 and the int casts free of warnings
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    n = _digits17(a, k)
    # next to a power of ten log10 can miss by one: N then has 16 or 18 digits
    off = (n >= 10**17).astype(np.int64) - (n < 10**16)
    fix = np.flatnonzero(off)
    if fix.size:
        k[fix] += off[fix]
        n[fix] = _digits17(a[fix], k[fix])
    hi = n // 10**8
    lo = n - hi * 10**8
    d0 = hi // 10**8
    mid = hi - d0 * 10**8
    g1, g3 = mid // 10**4, lo // 10**4
    g2, g4 = mid - g1 * 10**4, lo - g3 * 10**4
    zeros = _GROUP_ZEROS[g4]
    rest = np.flatnonzero(g4 == 0)
    for g in (g3, g2, g1):
        zeros[rest] += _GROUP_ZEROS[g[rest]]
        rest = rest[g[rest] == 0]
    code = ((v < 0) * 20 + k + 4) * 17 + zeros
    code[~fast] = _LAYOUTS.shape[1] - 1
    x = [seps | _LEAD[d0], _GROUPS[g1] | _GROUPS[g2] << 32, _GROUPS[g3] | _GROUPS[g4] << 32]
    cells = np.empty((len(v), 3), "<u8")
    for w in range(3):
        y = x[w] >> 8
        if w < 2:
            y |= x[w + 1] << 56
        y &= _LAYOUTS[3 + w].take(code)
        x[w] &= _LAYOUTS[w].take(code)
        x[w] |= y
        x[w] |= _LAYOUTS[6 + w].take(code)
        cells[:, w] = x[w]
    text = cells.tobytes().translate(None, b"\0")
    return text if fast.all() else _fallback(text, v[~fast])


def write_floats(fh, table: np.ndarray) -> None:
    """Write a 2-D float64 table with at least one column to a binary file:
    each row the '%.17g' texts of its values joined by ',' and ended by a
    newline, a block of rows at a time."""
    rows, cols = table.shape
    step = max(1, _FLOAT_VALUES // cols)
    seps = np.tile(np.array([ord("\n")] + [ord(",")] * (cols - 1), "<u8"), step)
    for s in range(0, rows, step):
        block = table[s:s + step].ravel()
        text = _float_cells(block, seps[:block.size])
        # each row opens with the newline that ends the row before it
        fh.write(memoryview(text)[1:] if s == 0 else text)
    if rows:
        fh.write(b"\n")


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
