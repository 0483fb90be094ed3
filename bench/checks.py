"""Output checks made apart from the program.

Each check returns a list of problems; an empty list means the output
passed. The numbers are recomputed here with plain numpy from the files
the program wrote and the inputs the benchmark made. The program is used
only for its edge split, which defines what was held out of training.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from workloads import APGE, AUDIT, bayes_private, bayes_utility

HOLDOUT = 0.15            # the program's default edge_holdout
NEGS_PER_POS = 5          # the program's default negatives_per_positive
AUC_FLOOR = 0.6           # "clearly above chance"; trained runs reach about 0.7
BAYES_TOL = 0.05          # attack ACC against the planted Bayes rate
CHUNK = 500               # rows per block of the n x n logits
# the released embedding's loss may miss the last logged step extended
# once more by CURVE_FACTOR times the largest change of the logged step over
# the last CURVE_WINDOW iterations; over 16 seeds of apge-n500-exact and 6
# of gae-n6000-sampled it missed by at most 1.22 times that change
CURVE_WINDOW = 10
CURVE_FACTOR = 3.0

TRACE_FILLED = {"GAE": ("l_link", "l_attr", "l_obf"),
                "APGE": ("l_link", "l_attr", "l_att", "l_dc", "l_obf")}
TRACE_COLUMNS = ("iter", "l_link", "l_attr", "l_att", "l_dc", "l_obf")


# -- readers ---------------------------------------------------------------

def read_embeddings(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)


def read_table(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_graph(inputs):
    """(n, canonical u<v edge array, {attribute: codes}) from the graph files."""
    attrs = np.loadtxt(inputs / "attributes.csv", delimiter=",", skiprows=1, ndmin=2,
                       dtype=np.int64)
    with open(inputs / "attributes.csv", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")[1:]
    n = attrs.shape[0]
    if not np.array_equal(attrs[:, 0], np.arange(n)):
        raise ValueError("attribute file does not list dense node ids in order")
    raw = np.loadtxt(inputs / "edges.tsv", delimiter="\t", ndmin=2, dtype=np.int64)
    raw = np.sort(raw, axis=1)
    edges = np.unique(raw[raw[:, 0] != raw[:, 1]], axis=0)
    return n, edges, {name: attrs[:, j + 1] for j, name in enumerate(names)}


def program_split(n, edges, attributes, seed):
    """The program's train/held-out edge split for this graph and seed."""
    from privemb.graphcore import Graph, split_edges
    from privemb.numkit import derive_seed

    g = Graph(n=n, edges=edges.copy(), attributes=dict(attributes))
    return split_edges(g, HOLDOUT, derive_seed(seed, "edges"))


# -- numbers computed here -------------------------------------------------

def _softplus(x):
    return np.logaddexp(0.0, x)


def link_bce(z_in: np.ndarray, train_edges: np.ndarray):
    """Exact pos-weighted BCE of inner-product logits against the training
    adjacency plus self-loops, in row chunks. Also returns the standard
    error a sampled estimate with NEGS_PER_POS negatives per positive has."""
    n = z_in.shape[0]
    rows = np.concatenate([train_edges[:, 0], train_edges[:, 1], np.arange(n)])
    cols = np.concatenate([train_edges[:, 1], train_edges[:, 0], np.arange(n)])
    n_pos = rows.size
    n_neg = n * n - n_pos
    pos_weight = n_neg / n_pos
    sum_all = 0.0
    sq_all = 0.0
    for start in range(0, n, CHUNK):
        s = _softplus(z_in[start:start + CHUNK] @ z_in.T)
        sum_all += float(s.sum())
        sq_all += float((s * s).sum())
    x_pos = np.einsum("ij,ij->i", z_in[rows], z_in[cols])
    s_pos = _softplus(x_pos)
    loss = (sum_all + float((pos_weight * _softplus(-x_pos) - s_pos).sum())) / (n * n)
    neg_mean = (sum_all - float(s_pos.sum())) / n_neg
    neg_var = max((sq_all - float((s_pos * s_pos).sum())) / n_neg - neg_mean ** 2, 0.0)
    stderr = n_neg / (n * n) * math.sqrt(neg_var / (NEGS_PER_POS * n_pos))
    return loss, stderr


def auc(pos_scores, neg_scores) -> float:
    """Mann-Whitney AUC with ties counted half."""
    scores = np.concatenate([pos_scores, neg_scores])
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    ranks[order] = np.arange(1, scores.size + 1)
    sorted_scores = scores[order]
    _, first, counts = np.unique(sorted_scores, return_index=True, return_counts=True)
    for f, c in zip(first, counts):
        if c > 1:
            ranks[order[f:f + c]] = f + (c + 1) / 2.0
    n_pos = len(pos_scores)
    n_neg = len(neg_scores)
    return float((ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def inner_product_auc(z, split) -> float:
    def score(pairs):
        return np.einsum("ij,ij->i", z[pairs[:, 0]], z[pairs[:, 1]])
    return auc(score(split.heldout_pos), score(split.heldout_neg))


# -- checks ----------------------------------------------------------------

def check_embeddings(z, n, d) -> list:
    problems = []
    if z.shape != (n, d):
        problems.append(f"embeddings.csv has shape {z.shape}, expected {(n, d)}")
    if not np.all(np.isfinite(z)):
        problems.append("embeddings.csv holds non-finite values")
    return problems


def check_trace(trace, variant, iterations) -> list:
    problems = []
    if len(trace) != iterations:
        problems.append(f"loss_trace.csv has {len(trace)} rows, expected {iterations}")
    filled = TRACE_FILLED[variant]
    for row in trace:
        for col in TRACE_COLUMNS[1:]:
            cell = row.get(col, "")
            if col in filled:
                if cell == "" or not math.isfinite(float(cell)):
                    problems.append(f"loss_trace.csv iter {row.get('iter')}: {col}={cell!r}")
                    return problems
            elif cell != "":
                problems.append(f"loss_trace.csv iter {row.get('iter')}: {col} should be blank")
                return problems
    return problems


def link_loss_gap(z_in, train_edges, trace, sampled):
    """(|recomputed - expected|, allowed gap, recomputed loss).

    The released embedding is the one the next iteration would log, so the
    expected value extends the last logged step once more. The error of
    that prediction is bounded by how much the step itself changes: the
    allowance is CURVE_FACTOR times the largest change between consecutive
    logged steps over the last CURVE_WINDOW iterations, plus a 1e-9
    relative floor for rounding and, when the logged losses are sampled
    estimates, six standard errors of one."""
    loss, stderr = link_bce(z_in, train_edges)
    logged = np.array([float(row["l_link"]) for row in trace[-(CURVE_WINDOW + 1):]])
    steps = np.diff(logged)
    expected = logged[-1] + steps[-1]
    allowed = (CURVE_FACTOR * float(np.abs(np.diff(steps)).max()) + 1e-9 * abs(expected)
               + (6.0 * stderr if sampled else 0.0))
    return abs(loss - expected), allowed, loss


def check_training(z, trace, graph, seed, variant, mode) -> list:
    """Recomputed link loss against the logged trace, and held-out AUC."""
    n, edges, attributes = graph
    split = program_split(n, edges, attributes, seed)
    z_in = z
    if variant == APGE.variant:
        private = attributes["private"]
        z_in = np.hstack([z, np.eye(int(private.max()))[private - 1]])
    problems = []
    gap, allowed, loss = link_loss_gap(z_in, split.train_edges, trace, mode == "sampled")
    if not gap <= allowed:
        problems.append(f"recomputed link BCE {loss:.6f} is {gap:.2e} from one step past the "
                        f"logged l_link {float(trace[-1]['l_link']):.6f} "
                        f"(allowed {allowed:.2e}, {mode})")
    score = inner_product_auc(z, split)
    if not score > AUC_FLOOR:
        problems.append(f"held-out inner-product AUC {score:.4f} is not above {AUC_FLOOR}")
    return problems


def check_report(rows, task, classifiers) -> list:
    problems = []
    want = {(task, c, m) for c in classifiers for m in ("ACC", "MacroF1")}
    have = {(r["task"], r["classifier"], r["metric"]) for r in rows}
    if have != want or len(rows) != len(want):
        problems.append(f"report.csv rows {sorted(have)} differ from {sorted(want)}")
    for r in rows:
        for key in ("mean", "std"):
            value = float(r[key])
            if not 0.0 <= value <= 1.0:
                problems.append(f"report.csv {r['task']} {r['classifier']} {r['metric']} "
                                f"{key}={value} outside [0, 1]")
    return problems


def check_bayes(rows, task, bayes, tight) -> list:
    """No classifier beats the Bayes rate by more than BAYES_TOL; the ones in
    ``tight`` (linear models, Bayes-optimal here) also reach it within it."""
    problems = []
    for r in rows:
        if r["task"] != task or r["metric"] != "ACC":
            continue
        acc = float(r["mean"])
        if acc > bayes + BAYES_TOL:
            problems.append(f"{task} {r['classifier']} ACC {acc:.4f} exceeds the Bayes "
                            f"rate {bayes:.4f} by more than {BAYES_TOL}")
        if r["classifier"] in tight and acc < bayes - BAYES_TOL:
            problems.append(f"{task} {r['classifier']} ACC {acc:.4f} is more than "
                            f"{BAYES_TOL} below the Bayes rate {bayes:.4f}")
    return problems


def bayes_rates():
    p = AUDIT.params
    return {"privacy": bayes_private(p["delta"]),
            "utility:utility": bayes_utility(p["sep"], p["utility_classes"])}
