"""Attack, utility, and link-prediction audits over released embeddings.

The classifier battery is deliberately small and fully deterministic:
a linear softmax model, a one-hidden-layer MLP, and k-nearest neighbours.
All three train on a knowledge fraction of the labeled nodes and report
accuracy and macro F1 on the rest.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import training
from .graphcore import EdgeSplit, InputError, onehot, sample_non_edges, split_nodes
from .numkit import Adam, NumericError, Rng, derive_seed, softmax_cross_entropy_grad

REPORT_COLUMNS = ("method", "task", "classifier", "fraction", "metric",
                  "mean", "std", "repeats")


@dataclass(frozen=True)
class ClassifierSpec:
    """One member of the evaluation battery."""

    kind: str = "mlp"
    lr: float = 0.01
    steps: int = 300
    hidden: int = 64
    k: int = 5

    def __post_init__(self):
        if self.kind not in _FITTERS:
            raise ValueError(f"unknown classifier kind '{self.kind}'")


@dataclass
class EvalRecord:
    method: str
    task: str
    classifier: str
    fraction: float
    metric: str
    mean: float
    std: float
    repeats: int


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(y_true == y_pred))


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> float:
    """Unweighted mean of per-class F1; a class with no predictions and no
    positives contributes 0."""
    scores = []
    for c in range(1, num_classes + 1):
        tp = np.sum((y_pred == c) & (y_true == c))
        fp = np.sum((y_pred == c) & (y_true != c))
        fn = np.sum((y_pred != c) & (y_true == c))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        if precision + recall == 0:
            scores.append(0.0)
        else:
            scores.append(2.0 * precision * recall / (precision + recall))
    return float(np.mean(scores))


def _flat_views(shapes):
    """One zeroed float64 vector and C-contiguous views of it, one per shape,
    so a single Adam entry updates every block in one pass."""
    sizes = [int(np.prod(s)) for s in shapes]
    flat = np.zeros(sum(sizes))
    ends = np.cumsum(sizes)
    return flat, [flat[e - n:e].reshape(s) for s, n, e in zip(shapes, sizes, ends)]


def _require_finite(name: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericError(f"{name} is not finite")


def _fit_softmax(x, labels, m, spec: ClassifierSpec, seed: int, name: str = "fit"):
    n, d = x.shape
    theta, (w, b) = _flat_views([(d, m), (m,)])
    grad, (gw, gb) = _flat_views([(d, m), (m,)])
    targets = onehot(labels, m)
    logits = np.empty((n, m))
    g = np.empty((n, m))
    opt = Adam({"theta": theta}, lr=spec.lr)
    for _ in range(spec.steps):
        np.matmul(x, w, out=logits)
        logits += b
        softmax_cross_entropy_grad(logits, targets, g, n)
        np.matmul(x.T, g, out=gw)
        np.add.reduce(g, axis=0, out=gb)
        opt.step({"theta": grad})
    # a huge feature can leave the weights finite and only overflow v
    _require_finite(name, theta, opt.m["theta"], opt.v["theta"])

    def predict(q):
        return np.argmax(q @ w + b, axis=1) + 1

    return predict


# training rows per tile of an MLP step: the tile's hidden-layer arrays
# stay in a core's L2 cache. Fixed, because it sets the order in which the
# weight gradient is summed.
_MLP_TILE_ROWS = 1024


def _fit_mlp(x, labels, m, spec: ClassifierSpec, seed: int, name: str = "fit"):
    """Full-batch Adam on a one-hidden-layer ReLU network. Each step walks
    the rows in tiles of _MLP_TILE_ROWS and sums the tiles' gradients, so
    a fit of at most one tile runs the untiled operations."""
    n, d = x.shape
    hid = spec.hidden
    shapes = [(d, hid), (hid,), (hid, m), (m,)]
    theta, (w1, b1, w2, b2) = _flat_views(shapes)
    grad, grad_blocks = _flat_views(shapes)
    part, part_blocks = _flat_views(shapes)
    rng = Rng(seed)
    w1[...] = rng.glorot(d, hid)
    w2[...] = rng.glorot(hid, m)
    targets = onehot(labels, m)
    tile = min(n, _MLP_TILE_ROWS)
    pre = np.empty((tile, hid))
    h = np.empty((tile, hid))
    active = np.empty((tile, hid), dtype=bool)
    dh = np.empty((tile, hid))
    logits = np.empty((tile, m))
    g = np.empty((tile, m))
    # each tile's rows of x and the targets, and the scratch rows it uses
    tiles = [[a[s:s + tile] for a in (x, targets)]
             + [a[:min(tile, n - s)] for a in (pre, h, active, dh, logits, g)]
             for s in range(0, n, tile)]
    opt = Adam({"theta": theta}, lr=spec.lr)
    for _ in range(spec.steps):
        for i, (x_t, targets_t, pre_t, h_t, active_t, dh_t, logits_t, g_t) in enumerate(tiles):
            np.matmul(x_t, w1, out=pre_t)
            pre_t += b1
            np.maximum(pre_t, 0.0, out=h_t)
            np.matmul(h_t, w2, out=logits_t)
            logits_t += b2
            softmax_cross_entropy_grad(logits_t, targets_t, g_t, n)
            np.matmul(g_t, w2.T, out=dh_t)
            np.greater(pre_t, 0.0, out=active_t)
            dh_t *= active_t
            gw1, gb1, gw2, gb2 = part_blocks if i else grad_blocks
            np.matmul(x_t.T, dh_t, out=gw1)
            np.add.reduce(dh_t, axis=0, out=gb1)
            np.matmul(h_t.T, g_t, out=gw2)
            np.add.reduce(g_t, axis=0, out=gb2)
            if i:
                grad += part
        opt.step({"theta": grad})
    _require_finite(name, theta, opt.m["theta"], opt.v["theta"])

    def predict(q):
        h = np.maximum(q @ w1 + b1, 0.0)
        return np.argmax(h @ w2 + b2, axis=1) + 1

    return predict


# memory budget of one kNN block of query rows
_KNN_CHUNK_BYTES = 4 * 2**20


def _knn_nearest(q, x, k, name="fit"):
    """Indices of the k nearest training rows per query row, ties broken by
    training order.

    Exact, by a screen: for a block of query rows, the expansion
    |q|^2 + |x|^2 - 2 q.x (one matrix product) keeps every training row
    that can be among the k nearest, and only those candidates are ranked
    by the direct distance ((q - x)**2).sum with a stable sort, as a full
    ranking would. Both formulas err by at most (2d + 5) eps (|q|^2 + |x|^2)
    against the true distance (plus underflow), so a true k-th nearest row
    lies within twice that of the k-th smallest screened value; the slack
    below is more than twice that again. Every array a block builds holds
    at most an eighth of _KNN_CHUNK_BYTES, even when ties make every
    training row a candidate. No distance exceeds 2 (|q|^2 + |x|^2): a block
    where that is not finite for the largest |x| raises NumericError.
    """
    n, d = x.shape
    budget = _KNN_CHUNK_BYTES // 8
    rows = max(1, min(q.shape[0], budget // (8 * n)))
    pair_rows = max(1, budget // (8 * max(1, d)))
    x_sq = np.einsum("ij,ij->i", x, x)
    tol = 8 * (d + 4) * np.finfo(np.float64).eps
    floor = 8 * (d + 4) * np.finfo(np.float64).tiny
    block = np.empty((rows, n))
    nearest = np.empty((q.shape[0], k), dtype=np.int64)
    for s in range(0, q.shape[0], rows):
        qb = q[s:s + rows]
        q_sq = np.einsum("ij,ij->i", qb, qb)
        norms = q_sq + x_sq.max()
        _require_finite(name, 2.0 * norms)
        approx = np.matmul(qb, x.T, out=block[:qb.shape[0]])
        approx *= -2.0
        approx += q_sq[:, None]
        approx += x_sq
        bound = np.partition(approx, k - 1, axis=1)[:, k - 1] + tol * norms + floor
        qi, xi = np.nonzero(approx <= bound[:, None])
        dist = np.empty(qi.size)
        for c in range(0, qi.size, pair_rows):
            part = slice(c, c + pair_rows)
            diff = qb[qi[part]]
            diff -= x[xi[part]]
            np.square(diff, out=diff)
            np.add.reduce(diff, axis=1, out=dist[part])
        order = np.lexsort((dist, qi))
        starts = np.searchsorted(qi, np.arange(qb.shape[0]))
        nearest[s:s + rows] = xi[order[starts[:, None] + np.arange(k)]]
    return nearest


def _fit_knn(x, labels, m, spec: ClassifierSpec, seed: int, name: str = "fit"):
    k = min(spec.k, x.shape[0])

    def predict(q):
        votes = labels[_knn_nearest(q, x, k, name)]
        counts = (votes[:, :, None] == np.arange(1, m + 1)).sum(axis=1)
        return np.argmax(counts, axis=1) + 1

    return predict


_FITTERS = {"softmax": _fit_softmax, "mlp": _fit_mlp, "knn": _fit_knn}


def fit_classifier(spec: ClassifierSpec, x, labels, num_classes: int, seed: int, task=""):
    """Train one battery member on codes 1..num_classes; the returned
    predictor maps feature rows to codes. A non-finite fit raises
    NumericError naming ``task`` and the kind."""
    return _FITTERS[spec.kind](x, labels, num_classes, spec, seed,
                               f"{task} {spec.kind} fit".lstrip())


def _split_with_redraw(mask, labels, fraction, seed, attempts=20):
    """Split the labeled nodes so every present class reaches the training
    side, re-drawing with derived seeds before giving up."""
    present = np.unique(labels[mask])
    for a in range(attempts):
        split = split_nodes(mask, fraction, derive_seed(seed, f"try/{a}"))
        if np.all(np.isin(present, labels[split.train])):
            return split
    raise InputError(f"no split with all classes on the training side after {attempts} draws")


def _summary(method, task, spec, fraction, accs, f1s) -> list:
    """ACC and MacroF1 records: mean and spread over the repeats."""
    return [EvalRecord(method=method, task=task, classifier=spec.kind, fraction=fraction,
                       metric=metric, mean=float(np.mean(values)),
                       std=float(np.std(values)), repeats=len(values))
            for metric, values in (("ACC", accs), ("MacroF1", f1s))]


def _classification_eval(z, labels, mask, num_classes, spec, fraction, seed,
                         repeats, method, task):
    accs = []
    f1s = []
    for r in range(repeats):
        rep_seed = derive_seed(seed, f"rep/{r}")
        split = _split_with_redraw(mask, labels, fraction, rep_seed)
        predict = fit_classifier(spec, z[split.train], labels[split.train],
                                 num_classes, derive_seed(rep_seed, "clf"), task)
        pred = predict(z[split.test])
        accs.append(accuracy(labels[split.test], pred))
        f1s.append(macro_f1(labels[split.test], pred, num_classes))
    return _summary(method, task, spec, fraction, accs, f1s)


def audit(z, g, schema, specs, labels: dict, cfg: training.TrainConfig, *, repeats: int,
          fraction: float, utility_fraction: float, method: str = None) -> list:
    """Audit the embedding ``z`` of the run ``cfg`` with every classifier spec.

    ``labels`` maps each task to run ('privacy', 'utility', 'link') to the
    label that derives its seed from ``cfg.seed``; "{name}" in a label
    stands for the attribute. ``fraction`` is the attack's knowledge
    fraction and ``utility_fraction`` the utility tasks' training fraction.
    Records come in the order privacy, each utility attribute, link, and
    within a task one spec after another; their method is ``method``, or
    the run's variant. The link task scores the run's edge split.
    """
    method = cfg.variant if method is None else method
    jobs = [("privacy", "privacy", schema.private_attribute, fraction)]
    jobs += [("utility", f"utility:{name}", name, utility_fraction)
             for name in schema.utility_attributes]
    records = []
    for kind, task, name, frac in jobs:
        if kind not in labels:
            continue
        codes = g.attributes[name]
        task_seed = derive_seed(cfg.seed, labels[kind].replace("{name}", name))
        for spec in specs:
            records.extend(_classification_eval(z, codes, np.where(codes > 0)[0],
                                                schema.classes[name], spec, frac, task_seed,
                                                repeats, method, task))
    if "link" in labels:
        split = training.edge_split(g, cfg)
        for spec in specs:
            records.extend(link_eval(z, split, spec, seed=derive_seed(cfg.seed, labels["link"]),
                                     method=method))
    return records


# pairs per block of a link table: the two gathered endpoint blocks stay
# small beside the table
_PAIR_BLOCK = 512


def _pair_table(z, *sides):
    """One array of the rows z[u] * z[v], for the (u, v) pairs of each side
    in turn, filled a block of pairs at a time."""
    table = np.empty((sum(len(pairs) for pairs in sides), z.shape[1]))
    at = 0
    for pairs in sides:
        for s in range(0, len(pairs), _PAIR_BLOCK):
            u, v = pairs[s:s + _PAIR_BLOCK].T
            np.multiply(z[u], z[v], out=table[at:at + len(u)])
            at += len(u)
    return table


def link_eval(z, split: EdgeSplit, spec: ClassifierSpec, seed: int = 0,
              method: str = "") -> list:
    """Link prediction on held-out pairs.

    Trains on the embedding-training edges plus an equal number of sampled
    non-edges (disjoint from every edge and from the held-out negatives) and
    scores the held-out positives against the held-out negatives. Pair
    features are elementwise products of the endpoint embeddings. Codes:
    1 non-edge, 2 edge.

    Each table is built once and dropped before the next, save that kNN's
    predictor keeps the training one: what is held at once is checked
    against training.LINK_MEMORY_BUDGET before anything is allocated.
    """
    n = z.shape[0]
    train_pos, held_pos, held_neg = split.train_edges, split.heldout_pos, split.heldout_neg
    tables = (2 * len(train_pos), len(held_pos) + len(held_neg))
    need = 8 * z.shape[1] * (sum(tables) if spec.kind == "knn" else max(tables))
    if need > training.LINK_MEMORY_BUDGET:
        raise InputError(f"the link audit's pair table needs {need} bytes, over the "
                         f"{training.LINK_MEMORY_BUDGET}-byte budget")
    # the split's three sides are disjoint u < v pairs
    taken = np.vstack([train_pos, held_pos, held_neg])
    free = n * (n - 1) // 2 - len(taken)
    if free < len(train_pos):
        raise InputError(f"link evaluation needs {len(train_pos)} training non-edges "
                         f"but only {free} node pairs are neither edges nor held out")
    keys = sample_non_edges(n, taken[:, 0] * n + taken[:, 1], len(train_pos),
                            Rng(derive_seed(seed, "link/negatives")))
    train_neg = np.stack(np.divmod(keys, n), axis=1)

    y_train = np.concatenate([np.full(len(train_pos), 2), np.full(len(train_neg), 1)])
    predict = fit_classifier(spec, _pair_table(z, train_pos, train_neg), y_train, 2,
                             derive_seed(seed, "link/clf"), "link")

    y_test = np.concatenate([np.full(len(held_pos), 2), np.full(len(held_neg), 1)])
    pred = predict(_pair_table(z, held_pos, held_neg))
    frac = 1.0 - len(held_pos) / (len(held_pos) + len(train_pos))
    return _summary(method, "link", spec, frac, [accuracy(y_test, pred)],
                    [macro_f1(y_test, pred, 2)])


def write_report(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in records:
            writer.writerow([r.method, r.task, r.classifier, f"{r.fraction:g}",
                             r.metric, f"{r.mean:.10g}", f"{r.std:.10g}", r.repeats])


SWEEP_AXES = ("lambda", "dprime", "fraction")


def sweep(axis: str, values, g, schema, base_cfg, specs, *,
          repeats: int, fraction: float, utility_fraction: float, seed: int = 0) -> list:
    """Hyperparameter sweeps matching the audit protocol, with every
    classifier spec.

    'lambda' and 'dprime' retrain per value with ``repeats`` derived seeds
    and report privacy, utility, and link metrics at ``fraction`` and
    ``utility_fraction``; 'fraction' trains once and re-attacks at every
    knowledge fraction, with task seeds derived from ``seed``.
    """
    if axis == "fraction":
        z = training.train(g, schema, base_cfg).Z
        return [row for f in values
                for row in audit(z, g, schema, specs, {"privacy": f"fraction/{f:g}"},
                                 replace(base_cfg, seed=seed), repeats=repeats,
                                 fraction=f, utility_fraction=utility_fraction)]

    key = {"lambda": "lam", "dprime": "d_prime"}[axis]
    labels = {"privacy": "attack", "utility": "utility", "link": "link"}
    # every run's config, resolved before any run trains
    cfgs = [[replace(base_cfg, seed=derive_seed(seed, f"{axis}/{value:g}/{r}"),
                     **{key: value}).resolved() for r in range(repeats)] for value in values]
    records = []
    for value, value_cfgs in zip(values, cfgs):
        tag = f"{base_cfg.variant}[{axis}={value:g}]"
        runs = [audit(training.train(g, schema, cfg).Z, g, schema, specs, labels, cfg, repeats=1,
                      fraction=fraction, utility_fraction=utility_fraction, method=tag)
                for cfg in value_cfgs]
        # one record per task and metric, over the runs
        for rows in zip(*runs):
            means = [row.mean for row in rows]
            records.append(replace(rows[0], mean=float(np.mean(means)),
                                   std=float(np.std(means)), repeats=repeats))
    return records
