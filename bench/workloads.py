"""The benchmark's three workloads: their inputs, their CLI commands and the
facts the output checks need.

Inputs are made here from the workload seed with the benchmark's own numpy
code; graph files go through ``privemb.graphcore.save_graph``, the writer
of the format the program reads. The program itself only ever sees the
files and configs written by ``setup``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Op:
    """One CLI command of a round."""

    command: str
    config: str
    out: str
    embeddings: str = None

    def argv(self, root: Path) -> list:
        args = [self.command, "--config", str(root / self.config), "--out", str(root / self.out)]
        if self.embeddings:
            args += ["--embeddings", str(root / self.embeddings)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    link_mode: str = None        # the mode `auto` must pick at this size
    # useful node splits per round: repeats x classifiers x node tasks
    node_splits: int = 0
    # files that must be byte-identical in every round
    deterministic: tuple = ()
    # rounds every untraced run makes, however short --seconds is
    min_rounds: int = 2
    params: dict = field(default_factory=dict)

    @property
    def variant(self):
        """The trained variant, None when nothing trains."""
        return self.params.get("model", {}).get("variant")

    @property
    def iterations(self) -> int:
        return self.params.get("model", {}).get("T", 0)

    @property
    def d(self) -> int:
        return self.params.get("model", {}).get("d")


TRAIN = "out/train"

APGE = Workload(
    name="apge-n500-exact",
    why="README quick start at paper sizes: APGE train at n=500 (exact link loss) "
        "then attack, eval-attr and eval-link with the MLP",
    ops=(Op("train", "apge.json", TRAIN),
         Op("attack", "apge.json", "out/attack", f"{TRAIN}/embeddings.csv"),
         Op("eval-attr", "apge.json", "out/eval-attr", f"{TRAIN}/embeddings.csv"),
         Op("eval-link", "apge.json", "out/eval-link", f"{TRAIN}/embeddings.csv")),
    link_mode="exact",
    node_splits=10 * 1 * 2,
    deterministic=(f"{TRAIN}/embeddings.csv", "out/attack/report.csv",
                   "out/eval-attr/report.csv", "out/eval-link/report.csv"),
    params={"synth": {"n": 500, "private_classes": 2, "utility_classes": 4,
                      "p_in": 0.08, "p_out": 0.01, "rho": 0.3, "flip_rate": 0.1},
            "model": {"variant": "APGE", "d": 64, "d_prime": 16, "lambda": 1.0, "T": 200},
            "eval": {"classifiers": ["mlp"], "fraction": 0.5, "repeats": 10}},
)

GAE = Workload(
    name="gae-n6000-sampled",
    why="GAE train on a file-loaded 6000-node sparse graph, so auto picks the "
        "sampled link loss; no adversary and no audit",
    ops=(Op("train", "gae.json", TRAIN),),
    link_mode="sampled",
    deterministic=(f"{TRAIN}/embeddings.csv",),
    # one round varies by about 15 % with the host's memory load (the
    # sampled loss faults in about 600 MB per call), so the median of three
    min_rounds=3,
    params={"n": 6000, "blocks": 2, "utility_classes": 4, "p_in": 0.0066, "p_out": 0.0007,
            "rho": 0.3, "flip_rate": 0.1,
            "model": {"variant": "GAE", "d": 64, "T": 3}},
)

AUDIT = Workload(
    name="audit-n2000",
    why="attack, eval-attr and eval-link only, on a planted 2000-node embedding "
        "whose Bayes accuracy is known; no training",
    ops=(Op("attack", "audit-node.json", "out/attack", "inputs/planted.csv"),
         Op("eval-attr", "audit-node.json", "out/eval-attr", "inputs/planted.csv"),
         Op("eval-link", "audit-link.json", "out/eval-link", "inputs/planted.csv")),
    node_splits=3 * 3 * 2,
    deterministic=("out/attack/report.csv", "out/eval-attr/report.csv",
                   "out/eval-link/report.csv"),
    params={"n": 2000, "blocks": 2, "utility_classes": 4, "p_in": 0.004, "p_out": 0.0005,
            "rho": 0.0, "flip_rate": 0.1, "d": 64,
            # private classes sit at -delta/2 and +delta/2 on dimension 0, the
            # utility classes at sep * e_k on dimensions 1..4, unit noise
            "delta": 1.5, "sep": 1.5,
            "node_classifiers": ["softmax", "mlp", "knn"], "link_classifiers": ["softmax", "mlp"],
            "repeats": 3},
)

WORKLOADS = {w.name: w for w in (APGE, GAE, AUDIT)}

SCHEMA = {"private": {"classes": 2, "role": "private"},
          "utility": {"classes": 4, "role": "utility"},
          "feature": {"classes": 4, "role": "feature"}}


def derived_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def sbm_graph(rng, n: int, blocks: int, p_in: float, p_out: float):
    """Balanced block labels 1..blocks and the upper-triangle edge list of a
    stochastic block model over them, drawn one row at a time."""
    labels = (np.arange(n) % blocks + 1)[rng.permutation(n)]
    rows = []
    for i in range(n - 1):
        p = np.where(labels[i + 1:] == labels[i], p_in, p_out)
        j = i + 1 + np.flatnonzero(rng.random(n - i - 1) < p)
        rows.append(np.column_stack([np.full(j.size, i), j]))
    return labels, np.concatenate(rows).astype(np.int64)


def utility_labels(rng, private, classes: int, rho: float, flip_rate: float):
    """Utility copies a fixed map of the private label with probability rho,
    else uniform; the feature attribute is the utility label with flips."""
    n = private.size
    derived = (private - 1) % classes + 1
    utility = np.where(rng.random(n) < rho, derived, rng.integers(1, classes + 1, n))
    flips = rng.random(n) < flip_rate
    feature = np.where(flips, (utility - 1 + rng.integers(1, classes, n)) % classes + 1, utility)
    return utility.astype(np.int64), feature.astype(np.int64)


def write_graph(root: Path, seed: int, p: dict):
    """Generate the workload's graph and write edges.tsv / attributes.csv."""
    from privemb.graphcore import AttributeSchema, Graph, save_graph

    rng = derived_rng(seed, "graph")
    private, edges = sbm_graph(rng, p["n"], p["blocks"], p["p_in"], p["p_out"])
    utility, feature = utility_labels(rng, private, p["utility_classes"], p["rho"], p["flip_rate"])
    g = Graph(n=p["n"], edges=edges,
              attributes={"private": private, "utility": utility, "feature": feature})
    save_graph(g, AttributeSchema.from_config(SCHEMA), root / "inputs/edges.tsv",
               root / "inputs/attributes.csv")
    return private, utility


def planted_embedding(seed: int, private, utility, p: dict) -> np.ndarray:
    rng = derived_rng(seed, "planted")
    z = rng.standard_normal((private.size, p["d"]))
    z[:, 0] += np.where(private == 1, -0.5, 0.5) * p["delta"]
    z[np.arange(private.size), utility] += p["sep"]
    return z


def bayes_private(delta: float) -> float:
    """Two unit-variance Gaussians delta apart, equal priors: Phi(delta/2)."""
    return 0.5 * (1.0 + math.erf(delta / 2.0 / math.sqrt(2.0)))


def bayes_utility(sep: float, classes: int) -> float:
    """Means sep * e_k in orthogonal unit-noise dimensions, equal priors: the
    Bayes rule picks the largest coordinate, so P(correct) is
    integral phi(x - sep) Phi(x)^(classes - 1) dx."""
    x = np.linspace(sep - 12.0, sep + 12.0, 48001)
    phi = np.exp(-0.5 * (x - sep) ** 2) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
    return float(np.sum(phi * cdf ** (classes - 1)) * (x[1] - x[0]))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _data_section(root: Path) -> dict:
    return {"edges": str(root / "inputs/edges.tsv"),
            "attributes": str(root / "inputs/attributes.csv"), "schema": SCHEMA}


def setup(w: Workload, root: Path, seed: int) -> None:
    """Write every input of one workload under ``root`` (overwriting)."""
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    if w is APGE:
        conf = dict(w.params, seed=seed, output=str(root / TRAIN))
        _write_json(root / "apge.json", conf)
        # README quick start, step one: `privemb synth` writes the graph files
        # the checks read back
        from privemb.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["synth", "--config", str(root / "apge.json"), "--out", str(root / "inputs")])
        if rc != 0:
            raise RuntimeError(f"privemb synth exited {rc}")
    elif w is GAE:
        write_graph(root, seed, w.params)
        _write_json(root / "gae.json", {"seed": seed, "data": _data_section(root),
                                        "model": w.params["model"]})
    else:
        p = w.params
        private, utility = write_graph(root, seed, p)
        z = planted_embedding(seed, private, utility, p)
        np.savetxt(root / "inputs/planted.csv", z, fmt="%.17g", delimiter=",",
                   header=",".join(f"z_{j}" for j in range(p["d"])), comments="")
        for name, kinds in (("audit-node.json", p["node_classifiers"]),
                            ("audit-link.json", p["link_classifiers"])):
            _write_json(root / name, {"seed": seed, "data": _data_section(root),
                                      "eval": {"classifiers": kinds, "repeats": p["repeats"]}})
