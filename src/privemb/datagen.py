"""Synthetic attributed graphs with planted private-attribute leakage.

Edges follow a stochastic block model over the private label, so topology
leaks the private attribute even when the attribute column is removed from
the features. The utility label correlates with the private one at rate
``rho`` and a third feature-only attribute is a noisy copy of the utility
label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphcore import AttributeSchema, Graph
from .numkit import Rng, derive_seed

# synth_graph draws its edges a block of rows at a time, at most this many
# node pairs (rows x n) per block; a 500-node graph is one block
_EDGE_BLOCK = 1 << 18


@dataclass(frozen=True)
class SynthParams:
    n: int = 500
    private_classes: int = 2
    utility_classes: int = 4
    p_in: float = 0.08
    p_out: float = 0.01
    rho: float = 0.3
    flip_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.private_classes < 2 or self.utility_classes < 2:
            raise ValueError("class counts must be at least 2")
        if self.n < self.private_classes * self.utility_classes:
            raise ValueError("n is too small for the class counts")
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise ValueError("need 0 <= p_out <= p_in <= 1")
        if not 0.0 <= self.rho <= 1.0 or not 0.0 <= self.flip_rate <= 1.0:
            raise ValueError("rho and flip_rate must lie in [0, 1]")


def synth_schema(params: SynthParams) -> AttributeSchema:
    return AttributeSchema(
        names=("private", "utility", "feature"),
        classes={"private": params.private_classes,
                 "utility": params.utility_classes,
                 "feature": params.utility_classes},
        roles={"private": "private", "utility": "utility", "feature": "feature"},
    )


def synth_graph(params: SynthParams):
    """Generate (graph, schema) deterministically from ``params.seed``.

    Private labels are balanced round-robin assignments, shuffled. Each
    node pair draws an edge with probability p_in (same private label) or
    p_out (different). The utility label copies a fixed map of the private
    label with probability rho and is uniform otherwise; the feature
    attribute copies the utility label and flips to a different uniform
    class at ``flip_rate``. All nodes are labeled.
    """
    n = params.n
    m_p = params.private_classes
    m_u = params.utility_classes

    rng_priv = Rng(derive_seed(params.seed, "synth/private"))
    private = np.arange(n, dtype=np.int64) % m_p + 1
    private = private[rng_priv.permutation(n)]

    # one uniform per upper-triangle pair in row-major order, drawn a block
    # of rows at a time so that memory stays O(n + m). As p_out <= p_in, only
    # a draw under p_in can keep its pair: just those get their (i, j) and
    # the per-pair comparison
    rng_edges = Rng(derive_seed(params.seed, "synth/edges"))
    step, blocks = max(1, _EDGE_BLOCK // n), []
    for s in range(0, n - 1, step):
        rows = np.arange(s, min(s + step, n - 1))
        # row i holds the pairs (i, i+1..n-1); starts[r] is row s+r's offset
        starts = np.concatenate([[0], np.cumsum(n - 1 - rows)])
        u = rng_edges.random(starts[-1])
        flat = np.flatnonzero(u < params.p_in)
        r = np.searchsorted(starts, flat, side="right") - 1
        iu = rows[r]
        ju = iu + 1 + (flat - starts[r])
        keep = u[flat] < np.where(private[iu] == private[ju], params.p_in, params.p_out)
        blocks.append(np.column_stack([iu[keep], ju[keep]]))
    edges = np.concatenate(blocks)

    rng_util = Rng(derive_seed(params.seed, "synth/utility"))
    derived = ((private - 1) % m_u) + 1
    use_derived = rng_util.random(n) < params.rho
    uniform = rng_util.integers(1, m_u + 1, size=n)
    utility = np.where(use_derived, derived, uniform)

    rng_feat = Rng(derive_seed(params.seed, "synth/feature"))
    flips = rng_feat.random(n) < params.flip_rate
    offsets = rng_feat.integers(1, m_u, size=n)
    flipped = ((utility - 1 + offsets) % m_u) + 1
    feature = np.where(flips, flipped, utility)

    g = Graph(n=n, edges=edges,
              attributes={"private": private, "utility": utility, "feature": feature})
    return g, synth_schema(params)
