"""Privacy-preserving graph embeddings with adversarial training.

Learns node embeddings for attributed graphs while suppressing a chosen
private attribute, and audits the result with inference attacks, attribute
prediction, and link prediction.
"""

from .numkit import Adam, NumericError, Rng, ShapeError, derive_seed, grad_check
from .graphcore import (
    AttributeSchema,
    EdgeSplit,
    Graph,
    InputError,
    NodeSplit,
    load_graph,
    normalize_adjacency,
    save_graph,
    split_edges,
    split_nodes,
)
from .models import VARIANTS, ModelState
from .training import ConfigError, EmbeddingResult, TrainConfig, export_embeddings, load_embeddings, train
from .evaluation import ClassifierSpec, EvalRecord, accuracy, audit, link_eval, macro_f1, sweep, write_report
from .datagen import SynthParams, synth_graph

__version__ = "0.1.0"
