"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions of the privemb modules with
wrappers that record a span per call. A function is replaced under every
name that binds it in any loaded privemb module, so ``training`` calling
its imported ``encoder_forward`` is traced the same as ``models`` calling
its own. Time is process CPU time, like the end-to-end metrics.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# metric name -> (module, attribute); a tuple of attributes shares one metric
SPANS = {
    "datagen.synth_graph": ("datagen", "synth_graph"),
    "graphcore.save_graph": ("graphcore", "save_graph"),
    "graphcore.load_graph": ("graphcore", "load_graph"),
    "graphcore.split_edges": ("graphcore", "split_edges"),
    "graphcore.normalize_adjacency": ("graphcore", "normalize_adjacency"),
    "training.train": ("training", "train"),
    "training.prepare_batch": ("training", "prepare_batch"),
    "training.export_embeddings": ("training", "export_embeddings"),
    "training.load_embeddings": ("training", "load_embeddings"),
    # release_embedding runs its forward through gcn_encode today
    "models.encoder_forward": ("models", ("encoder_forward", "gcn_encode")),
    "models.encoder_backward": ("models", "encoder_backward"),
    "models.link_loss_exact": ("models", "link_loss_exact"),
    "models.link_loss_sampled": ("models", "link_loss_sampled"),
    "models.sample_negative_pairs": ("models", "sample_negative_pairs"),
    "models.attr_loss": ("models", "attr_loss"),
    "models.attacker_loss": ("models", "attacker_loss"),
    "models.disc_loss": ("models", "disc_loss"),
    "models.gen_fool_loss": ("models", "gen_fool_loss"),
    "numkit.bce_with_logits": ("numkit", "bce_with_logits"),
    "numkit.spmm": ("numkit", "spmm"),
    "numkit.softmax_cross_entropy": ("numkit", "softmax_cross_entropy"),
    "numkit.Adam.step": ("numkit", "Adam.step"),
    "evaluation.link_eval": ("evaluation", "link_eval"),
    "evaluation.split_nodes": ("graphcore", "split_nodes"),
}

# spans whose tracemalloc peak is recorded
MEMORY_SPANS = ("models.link_loss_sampled", "evaluation.predict.knn")

# spans that count the Rng draws made while they are open
RNG_SPANS = ("graphcore.split_edges", "evaluation.link_eval")
RNG_METHODS = ("random", "uniform", "integers", "permutation", "randn", "glorot")


class Tracer:
    """Records closed spans as (name, start, end, parent index) and keeps
    per-name totals: calls, busy time, self time, Rng draws, memory peak."""

    def __init__(self):
        self.spans = []
        self.stack = []          # open spans: [name, start, child time, index]
        self.totals = {}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _total(self, name):
        return self.totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                             "rng_calls": 0, "peak_mb": 0.0})

    def span(self, name, fn, *args, **kwargs):
        if any(frame[0] == name for frame in self.stack):
            return fn(*args, **kwargs)       # a nested call of the same metric
        memory = name in MEMORY_SPANS
        parent = self.stack[-1][3] if self.stack else None
        index = len(self.spans)
        self.spans.append(None)
        if memory:
            tracemalloc.start()
        frame = [name, time.process_time(), 0.0, index]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.process_time()
            self.stack.pop()
            total = self._total(name)
            if memory:
                total["peak_mb"] = max(total["peak_mb"], tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
            duration = end - frame[1]
            total["calls"] += 1
            total["s"] += duration
            total["self_s"] += duration - frame[2]
            if self.stack:
                self.stack[-1][2] += duration
            self.spans[index] = (name, frame[1], end, parent)

    def count_rng(self):
        for frame in self.stack:
            if frame[0] in RNG_SPANS:
                self._total(frame[0])["rng_calls"] += 1

    def reset(self):
        self.spans = []
        self.totals = {}

    # -- patching ----------------------------------------------------------

    def _replace(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "privemb" and not mod_name.startswith("privemb."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self):
        import privemb.cli  # noqa: F401  (loads every module to patch)
        import privemb.evaluation as evaluation
        import privemb.numkit as numkit

        tracer = self
        for name, (mod_name, attrs) in SPANS.items():
            module = sys.modules[f"privemb.{mod_name}"]
            for attr in (attrs if isinstance(attrs, tuple) else (attrs,)):
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = getattr(cls, meth)
                    setattr(cls, meth, self._wrapped(name, original))
                    self._undo.append((cls, meth, original))
                elif hasattr(module, attr):
                    original = getattr(module, attr)
                    self._replace(original, self._wrapped(name, original))

        for meth in RNG_METHODS:
            original = getattr(numkit.Rng, meth)

            def counted(*args, _original=original, **kwargs):
                tracer.count_rng()
                return _original(*args, **kwargs)

            setattr(numkit.Rng, meth, counted)
            self._undo.append((numkit.Rng, meth, original))

        # fit_classifier returns a predictor: time the fit and the predictions
        # under the classifier kind
        fit = evaluation.fit_classifier

        def fit_classifier(spec, *args, **kwargs):
            kind = spec.kind
            predict = tracer.span(f"evaluation.fit.{kind}", fit, spec, *args, **kwargs)
            return lambda q: tracer.span(f"evaluation.predict.{kind}", predict, q)

        self._replace(fit, fit_classifier)

    def _wrapped(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
