"""Command-line entry point.

Every command takes a JSON run configuration. Exit codes: 0 success,
1 configuration error, 2 input or output error (also data too thin to
train, split or evaluate, and running out of memory), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import numkit
from .datagen import SynthParams, synth_graph
from .evaluation import SWEEP_AXES, ClassifierSpec, audit, sweep, write_report
from .gradcheck import run_suite
from .graphcore import AttributeSchema, InputError, load_graph, save_graph
from .numkit import NumericError, derive_seed
from .training import (
    TRACE_COLUMNS,
    ConfigError,
    TrainConfig,
    export_embeddings,
    export_trace,
    load_embeddings,
    train,
)

# the JSON model key of each TrainConfig field, where the names differ
MODEL_KEYS = {"lam": "lambda", "iterations": "T", "link_mode": "link_loss",
              "negs_per_pos": "negatives_per_positive"}
_MODEL_FIELDS = [f for f in fields(TrainConfig) if f.name != "seed"]

MODEL_DEFAULTS = {MODEL_KEYS.get(f.name, f.name): f.default for f in _MODEL_FIELDS}

EVAL_DEFAULTS = {
    "classifiers": ["mlp"],
    "fraction": 0.5,
    "utility_fraction": 0.7,
    "repeats": 10,
    "lambda_values": [0.0, 1.0, 10.0, 100.0],
    "dprime_values": [2, 4, 8, 16],
    "fractions": [0.1, 0.3, 0.5, 0.7, 0.9],
    "sweep_repeats": 5,
}

SYNTH_DEFAULTS = {f.name: f.default for f in fields(SynthParams) if f.name != "seed"}

# value types of the keys whose default is None (filled in per variant)
_NONE_DEFAULT_TYPES = {"d_prime": int, "lambda": float, "lr_gen": float}


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _is_kind(value, kind: type) -> bool:
    """A float accepts an int; no kind accepts a bool."""
    return (isinstance(value, (int, float) if kind is float else kind)
            and not isinstance(value, bool))


def _merge_section(defaults: dict, given, section: str) -> dict:
    if given is None:
        return copy.deepcopy(defaults)
    if not isinstance(given, dict):
        raise ConfigError(f"'{section}' must be an object")
    merged = copy.deepcopy(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' in '{section}'")
        unset = defaults[key] is None
        kind = _NONE_DEFAULT_TYPES[key] if unset else type(defaults[key])
        if not (_is_kind(value, kind) or (unset and value is None)):
            raise ConfigError(f"'{section}.{key}' must be {kind.__name__}, "
                              f"not {type(value).__name__}")
        elem, items = kind, [value]
        if kind is list:
            # each list default is non-empty, of one element type
            elem, items = type(defaults[key][0]), value
            for item in value:
                if not _is_kind(item, elem):
                    raise ConfigError(f"'{section}.{key}' elements must be {elem.__name__}, "
                                      f"not {type(item).__name__}")
        # an int key's value must fit int64, and a float key's integer a float
        big = sys.float_info.max
        low, high = (-2**63, 2**63 - 1) if elem is int else (-big, big)
        if any(isinstance(item, int) and not low <= item <= high for item in items):
            raise ConfigError(f"'{section}.{key}' is out of range")
        merged[key] = value
    return merged


def resolve_config(raw: dict) -> dict:
    conf = {
        "seed": raw.get("seed", 0),
        "output": raw.get("output", "out"),
        "model": _merge_section(MODEL_DEFAULTS, raw.get("model"), "model"),
        "eval": _merge_section(EVAL_DEFAULTS, raw.get("eval"), "eval"),
    }
    if not _is_kind(conf["seed"], int):
        raise ConfigError("seed must be an integer")
    if not isinstance(conf["output"], str):
        raise ConfigError("output must be a string")
    ev = conf["eval"]
    # the audit's training fractions, one per audit or one per sweep value
    for key, values in (("fraction", [ev["fraction"]]),
                        ("utility_fraction", [ev["utility_fraction"]]),
                        ("fractions", ev["fractions"])):
        if not all(0.1 <= f <= 0.9 for f in values):
            raise ConfigError(f"'eval.{key}' must lie in [0.1, 0.9]")
    for key in ("repeats", "sweep_repeats"):
        if ev[key] < 1:
            raise ConfigError(f"'eval.{key}' must be at least 1")
    known = {"seed", "output", "model", "eval", "data", "synth"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown top-level key '{key}'")
    if "data" in raw and "synth" in raw:
        raise ConfigError("config may declare either 'data' or 'synth', not both")
    if "data" in raw:
        data = raw["data"]
        for need in ("edges", "attributes", "schema"):
            if not isinstance(data, dict) or need not in data:
                raise ConfigError(f"'data' needs '{need}'")
            if need != "schema" and not isinstance(data[need], str):
                raise ConfigError(f"'data.{need}' must be a path string")
        conf["data"] = data
    if "synth" in raw:
        conf["synth"] = _merge_section(SYNTH_DEFAULTS, raw["synth"], "synth")
    return conf


def build_train_config(conf: dict) -> TrainConfig:
    model = {f.name: conf["model"][MODEL_KEYS.get(f.name, f.name)] for f in _MODEL_FIELDS}
    return TrainConfig(seed=conf["seed"], **model).resolved()


def load_dataset(conf: dict):
    if "data" in conf:
        data = conf["data"]
        schema = AttributeSchema.from_config(data["schema"])
        g = load_graph(data["edges"], data["attributes"], schema)
        return g, schema
    if "synth" in conf:
        s = conf["synth"]
        try:
            params = SynthParams(seed=derive_seed(conf["seed"], "synth"), **s)
        except ValueError as e:
            raise ConfigError(f"bad synth parameters: {e}")
        return synth_graph(params)
    raise ConfigError("config needs a 'data' or 'synth' section")


@contextmanager
def _outputs(conf: dict, args, *names):
    """The output folder and a temporary path in it for each of the files
    ``names``, whose copies from an earlier run are removed first (not
    config_resolved.json: it may be the config being run). If the block
    succeeds, its files and config_resolved.json are moved onto their
    names; if it fails, none of them is left behind."""
    out = Path(args.out) if args.out else Path(conf["output"])
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        (out / name).unlink(missing_ok=True)
    temps = {name: out / f"{name}.tmp" for name in (*names, "config_resolved.json")}
    try:
        yield (out, *(temps[name] for name in names))
        with open(temps["config_resolved.json"], "w", encoding="utf-8") as fh:
            json.dump(conf, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for name, temp in temps.items():
            os.replace(temp, out / name)
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise


def _classifier_specs(conf: dict):
    kinds = conf["eval"]["classifiers"]
    if not kinds:
        raise ConfigError("eval.classifiers must be a non-empty list")
    # an unknown kind is a ValueError, reported as a config error
    return [ClassifierSpec(kind=k) for k in kinds]


def cmd_synth(conf: dict, args) -> int:
    if "synth" not in conf:
        raise ConfigError("synth command needs a 'synth' section")
    with _outputs(conf, args, "edges.tsv", "attributes.csv") as (out, edges, attributes):
        g, schema = load_dataset(conf)
        save_graph(g, schema, edges, attributes)
    print(f"wrote {out / 'edges.tsv'} ({len(g.edges)} edges) and "
          f"{out / 'attributes.csv'} ({g.n} nodes)")
    return 0


def cmd_train(conf: dict, args) -> int:
    with _outputs(conf, args, "embeddings.csv", "loss_trace.csv") as (out, embeddings, trace):
        cfg = build_train_config(conf)
        g, schema = load_dataset(conf)
        result = train(g, schema, cfg)
        export_embeddings(result.Z, embeddings)
        export_trace(result.trace, trace)
    last = result.trace[-1]
    parts = ", ".join(f"{k}={last[k]:.4f}" for k in TRACE_COLUMNS[1:] if last[k] is not None)
    print(f"{cfg.variant}: {cfg.iterations} iterations in {result.wall_time:.1f}s ({parts})")
    print(f"wrote {out / 'embeddings.csv'}")
    return 0


# seed labels of the tasks each audit command runs
AUDIT_LABELS = {"attack": {"privacy": "eval/attack"},
                "eval-attr": {"utility": "eval/{name}"},
                "eval-link": {"link": "eval/link"}}


def cmd_audit(conf: dict, args) -> int:
    with _outputs(conf, args, "report.csv") as (out, report):
        cfg = build_train_config(conf)
        specs = _classifier_specs(conf)
        g, schema = load_dataset(conf)
        z = load_embeddings(args.embeddings)
        if z.shape[0] != g.n:
            raise InputError(f"embeddings have {z.shape[0]} rows for a {g.n}-node graph")
        records = audit(z, g, schema, specs, AUDIT_LABELS[args.command], cfg,
                        repeats=conf["eval"]["repeats"], fraction=conf["eval"]["fraction"],
                        utility_fraction=conf["eval"]["utility_fraction"])
        write_report(records, report)
    for r in records:
        spread = "" if r.task == "link" else f" +/- {r.std:.4f}"
        print(f"{r.task} {r.classifier} {r.metric}: {r.mean:.4f}{spread}")
    return 0


def cmd_sweep(conf: dict, args) -> int:
    with _outputs(conf, args, "report.csv") as (out, report):
        cfg = build_train_config(conf)
        specs = _classifier_specs(conf)
        axis = args.axis
        values = {"lambda": conf["eval"]["lambda_values"],
                  "dprime": conf["eval"]["dprime_values"],
                  "fraction": conf["eval"]["fractions"]}[axis]
        if not values:
            raise ConfigError(f"no sweep values configured for axis '{axis}'")
        g, schema = load_dataset(conf)
        records = sweep(axis, values, g, schema, cfg, specs,
                        repeats=conf["eval"]["sweep_repeats"],
                        fraction=conf["eval"]["fraction"],
                        utility_fraction=conf["eval"]["utility_fraction"],
                        seed=derive_seed(conf["seed"], f"sweep/{axis}"))
        write_report(records, report)
    print(f"wrote {out / 'report.csv'} ({len(records)} rows)")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_suite()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  max_err={r.max_error:.3e}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return 0 if failed == 0 else 3


HANDLERS = {"synth": cmd_synth, "train": cmd_train, "attack": cmd_audit,
            "eval-attr": cmd_audit, "eval-link": cmd_audit, "sweep": cmd_sweep}


def main(argv=None) -> int:
    # one BLAS thread: output bytes must not depend on the core count
    numkit.pin_blas_threads()
    parser = argparse.ArgumentParser(
        prog="privemb",
        description="Privacy-preserving graph embeddings and inference-attack audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_config=True, needs_embeddings=False):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--deterministic", action="store_true",
                       help="accepted and ignored: every run is deterministic and "
                            "checks for non-finite values")
        if needs_embeddings:
            p.add_argument("--embeddings", required=True, help="embeddings CSV to audit")
        return p

    add("synth", "generate a synthetic graph and write it to disk")
    add("train", "train one variant and export the embedding")
    add("attack", "run the inference attack on an exported embedding",
        needs_embeddings=True)
    add("eval-attr", "predict utility attributes from an exported embedding",
        needs_embeddings=True)
    add("eval-link", "score link prediction on the held-out edges",
        needs_embeddings=True)
    p_sweep = add("sweep", "sweep lambda, dprime, or the knowledge fraction")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    add("gradcheck", "verify every kernel and loss against finite differences",
        needs_config=False)

    args = parser.parse_args(argv)
    try:
        # a non-finite value is reported once, by the check that meets it
        # (NumericError), not also by numpy's warnings on the way there
        with np.errstate(all="ignore"):
            if args.command == "gradcheck":
                return cmd_gradcheck(args)
            conf = resolve_config(load_config(args.config))
            return HANDLERS[args.command](conf, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (InputError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
