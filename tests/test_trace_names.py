"""The benchmark tracer's span table names functions that exist.

``bench/tracer.py`` skips a span whose function it cannot find, so a
renamed function would silently read as 0 s. The tables are read from the
file without installing the tracer. ``Tracer.install`` also patches
``evaluation.fit_classifier`` by name, outside the table, and each
``numkit.Rng`` method in RNG_METHODS; a missing one would crash a traced
run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from privemb.numkit import Rng

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# functions the tracer patches by name outside SPANS
PATCHED = {"evaluation.fit": ("evaluation", "fit_classifier")}


def _table(name):
    spec = importlib.util.spec_from_file_location("_bench_tracer_spans", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


def _resolves(module, dotted):
    owner = module
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


@pytest.mark.parametrize("name,target", sorted(_table("SPANS").items()) + sorted(PATCHED.items()))
def test_span_names_an_existing_function(name, target):
    mod_name, attrs = target
    module = importlib.import_module(f"privemb.{mod_name}")
    attrs = attrs if isinstance(attrs, tuple) else (attrs,)
    assert any(_resolves(module, attr) for attr in attrs), \
        f"span {name}: none of {attrs} is in privemb.{mod_name}"


@pytest.mark.parametrize("method", _table("RNG_METHODS"))
def test_rng_method_exists(method):
    assert callable(getattr(Rng, method, None)), f"numkit.Rng has no method {method}"
