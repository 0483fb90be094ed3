"""The benchmark tracer's span table names functions that exist.

``bench/tracer.py`` skips a span whose function it cannot find, so a
renamed function would silently read as 0 s. The table is read from the
file without installing the tracer. ``Tracer.install`` also patches
``evaluation.fit_classifier`` by name, outside the table; a missing one
would crash a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# functions the tracer patches by name outside SPANS
PATCHED = {"evaluation.fit": ("evaluation", "fit_classifier")}


def _spans():
    spec = importlib.util.spec_from_file_location("_bench_tracer_spans", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def _resolves(module, dotted):
    owner = module
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


@pytest.mark.parametrize("name,target", sorted(_spans().items()) + sorted(PATCHED.items()))
def test_span_names_an_existing_function(name, target):
    mod_name, attrs = target
    module = importlib.import_module(f"privemb.{mod_name}")
    attrs = attrs if isinstance(attrs, tuple) else (attrs,)
    assert any(_resolves(module, attr) for attr in attrs), \
        f"span {name}: none of {attrs} is in privemb.{mod_name}"
