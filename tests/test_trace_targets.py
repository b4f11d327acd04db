"""The benchmark's traced run (``perfbench/spans.py``) wraps nilcert
functions and methods by name; every name it wraps must resolve, so a
rename fails here rather than in a traced run."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    """``LAYERS`` of the span module, loaded by path without installing
    its wrappers (it imports only json, sys and time)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves():
    missing = []
    for layer, targets in _layers().items():
        for mod, cls, attr in targets:
            module = importlib.import_module(f"nilcert.{mod}")
            if cls is None:
                found = hasattr(module, attr)
            else:
                # the wrapper is set on the class that defines the method
                found = attr in vars(getattr(module, cls, object))
            if not found:
                missing.append((layer, mod, cls, attr))
    assert not missing
