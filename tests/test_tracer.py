"""The benchmark's tracer wraps library functions by the module attribute
their callers look up: each must still exist, so that a rename fails here
and not only in a traced benchmark run."""

import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def _load_tracer():
    """bench/tracer.py as a module, leaving no bytecode beside it."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def test_every_traced_attribute_exists_and_is_callable():
    wraps = _load_tracer().WRAPS
    assert len(wraps) > 30
    missing = [
        (mod.__name__, attr) for mod, attr, _, _ in wraps if not callable(getattr(mod, attr, None))
    ]
    assert not missing
