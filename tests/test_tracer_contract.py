"""The entry points that the benchmark's tracer wraps still exist, so
removing one fails here, in seconds, rather than in the benchmark
self-test.  ``perfbench/tracer.py`` is loaded as it stands; nothing is
wrapped."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    """Each entry resolves as ``tracer.install`` resolves it: a method
    through its class's ``__dict__``, a function as a callable attribute
    of its module."""
    import pattgf.cli  # noqa: F401  (registers every pattgf module)

    tracer = load_tracer()
    assert tracer.LAYER_ENTRY_POINTS
    for span_name, module, attr in tracer.LAYER_ENTRY_POINTS:
        assert module in sys.modules, (span_name, module)
        owner, name = tracer._resolve(module, attr)
        if isinstance(owner, type):
            assert name in owner.__dict__, (span_name, attr)
        else:
            assert callable(getattr(owner, name)), (span_name, attr)

