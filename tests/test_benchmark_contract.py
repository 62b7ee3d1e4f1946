"""Every function the benchmark's tracer patches by name still exists.

perfbench/tracer.py wraps a fixed list of (module, attribute) pairs; a rename
in the library would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module.SPANS


SPANS = traced_spans()


@pytest.mark.parametrize("module,attribute,span", SPANS, ids=[span for _, _, span in SPANS])
def test_traced_function_resolves(module, attribute, span):
    owner = importlib.import_module(module)
    for name in attribute.split("."):
        assert hasattr(owner, name), f"{module}.{attribute} (span {span}) is gone"
        owner = getattr(owner, name)
    assert callable(owner)
