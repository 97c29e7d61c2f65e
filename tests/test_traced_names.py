"""The benchmark's tracer wraps public vclab names; each one must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"vclab.{layer}")
        for attr in names:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                # the tracer patches the method in the class's own __dict__
                found = isinstance(cls, type) and meth in cls.__dict__
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"vclab.{layer}.{attr}")
    assert not missing, f"traced names missing: {missing}"
