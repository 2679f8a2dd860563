"""Every boundary the benchmark wraps exists in the package.

`bench/spans.py` skips a name its importing module does not have, so a
rename or a move would silently zero that layer's per-layer metrics."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = load_spans()
    assert spans.FUNCTIONS and spans.METHODS
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.FUNCTIONS
               if not hasattr(importlib.import_module(module), attr)]
    missing += [f"{module}.{cls}.{meth}" for module, cls, meth, _ in spans.METHODS
                if meth not in vars(getattr(importlib.import_module(module), cls))]
    assert missing == []
