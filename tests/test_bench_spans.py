"""Every boundary the benchmark wraps exists in the package, and the
pipeline still calls it.

`bench/spans.py` skips a name its importing module does not have, so a
rename or a move would silently zero that layer's per-layer metrics; a
wrapped name the pipeline no longer calls would do the same."""

import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from arrmono.cli import main
from conftest import FIXTURES

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


def test_pipeline_records_every_wrapped_layer():
    """The golden verify job and one Aomoto-side specialize job record a span
    for every per-layer metric; cli.job is the harness's own span."""
    spans = load_spans()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "-a", str(FIXTURES / "pencil4.arr"),
                         "-p", str(FIXTURES / "pencil4.pres"),
                         "-e", str(FIXTURES / "pencil4_twist12.endo"),
                         "-c", str(FIXTURES / "pencil4_twist12.cert"),
                         "--xi", str(FIXTURES / "pencil4_proj_nonres.txt"),
                         "--xi", str(FIXTURES / "pencil4_proj_res.txt"),
                         "--format", "structured"]) == 0
            validations = sum(s.name == "fox.validate" for s in tracer.spans)
            assert main(["specialize", "-a", str(FIXTURES / "pencil4.arr"),
                         "--ring", "y", "--at", "2,3,1/6,1"]) == 0
    finally:
        restore()
    assert validations == 1
    recorded = {s.name for s in tracer.spans}
    assert set(spans.SPAN_METRICS.values()) - {"cli.job"} - recorded == set()
