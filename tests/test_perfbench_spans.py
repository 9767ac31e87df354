"""perfbench's tracer patches liptrack by name: every ``SPANS`` target must
still resolve, or a benchmark run would lose that span.

``perfbench/tests`` runs separately (both test directories have a
``conftest.py``), so this check loads ``perfbench/tracing.py`` by file path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_name_resolves():
    spans = load_spans()
    assert spans
    for name, (module, attr, _counts) in spans.items():
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # The tracer patches the class's own dict entry.
            assert meth in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr)), name
