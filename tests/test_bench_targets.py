"""The benchmark's span tracer (perfbench/spans.py) wraps package functions
by module and attribute name.  A traced name that no longer exists breaks
`perfbench/run.py --trace 1`, so every one must resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for module_name, attr, _, _ in targets:
        assert module_name.startswith("spincat.")
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            if not hasattr(owner, part):
                missing.append(f"{module_name}.{attr}")
                break
            owner = getattr(owner, part)
        else:
            assert callable(owner), f"{module_name}.{attr}"
    assert missing == []
