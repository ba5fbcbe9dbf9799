"""Every byte the manifest's commands write, print and return, against the
committed `tests/golden/manifest.json` (see `tests/golden/regenerate.py`)."""

import importlib.util
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate",
                                                  GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_manifest():
    regenerate = load_regenerate()
    committed = json.loads((GOLDEN / "manifest.json").read_text())
    # The bytes are pinned for one numpy, Python and platform; on another
    # this fails by name rather than by a list of hashes.
    assert committed["environment"] == regenerate.environment(), (
        f"manifest made on {committed['environment']}, "
        f"this is {regenerate.environment()}: rerun tests/golden/regenerate.py "
        "on the parent commit here")
    fresh = regenerate.compute()
    assert regenerate.differences(committed, fresh) == []
