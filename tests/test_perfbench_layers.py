"""The traced benchmark looks up library functions by name; keep them there."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_name_is_a_callable_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.WRAPS
    for module, attribute, *_ in layers.WRAPS:
        mod = importlib.import_module(f"clusterseeds.{module}")
        assert callable(getattr(mod, attribute, None)), f"clusterseeds.{module}.{attribute}"
