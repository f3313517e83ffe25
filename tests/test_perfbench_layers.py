"""The benchmark tracer wraps netdiag functions by module attribute; a
rename in netdiag must fail here rather than break the traced benchmark."""

import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_attribute_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.LAYER_CALLS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in layers.LAYER_CALLS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
