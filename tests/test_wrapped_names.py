"""Every function the benchmark tracer wraps still exists in starnambu.

``perfbench/spans.py`` names, per layer, the functions and ``Class.method``
entries it times.  A deleted or renamed one would only show when the traced
benchmark runs, so this reads that list (without importing the benchmark
package) and resolves each name the way ``spans.install`` does.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped() -> dict:
    spec = importlib.util.spec_from_file_location("_wrapped_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_wrapped_name_resolves():
    missing = []
    for layer, names in _wrapped().items():
        home = importlib.import_module(f"starnambu.{layer}")
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                target = vars(getattr(home, cls_name, object)).get(attr)
            else:
                target = getattr(home, name, None)
            if not callable(target):
                missing.append(f"{layer}.{name}")
    assert not missing, f"wrapped names gone from starnambu: {missing}"
