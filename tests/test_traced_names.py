"""Name guard: every function the benchmark tracer patches exists.

perfbench/tracer.py wraps each (module, attribute) of its TRACED table in
sinrdist, a dotted attribute naming a method found in the class __dict__, and
a traced benchmark round fails with an AttributeError on the first name the
package no longer has. The tracer imports only the standard library, so it
is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def _resolves(module_name, attr):
    owner = importlib.import_module(f"sinrdist.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return method in vars(getattr(owner, cls_name, object))
    return hasattr(owner, attr)


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [f"{module}.{attr}" for module, attr, _ in traced if not _resolves(module, attr)]
    assert missing == []
