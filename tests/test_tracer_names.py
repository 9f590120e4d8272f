"""The benchmark tracer wraps ramify functions by name; every name it
lists must still resolve, so a rename fails here and not in a traced
benchmark run."""

import importlib
import importlib.util
import os

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    targets = [(module, attr) for _, module, attr, _ in tracer.SPANS]
    targets += [(module, attr) for _, module, attr in tracer.COUNTS]
    assert targets
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append("%s.%s" % (module, attr))
    assert missing == []
