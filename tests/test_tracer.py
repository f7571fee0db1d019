"""The benchmark tracer's targets resolve in the package.

``perfbench/tracer.py`` wraps every name in ``TARGETS`` by looking it up,
so deleting or renaming one of them breaks every traced benchmark run.
This test makes that mistake fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    originals = {}
    for _, home, attr, name, _ in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PKG}.{home}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, attr, None)), name
            originals[attr] = getattr(module, attr)
    for home, attr in tracer.SITES:
        # a site is wrapped only where the module imported the target itself
        module = importlib.import_module(f"{tracer.PKG}.{home}")
        assert getattr(module, attr, None) is originals[attr], (home, attr)
