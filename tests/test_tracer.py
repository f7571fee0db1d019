"""The benchmark tracer's targets resolve in the package.

``perfbench/tracer.py`` wraps every name in ``TARGETS`` by looking it up,
so deleting or renaming one of them breaks every traced benchmark run.
Its ``RESULT_HOOKS`` read fields of the results those targets return, so
deleting a field they read breaks it too.  These tests make both mistakes
fail here instead.
"""

import importlib
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

from sccpreserve.expander import HierarchyParams
from sccpreserve.variants import VariantSpec

from conftest import bidirected_k4

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


# span name -> arguments after the graph, for a call on a tiny graph
HOOK_CALLS = {
    "preservers.greedy": (VariantSpec.all_pairs(), 1),
    "kconn.greedy": (1,),
    "fpt.preserver": (1, 0),
    "expander.build_hierarchy": (HierarchyParams(q=2, k=1, phi=Fraction(1, 2)),),
}


def test_tracer_result_hooks_read_real_results():
    tracer = _load_tracer()
    assert set(tracer.RESULT_HOOKS) == set(HOOK_CALLS)
    homes = {name: (home, attr) for _, home, attr, name, _ in tracer.TARGETS}
    for name, hook in tracer.RESULT_HOOKS.items():
        home, attr = homes[name]
        target = getattr(importlib.import_module(f"{tracer.PKG}.{home}"), attr)
        stats = Counter()
        hook(stats, target(bidirected_k4(), *HOOK_CALLS[name]))
        assert stats, name
