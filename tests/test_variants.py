import random

import pytest

from sccpreserve.digraph import DiGraph
from sccpreserve.errors import InputError
from sccpreserve.variants import ConnectivityOracle, VariantSpec, fault_sets_colex

from conftest import loopy_multigraph
from oracles import scc_sets_ref


def test_colex_order_is_ascending_bitmask():
    got = list(fault_sets_colex([0, 1, 2], 2))
    assert got == [(), (0,), (1,), (0, 1), (2,), (0, 2), (1, 2)]
    masks = [sum(1 << e for e in fault) for fault in got]
    assert masks == sorted(masks)


def test_colex_order_with_gapped_ids():
    got = list(fault_sets_colex([7, 3, 10], 1))
    assert got == [(), (3,), (7,), (10,)]


def test_colex_respects_size_cap():
    got = list(fault_sets_colex(range(5), 0))
    assert got == [()]
    assert all(len(f) <= 2 for f in fault_sets_colex(range(6), 2))


def test_variant_spec_validation():
    g = DiGraph(3, [(0, 1)])
    with pytest.raises(InputError):
        VariantSpec.st(1, 1)
    with pytest.raises(InputError):
        VariantSpec.single_source(5).validate(g)
    with pytest.raises(InputError):
        VariantSpec.sourcewise({0, 9}).validate(g)
    VariantSpec.sourcewise({0, 2}).validate(g)


def test_variant_describe():
    assert VariantSpec.st(0, 2).describe() == {"variant": "st", "s": 0, "t": 2}
    assert VariantSpec.sourcewise({2, 0}).describe() == {
        "variant": "sourcewise",
        "sources": [0, 2],
    }


def test_state_is_root_components():
    # A state holds each root's SCC mask; a root inside an earlier root's
    # component reuses that mask.  Checked against the reference partition
    # on multigraphs that are not strongly connected, under random faults.
    rng = random.Random(61)
    for _ in range(30):
        g = loopy_multigraph(rng, rng.randrange(2, 8))
        n = g.n
        fault = frozenset(rng.sample(sorted(g.edge_ids()), rng.randrange(0, 3)))
        comp_of = {}
        for comp in scc_sets_ref(g, fault):
            for v in comp:
                comp_of[v] = sum(1 << w for w in comp)
        sources = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        for spec, roots in (
            (VariantSpec.all_pairs(), range(n)),
            (VariantSpec.single_source(n - 1), [n - 1]),
            (VariantSpec.st(n - 1, 0), [n - 1]),
            (VariantSpec.global_(), [0]),
            (VariantSpec.sourcewise(sources), sources),
        ):
            state = ConnectivityOracle(g, spec).state(g.edge_ids(), fault)
            assert state == tuple(comp_of[r] for r in roots), (spec.kind, fault)
