"""The four benchmark workloads: inputs from seeds, instances, correctness.

Each workload has a ``setup`` that builds its inputs and an ``instances``
that returns one pass of work: a list of ``(label, call)`` pairs, rebuilt
for every pass so no state (such as an ``FptCache``) survives between
passes.  A call returns ``(ok, kept_edges, record)``: whether its outputs
passed the repository's own exhaustive checks, how many edges the
preservers it produced keep, and a JSON-able record of every output, from
which the run's digest is taken.

Seeds.  ``corpus_seed`` fixes the graph structures; its default, 20260810,
is the seed of the criterion-1 corpus in ``tests/test_acceptance.py``.
``seed`` (the run seed) relabels every graph: a random vertex permutation
and a random edge order, with the protected vertices (sources, targets)
mapped along.  Seed 0 is the identity, so ``ft-corpus`` at seed 0 runs the
first graphs of the criterion-1 corpus exactly.  Relabelling changes scan
orders, tie-breaks and so the outputs, but not the structure of an
instance, which keeps run-to-run spread low enough for the benchmark's
bounds; a fresh ``corpus_seed`` gives structures not used in development.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

CRITERION_1_SEED = 20260810
FPT_RESEED_OFFSET = 1_000_000  # the reseed rule of tests/test_acceptance.py


def relabel(api, g, seed: int, salt: str):
    """(relabelled copy of g, vertex map old -> new); seed 0 is the identity."""
    if seed == 0:
        return g, list(range(g.n))
    rng = random.Random(f"{seed}:{salt}")
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [
        (perm[e.tail], perm[e.head]) if e.color is None
        else (perm[e.tail], perm[e.head], e.color)
        for e in g.edges
    ]
    rng.shuffle(edges)
    return api.DiGraph(g.n, edges), perm


# -- ft-corpus ---------------------------------------------------------------


class FtCorpus:
    """Criterion-1 corpus: seven constructions per (graph, k), all verified."""

    name = "ft-corpus"

    def __init__(self, graphs: int):
        self.graphs = graphs

    def setup(self, api, seed, corpus_seed, workdir):
        rng = random.Random(corpus_seed)
        items = []
        for i in range(self.graphs):
            n = rng.randrange(4, 9)
            m = rng.randrange(n, 21)
            base = api.families.gen_random(n, m, i, ensure_strongly_connected=True)
            g, perm = relabel(api, base, seed, f"ft-corpus:{i}")
            items.append((i, g, perm))
        return items

    def instances(self, api, items):
        VariantSpec = api.VariantSpec
        calls = []
        for i, g, perm in items:
            specs = (
                VariantSpec.all_pairs(),
                VariantSpec.single_source(perm[0]),
                VariantSpec.st(perm[0], perm[g.n - 1]),
                VariantSpec.global_(),
                VariantSpec.sourcewise({perm[0], perm[1]}),
            )
            cache = api.FptCache()  # one per graph, shared by k = 1, 2
            for k in (1, 2):
                calls.append((f"graph{i}/k{k}", _ft_instance(api, i, g, k, specs, cache)))
        return calls


def _ft_instance(api, i, g, k, specs, cache):
    def call(events):
        ok = True
        kept = 0
        record = [i, k]
        all_pairs = api.VariantSpec.all_pairs()
        for spec in specs:
            res = api.greedy_preserver(g, spec, k)
            good = api.verify_ft(g, res.kept_edges, spec, k).ok
            ok &= good
            kept += res.size
            record.append([spec.kind, sorted(res.kept_edges), good])
        res = api.hierarchy_preserver(g, k)
        good = api.verify_ft(g, res.kept_edges, all_pairs, k).ok
        ok &= good
        kept += res.size
        record.append(["hierarchy", sorted(res.kept_edges), good])
        res = api.fpt_preserver(g, k, seed=i, cache=cache)
        good = api.verify_ft(g, res.kept_edges, all_pairs, k).ok
        if not good:
            events["fpt.reseeds"] += 1
            res = api.fpt_preserver(g, k, seed=i + FPT_RESEED_OFFSET, cache=cache)
            good = api.verify_ft(g, res.kept_edges, all_pairs, k).ok
        ok &= good
        kept += res.size
        record.append(["fpt", sorted(res.kept_edges), good])
        return ok, kept, record

    return call


# -- families-cli -------------------------------------------------------------


class FamiliesCli:
    """Lower-bound families and random hosts through ``cli.main`` in-process.

    ``plan`` rows are (graph name, gen arguments, builds); a build is
    (algo, k), and each build is followed by a ``verify`` of its report.
    """

    name = "families-cli"

    def __init__(self, plan, random_hosts):
        self.plan = plan
        self.random_hosts = random_hosts  # (n, m, builds) per seeded random host

    def setup(self, api, seed, corpus_seed, workdir):
        rng = random.Random(f"{corpus_seed}:families-cli")
        rows = list(self.plan)
        for j, (n, m, builds) in enumerate(self.random_hosts):
            args = ["random", "--n", str(n), "--m", str(m),
                    "--seed", str(rng.randrange(1 << 30)), "--ensure-scc"]
            rows.append((f"random{j}", args, builds))
        graphs = []
        for name, args, builds in rows:
            path = os.path.join(workdir, f"{name}.graph")
            code, _ = run_cli(api, ["gen", *args, "-o", path, "--json"])
            if code != 0:
                raise RuntimeError(f"gen {name} exited {code}")
            g, _ = relabel(api, api.digraph.load(path), seed, f"families-cli:{name}")
            api.digraph.dump(g, path)
            graphs.append((name, path, builds))
        return graphs

    def instances(self, api, graphs):
        calls = []
        for name, path, builds in graphs:
            for algo, k in builds:
                report = f"{path}.{algo}.k{k}.json"
                build = ["build", "--graph", path, "--algo", algo, "-k", str(k), "--json"]
                verify = ["verify", "--graph", path, "--preserver", report,
                          "-k", str(k), "--json"]
                calls.append((f"{name}/build-{algo}-k{k}", _cli_call(api, build, report)))
                calls.append((f"{name}/verify-{algo}-k{k}", _cli_call(api, verify, None)))
        return calls


def run_cli(api, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue()


def _cli_call(api, argv, report_path):
    def call(events):
        code, text = run_cli(api, argv)
        kept = 0
        if report_path is not None:
            with open(report_path, "w", encoding="ascii") as fh:
                fh.write(text)
            if code == 0:
                kept = len(json.loads(text)["kept_edges"])
        return code == 0, kept, [argv[0], code, text]

    return call


# -- cut-certify -----------------------------------------------------------------


class CutCertify:
    """The cut stack: hierarchy certificates, decomposition, containers, kconn."""

    name = "cut-certify"
    density = 3  # m = density * n
    q, k = 2, 1  # hierarchy parameters, phi = 1/2
    cut_k = 2  # budget of important cuts and kconn

    def __init__(self, hosts: int, n_range):
        self.hosts = hosts
        self.n_range = n_range

    def setup(self, api, seed, corpus_seed, workdir):
        rng = random.Random(f"{corpus_seed}:cut-certify")
        hosts = []
        for j in range(self.hosts):
            n = rng.randrange(*self.n_range)
            base = api.families.gen_random(
                n, self.density * n, rng.randrange(1 << 30), ensure_strongly_connected=True
            )
            g, _ = relabel(api, base, seed, f"cut-certify:{j}")
            hosts.append((j, g))
        return hosts

    def instances(self, api, hosts):
        calls = []
        for j, g in hosts:
            calls.append((f"host{j}/hierarchy", _hierarchy_call(api, g, self.q, self.k)))
            calls.append((f"host{j}/decompose", _decompose_call(api, g, self.k)))
            for x in range(g.n):
                for y in range(g.n):
                    if x != y:
                        for direction in ("out", "in"):
                            calls.append((
                                f"host{j}/impcut-{x}-{y}-{direction}",
                                _impcut_call(api, g, x, y, self.cut_k, direction),
                            ))
            calls.append((f"host{j}/kconn", _kconn_call(api, g, self.cut_k)))
        return calls


def _hierarchy_call(api, g, q, k):
    def call(events):
        h = api.build_hierarchy(g, api.HierarchyParams(q=q, k=k), verify_certificates=True)
        ok = all(c.unbreakable for c in h.certificates)
        levels = [sorted(level) for level in h.levels]
        return ok, 0, ["hierarchy", levels, [c.unbreakable for c in h.certificates]]

    return call


def _decompose_call(api, g, k):
    def call(events):
        q = api.kconn.default_part_size(g.n, k)
        deco = api.unbreakability_decomposition(g, q, k)
        covered = sorted(v for part in deco.parts for v in part)
        ok = covered == list(range(g.n))  # the parts partition V
        return ok, 0, ["decompose", [sorted(p) for p in deco.parts]]

    return call


def _impcut_call(api, g, x, y, k, direction):
    def call(events):
        res = api.important_cut_container(g, [x], [y], k, direction)
        # Independent check: the reported flow is the max flow in that direction.
        host = g if direction == "out" else g.reverse()
        ok = res.flow_value == api.max_flow(host, [x], [y]).value
        if res.status == "ok":
            ok &= x in res.side and y not in res.side
        return ok, 0, [res.status, res.flow_value, sorted(res.side), sorted(res.boundary)]

    return call


def _kconn_call(api, g, k):
    def call(events):
        res = api.greedy_kconn_preserver(g, k, use_demand_pairs=True)
        ok = api.verify_kconn(g, res.kept_edges, k).ok
        return ok, res.size, ["kconn", sorted(res.kept_edges), ok]

    return call


# -- verify-scan ---------------------------------------------------------------


class VerifyScan:
    """Read-only exhaustive scans over fixed edge sets of dense hosts.

    Setup builds greedy single-source and s-t preservers at k = 2.  A k-FT
    preserver is also a k'-FT preserver for k' <= k, and every k-critical
    edge lies in every k-FT preserver, which gives the checks below.  The
    greedy preserver is edge-minimal, so with any one kept edge removed it is
    no longer k-FT: those instances must fail verification, and their
    counterexample is checked independently of the package.
    """

    name = "verify-scan"

    def __init__(self, hosts: int, n: int, m: int, deep_hosts: int):
        self.hosts = hosts
        self.n = n
        self.m = m
        self.deep_hosts = deep_hosts  # hosts also scanned against themselves at k = 3

    def setup(self, api, seed, corpus_seed, workdir):
        rng = random.Random(f"{corpus_seed}:verify-scan")
        VariantSpec = api.VariantSpec
        hosts = []
        for j in range(self.hosts):
            base = api.families.gen_random(
                self.n, self.m, rng.randrange(1 << 30), ensure_strongly_connected=True
            )
            g, perm = relabel(api, base, seed, f"verify-scan:{j}")
            ss = VariantSpec.single_source(perm[0])
            st = VariantSpec.st(perm[0], perm[g.n - 1])
            built = []
            for spec in (ss, st):
                kept = api.greedy_preserver(g, spec, 2).kept_edges
                pick = random.Random(f"{seed}:verify-scan:{j}:{spec.kind}")
                built.append((spec, kept, pick.choice(sorted(kept))))
            hosts.append((j, g, built))
        return hosts

    def instances(self, api, hosts):
        all_pairs = api.VariantSpec.all_pairs()
        calls = []
        for j, g, built in hosts:
            for spec, kept, removed in built:
                for k in (1, 2):
                    calls.append((f"host{j}/verify-{spec.kind}-k{k}",
                                  _verify_call(api, g, kept, spec, k)))
                calls.append((f"host{j}/broken-{spec.kind}-k2",
                              _broken_call(api, g, kept, removed, spec, 2)))
                calls.append((f"host{j}/critical-{spec.kind}",
                              _critical_call(api, g, kept, spec, 2)))
            # The host against itself: no early exit, every fault set is scanned.
            for k in (2, 3) if j < self.deep_hosts else (2,):
                calls.append((f"host{j}/verify-all-pairs-k{k}",
                              _verify_call(api, g, g.edge_ids(), all_pairs, k)))
        return calls


def _verify_call(api, g, kept, spec, k):
    def call(events):
        res = api.verify_ft(g, kept, spec, k)
        return res.ok, len(kept), ["verify", spec.kind, k, res.ok]

    return call


def _broken_call(api, g, kept, removed, spec, k):
    """verify_ft of a k-FT preserver with one kept edge removed: must fail."""
    broken = kept - {removed}

    def call(events):
        res = api.verify_ft(g, broken, spec, k)
        cex = res.counterexample
        if res.ok or cex is None:
            return False, 0, ["broken", spec.kind, k, removed, res.ok]
        faults = sorted(cex.faults)
        ok = _is_counterexample(g, broken, spec, cex.pair, cex.faults, k)
        return ok, 0, ["broken", spec.kind, k, removed, list(cex.pair), faults]

    return call


def _is_counterexample(g, kept, spec, pair, faults, k):
    """Whether ``pair`` is a pair the variant protects that is strongly
    connected in G - faults but not in H - faults.

    Plain search over the edge lists, independent of the package's kernel.
    """
    if pair is None or len(faults) > k or not faults <= g.edge_ids():
        return False
    s, t = pair
    if spec.kind == "st" and (s, t) != (spec.s, spec.t):
        return False
    if spec.kind == "single_source" and s != spec.s:
        return False

    def connected(edge_ids):
        out, back = {}, {}
        for eid in edge_ids - faults:
            e = g.edge(eid)
            out.setdefault(e.tail, []).append(e.head)
            back.setdefault(e.head, []).append(e.tail)
        return t in _reach(out, s) and t in _reach(back, s)

    return connected(g.edge_ids()) and not connected(kept)


def _reach(adj, start):
    seen, stack = {start}, [start]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _critical_call(api, g, kept, spec, k):
    def call(events):
        critical = api.enumerate_critical_edges(g, spec, k)
        return critical <= kept, 0, ["critical", spec.kind, k, sorted(critical)]

    return call


# -- registry ------------------------------------------------------------------

FAMILY_PLAN = (
    # small lower-bound families: every algorithm at k = 1, 2
    ("baswana-k2-y2", ["baswana", "-k", "2", "--y", "2"],
     [(a, k) for a in ("greedy", "hierarchy", "fpt") for k in (1, 2)]),
    ("bounded-degree-4x2", ["bounded-degree", "--x", "4", "--y", "2"],
     [(a, k) for a in ("greedy", "hierarchy", "fpt") for k in (1, 2)]),
    ("color-4x2", ["color", "--x", "4", "--y", "2"],
     [(a, k) for a in ("greedy", "hierarchy", "fpt") for k in (1, 2)]),
    # n = 16: the exhaustive sparse-cut search dominates its hierarchy build
    ("st-lower-l3-k2", ["st-lower", "--layers", "3", "-k", "2"],
     [("greedy", 1), ("greedy", 2), ("hierarchy", 1)]),
)

# Passes are kept near 3 s so that a run times each short instance about
# nine times.  Greedy k = 2 on the random host (families-cli) and three hosts
# scanned at k = 3 (verify-scan) put enough instances above the tail
# percentile that it falls inside a group of similar instances, not at a gap.
FULL = {
    "ft-corpus": lambda: FtCorpus(graphs=30),
    "families-cli": lambda: FamiliesCli(
        FAMILY_PLAN,
        random_hosts=[(12, 28, [("greedy", 1), ("greedy", 2), ("hierarchy", 1), ("fpt", 1)])],
    ),
    "cut-certify": lambda: CutCertify(hosts=3, n_range=(11, 13)),
    "verify-scan": lambda: VerifyScan(hosts=5, n=9, m=30, deep_hosts=3),
}

# Small enough for the self-test to run every workload several times.
TINY = {
    "ft-corpus": lambda: FtCorpus(graphs=3),
    "families-cli": lambda: FamiliesCli(
        FAMILY_PLAN[:1], random_hosts=[(8, 16, [("greedy", 1), ("fpt", 1)])]
    ),
    "cut-certify": lambda: CutCertify(hosts=1, n_range=(7, 8)),
    "verify-scan": lambda: VerifyScan(hosts=1, n=7, m=20, deep_hosts=1),
}

NAMES = tuple(FULL)
