"""Command-line front end: generate, build, verify, analyze, benchmark.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or input
error, 3 capability (enumeration limit) error.  Human-readable summaries go
to stderr; with --json a machine-readable report goes to stdout.  Build
reports are deterministic byte-for-byte given the same inputs and seed, so
timing lives only in the stderr summary.

The parser is built once per process, on the first ``main`` call, and every
later call reuses it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import NamedTuple

from . import digraph, families, fpt, kconn, preservers, verify
from .errors import CapabilityError, InputError
from .expander import HierarchyParams, build_hierarchy
from .impcut import important_cut_container
from .variants import VariantSpec


class _Report(NamedTuple):
    """What a subcommand did: its --json fields below the header, its stderr
    summary (None prints none) and its exit code.  ``graph`` is the graph
    ``input_hash`` names when the command made it instead of reading it."""

    fields: dict
    summary: str | None
    code: int = 0
    graph: digraph.DiGraph | None = None


def _graph_hash(g) -> str:
    return hashlib.sha256(digraph.serialize(g).encode("ascii")).hexdigest()


def _load_graph(path: str):
    try:
        return digraph.load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read graph file: {exc}") from None


def _sourcewise(text: str) -> VariantSpec | None:
    """The sourcewise spec of a ``--sources`` list; None when it names none."""
    sources = _int_list(text)
    return VariantSpec.sourcewise(sources) if sources else None


# Each --variant: the vertex flags it reads (giving another is an error) and
# the builder of its spec from their values, None for kconn, which has none.
_VARIANTS = {
    "all-pairs": ((), VariantSpec.all_pairs),
    "single-source": (("source",), VariantSpec.single_source),
    "st": (("source", "target"), VariantSpec.st),
    "global": ((), VariantSpec.global_),
    "sourcewise": (("sources",), _sourcewise),
    "kconn": ((), None),
}


def _spec_from_args(args) -> VariantSpec:
    flags, build = _VARIANTS[args.variant]
    if build is None:
        raise InputError(f"variant {args.variant} has no fault-tolerant spec")
    values = [getattr(args, flag) for flag in flags]
    spec = None if None in values else build(*values)
    if spec is None:
        named = " and ".join(f"--{flag}" for flag in flags)
        raise InputError(f"{named} required for {args.variant}")
    return spec


def _check_variant_flags(args) -> None:
    """Refuse the vertex flags that ``--variant`` does not read."""
    reads = _VARIANTS[args.variant][0]
    for flag in ("source", "target", "sources"):
        if getattr(args, flag) is not None and flag not in reads:
            raise InputError(f"--{flag} does not apply to --variant {args.variant}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}") from None


# -- subcommands -------------------------------------------------------------
# Each takes the parsed arguments and, for the --graph commands, the loaded
# graph; ``_run`` writes the report header and prints.


def _cmd_gen(args, _) -> _Report:
    if args.family == "random":
        g = families.gen_random(args.n, args.m, args.seed, args.ensure_scc)
        meta = {"family": "random", "n": args.n, "m": args.m, "seed": args.seed,
                "ensure_scc": args.ensure_scc}
    elif args.family == "baswana":
        g, meta = families.gen_baswana_tree(args.k, args.y)
    elif args.family == "st-lower":
        g, meta = families.gen_st_lower(args.layers, args.k)
    elif args.family == "bounded-degree":
        g, meta = families.gen_bounded_degree_lower(args.x, args.y)
    else:  # color, the last of the parser's choices
        g, meta = families.gen_color_fault_lower(args.x, args.y)
    meta_path = args.out + ".meta.json"
    try:
        digraph.dump(g, args.out)
        with open(meta_path, "w", encoding="ascii") as fh:
            json.dump(_jsonable(meta), fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from None
    fields = {"family": args.family, "n": g.n, "m": g.m, "out": args.out, "meta": meta_path}
    return _Report(fields, f"gen {args.family}: n={g.n} m={g.m} -> {args.out}", graph=g)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [_jsonable(v) for v in items]
    return value


def _cmd_build(args, g) -> _Report:
    if args.demand_pairs and args.variant != "kconn":
        raise InputError("--demand-pairs applies only to --variant kconn")
    started = time.perf_counter()
    if args.variant == "kconn":
        if args.algo not in ("greedy",):
            raise InputError("kconn supports only --algo greedy")
        result = kconn.greedy_kconn_preserver(g, args.k, args.demand_pairs)
    elif args.algo == "greedy":
        result = preservers.greedy_preserver(g, _spec_from_args(args), args.k)
    elif args.algo == "hierarchy":
        if args.variant != "all-pairs":
            raise InputError("--algo hierarchy builds all-pairs preservers")
        result = preservers.hierarchy_preserver(g, args.k)
    else:  # fpt, the last of the parser's choices
        if args.variant != "all-pairs":
            raise InputError("--algo fpt builds all-pairs preservers")
        result = fpt.fpt_preserver(g, args.k, args.seed)
    elapsed = time.perf_counter() - started
    fields = {
        "variant": args.variant,
        "algo": args.algo,
        "k": args.k,
        "seed": args.seed,
        "params": _jsonable(result.params),
        "kept_edges": sorted(result.kept_edges),
        "input_edges": g.m,
        "output_edges": len(result.kept_edges),
        "stats": _jsonable(result.stats),
        "provenance": result.provenance,
    }
    return _Report(
        fields,
        f"build {args.variant}/{args.algo} k={args.k}: kept "
        f"{len(result.kept_edges)}/{g.m} edges in {elapsed:.2f}s",
    )


def _load_preserver(path: str) -> list[int]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read preserver file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"bad preserver JSON: {exc}") from None
    if isinstance(data, dict):
        data = data.get("kept_edges")
    if not isinstance(data, list) or not all(type(x) is int for x in data):
        raise InputError("preserver file must hold a kept_edges integer list")
    return data


def _cmd_verify(args, g) -> _Report:
    kept = _load_preserver(args.preserver)
    started = time.perf_counter()
    if args.variant == "kconn":
        if args.by_cuts:
            ok = verify.verify_kconn_by_cuts(g, kept, args.k)
            result = verify.VerifyResult(ok=ok)
        else:
            result = verify.verify_kconn(g, kept, args.k)
    elif args.by_cuts:
        if args.variant != "all-pairs":
            raise InputError("--by-cuts applies to all-pairs and kconn")
        ok = verify.verify_ft_by_cuts(g, kept, args.k)
        result = verify.VerifyResult(ok=ok)
    else:
        result = verify.verify_ft(g, kept, _spec_from_args(args), args.k)
    elapsed = time.perf_counter() - started
    fields = {
        "variant": args.variant,
        "k": args.k,
        "by_cuts": args.by_cuts,
        "ok": result.ok,
        "counterexample": None,
    }
    if result.counterexample is not None:
        fields["counterexample"] = {
            "pair": list(result.counterexample.pair)
            if result.counterexample.pair is not None
            else None,
            "faults": sorted(result.counterexample.faults),
        }
    verdict = "OK" if result.ok else "FAIL"
    return _Report(
        fields, f"verify {args.variant} k={args.k}: {verdict} ({elapsed:.2f}s)",
        0 if result.ok else 1,
    )


def _cmd_hierarchy(args, g) -> _Report:
    params = HierarchyParams(q=args.q, k=args.k, phi=args.phi)
    hierarchy = build_hierarchy(g, params, verify_certificates=not args.no_verify)
    fields = {
        "q": args.q,
        "k": args.k,
        "phi": args.phi,
        "exact": hierarchy.exact,
        "levels": [sorted(level) for level in hierarchy.levels],
        "certificates": [
            {
                "level": c.level,
                "component": sorted(c.component),
                "terminals": sorted(c.terminals),
                "unbreakable": c.unbreakable,
            }
            for c in hierarchy.certificates
        ],
    }
    return _Report(fields, f"hierarchy: {hierarchy.depth} levels over n={g.n}")


def _cmd_decompose(args, g) -> _Report:
    q = args.q if args.q is not None else kconn.default_part_size(g.n, args.k)
    deco = kconn.unbreakability_decomposition(g, q, args.k)
    fields = {
        "q": q,
        "k": args.k,
        "parts": [sorted(part) for part in deco.parts],
        "cuts": [
            {"side": sorted(c.side), "direction": c.direction, "boundary": sorted(c.boundary)}
            for c in deco.cuts
        ],
    }
    return _Report(fields, f"decompose q={q} k={args.k}: {len(deco.parts)} parts, "
                   f"{len(deco.cuts)} cuts")


def _cmd_impcut(args, g) -> _Report:
    res = important_cut_container(
        g, _int_list(args.x), _int_list(args.y), args.k, args.dir
    )
    fields = {
        "k": args.k,
        "dir": args.dir,
        "status": res.status,
        "flow": res.flow_value,
        "side": sorted(res.side),
        "boundary": sorted(res.boundary),
    }
    return _Report(
        fields,
        f"impcut k={args.k} dir={args.dir}: {res.status}, boundary "
        f"{len(res.boundary)}",
    )


def _cmd_critical(args, g) -> _Report:
    critical = verify.enumerate_critical_edges(g, _spec_from_args(args), args.k)
    fields = {"variant": args.variant, "k": args.k, "critical_edges": sorted(critical)}
    return _Report(fields, f"critical {args.variant} k={args.k}: {len(critical)} edges")


_BENCH_CORPUS = (
    ("baswana k=1 y=2", lambda: families.gen_baswana_tree(1, 2)[0]),
    ("baswana k=2 y=2", lambda: families.gen_baswana_tree(2, 2)[0]),
    ("st-lower l=2 k=2", lambda: families.gen_st_lower(2, 2)[0]),
    ("bounded-degree 4x2", lambda: families.gen_bounded_degree_lower(4, 2)[0]),
    ("random n=8 m=16 s=1", lambda: families.gen_random(8, 16, 1, True)),
    ("random n=8 m=16 s=2", lambda: families.gen_random(8, 16, 2, True)),
)


def _cmd_bench(args, _) -> _Report:
    if args.max_k < 1:
        raise InputError(f"--max-k must be at least 1, got {args.max_k}")
    rows = []
    for name, maker in _BENCH_CORPUS:
        g = maker()
        for k in range(1, args.max_k + 1):
            row = {"graph": name, "n": g.n, "m": g.m, "k": k}
            row["st"] = len(
                preservers.greedy_preserver(g, VariantSpec.st(0, g.n - 1), k).kept_edges
            )
            row["global"] = len(
                preservers.greedy_preserver(g, VariantSpec.global_(), k).kept_edges
            )
            row["single_source"] = len(preservers.sscp(g, 0, k).kept_edges)
            row["all_pairs"] = len(
                preservers.greedy_preserver(g, VariantSpec.all_pairs(), k).kept_edges
            )
            row["kconn"] = len(kconn.greedy_kconn_preserver(g, k, True).kept_edges)
            rows.append(row)
            print(
                f"{name:24s} k={k}  st={row['st']:3d}  global={row['global']:3d}  "
                f"single-source={row['single_source']:3d}  "
                f"all-pairs={row['all_pairs']:3d}  kconn={row['kconn']:3d}  (m={g.m})",
                file=sys.stderr,
            )
    return _Report({"rows": rows}, None)


# -- parser ------------------------------------------------------------------


@functools.cache
def parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after.

    Sharing is safe: a parse writes only to the new namespace it returns,
    and every default is None, an int, a str, False or a handler, none of
    which a parse can change.  Each flag that several commands share is
    declared once, on a parent parser.
    """
    top = argparse.ArgumentParser(
        prog="scc-preserve",
        description="Fault-tolerant strong-connectivity preserver toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true")
    on_graph = argparse.ArgumentParser(add_help=False, parents=[report])
    on_graph.add_argument("--graph", required=True)
    on_graph.add_argument("-k", type=int, required=True)
    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument("--variant", choices=tuple(_VARIANTS), default="all-pairs")
    variant.add_argument("--source", type=int)
    variant.add_argument("--target", type=int)
    variant.add_argument("--sources", help="comma-separated vertex list")

    def command(name, func, help, *parents):
        cmd = sub.add_parser(name, help=help, parents=parents)
        cmd.set_defaults(func=func)
        return cmd

    gen = command("gen", _cmd_gen, "generate a graph family instance", report)
    gen.add_argument("family", choices=("baswana", "st-lower", "bounded-degree",
                                        "color", "random"))
    gen.add_argument("-o", "--out", required=True)
    gen.add_argument("-k", type=int, default=2)
    gen.add_argument("--layers", type=int, default=2)
    gen.add_argument("--x", type=int, default=4)
    gen.add_argument("--y", type=int, default=2)
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--m", type=int, default=16)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--ensure-scc", action="store_true")

    build = command("build", _cmd_build, "construct a preserver", on_graph, variant)
    build.add_argument("--algo", choices=("greedy", "hierarchy", "fpt"),
                       default="greedy")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--demand-pairs", action="store_true")

    ver = command("verify", _cmd_verify, "exhaustively verify a preserver",
                  on_graph, variant)
    ver.add_argument("--preserver", required=True,
                     help="JSON file with a kept_edges list (build output works)")
    ver.add_argument("--by-cuts", action="store_true")

    hier = command("hierarchy", _cmd_hierarchy, "build a directed expander hierarchy",
                   on_graph)
    hier.add_argument("-q", type=int, required=True)
    hier.add_argument("--phi", default="1/2")
    hier.add_argument("--no-verify", action="store_true")

    deco = command("decompose", _cmd_decompose, "two-level unbreakability decomposition",
                   on_graph)
    deco.add_argument("-q", type=int)

    imp = command("impcut", _cmd_impcut, "important-cut container", on_graph)
    imp.add_argument("-x", required=True, help="comma-separated source vertices")
    imp.add_argument("-y", required=True, help="comma-separated sink vertices")
    imp.add_argument("--dir", choices=("out", "in"), default="out")

    command("critical", _cmd_critical, "enumerate k-fault critical edges", on_graph, variant)

    bench = command("bench", _cmd_bench, "size table over the fixed corpora", report)
    bench.add_argument("--max-k", type=int, default=2)

    return top


def _run(args) -> int:
    """Run the subcommand, then print its summary and its --json report."""
    if "variant" in args:
        _check_variant_flags(args)
    g = _load_graph(args.graph) if "graph" in args else None
    report = args.func(args, g)
    header = {"command": args.command}
    hashed = g if g is not None else report.graph
    if hashed is not None:
        header["input_hash"] = _graph_hash(hashed)
    if report.summary is not None:
        print(report.summary, file=sys.stderr)
    if args.json:
        print(json.dumps({**report.fields, **header}, sort_keys=True))
    return report.code


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    try:
        return _run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
