"""Command-line front end: generate, build, verify, analyze, benchmark.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or input
error, 3 capability (enumeration limit) error.  Human-readable summaries go
to stderr; with --json a machine-readable report goes to stdout.  Build
reports are deterministic byte-for-byte given the same inputs and seed, so
timing lives only in the stderr summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import digraph, families, fpt, kconn, preservers, verify
from .errors import CapabilityError, InputError
from .expander import HierarchyParams, build_hierarchy
from .impcut import important_cut_container
from .variants import VariantSpec

_VARIANTS = ("all-pairs", "single-source", "st", "global", "sourcewise", "kconn")


def _graph_hash(g) -> str:
    return hashlib.sha256(digraph.serialize(g).encode("ascii")).hexdigest()


def _emit(args, payload: dict, summary: str) -> None:
    print(summary, file=sys.stderr)
    if args.json:
        print(json.dumps(payload, sort_keys=True))


def _load_graph(path: str):
    try:
        return digraph.load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read graph file: {exc}") from None


def _spec_from_args(g, args) -> VariantSpec:
    variant = args.variant
    if variant == "all-pairs":
        return VariantSpec.all_pairs()
    if variant == "single-source":
        if args.source is None:
            raise InputError("--source required for single-source")
        return VariantSpec.single_source(args.source)
    if variant == "st":
        if args.source is None or args.target is None:
            raise InputError("--source and --target required for st")
        return VariantSpec.st(args.source, args.target)
    if variant == "global":
        return VariantSpec.global_()
    if variant == "sourcewise":
        if not args.sources:
            raise InputError("--sources required for sourcewise")
        return VariantSpec.sourcewise(_int_list(args.sources))
    raise InputError(f"variant {variant} has no fault-tolerant spec")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}") from None


# -- subcommands -------------------------------------------------------------


def _cmd_gen(args) -> int:
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
    elif args.family == "color":
        g, meta = families.gen_color_fault_lower(args.x, args.y)
    else:
        raise InputError(f"unknown family {args.family}")
    meta_path = args.out + ".meta.json"
    try:
        digraph.dump(g, args.out)
        with open(meta_path, "w", encoding="ascii") as fh:
            json.dump(_jsonable(meta), fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from None
    payload = {
        "command": "gen",
        "family": args.family,
        "n": g.n,
        "m": g.m,
        "out": args.out,
        "meta": meta_path,
        "input_hash": _graph_hash(g),
    }
    _emit(args, payload, f"gen {args.family}: n={g.n} m={g.m} -> {args.out}")
    return 0


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [_jsonable(v) for v in items]
    return value


def _cmd_build(args) -> int:
    g = _load_graph(args.graph)
    started = time.perf_counter()
    if args.variant == "kconn":
        if args.algo not in ("greedy",):
            raise InputError("kconn supports only --algo greedy")
        result = kconn.greedy_kconn_preserver(g, args.k, args.demand_pairs)
    elif args.algo == "greedy":
        result = preservers.greedy_preserver(g, _spec_from_args(g, args), args.k)
    elif args.algo == "hierarchy":
        if args.variant != "all-pairs":
            raise InputError("--algo hierarchy builds all-pairs preservers")
        result = preservers.hierarchy_preserver(g, args.k)
    elif args.algo == "fpt":
        if args.variant != "all-pairs":
            raise InputError("--algo fpt builds all-pairs preservers")
        result = fpt.fpt_preserver(g, args.k, args.seed)
    else:
        raise InputError(f"unknown algo {args.algo}")
    elapsed = time.perf_counter() - started
    payload = {
        "command": "build",
        "input_hash": _graph_hash(g),
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
    _emit(
        args,
        payload,
        f"build {args.variant}/{args.algo} k={args.k}: kept "
        f"{len(result.kept_edges)}/{g.m} edges in {elapsed:.2f}s",
    )
    return 0


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


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
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
        spec = _spec_from_args(g, args)
        result = verify.verify_ft(g, kept, spec, args.k)
    elapsed = time.perf_counter() - started
    payload = {
        "command": "verify",
        "input_hash": _graph_hash(g),
        "variant": args.variant,
        "k": args.k,
        "by_cuts": args.by_cuts,
        "ok": result.ok,
        "counterexample": None,
    }
    if result.counterexample is not None:
        payload["counterexample"] = {
            "pair": list(result.counterexample.pair)
            if result.counterexample.pair is not None
            else None,
            "faults": sorted(result.counterexample.faults),
        }
    verdict = "OK" if result.ok else "FAIL"
    _emit(args, payload, f"verify {args.variant} k={args.k}: {verdict} ({elapsed:.2f}s)")
    return 0 if result.ok else 1


def _cmd_hierarchy(args) -> int:
    g = _load_graph(args.graph)
    params = HierarchyParams(q=args.q, k=args.k, phi=args.phi)
    hierarchy = build_hierarchy(g, params, verify_certificates=not args.no_verify)
    payload = {
        "command": "hierarchy",
        "input_hash": _graph_hash(g),
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
    _emit(args, payload, f"hierarchy: {hierarchy.depth} levels over n={g.n}")
    return 0


def _cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    q = args.q if args.q is not None else kconn.default_part_size(g.n, args.k)
    deco = kconn.unbreakability_decomposition(g, q, args.k)
    payload = {
        "command": "decompose",
        "input_hash": _graph_hash(g),
        "q": q,
        "k": args.k,
        "parts": [sorted(part) for part in deco.parts],
        "cuts": [
            {"side": sorted(c.side), "direction": c.direction, "boundary": sorted(c.boundary)}
            for c in deco.cuts
        ],
    }
    _emit(args, payload, f"decompose q={q} k={args.k}: {len(deco.parts)} parts, "
          f"{len(deco.cuts)} cuts")
    return 0


def _cmd_impcut(args) -> int:
    g = _load_graph(args.graph)
    res = important_cut_container(
        g, _int_list(args.x), _int_list(args.y), args.k, args.dir
    )
    payload = {
        "command": "impcut",
        "input_hash": _graph_hash(g),
        "k": args.k,
        "dir": args.dir,
        "status": res.status,
        "flow": res.flow_value,
        "side": sorted(res.side),
        "boundary": sorted(res.boundary),
    }
    _emit(
        args,
        payload,
        f"impcut k={args.k} dir={args.dir}: {res.status}, boundary "
        f"{len(res.boundary)}",
    )
    return 0


def _cmd_critical(args) -> int:
    g = _load_graph(args.graph)
    spec = _spec_from_args(g, args)
    critical = verify.enumerate_critical_edges(g, spec, args.k)
    payload = {
        "command": "critical",
        "input_hash": _graph_hash(g),
        "variant": args.variant,
        "k": args.k,
        "critical_edges": sorted(critical),
    }
    _emit(args, payload, f"critical {args.variant} k={args.k}: {len(critical)} edges")
    return 0


_BENCH_CORPUS = (
    ("baswana k=1 y=2", lambda: families.gen_baswana_tree(1, 2)[0]),
    ("baswana k=2 y=2", lambda: families.gen_baswana_tree(2, 2)[0]),
    ("st-lower l=2 k=2", lambda: families.gen_st_lower(2, 2)[0]),
    ("bounded-degree 4x2", lambda: families.gen_bounded_degree_lower(4, 2)[0]),
    ("random n=8 m=16 s=1", lambda: families.gen_random(8, 16, 1, True)),
    ("random n=8 m=16 s=2", lambda: families.gen_random(8, 16, 2, True)),
)


def _cmd_bench(args) -> int:
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
    if args.json:
        print(json.dumps({"command": "bench", "rows": rows}, sort_keys=True))
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scc-preserve",
        description="Fault-tolerant strong-connectivity preserver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph family instance")
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
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=_cmd_gen)

    build = sub.add_parser("build", help="construct a preserver")
    build.add_argument("--graph", required=True)
    build.add_argument("--variant", choices=_VARIANTS, default="all-pairs")
    build.add_argument("--algo", choices=("greedy", "hierarchy", "fpt"),
                       default="greedy")
    build.add_argument("-k", type=int, required=True)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--source", type=int)
    build.add_argument("--target", type=int)
    build.add_argument("--sources", help="comma-separated vertex list")
    build.add_argument("--demand-pairs", action="store_true")
    build.add_argument("--json", action="store_true")
    build.set_defaults(func=_cmd_build)

    ver = sub.add_parser("verify", help="exhaustively verify a preserver")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--preserver", required=True,
                     help="JSON file with a kept_edges list (build output works)")
    ver.add_argument("--variant", choices=_VARIANTS, default="all-pairs")
    ver.add_argument("-k", type=int, required=True)
    ver.add_argument("--by-cuts", action="store_true")
    ver.add_argument("--source", type=int)
    ver.add_argument("--target", type=int)
    ver.add_argument("--sources")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    hier = sub.add_parser("hierarchy", help="build a directed expander hierarchy")
    hier.add_argument("--graph", required=True)
    hier.add_argument("-q", type=int, required=True)
    hier.add_argument("-k", type=int, required=True)
    hier.add_argument("--phi", default="1/2")
    hier.add_argument("--no-verify", action="store_true")
    hier.add_argument("--json", action="store_true")
    hier.set_defaults(func=_cmd_hierarchy)

    deco = sub.add_parser("decompose", help="two-level unbreakability decomposition")
    deco.add_argument("--graph", required=True)
    deco.add_argument("-q", type=int)
    deco.add_argument("-k", type=int, required=True)
    deco.add_argument("--json", action="store_true")
    deco.set_defaults(func=_cmd_decompose)

    imp = sub.add_parser("impcut", help="important-cut container")
    imp.add_argument("--graph", required=True)
    imp.add_argument("-x", required=True, help="comma-separated source vertices")
    imp.add_argument("-y", required=True, help="comma-separated sink vertices")
    imp.add_argument("-k", type=int, required=True)
    imp.add_argument("--dir", choices=("out", "in"), default="out")
    imp.add_argument("--json", action="store_true")
    imp.set_defaults(func=_cmd_impcut)

    crit = sub.add_parser("critical", help="enumerate k-fault critical edges")
    crit.add_argument("--graph", required=True)
    crit.add_argument("--variant", choices=_VARIANTS[:-1], default="all-pairs")
    crit.add_argument("-k", type=int, required=True)
    crit.add_argument("--source", type=int)
    crit.add_argument("--target", type=int)
    crit.add_argument("--sources")
    crit.add_argument("--json", action="store_true")
    crit.set_defaults(func=_cmd_critical)

    bench = sub.add_parser("bench", help="size table over the fixed corpora")
    bench.add_argument("--max-k", type=int, default=2)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
