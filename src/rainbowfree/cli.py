"""Command-line umbrella: generators, rainbow detection, connectivity
reports, Gallai tools, bipartite structure, paths/cycles, the claim
registry, and the micro cross-checker.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import claims as claims_mod
from .bipartite import (
    classify_k13_free,
    gen_type_b,
    verify_background_spanning_kconn,
)
from .connectivity import (
    CertificationError,
    best_monochromatic,
    best_two_colored,
    largest_k_connected,
)
from .constructions import (
    gen_F1,
    gen_F2,
    gen_F3,
    gen_R1,
    gen_R2,
    gen_counterexample_4t,
    gen_intro_example,
)
from .core import dump_coloring, load_coloring
from .crosscheck import micro_crosscheck
from .gallai import (
    gallai_partition,
    is_gallai,
    sample_gallai,
    verify_two_color_2connected,
    verify_two_color_3connected,
)
from .paths import check_mono_path_quota, longest_mono_cycle, longest_mono_path
from .patterns import parse_pattern
from .rainbow import find_rainbow


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, default=str))


# construction -> (generator, its arguments in order)
_GENERATORS = {
    "R1": (gen_R1, ("n", "m")),
    "R2": (gen_R2, ("n", "m")),
    "F1": (gen_F1, ("s", "t", "m")),
    "F2": (gen_F2, ("s", "t", "m")),
    "F3": (gen_F3, ("s", "t", "m")),
    "intro": (gen_intro_example, ("n", "k")),
    "counter4t": (gen_counterexample_4t, ("tparam", "n")),
}


def _cmd_gen(args) -> int:
    kind = args.construction
    generator, names = _GENERATORS[kind]
    missing = [a for a in names if getattr(args, a) is None]
    if missing:
        raise ValueError(f"{kind} needs --" + ", --".join(missing))
    gen = generator(*(getattr(args, a) for a in names))
    if args.output:
        dump_coloring(gen.host, args.output)
    if args.describe or not args.output:
        _emit(gen.describe())
    return 0


def _cmd_detect(args) -> int:
    host = load_coloring(args.file)
    pattern = parse_pattern(args.pattern)
    emb = find_rainbow(host, pattern)
    if emb is None:
        print("rainbow-free")
        return 1
    _emit(emb.to_json())
    return 0


def _parse_colors_arg(value: str):
    if value in ("mono", "pairs"):
        return value
    if value.startswith("mask="):
        return frozenset(int(x) for x in value[len("mask=") :].split(","))
    raise ValueError(f"bad --colors value {value!r}; use mono, pairs, or mask=1,3")


def _cmd_kconn(args) -> int:
    host = load_coloring(args.file)
    colors = _parse_colors_arg(args.colors)
    if colors == "mono":
        color, rep = best_monochromatic(host, args.k)
        out = rep.to_json()
        out["color"] = color
    elif colors == "pairs":
        mask, rep = best_two_colored(host, args.k)
        out = rep.to_json()
    else:
        out = largest_k_connected(host, colors, args.k).to_json()
    _emit(out)
    return 0


def _cmd_gallai(args) -> int:
    if args.gallai_cmd == "check":
        host = load_coloring(args.file)
        ok = is_gallai(host)
        print("gallai" if ok else "rainbow-triangle")
        return 0 if ok else 1
    if args.gallai_cmd == "partition":
        host = load_coloring(args.file)
        _emit(gallai_partition(host).to_json())
        return 0
    if args.gallai_cmd == "sample":
        host = sample_gallai(args.n, args.m, args.seed)
        dump_coloring(host, args.output)
        return 0
    if args.gallai_cmd == "verify":
        host = load_coloring(args.file)
        verify = (
            verify_two_color_2connected
            if args.lemma == "2conn"
            else verify_two_color_3connected
        )
        witness = verify(host)
        _emit(witness.to_json())
        return 0 if witness.ok else 1
    raise ValueError("unknown gallai subcommand")


def _cmd_bipartite(args) -> int:
    if args.bipartite_cmd == "classify":
        host = load_coloring(args.file)
        _emit(classify_k13_free(host).to_json())
        return 0
    if args.bipartite_cmd == "gen-b":
        u_sizes = [int(x) for x in args.parts_u.split(",")] if args.parts_u else None
        v_sizes = [int(x) for x in args.parts_v.split(",")] if args.parts_v else None
        gen = gen_type_b(args.s, args.t, args.m, u_sizes, v_sizes, args.seed)
        dump_coloring(gen.host, args.output)
        if args.describe:
            _emit(gen.describe())
        return 0
    if args.bipartite_cmd == "verify-cor43":
        host = load_coloring(args.file)
        witness = verify_background_spanning_kconn(host, args.k)
        _emit(witness.to_json())
        return 0 if witness.ok else 1
    raise ValueError("unknown bipartite subcommand")


def _cmd_paths(args) -> int:
    host = load_coloring(args.file)
    witness = longest_mono_path(host, args.color)
    _emit(witness.to_json())
    return 0


def _cmd_paths_quota(args) -> int:
    host = load_coloring(args.file)
    quotas = [int(x) for x in args.a.split(",")]
    result = check_mono_path_quota(host, quotas)
    _emit(result.to_json())
    return 0 if result.ok else 1


def _cmd_cycles(args) -> int:
    host = load_coloring(args.file)
    witness = longest_mono_cycle(host, args.color)
    _emit(witness.to_json())
    return 0


def _cmd_verify(args) -> int:
    reports = claims_mod.run_claims(args.filter, args.seed)
    payload = [r.to_json() for r in reports]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, default=str)
    bad = 0
    for r in reports:
        print(f"{r.status.upper():5s} {r.claim_id} ({r.millis} ms)")
        if r.status != "pass":
            bad += 1
    print(f"{len(reports) - bad}/{len(reports)} claims passed")
    return 0 if bad == 0 else 1


def _cmd_crosscheck(args) -> int:
    report = micro_crosscheck(args.max_n, args.max_m, seed=args.seed, budget=args.samples)
    _emit(report.to_json())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowfree",
        description="edge-colored complete graphs: constructions, rainbow "
        "detection, monochromatic connectivity, and claim verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named construction")
    p.add_argument("construction", choices=list(_GENERATORS))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--tparam", type=int, help="parameter t for counter4t")
    p.add_argument("-o", "--output")
    p.add_argument("--describe", action="store_true", help="print part metadata")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("detect", help="find a rainbow copy of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("kconn", help="largest k-connected subgraph report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--colors", default="mono", help="mono | pairs | mask=1,3")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_kconn)

    p = sub.add_parser("gallai", help="Gallai-coloring tools")
    gsub = p.add_subparsers(dest="gallai_cmd", required=True)
    g = gsub.add_parser("check")
    g.add_argument("file")
    g = gsub.add_parser("partition")
    g.add_argument("file")
    g = gsub.add_parser("sample")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g = gsub.add_parser("verify")
    g.add_argument("--lemma", choices=["2conn", "3conn"], required=True)
    g.add_argument("file")
    p.set_defaults(fn=_cmd_gallai)

    p = sub.add_parser("bipartite", help="bipartite structure tools")
    bsub = p.add_subparsers(dest="bipartite_cmd", required=True)
    b = bsub.add_parser("classify")
    b.add_argument("file")
    b = bsub.add_parser("gen-b")
    b.add_argument("--s", type=int, required=True)
    b.add_argument("--t", type=int, required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--parts-u")
    b.add_argument("--parts-v")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("-o", "--output", required=True)
    b.add_argument("--describe", action="store_true")
    b = bsub.add_parser("verify-cor43")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("file")
    p.set_defaults(fn=_cmd_bipartite)

    p = sub.add_parser("paths", help="longest monochromatic path")
    p.add_argument("--color", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_paths)

    p = sub.add_parser("prop61", help="per-color path quota check")
    p.add_argument("--a", required=True, help="comma-separated quotas, one per color")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_paths_quota)

    p = sub.add_parser("cycles", help="longest monochromatic cycle")
    p.add_argument("--color", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_cycles)

    p = sub.add_parser("verify", help="run the claim registry")
    p.add_argument("--filter", default="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write RunReport JSON here")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("crosscheck", help="micro-scale oracle cross-check")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_crosscheck)
    return parser


def _refuse(exc: Exception, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Exit codes: 0 positive answer, 1 negative answer, 2 bad input, 3 internal
    certificate failure, 141 output closed early by its reader.  Codes 2 and 3
    print one JSON line on stderr; argparse usage errors print usage text."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # `paths prop61 --a ... FILE` is the documented spelling for the quota check
    if len(argv) >= 2 and argv[0] == "paths" and argv[1] == "prop61":
        argv = ["prop61"] + argv[2:]
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # a reader that stops early (`... | head`) is not bad input; 141 is
        # 128 + SIGPIPE, and devnull keeps the interpreter's last flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CertificationError as exc:
        return _refuse(exc, 3)
    except (ValueError, OSError) as exc:
        return _refuse(exc, 2)


if __name__ == "__main__":
    raise SystemExit(main())
