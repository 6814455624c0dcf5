"""Command-line interface.

    linkdomain check PROFILE [--mode strong|weak] [--format native|soc]
                             [--witness] [--json] [--graph-out FILE]
    linkdomain gen --model ic --candidates M --votes N [--seed S] [--out FILE]
    linkdomain gen --model edges --graph FILE [--out FILE]
    linkdomain oracle PROFILE [--mode strong|weak] [--format native|soc] [--cap N]

Exit codes: 0 linked / verdicts agree, 1 not linked, 2 error,
3 oracle disagreement (a bug detector). check and oracle are decision
procedures; shell pipelines can branch on the code without parsing output.
"""

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable

from .errors import LinkDomainError
from .graph import ConnectivityGraph, Mode, build_graph
from .model import ProfileScan
from .profiles import MAX_DIGITS, scan_profile
# perfbench's profiles.parse_native and profiles.parse_soc trace hooks look these up here
from .profiles import parse_native, parse_preflib_soc  # noqa: F401
from .recognize import RecognitionResult, recognize


def _check_pipeline(
    args: argparse.Namespace, check_m: Callable[[int], object] | None = None
) -> tuple[ProfileScan, ConnectivityGraph, RecognitionResult, float]:
    """Scan args.path in args.format (check_m as scan_profile takes it), then
    build its graph in args.mode and recognize it; the milliseconds time those two."""
    with open(args.path, "rb") as file:
        profile = scan_profile(file, args.format, check_m)
    mode = Mode(args.mode)
    start = time.perf_counter()
    graph = build_graph(profile, mode)
    result = recognize(graph)
    return profile, graph, result, (time.perf_counter() - start) * 1000.0


def cmd_check(args: argparse.Namespace) -> int:
    profile, graph, result, elapsed_ms = _check_pipeline(args)
    if profile.n >= 10**MAX_DIGITS:  # the report prints it; str() refuses longer ints
        raise LinkDomainError(f"vote total has more than {MAX_DIGITS} digits")
    names = profile.names
    edge_count = len(graph.csr_arrays()[1]) // 2  # each edge is in two rows of the stored adjacency

    if args.graph_out:
        from .graphio import export_dot  # here, so a plain check never loads it

        Path(args.graph_out).write_text(export_dot(graph, names), encoding="utf-8")

    if args.json:
        report = {
            "input": args.path,
            "mode": args.mode,
            "m": profile.m,
            "n": profile.n,
            "edges": edge_count,
            "verdict": result.verdict,
            "witness": [names[c] for c in result.witness] if result.witness else None,
            "elapsed_ms": round(elapsed_ms, 3),
        }
        print(json.dumps(report))
    else:
        print(f"input:      {args.path}")
        print(f"mode:       {args.mode}")
        print(f"candidates: {profile.m}")
        print(f"votes:      {profile.n}")
        print(f"edges:      {edge_count}")
        if result.linked:
            print("verdict:    LINKED")
            print("witness:    " + " > ".join(names[c] for c in result.witness))
            if args.witness:
                print("witness check: valid")  # recognize verified it
        else:
            print("verdict:    NOT LINKED")
            cert = result.certificate
            print(f"seeds tried: {len(cert)}")
            print(f"max stuck set size: {cert.max_stuck_size} of {profile.m}")
        print(f"elapsed:    {elapsed_ms:.2f} ms")
    return 0 if result.linked else 1


def cmd_gen(args: argparse.Namespace) -> int:
    from .generate import gen_edge_realizing, gen_impartial_culture  # here, so check never loads them
    from .graphio import parse_graph, write_native

    if args.model == "ic":
        if args.candidates is None or args.votes is None:
            raise LinkDomainError("--model ic needs --candidates and --votes")
        if args.candidates < 1:
            raise LinkDomainError("--candidates must be at least 1")
        if args.votes < 0:
            raise LinkDomainError("--votes must be non-negative")
        election = gen_impartial_culture(args.candidates, args.votes, args.seed)
    else:
        if args.graph is None:
            raise LinkDomainError("--model edges needs --graph")
        graph, names = parse_graph(Path(args.graph).read_bytes())
        election = gen_edge_realizing(graph, names)

    text = write_native(election)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import DEFAULT_CAP, brute_force_linked  # here, so check never loads it

    if args.cap is None:
        args.cap = DEFAULT_CAP

    def refuse_above_cap(m: int) -> None:  # as soon as the header or metadata gives m
        if m > args.cap:
            raise LinkDomainError(f"profile has {m} candidates, oracle capped at {args.cap}")

    _, graph, result, _ = _check_pipeline(args, refuse_above_cap)
    oracle_verdict, _ = brute_force_linked(graph, cap=args.cap)
    if result.linked == oracle_verdict:
        print(f"AGREE: {'linked' if result.linked else 'not linked'}")
        return 0
    print(
        f"DISAGREEMENT: recognize says {result.verdict}, "
        f"brute force says {'linked' if oracle_verdict else 'not-linked'}"
    )
    return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkdomain",
        description="Decide whether a preference profile is a linked domain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    profile = argparse.ArgumentParser(add_help=False)  # what check and oracle read
    profile.add_argument("path")
    profile.add_argument("--mode", choices=["strong", "weak"], default="strong")
    profile.add_argument("--format", choices=["native", "soc"], default="native")

    check = sub.add_parser("check", parents=[profile], help="recognize a profile, print witness or certificate")
    check.add_argument("--witness", action="store_true", help="report the witness check recognize ran")
    check.add_argument("--json", action="store_true", help="single-line JSON report")
    check.add_argument("--graph-out", metavar="FILE", help="write the connectivity graph as DOT")
    check.set_defaults(func=cmd_check)

    gen = sub.add_parser("gen", help="generate a profile fixture")
    gen.add_argument("--model", choices=["ic", "edges"], required=True)
    gen.add_argument("--candidates", type=int)
    gen.add_argument("--votes", type=int)
    gen.add_argument("--graph", metavar="FILE", help="edge list ('u v' lines) or DOT file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    gen.set_defaults(func=cmd_gen)

    oracle = sub.add_parser("oracle", parents=[profile], help="compare recognition against brute force")
    oracle.add_argument("--cap", type=int)
    oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LinkDomainError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
