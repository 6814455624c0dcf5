"""One fresh process that sets up a workload and, unless --setup-only, runs it.

Library workloads call recognize(ConnectivityGraph(m, edges)) in a closed
loop, one call at a time, over the instance set in a fixed order, for at
least --seconds and MIN_ROUNDS rounds. Each call is timed in CPU time of
this process, with the machine-speed reference of gauge.py timed just before
and just after it. Instances are held as compact int32 arrays; a call's edge list
is built just before it, outside the timed region, and dropped after it, so
that the process's peak RSS is the program's and one instance's input, not
the whole instance set. The report is one JSON line on stdout; verdicts and
witnesses are checked by run.py, not here, so that the checking code and its
memory stay out of this process.

    python3 perfbench/worker.py --dir DIR --workload NAME --setup-only
    python3 perfbench/worker.py --dir DIR --workload NAME --seconds S --budget S [--trace 0|1]
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter, process_time

import gauge
import inputs
import spans

MIN_ROUNDS = 3


def measure(graphs, seconds: float, budget: float, traced: bool, graph_type, recognize, reference) -> dict:
    """Time every instance, given as (m, flat edge array), once per round;
    `reference()` gives the CPU seconds of one reference run. With `traced`,
    each untraced call is followed by a traced one so both see the same
    conditions."""
    per = [
        {"attempted": 0, "times": [], "refs": [], "traced_times": [], "spans": [], "failures": [], "outcome": None,
         "same_outcome": 0}
        for _ in graphs
    ]
    missing: list[str] = []
    start = perf_counter()
    rounds = 0
    while (rounds < MIN_ROUNDS or perf_counter() - start < seconds) and perf_counter() - start < budget:
        for record, (m, flat) in zip(per, graphs):
            edges = inputs.edge_list(flat)
            before = reference()
            took = _call(graph_type, recognize, m, edges, record)
            after = reference()
            if took is not None:
                record["times"].append(took)
                record["refs"].append((before + after) / 2)
            if traced:
                tracer = spans.Tracer()
                saved, missing = spans.install(tracer)
                try:
                    took = _call(
                        tracer.wrap("graph.construct", graph_type), tracer.wrap("recognize", recognize), m, edges, record
                    )
                finally:
                    spans.restore(saved)
                op = tracer.finish()
                if took is not None:
                    record["traced_times"].append(took)
                    record["spans"].append(op)
            del edges
        rounds += 1
    return {"rounds": rounds, "missing": missing, "instances": per}


def _call(graph_type, recognize, m, edges, record) -> float | None:
    """CPU seconds of one call, or None when it raised. Failures go to the
    record; the first outcome is kept there for run.py to check."""
    record["attempted"] += 1
    start = process_time()
    try:
        result = recognize(graph_type(m, edges))
    except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
        record["failures"].append(f"{type(exc).__name__}: {exc}")
        return None
    took = process_time() - start
    try:
        outcome = [bool(result.linked), list(result.witness) if result.linked else None]
    except (AttributeError, TypeError) as exc:
        record["failures"].append(f"malformed result: {exc}")
        return took
    if record["outcome"] is None:
        record["outcome"] = outcome
    if outcome == record["outcome"]:
        record["same_outcome"] += 1
    else:
        record["failures"].append("verdict or witness changed between calls")
    return took


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--budget", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.setup_only and (args.seconds is None or args.budget is None):
        parser.error("--seconds and --budget are required unless --setup-only")

    start = process_time()
    import linkdomain

    if args.workload == "ingest":
        import linkdomain.cli  # noqa: F401 - what `python -m linkdomain.cli` imports
    import_ms = (process_time() - start) * 1000.0

    manifest = json.loads((args.dir / "manifest.json").read_text(encoding="utf-8"))
    if args.workload == "ingest":
        loaded = [(args.dir / inst["file"]).read_bytes() for inst in manifest["instances"]]
    else:
        loaded = [inputs.load_graph(args.dir / inst["file"]) for inst in manifest["instances"]]
    report = {
        "import_ms": import_ms,
        "kernel": getattr(getattr(linkdomain, "kernels", None), "KERNEL", None),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "loaded": len(loaded),
    }
    if not args.setup_only:
        report.update(
            measure(loaded, args.seconds, args.budget, bool(args.trace),
                    linkdomain.ConnectivityGraph, linkdomain.recognize, gauge.Gauge())
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
