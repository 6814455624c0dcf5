"""linkdomain benchmark: seeded workloads, checked verdicts, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ingest|notlinked_dense|linked_sparse
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. Inputs
are generated from --seed by inputs.py and cached under .perfbench_cache/.
Every workload is a closed loop: one caller, one operation at a time.

  ingest           fresh-process `python -m linkdomain.cli check FILE --json`
                   on large impartial-culture profiles (native m=20, native
                   m=8 with repeated rankings, PrefLib soc; strong and weak).
  notlinked_dense  recognize(ConnectivityGraph(m, edges)) on NOT LINKED graphs
                   that force a full seed sweep.
  linked_sparse    the same call on large sparse LINKED graphs, where the
                   sweep stops early and graph building shares the time.

Operations, set-up probes and cold checks are timed in CPU seconds (user +
system) of the process doing the work. The operations are single-threaded
and CPU-bound; on a shared virtual machine the wall clock also counts time
the machine was descheduled, which moved wall-clock medians by 10-25%
between runs. End-to-end times are then scaled to a reference machine speed
with gauge.py, timed around every sample; raw CPU medians go to the report.

Each run also measures setup_s (SETUP_PROBES fresh processes that import
linkdomain and load the inputs, after one untimed warm-up) and cold_check_ms
(COLD_CHECKS fresh `check` runs on a tiny profile), half before the timed
loop and half after it. Generating inputs is the benchmark's own work and is
not part of setup_s. Every verdict, witness and CLI report is checked with
verdict.py; error_rate (failed / attempted) goes to the report, and its
complement ok_rate is the end-to-end metric, since a metric must not be 0.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each operation also runs once under the hooks of spans.py and the
line carries the per-layer metrics instead. A full report, with the
environment, goes to .perfbench_cache/results/; compare.py compares two.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import gauge
import inputs
import verdict
from worker import MIN_ROUNDS

CACHE = ".perfbench_cache"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10  # set-up samples per run, half before and half after the workload
COLD_CHECKS = 20  # cold_check_ms samples per run, likewise
RUN_LIMIT = 170.0  # seconds; a run must end well within 180

END_TO_END = {
    "decide_s": "s",
    "worst_instance_s": "s",
    "cold_check_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "setup_s": "s",
}

# Per-layer span metrics: name -> (span, "ms" for the whole span or "self_ms").
SPAN_METRICS = {
    "cli.self_ms": ("cli", "self_ms"),
    "profiles.parse_native.self_ms": ("profiles.parse_native", "self_ms"),
    "profiles.parse_soc.self_ms": ("profiles.parse_soc", "self_ms"),
    "model.validate_election.ms": ("model.validate_election", "ms"),
    "graph.build_graph.ms": ("graph.build_graph", "ms"),
    "graph.construct.ms": ("graph.construct", "ms"),
    "graph.csr.ms": ("graph.csr", "ms"),
    "kernels.sweep.ms": ("kernels.sweep", "ms"),
    "recognize.self_ms": ("recognize", "self_ms"),
    "recognize.greedy_closure.ms": ("recognize.greedy_closure", "ms"),
    "recognize.verify_witness.ms": ("recognize.verify_witness", "ms"),
}
COUNT_METRICS = {
    "profiles.bytes": "profiles.parse_native",
    "model.votes": "model.validate_election",
    "model.distinct_rankings": "model.validate_election",
    "graph.edges": "graph.construct",
    "kernels.seeds_total": "kernels.sweep",
    "kernels.seeds_run": "kernels.sweep",
    "kernels.absorbed": "kernels.sweep",
    "recognize.witness_len": "recognize",
    "recognize.max_stuck_size": "recognize",
}
LAYERS = {
    "import": ["import.linkdomain_ms"],
    "cli": ["cli.self_ms"],
    "profiles": ["profiles.parse_native.self_ms", "profiles.parse_soc.self_ms"],
    "model": ["model.validate_election.ms"],
    "graph": ["graph.build_graph.ms", "graph.construct.ms", "graph.csr.ms"],
    "kernels": ["kernels.sweep.ms"],
    "recognize": ["recognize.self_ms", "recognize.greedy_closure.ms", "recognize.verify_witness.ms"],
}
PER_LAYER_UNITS = {
    "import.linkdomain_ms": "ms",
    **{name: "ms" for name in SPAN_METRICS},
    "profiles.bytes": "bytes",
    **{name: "count" for name in COUNT_METRICS if name != "profiles.bytes"},
    "kernels.seeds_run_ratio": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a result (missing program, crashed or hung child)."""


class Child(NamedTuple):
    cpu: float  # user + system seconds of the child, from its own rusage
    ref: float  # mean CPU seconds of the reference runs just before and after it
    rss_kib: int
    code: int
    out: bytes


class Runner:
    """Starts children one at a time under one deadline, reaps each with
    wait4 and times the machine-speed reference around each."""

    def __init__(self, root: Path, cache: Path):
        self.root = root
        self.reference = gauge.Gauge()
        self.started = perf_counter()
        self.stderr_path = cache / "child.stderr"
        # numpy's OpenBLAS otherwise starts a thread per core at import whose
        # start-up spin, 90-120 ms of CPU here, lands in every child's CPU time
        # though no operation calls BLAS.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")

    def remaining(self) -> float:
        return RUN_LIMIT - (perf_counter() - self.started)

    def run(self, argv: list[str]) -> Child:
        timeout = self.remaining() - 5.0
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        with open(self.stderr_path, "w+b") as err:
            start = perf_counter()
            before = self.reference()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=err)
            try:
                out = self._read(proc, start + timeout)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        ref = (before + self.reference()) / 2
        return Child(usage.ru_utime + usage.ru_stime, ref, usage.ru_maxrss, proc.returncode, out)

    @staticmethod
    def _read(proc: subprocess.Popen, deadline: float) -> bytes:
        fd = proc.stdout.fileno()
        chunks = []
        while True:
            left = deadline - perf_counter()
            if left <= 0:
                raise BenchError(f"{proc.args[1:4]} did not finish in time")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def stderr_tail(self) -> str:
        lines = self.stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def json_child(self, argv: list[str]) -> tuple[Child, dict]:
        child = self.run(argv)
        try:
            if child.code != 0:
                raise ValueError(f"exit code {child.code}")
            return child, json.loads(child.out.decode("utf-8").splitlines()[-1])
        except (ValueError, IndexError) as exc:
            raise BenchError(f"{Path(argv[1]).name} failed ({exc}): {self.stderr_tail()}") from None


def check_argv(where: Path, inst: dict, trace_out: Path | None = None) -> list[str]:
    head = [sys.executable, "-m", "linkdomain.cli"]
    if trace_out is not None:
        head = [sys.executable, str(HERE / "cli_traced.py"), str(trace_out)]
    return head + ["check", str(where / inst["file"]), "--json", "--mode", inst["mode"], "--format", inst["format"]]


def run_ingest(runner: Runner, where: Path, manifest: dict, seconds: float, traced: bool) -> list[dict]:
    records = [_record() for _ in manifest["instances"]]
    trace_out = where / "trace.json"
    start = perf_counter()
    rounds, round_s = 0, 0.0
    while (rounds < MIN_ROUNDS or perf_counter() - start < seconds) and runner.remaining() > 1.5 * round_s + 20:
        round_start = perf_counter()
        for record, inst in zip(records, manifest["instances"]):
            child = runner.run(check_argv(where, inst))
            _cli_check(runner, record, inst, child)
            record["times"].append(child.cpu)
            record["refs"].append(child.ref)
            record["rss_kib"].append(child.rss_kib)
            if traced:
                trace_out.unlink(missing_ok=True)
                child = runner.run(check_argv(where, inst, trace_out))
                if _cli_check(runner, record, inst, child):
                    record["traced_times"].append(child.cpu)
                    record["spans"].append(json.loads(trace_out.read_text(encoding="utf-8")))
        rounds += 1
        round_s = perf_counter() - round_start
    return records


def run_library(runner: Runner, where: Path, manifest: dict, seconds: float, traced: bool, probe: list[str]):
    budget = runner.remaining() - 30
    child, report = runner.json_child(
        probe[:-1] + ["--seconds", str(seconds), "--budget", str(budget), "--trace", str(int(traced))]
    )
    return check_library(where, manifest, report), child.rss_kib


def check_library(where: Path, manifest: dict, report: dict) -> list[dict]:
    """The worker's per-instance records, with each instance's outcome checked."""
    records = []
    for inst, record in zip(manifest["instances"], report["instances"]):
        for op in record["spans"]:
            op["missing"] = report["missing"]
        if record["outcome"] is not None:
            linked, witness = record.pop("outcome")
            adj = None
            if linked:
                m, flat = inputs.load_graph(where / inst["file"])
                adj = verdict.adjacency(m, inputs.edge_list(flat))
            reason = verdict.check_graph_result(inst, linked, witness, adj)
            if reason:
                record["failures"] += [reason] * record["same_outcome"]
        records.append(record)
    return records


def _record() -> dict:
    return {"attempted": 0, "times": [], "refs": [], "traced_times": [], "spans": [], "rss_kib": [], "failures": []}


def _cli_check(runner: Runner, record: dict, inst: dict, child: Child) -> bool:
    """Count one CLI run; False, with the reason recorded, when it is wrong."""
    record["attempted"] += 1
    reason = verdict.check_cli_run(inst, child.code, child.out)
    if reason:
        record["failures"].append(f"{reason}: {runner.stderr_tail()}")
    return reason is None


def end_to_end(records, cold: dict, setup: dict, peak_rss_kib, attempted, failed) -> dict:
    """Times scaled to the reference speed; `cold` and `setup` hold the
    samples' times and reference times like a record."""
    medians = [gauge.scaled(r["times"], r["refs"]) for r in records if r["times"]]
    return {
        "decide_s": sum(medians),
        "worst_instance_s": max(medians),
        "cold_check_ms": gauge.scaled(cold["times"], cold["refs"]) * 1000.0,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "ok_rate": 1.0 - failed / attempted,
        "setup_s": gauge.scaled(setup["times"], setup["refs"]),
    }


def per_layer(records, import_ms: float) -> dict:
    """Sums over instances of per-instance medians; counters from the first
    traced operation of each instance, which repeats exactly."""
    missing = {span for r in records for op in r["spans"] for span in op.get("missing", ())}
    values = {"import.linkdomain_ms": import_ms}
    layer_ms = {name: 0.0 for parts in LAYERS.values() for name in parts}
    for name, (span, kind) in SPAN_METRICS.items():
        if span not in missing:
            values[name] = sum(
                statistics.median(op[kind].get(span, 0.0) for op in r["spans"]) for r in records if r["spans"]
            )
            layer_ms[name] = values[name]
    # Import is paid inside each operation only where each one is a fresh process.
    layer_ms["import.linkdomain_ms"] = sum(
        statistics.median(op.get("import_ms", 0.0) for op in r["spans"]) for r in records if r["spans"]
    )
    for name, span in COUNT_METRICS.items():
        if span not in missing:
            firsts = [r["spans"][0]["counts"].get(name, 0) for r in records if r["spans"]]
            values[name] = max(firsts, default=0) if name == "recognize.max_stuck_size" else sum(firsts)
    if "kernels.sweep" not in missing:
        values["kernels.seeds_run_ratio"] = values["kernels.seeds_run"] / max(values["kernels.seeds_total"], 1)
    # Shares are of the traced operations themselves, less the tracer's own
    # counting, so that run-to-run noise between traced and untraced calls
    # does not enter them.
    traced_net_ms = sum(
        statistics.median(t * 1000.0 - op["overhead_ms"] for t, op in zip(r["traced_times"], r["spans"]))
        for r in records
        if r["spans"]
    )
    for layer, parts in LAYERS.items():
        values[f"{layer}.share"] = sum(layer_ms[part] for part in parts) / traced_net_ms
    traced_ms = sum(statistics.median(r["traced_times"]) for r in records if r["traced_times"])
    untraced_ms = sum(statistics.median(r["times"]) for r in records if r["times"])
    values["trace.overhead"] = traced_ms / untraced_ms - 1.0
    return values


def environment(root: Path, kernel, numpy_version) -> dict:
    """The program's kernel, the toolchain and the code version: the commit,
    or a digest of src/ where the checkout is not a git repository."""
    env = {
        "kernel": kernel,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }
    if (root / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True, timeout=10
            ).stdout.strip()
            return env
        except (OSError, subprocess.SubprocessError):
            pass
    env["source_digest"] = _source_digest(root / "src")
    return env


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix not in (".pyc", ".so"):
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "linkdomain" / "__init__.py").is_file():
        print("error: src/linkdomain not found; run from the root of a linkdomain checkout", file=sys.stderr)
        return 2
    try:
        result, report = run(root, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = root / CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for inst in report["instances"]:
        print(f"{inst['name']:<24} median {inst['median_s']:.4f} s CPU, {inst['scaled_median_s']:.4f} s scaled,"
              f" over {inst['samples']} runs,"
              f" sweep_seeds {inst['sweep_seeds']}"
              + (f"; failures: {inst['failures'][:3]}" if inst["failures"] else ""))
    print("env: " + json.dumps(report["env"]))
    print(json.dumps(result))
    return 0


def run(root: Path, args) -> tuple[dict, dict]:
    cache = root / CACHE
    cache.mkdir(exist_ok=True)
    runner = Runner(root, cache)
    start = perf_counter()
    where, manifest = inputs.ensure(cache, args.workload, args.seed)
    generate_s = perf_counter() - start

    probe = [sys.executable, str(HERE / "worker.py"), "--dir", str(where), "--workload", args.workload, "--setup-only"]
    probe_report = runner.json_child(probe)[1]  # warm-up: page cache, untimed
    setup, cold = {"times": [], "refs": []}, {"times": [], "refs": []}
    import_ms, cold_failures = [], []

    def sample_start_up() -> None:
        """Half of the set-up probes and cold checks, interleaved; run before
        and after the workload so both medians span the whole run."""
        for i in range(max(SETUP_PROBES, COLD_CHECKS) // 2):
            if i < SETUP_PROBES // 2:
                child, report = runner.json_child(probe)
                setup["times"].append(child.cpu)
                setup["refs"].append(child.ref)
                import_ms.append(report["import_ms"])
            if i < COLD_CHECKS // 2:
                child = runner.run(check_argv(where, manifest["cold"]))
                reason = verdict.check_cli_run(manifest["cold"], child.code, child.out)
                if reason:
                    cold_failures.append(reason)
                else:
                    cold["times"].append(child.cpu)
                    cold["refs"].append(child.ref)

    sample_start_up()
    traced = bool(args.trace)
    if args.workload == "ingest":
        records = run_ingest(runner, where, manifest, args.seconds, traced)
        peak_rss_kib = max((rss for r in records for rss in r["rss_kib"]), default=0)
    else:
        records, peak_rss_kib = run_library(runner, where, manifest, args.seconds, traced, probe)
    sample_start_up()

    attempted = len(cold["times"]) + len(cold_failures) + sum(r["attempted"] for r in records)
    failed = len(cold_failures) + sum(len(r["failures"]) for r in records)
    if not cold["times"] or not all(r["times"] for r in records):
        raise BenchError(f"an instance never completed: {cold_failures or [r['failures'][:1] for r in records]}")
    if traced:
        metrics = per_layer(records, statistics.median(import_ms))
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(records, cold, setup, peak_rss_kib, attempted, failed)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(root, probe_report["kernel"], probe_report["numpy"]),
        "generate_s": generate_s,
        "error_rate": failed / attempted,
        "setup_samples": setup,
        "cold_samples": cold,
        "cold_failures": cold_failures,
        "instances": [
            {
                "name": inst["name"],
                "median_s": statistics.median(r["times"]),
                "scaled_median_s": gauge.scaled(r["times"], r["refs"]),
                "samples": len(r["times"]),
                "sweep_seeds": inst.get("sweep_seeds"),
                "counts": r["spans"][0]["counts"] if r["spans"] else None,
                "times_s": r["times"],
                "refs_s": r["refs"],
                "traced_times_s": r["traced_times"],
                "failures": r["failures"],
            }
            for inst, r in zip(manifest["instances"], records)
        ],
        "result": result,
    }
    return result, report


if __name__ == "__main__":
    sys.exit(main())
