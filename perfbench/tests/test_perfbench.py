"""Tests of the benchmark itself: inputs, independent checks, tracing, a tiny run.

    python3 -m pytest perfbench/tests -q
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import gauge  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verdict  # noqa: E402
import worker  # noqa: E402
from linkdomain import ConnectivityGraph, RecognitionResult, brute_force_linked, enumerate_graphs, recognize  # noqa: E402


# The benchmark's instance families at sizes small enough for tests.
TINY = {
    "ingest": [
        {"name": "ic_native_m20", "kind": "profile", "format": "native", "m": 20, "n": 600, "mode": "strong"},
        {"name": "ic_native_m8_weak", "kind": "profile", "format": "native", "m": 8, "n": 300, "mode": "weak"},
        {"name": "ic_soc_m20", "kind": "profile", "format": "soc", "m": 20, "n": 300, "mode": "strong"},
    ],
    "notlinked_dense": [
        {"name": "pendant_clique_m12", "kind": "graph", "family": "pendant_clique", "m": 12},
        {"name": "knn_6", "kind": "graph", "family": "complete_bipartite", "side": 6},
        {"name": "gnp_m200_0.8pc", "kind": "graph", "family": "gnp", "m": 200, "factor": 0.8, "verdict": "not-linked"},
    ],
    "linked_sparse": [
        {"name": "linked_m300", "kind": "graph", "family": "linked", "m": 300, "extra": 0, "lead": 0.07},
        {"name": "linked_m400_x50", "kind": "graph", "family": "linked", "m": 400, "extra": 50, "lead": 0.07},
        {"name": "gnp_m300_1.2pc", "kind": "graph", "family": "gnp", "m": 300, "factor": 1.2, "verdict": "linked"},
    ],
}


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    monkeypatch.setattr(inputs, "SIZES", TINY)


def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    inputs.generate(tmp_path / "a", workload, 7)
    inputs.generate(tmp_path / "b", workload, 7)
    inputs.generate(tmp_path / "c", workload, 8)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_cache_regenerates_damaged_files(tmp_path):
    where, manifest = inputs.ensure(tmp_path, "linked_sparse", 3)
    victim = where / manifest["instances"][0]["file"]
    original = victim.read_bytes()
    victim.write_bytes(original[:-8])
    inputs.ensure(tmp_path, "linked_sparse", 3)
    assert victim.read_bytes() == original


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_checker_agrees_with_brute_force(m):
    for graph in enumerate_graphs(m):
        linked, order = verdict.decide(m, graph.edges)
        assert linked == brute_force_linked(graph)[0], graph.edges
        adj = verdict.adjacency(m, graph.edges)
        if linked:
            assert verdict.is_witness(adj, order)
        else:
            assert order is None


def test_witness_checker_rejects_bad_orders():
    adj = verdict.adjacency(4, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
    assert verdict.is_witness(adj, [0, 1, 2, 3])
    assert not verdict.is_witness(adj, [0, 3, 1, 2])  # first pair not adjacent
    assert not verdict.is_witness(adj, [2, 3, 0, 1])  # 0 has one earlier neighbour
    assert not verdict.is_witness(adj, [0, 1, 2])  # not a permutation


def test_generated_verdicts_hold(tmp_path):
    for workload in ("notlinked_dense", "linked_sparse"):
        where, manifest = inputs.ensure(tmp_path, workload, 5)
        for inst in manifest["instances"]:
            m, flat = inputs.load_graph(where / inst["file"])
            assert verdict.decide(m, inputs.edge_list(flat))[0] == (inst["verdict"] == "linked"), inst["name"]


def test_linked_sweep_length_does_not_depend_on_the_seed(tmp_path):
    """Where a linked-by-construction graph's first covering seed falls in
    ascending edge order is set by its spec, not by the random draw."""
    lengths = set()
    for seed in (1, 2, 3):
        (tmp_path / str(seed)).mkdir()
        manifest = inputs.generate(tmp_path / str(seed), "linked_sparse", seed)
        lengths.add(manifest["instances"][0]["sweep_seeds"])
    assert lengths == {2 * int(0.07 * 300) + 1}


def _reference() -> float:
    return 0.01


def _liar(graph):
    """recognize with the verdict flipped."""
    real = recognize(graph)
    if real.linked:
        return RecognitionResult(linked=False, certificate=None)
    return RecognitionResult(linked=True, witness=tuple(range(graph.m)))


@pytest.mark.parametrize("workload", ["notlinked_dense", "linked_sparse"])
def test_wrong_verdict_raises_error_rate(tmp_path, workload):
    where, manifest = inputs.ensure(tmp_path, workload, 1)
    graphs = [inputs.load_graph(where / inst["file"]) for inst in manifest["instances"]]

    honest = worker.measure(graphs, 0, 10, False, ConnectivityGraph, recognize, _reference)
    assert not any(r["failures"] for r in run.check_library(where, manifest, honest))

    lying = worker.measure(graphs, 0, 10, True, ConnectivityGraph, _liar, _reference)
    records = run.check_library(where, manifest, lying)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    assert failed == attempted > 0
    samples = {"times": [0.1], "refs": [0.01]}
    metrics = run.end_to_end(records, samples, samples, 1024, attempted, failed)
    assert metrics["ok_rate"] == 0.0


def test_scaling_cancels_a_uniform_slowdown():
    times, refs = [0.5, 0.6, 0.4], [0.010, 0.012, 0.008]
    assert gauge.scaled(times, refs) == pytest.approx(0.5)
    assert gauge.scaled([t * 1.7 for t in times], [r * 1.7 for r in refs]) == pytest.approx(0.5)
    assert gauge.scaled([t * 1.2 for t in times], refs) == pytest.approx(0.6)
    assert gauge.Gauge()() > 0


def test_cli_report_checks(tmp_path):
    where, manifest = inputs.ensure(tmp_path, "ingest", 1)
    inst = manifest["instances"][0]
    assert inst["verdict"] == "linked"
    ids = {name: i for i, name in enumerate(inst["names"])}
    _, order = verdict.decide(inst["m"], inst["edges"])
    report = {
        "input": "x", "mode": inst["mode"], "m": inst["m"], "n": inst["n"], "edges": len(inst["edges"]),
        "verdict": "linked", "witness": [inst["names"][v] for v in order], "elapsed_ms": 1.0,
    }
    assert set(ids) == set(report["witness"])
    good = json.dumps(report).encode()
    assert verdict.check_cli_run(inst, 0, good) is None
    assert verdict.check_cli_run(inst, 1, good) is not None
    assert verdict.check_cli_run(inst, 0, json.dumps({**report, "extra": 1}).encode()) is not None
    repeated = report["witness"][:-1] + report["witness"][:1]
    assert verdict.check_cli_run(inst, 0, json.dumps({**report, "witness": repeated}).encode()) is not None
    assert verdict.check_cli_run(inst, 0, json.dumps({**report, "verdict": "not-linked"}).encode()) is not None


def _hooked_attributes():
    return [spans.resolve(module_name, path)[2] for module_name, path, _ in spans.HOOKS]


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    import linkdomain.cli  # noqa: F401 - hooks reach into it

    before = _hooked_attributes()
    where, manifest = inputs.ensure(tmp_path, "linked_sparse", 1)
    graphs = [inputs.load_graph(where / inst["file"]) for inst in manifest["instances"]]
    report = worker.measure(graphs, 0, 10, True, ConnectivityGraph, recognize, _reference)
    assert _hooked_attributes() == before
    assert report["missing"] == []
    op = report["instances"][0]["spans"][0]
    assert op["ms"]["kernels.sweep"] > 0 and op["counts"]["kernels.seeds_run"] >= 1


def test_missing_hook_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (("linkdomain.kernels", "gone", "kernels.gone"),
                                                       ("linkdomain.nosuchmodule", "f", "nowhere")))
    saved, missing = spans.install(spans.Tracer())
    spans.restore(saved)
    assert missing == ["kernels.gone", "nowhere"]


def test_compare_refuses_different_kernels():
    base = {"workload": "ingest", "trace": 0, "env": {"kernel": "pure"},
            "result": {"metrics": {"decide_s": {"value": 2.0, "unit": "s"}}}}
    assert "0.500x" in compare.compare(base, {**base, "result": {"metrics": {"decide_s": {"value": 1.0, "unit": "s"}}}})[0]
    with pytest.raises(ValueError, match="kernel"):
        compare.compare(base, {**base, "env": {"kernel": "compiled"}})


def test_compare_treats_a_missing_kernel_as_pure():
    base = {"workload": "notlinked_dense", "trace": 0, "env": {"kernel": "pure"},
            "result": {"metrics": {"decide_s": {"value": 2.0, "unit": "s"}}}}
    assert compare.compare(base, {**base, "env": {"kernel": None}})
    with pytest.raises(ValueError, match="kernel"):
        compare.compare({**base, "env": {"kernel": None}}, {**base, "env": {"kernel": "compiled"}})


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} == set(inputs.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.END_TO_END.items())
    assert {(m["name"], m["unit"]) for m in bench["per_layer"]} == set(run.PER_LAYER_UNITS.items())


def _checkout(tmp_path: Path, with_program: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return root


@pytest.mark.parametrize("workload,trace", [("ingest", 1), ("notlinked_dense", 0), ("linked_sparse", 1)])
def test_tiny_run_completes(tmp_path, workload, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = argparse.Namespace(workload=workload, seed=4, seconds=0.2, trace=trace)
    result, report = run.run(_checkout(tmp_path, True), args)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    assert [inst["name"] for inst in report["instances"]] == [spec["name"] for spec in TINY[workload]]


def test_refuses_to_run_without_the_program(tmp_path):
    argv = [sys.executable, "perfbench/run.py", "--workload", "notlinked_dense", "--seed", "4",
            "--seconds", "0.2", "--trace", "0"]
    done = subprocess.run(argv, cwd=_checkout(tmp_path, False), capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
