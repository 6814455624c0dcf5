"""Seeded benchmark inputs, generated by the benchmark's own code and cached.

Every instance draws from random.Random("<version>:<seed>:<instance name>"),
so one --seed always gives byte-identical files, and nothing here imports
linkdomain: changing the program under test cannot change its inputs. The
expected verdict of each instance is fixed at generation time, either by
construction or by verdict.decide, and pinned in manifest.json next to the
files together with their SHA-256.
"""

import hashlib
import json
import math
import os
import random
import shutil
import sys
from array import array
from pathlib import Path

import verdict

GEN_VERSION = 2

# Instance sets per workload. Ingest profiles are sized so that parsing
# dwarfs interpreter start-up; the m=8 profile repeats each ranking about ten
# times, the m=20 ones never. Linked-by-construction graphs are labelled so
# that an ascending seed sweep meets its first covering seed after about
# 2 * lead * m seeds whatever the seed (see _linked).
SIZES = {
    "ingest": [
        {"name": "ic_native_m20", "kind": "profile", "format": "native", "m": 20, "n": 220_000, "mode": "strong"},
        {"name": "ic_native_m8_weak", "kind": "profile", "format": "native", "m": 8, "n": 400_000, "mode": "weak"},
        {"name": "ic_soc_m20", "kind": "profile", "format": "soc", "m": 20, "n": 100_000, "mode": "strong"},
    ],
    "notlinked_dense": [
        {"name": "pendant_clique_m70", "kind": "graph", "family": "pendant_clique", "m": 70},
        {"name": "knn_100", "kind": "graph", "family": "complete_bipartite", "side": 100},
        {"name": "gnp_m2500_0.8pc", "kind": "graph", "family": "gnp", "m": 2500, "factor": 0.8, "verdict": "not-linked"},
    ],
    "linked_sparse": [
        {"name": "linked_m20000", "kind": "graph", "family": "linked", "m": 20_000, "extra": 0, "lead": 0.07},
        {"name": "linked_m30000_x3000", "kind": "graph", "family": "linked", "m": 30_000, "extra": 3_000, "lead": 0.07},
        {"name": "linked_m50000", "kind": "graph", "family": "linked", "m": 50_000, "extra": 0, "lead": 0.07},
        {"name": "linked_m50000_x10000", "kind": "graph", "family": "linked", "m": 50_000, "extra": 10_000, "lead": 0.07},
        {"name": "gnp_m5000_1.2pc", "kind": "graph", "family": "gnp", "m": 5000, "factor": 1.2, "verdict": "linked"},
    ],
}

# The profile behind cold_check_ms: small enough that start-up is all of it.
COLD = {"name": "cold_tiny", "kind": "profile", "format": "native", "m": 5, "n": 8, "mode": "strong"}

WORKLOADS = tuple(SIZES)
MAX_RESAMPLES = 100
KEEP_SEEDS = 4  # cached seeds per workload; one full ingest seed is ~60 MB


def instance_dir(cache: Path, workload: str, seed: int) -> Path:
    """Cache directory, keyed by everything that shapes the files."""
    specs = json.dumps([GEN_VERSION, COLD, SIZES[workload]], sort_keys=True)
    key = hashlib.sha256(specs.encode()).hexdigest()[:12]
    return cache / f"{workload}-{key}" / f"seed-{seed}"


def ensure(cache: Path, workload: str, seed: int) -> tuple[Path, dict]:
    """Directory and manifest of the workload's inputs, generating them unless
    an intact copy is already cached. Keeps the KEEP_SEEDS most recently used
    seeds of the workload."""
    where = instance_dir(cache, workload, seed)
    manifest_path = where / "manifest.json"
    manifest = None
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        files = [manifest["cold"], *manifest["instances"]]
        if not all(_sha256(where / inst["file"]) == inst["sha256"] for inst in files):
            manifest = None
    if manifest is None:
        tmp = where.with_name(f"{where.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        manifest = generate(tmp, workload, seed)
        shutil.rmtree(where, ignore_errors=True)
        tmp.rename(where)
    os.utime(where)
    for old in sorted(where.parent.iterdir(), key=lambda p: p.stat().st_mtime)[:-KEEP_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return where, manifest


def generate(out: Path, workload: str, seed: int) -> dict:
    """Write the workload's instances and manifest.json into `out`."""
    manifest = {
        "version": GEN_VERSION,
        "workload": workload,
        "seed": seed,
        "cold": _make(out, COLD, seed),
        "instances": [_make(out, spec, seed) for spec in SIZES[workload]],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def load_graph(path: Path) -> tuple[int, array]:
    """(m, flat edge array u0, v0, u1, v1, ...) from a graph file:
    little-endian int32 m, |E|, then the pairs."""
    data = array("i")
    data.frombytes(path.read_bytes())
    if sys.byteorder == "big":
        data.byteswap()
    m, count = data[0], data[1]
    if len(data) != 2 + 2 * count:
        raise ValueError(f"{path}: truncated graph file")
    return m, data[2:]


def edge_list(flat: array) -> list[tuple[int, int]]:
    return list(zip(flat[0::2], flat[1::2]))


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _make(out: Path, spec: dict, seed: int) -> dict:
    rng = random.Random(f"{GEN_VERSION}:{seed}:{spec['name']}")
    entry = dict(spec)
    if spec["kind"] == "profile":
        entry["file"] = f"{spec['name']}.{spec['format']}"
        entry.update(_write_profile(out / entry["file"], spec, rng))
    else:
        m, edges, entry["verdict_source"], entry["verdict"] = _graph(spec, rng, seed)
        entry["file"] = f"{spec['name']}.graph"
        _write_graph(out / entry["file"], m, edges)
        entry["m"] = m
        entry["edges"] = len(edges)
        entry["sweep_seeds"] = _sweep_seeds(m, edges, entry["verdict"])
    entry["sha256"] = _sha256(out / entry["file"])
    return entry


def _write_profile(path: Path, spec: dict, rng: random.Random) -> dict:
    """Impartial culture: n uniformly random rankings, one vote per line."""
    m, n, fmt = spec["m"], spec["n"], spec["format"]
    names = [f"c{i}" for i in range(m)]
    if fmt == "native":
        tokens, sep = names, " > "
        head = ["candidates: " + ", ".join(names)]
    else:
        tokens, sep = [str(i + 1) for i in range(m)], ","
        head = [f"# NUMBER ALTERNATIVES: {m}", f"# NUMBER VOTERS: {n}"]
        head += [f"# ALTERNATIVE NAME {i + 1}: {name}" for i, name in enumerate(names)]
    ranking = list(range(m))
    tops = set()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(head) + "\n")
        for start in range(0, n, 10_000):
            lines = []
            for _ in range(min(10_000, n - start)):
                rng.shuffle(ranking)
                tops.add((ranking[0], ranking[1]))
                lines.append("1: " + sep.join([tokens[c] for c in ranking]) + "\n")
            f.write("".join(lines))
    if spec["mode"] == "strong":
        edges = sorted((a, b) for a, b in tops if a < b and (b, a) in tops)
    else:
        edges = sorted({(min(a, b), max(a, b)) for a, b in tops})
    linked, _ = verdict.decide(m, edges)
    return {"names": names, "edges": edges, "verdict": "linked" if linked else "not-linked"}


def _graph(spec: dict, rng: random.Random, seed: int) -> tuple[int, list, str, str]:
    family = spec["family"]
    if family == "pendant_clique":
        m = spec["m"]
        perm = _perm(m, rng)
        edges = [(perm[i], perm[j]) for i in range(m - 1) for j in range(i + 1, m - 1)]
        edges.append((perm[0], perm[m - 1]))
        return m, _shuffled(edges, rng), "construction", "not-linked"
    if family == "complete_bipartite":
        side = spec["side"]
        perm = _perm(2 * side, rng)
        edges = [(perm[i], perm[side + j]) for i in range(side) for j in range(side)]
        return 2 * side, _shuffled(edges, rng), "construction", "not-linked"
    if family == "linked":
        edges = _linked(spec["m"], spec["extra"], int(spec["lead"] * spec["m"]), rng)
        return spec["m"], _shuffled(edges, rng), "construction", "linked"
    if family == "gnp":
        # Resample until the graph has the verdict the workload is about:
        # near the threshold either verdict occurs.
        m = spec["m"]
        p = spec["factor"] / math.sqrt(m * math.log(m))
        for attempt in range(MAX_RESAMPLES):
            draw = random.Random(f"{GEN_VERSION}:{seed}:{spec['name']}:{attempt}")
            edges = gnp(m, p, draw)
            linked, _ = verdict.decide(m, edges)
            if linked == (spec["verdict"] == "linked"):
                return m, edges, "closure", spec["verdict"]
        raise RuntimeError(f"{spec['name']}: no {spec['verdict']} draw in {MAX_RESAMPLES} tries")
    raise ValueError(f"unknown graph family {family!r}")


def _perm(m: int, rng: random.Random) -> list[int]:
    perm = list(range(m))
    rng.shuffle(perm)
    return perm


def _shuffled(edges: list, rng: random.Random) -> list:
    rng.shuffle(edges)
    return [(u, v) if u < v else (v, u) for u, v in edges]


def _linked(m: int, extra: int, lead: int, rng: random.Random) -> list[tuple[int, int]]:
    """Linked by construction in O(m + extra): a build order whose first two
    vertices are joined and whose later vertices each join two random
    predecessors is a witness; extra random edges cannot spoil it.

    The last `lead` vertices of the build order are labelled 0..lead-1 and
    the first two lead and lead+1, the rest at random above them. In
    ascending edge order the seeds before (lead, lead+1) are then the edges
    that touch a late vertex, about 2 * lead of them, and these almost all
    get stuck at once: how long a sweep runs before it covers the graph
    depends on `lead`, not on the random draw.
    """
    tail = list(range(lead))
    rest = list(range(lead + 2, m))
    rng.shuffle(tail)
    rng.shuffle(rest)
    label = [lead, lead + 1, *rest, *tail]
    edges = {(lead, lead + 1)}
    for i in range(2, m):
        a = rng.randrange(i)
        b = rng.randrange(i - 1)
        b += b >= a
        for j in (a, b):
            u, v = label[i], label[j]
            edges.add((min(u, v), max(u, v)))
    target = len(edges) + min(extra, m * (m - 1) // 2 - len(edges))
    while len(edges) < target:
        u, v = rng.randrange(m), rng.randrange(m)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _sweep_seeds(m: int, edges: list, expected: str) -> int:
    """Seeds an ascending sweep runs: up to the first covering one, or all.
    Raises when the graph does not have the expected verdict."""
    found = verdict.first_covering_seed(m, edges)
    if (found is not None) != (expected == "linked"):
        raise RuntimeError(f"generated graph is not {expected}")
    return len(edges) if found is None else found[0] + 1


def gnp(m: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Erdos-Renyi G(m, p) in O(m + |E|) by geometric skipping (Batagelj and Brandes)."""
    edges = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < m:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < m:
            w -= v
            v += 1
        if v < m:
            edges.append((w, v))
    return edges


def _write_graph(path: Path, m: int, edges: list[tuple[int, int]]) -> None:
    data = array("i", [m, len(edges)])
    for u, v in edges:
        data.append(u)
        data.append(v)
    if sys.byteorder == "big":
        data.byteswap()
    path.write_bytes(data.tobytes())
