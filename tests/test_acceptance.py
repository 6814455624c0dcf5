"""Acceptance suite: every shipped guarantee, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything here is zero-tolerance except the wall-clock bounds of
criterion 7, which hold on commodity hardware: the pure-Python sweep skips
every pendant-clique seed that lies inside the first seed's stuck clique,
and writes the pendant edge, whose ends share no neighbor, as a stuck pair
(pinned by test_kernels.test_pendant_clique_runs_two_seeds).
"""

import random
import time

from linkdomain import (
    ConnectivityGraph,
    InvalidElection,
    LinkDomainError,
    Mode,
    ProfileError,
    brute_force_linked,
    build_graph,
    enumerate_graphs,
    gen_edge_realizing,
    gen_impartial_culture,
    gen_linked_graph,
    gen_pendant_clique,
    gen_random_graph,
    greedy_closure,
    linked_via_all_pair_seeds,
    parse_graph,
    parse_native,
    parse_preflib_soc,
    recognize,
    recognize_election,
    verify_witness,
    write_native,
)
from linkdomain.model import election_from_ids


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"criterion {num} failed: {desc}" + (f" :: {detail}" if detail else "")


def test_criterion_1_exhaustive_oracle_equivalence():
    start = time.perf_counter()
    disagreements = []
    for m in range(1, 7):
        for index, g in enumerate(enumerate_graphs(m)):
            if recognize(g).linked != brute_force_linked(g)[0]:
                disagreements.append((m, index))
    rng = random.Random(0x5EED1)
    for i in range(300):
        g = gen_random_graph(7, rng.uniform(0.05, 0.95), seed=rng.getrandbits(32))
        if recognize(g).linked != brute_force_linked(g)[0]:
            disagreements.append((7, i))
    elapsed = time.perf_counter() - start
    _report(
        1,
        not disagreements and elapsed < 60.0,
        f"every graph with m <= 6 (incl. all 32768 on 6 vertices) plus 300 sampled m=7 "
        f"graphs agree with brute force ({elapsed:.1f}s)",
        f"disagreements: {disagreements[:5]}",
    )


def test_criterion_2_sampled_oracle_equivalence():
    rng = random.Random(0x5EED2)
    failures = []
    for i in range(1000):
        m = rng.randint(4, 7)
        n = rng.randint(0, 12)
        election = gen_impartial_culture(m, n, seed=rng.getrandbits(32))
        for mode in (Mode.STRONG, Mode.WEAK):
            graph = build_graph(election, mode)
            result = recognize(graph)
            verdict, oracle_witness = brute_force_linked(graph)
            if result.linked != verdict:
                failures.append((i, mode.value, "verdict"))
            if result.linked and not verify_witness(graph, result.witness):
                failures.append((i, mode.value, "recognize witness"))
            if verdict and not verify_witness(graph, oracle_witness):
                failures.append((i, mode.value, "oracle witness"))
    _report(
        2,
        not failures,
        "1000 random elections (m 4..7, n 0..12, both modes): verdicts and witnesses agree",
        f"first failures: {failures[:5]}",
    )


def test_criterion_3_closure_confluence():
    rng = random.Random(0x5EED3)
    failures = []
    for i in range(200):
        m = rng.randint(3, 30)
        # sparse, near-threshold, and dense graphs all exercise the closure
        prob = rng.choice([1.5 / m, 3.0 / m, 0.15])
        g = gen_random_graph(m, prob, seed=rng.getrandbits(32))
        # Each tie-break order is a relabeling pi of the vertices, which
        # changes the order in which the closure reads them.
        relabeled = []
        for _ in range(100):
            pi = list(range(m))
            rng.shuffle(pi)
            relabeled.append((pi, ConnectivityGraph(m, [(pi[u], pi[v]) for u, v in g.edges])))
        for a, b in g.edges:
            baseline = greedy_closure(g, (a, b))
            for pi, h in relabeled:
                if frozenset(greedy_closure(h, (pi[a], pi[b]))) != {pi[v] for v in baseline}:
                    failures.append((i, (a, b)))
                    break
    _report(
        3,
        not failures,
        "200 random graphs (m <= 30): reached set identical across 100 tie-break orders per seed",
        f"first failures: {failures[:5]}",
    )


def test_criterion_4_seed_restriction():
    rng = random.Random(0x5EED4)
    failures = []
    for i in range(200):
        m = rng.randint(2, 12)
        g = gen_random_graph(m, rng.uniform(0.1, 0.9), seed=rng.getrandbits(32))
        if recognize(g).linked != linked_via_all_pair_seeds(g):
            failures.append(i)
    _report(
        4,
        not failures,
        "200 random graphs: edge-only seeding equals all-pairs seeding",
        f"failing graph indices: {failures[:5]}",
    )


def test_criterion_5_vote_monotonicity():
    rng = random.Random(0x5EED5)
    failures = []
    for i in range(200):
        m = rng.randint(3, 9)
        g = gen_linked_graph(m, extra_edges=rng.randint(0, m), seed=rng.getrandbits(32))
        election = gen_edge_realizing(g)
        if not recognize_election(election).linked:
            failures.append((i, "base election not linked"))
            continue
        extra = []
        for _ in range(5):
            ranking = list(range(m))
            rng.shuffle(ranking)
            extra.append((tuple(ranking), 1))
        grown = election_from_ids(list(election.votes) + extra, m)
        if not recognize_election(grown).linked:
            failures.append((i, "verdict flipped"))
    _report(
        5,
        not failures,
        "200 random linked elections stay linked after adding 5 random votes",
        f"first failures: {failures[:5]}",
    )


def test_criterion_6_round_trips():
    rng = random.Random(0x5EED6)
    failures = []
    for i in range(200):
        m = rng.randint(2, 10)
        g = gen_random_graph(m, rng.uniform(0.0, 1.0), seed=rng.getrandbits(32))
        if build_graph(gen_edge_realizing(g), Mode.STRONG) != g:
            failures.append((i, "graph round trip"))
    for i in range(200):
        m = rng.randint(1, 8)
        election = gen_impartial_culture(m, rng.randint(0, 12), seed=rng.getrandbits(32))
        if parse_native(write_native(election)) != election:
            failures.append((i, "profile round trip"))
    _report(
        6,
        not failures,
        "edge-realizing graph round trip and parse/write profile identity, 200 cases each",
        f"first failures: {failures[:5]}",
    )


def _time_recognition(m: int, repeats: int = 1) -> tuple[float, int]:
    best = float("inf")
    edge_count = 0
    for _ in range(repeats):
        g = gen_pendant_clique(m)
        start = time.perf_counter()
        result = recognize(g)
        elapsed = time.perf_counter() - start
        assert not result.linked
        assert len(result.certificate) == len(g.edges)
        best = min(best, elapsed)
        edge_count = len(g.edges)
    return best, edge_count


def test_criterion_7_worst_case_performance():
    t100, e100 = _time_recognition(100, repeats=2)
    t200, e200 = _time_recognition(200, repeats=2)
    t300, _ = _time_recognition(300)
    predicted = (e200 * (200 + e200)) / (e100 * (100 + e100))
    ratio = t200 / t100
    ok = t100 < 1.0 and t300 < 30.0 and ratio <= 4 * predicted
    _report(
        7,
        ok,
        (
            f"worst-case NotLinked sweep: "
            f"m=100 {t100 * 1000:.0f}ms (<1s), m=300 {t300:.1f}s (<30s), "
            f"doubling ratio {ratio:.1f} vs predicted {predicted:.1f} (allowed 4x)"
        ),
    )


NATIVE_BASES = [
    "candidates: a, b, c\n1: a > b > c\n2: b > a > c\n1: c > b > a\n",
    "candidates: x, y\n1: x > y\n1: y > x\n",
    "# comment\ncandidates: a, b\n\n3: a > b\n",
]
SOC_BASES = [
    "# NUMBER ALTERNATIVES: 3\n# ALTERNATIVE NAME 1: a\n1: 1,2,3\n2: 3,2,1\n",
    "# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: 2\n1: 1,2\n1: 2,1\n",
]

GRAPH_BASES = [
    "# a path\n0 1\n1 2\n\n2 3\n",
    "0 1\n0 2\n1 2\n",
    'graph {\n  "iso";\n  "a" -- "b";\n  "b" -- "c d";\n}\n',
    'graph {\n  "x--y" -- "s\\"q\\\\";\n}\n',
    'graph {\n"a"--"ab"\n"b"--"bc"\n}',
]


def _mutate(data: bytes, rng: random.Random) -> bytes:
    raw = bytearray(data)
    for _ in range(rng.randint(1, 8)):
        op = rng.randrange(6)
        if op == 0 and raw:
            raw[rng.randrange(len(raw))] = rng.randrange(256)
        elif op == 1:
            raw.insert(rng.randint(0, len(raw)), rng.randrange(256))
        elif op == 2 and raw:
            i = rng.randrange(len(raw))
            del raw[i : i + rng.randint(1, 5)]
        elif op == 3 and raw:
            i = rng.randrange(len(raw))
            chunk = raw[i : i + rng.randint(1, 8)]
            raw[i:i] = chunk
        elif op == 4 and raw:
            raw = raw[: rng.randrange(len(raw))]
        else:
            raw += bytes(rng.randrange(256) for _ in range(rng.randint(1, 6)))
    return bytes(raw)


def test_criterion_8_parser_fuzz_robustness():
    rng = random.Random(0x5EED8)
    crashes = []
    for i in range(10_000):
        if i % 2 == 0:
            base, parser = rng.choice(NATIVE_BASES), parse_native
        else:
            base, parser = rng.choice(SOC_BASES), parse_preflib_soc
        data = _mutate(base.encode(), rng)
        try:
            parser(data)
        except (ProfileError, InvalidElection):
            pass
        except Exception as exc:  # noqa: BLE001 - the point is to catch anything else
            crashes.append((i, repr(exc)))
    _report(
        8,
        not crashes,
        "10000 mutated profiles: parsers only ever raise structured errors",
        f"first crashes: {crashes[:5]}",
    )


def test_criterion_8_graph_reader_fuzz_robustness():
    rng = random.Random(0x6EAD8)
    crashes = []
    for i in range(10_000):
        data = _mutate(rng.choice(GRAPH_BASES).encode(), rng)
        try:
            parse_graph(data)
        except LinkDomainError:
            pass
        except Exception as exc:  # noqa: BLE001 - the point is to catch anything else
            crashes.append((i, repr(exc)))
    _report(
        8,
        not crashes,
        "10000 mutated edge lists and DOT files: parse_graph only raises package errors",
        f"first crashes: {crashes[:5]}",
    )
