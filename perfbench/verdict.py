"""Independent verdict checks for the benchmark.

Nothing here imports linkdomain: verdicts, witnesses and CLI reports are
checked against the definition of a linked order with the benchmark's own
code, so a bug in the program cannot vouch for itself.
"""

import json

Edge = tuple[int, int]

# The key set README.md pins for `linkdomain check --json`.
REPORT_KEYS = frozenset({"input", "mode", "m", "n", "edges", "verdict", "witness", "elapsed_ms"})


def adjacency(m: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(m)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def closure(adj: list[set[int]], a: int, b: int) -> list[int]:
    """Vertices reached from seed {a, b} by absorbing any vertex with two
    reached neighbours, in FIFO insertion order."""
    order = [a, b]
    inside = {a, b}
    hits: dict[int, int] = {}
    i = 0
    while i < len(order):
        for w in adj[order[i]]:
            if w not in inside:
                hits[w] = hits.get(w, 0) + 1
                if hits[w] == 2:
                    inside.add(w)
                    order.append(w)
        i += 1
    return order


def decide(m: int, edges) -> tuple[bool, list[int] | None]:
    """Linked verdict and, when linked, a witness order."""
    if m == 1:
        return True, [0]
    found = first_covering_seed(m, edges)
    return (False, None) if found is None else (True, found[1])


def first_covering_seed(m: int, edges) -> tuple[int, list[int]] | None:
    """(index in ascending edge order, closure order) of the first seed edge
    whose closure covers all m vertices, or None when no seed does.

    A stuck set is closed, so any seed edge lying inside one has its
    closure inside it too and is skipped.
    """
    adj = adjacency(m, edges)
    settled: set[Edge] = set()
    for index, (a, b) in enumerate(sorted({(min(u, v), max(u, v)) for u, v in edges})):
        if (a, b) in settled:
            continue
        order = closure(adj, a, b)
        if len(order) == m:
            return index, order
        inside = set(order)
        for v in order:
            settled.update((v, w) for w in adj[v] if v < w and w in inside)
    return None


def is_witness(adj: list[set[int]], order) -> bool:
    """True when `order` is a linked order of the graph: a permutation whose
    first two entries are adjacent and whose later entries each have at
    least two earlier neighbours."""
    m = len(adj)
    if sorted(order) != list(range(m)):
        return False
    if m == 1:
        return True
    if order[1] not in adj[order[0]]:
        return False
    placed = {order[0], order[1]}
    for v in order[2:]:
        if len(adj[v] & placed) < 2:
            return False
        placed.add(v)
    return True


def check_graph_result(expected: dict, linked: bool, witness, adj: list[set[int]] | None) -> str | None:
    """Failure reason for a library verdict, or None when it is right."""
    want = expected["verdict"] == "linked"
    if linked != want:
        return f"verdict {'linked' if linked else 'not-linked'}, expected {expected['verdict']}"
    if linked and (witness is None or not is_witness(adj, list(witness))):
        return "invalid witness"
    if not linked and witness is not None:
        return "witness on a not-linked verdict"
    return None


def check_cli_run(expected: dict, exit_code: int, stdout: bytes) -> str | None:
    """Failure reason for one `check --json` run, or None when it is right.

    `expected` carries the instance's m, n, mode, edge list and verdict as
    the generator computed them, plus its candidate names.
    """
    want_linked = expected["verdict"] == "linked"
    if exit_code != (0 if want_linked else 1):
        return f"exit code {exit_code}, expected {0 if want_linked else 1}"
    try:
        report = json.loads(stdout.decode("utf-8").strip().splitlines()[-1])
    except (UnicodeDecodeError, ValueError, IndexError):
        return "stdout is not one JSON report"
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        return f"report keys {sorted(report) if isinstance(report, dict) else type(report).__name__}"
    for key in ("m", "n", "mode", "verdict"):
        if report[key] != expected[key]:
            return f"{key} is {report[key]!r}, expected {expected[key]!r}"
    if report["edges"] != len(expected["edges"]):
        return f"edges is {report['edges']!r}, expected {len(expected['edges'])}"
    if not want_linked:
        return None if report["witness"] is None else "witness on a not-linked verdict"
    ids = {name: i for i, name in enumerate(expected["names"])}
    witness = report["witness"]
    if not isinstance(witness, list) or not all(name in ids for name in witness):
        return "witness names unknown"
    if not is_witness(adjacency(expected["m"], expected["edges"]), [ids[name] for name in witness]):
        return "invalid witness"
    return None
