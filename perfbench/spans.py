"""Per-layer tracing by wrapping the module attributes linkdomain looks up at call time.

Spans are timed in CPU time of the process, as run.py times operations,
and nest through a stack, so a layer's self time is its duration minus its
children's. Counters are taken from each call's arguments and result as
soon as it returns, so the tracer keeps no reference that would delay
freeing them; that time is charged to no span and reported as overhead.
Hooks are installed only for a traced operation and put back afterwards; a
hook whose module or attribute no longer exists is reported as missing and
its metrics are left out rather than failing.
"""

import importlib
from operator import itemgetter
from time import process_time

# (module, attribute path, span name). Each attribute is looked up by the
# program when it is called, so replacing it reaches every caller.
HOOKS = (
    ("linkdomain.cli", "parse_native", "profiles.parse_native"),
    ("linkdomain.cli", "parse_preflib_soc", "profiles.parse_soc"),
    ("linkdomain.profiles", "validate_election", "model.validate_election"),
    ("linkdomain.cli", "build_graph", "graph.build_graph"),
    ("linkdomain.cli", "recognize", "recognize"),
    ("linkdomain.kernels", "sweep_seeds", "kernels.sweep"),
    ("linkdomain.recognize", "greedy_closure", "recognize.greedy_closure"),
    ("linkdomain.recognize", "verify_witness", "recognize.verify_witness"),
    ("linkdomain.graph", "ConnectivityGraph.csr_arrays", "graph.csr"),
    ("linkdomain.graph", "ConnectivityGraph.seed_arrays", "graph.csr"),
)


class Tracer:
    """Collects span durations (total and self) and work counters for one operation."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.overhead = 0.0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._stack.append([process_time(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                start, children = self._stack.pop()
                took = process_time() - start
                self.total[name] = self.total.get(name, 0.0) + took
                self.self_time[name] = self.self_time.get(name, 0.0) + took - children
                if self._stack:
                    self._stack[-1][1] += took
            counted = process_time()
            count(self.counts, name, args, result)
            counted = process_time() - counted
            self.overhead += counted
            if self._stack:
                self._stack[-1][1] += counted
            return result

        return traced

    def finish(self) -> dict:
        """Span milliseconds and counters of the operation."""
        return {
            "ms": {name: took * 1000.0 for name, took in self.total.items()},
            "self_ms": {name: took * 1000.0 for name, took in self.self_time.items()},
            "counts": self.counts,
            "overhead_ms": self.overhead * 1000.0,
        }


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every hook that exists. Returns (saved originals, missing span names)."""
    saved, missing = [], []
    for module_name, path, span in HOOKS:
        try:
            owner, attr, original = resolve(module_name, path)
        except (ImportError, AttributeError, KeyError):
            missing.append(span)
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(span, original))
    return saved, missing


def resolve(module_name: str, path: str) -> tuple[object, str, object]:
    """(owner, attribute name, current value) of a hook. A method is read from
    the class __dict__, so that putting it back restores a plain function."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def count(counts: dict[str, float], name: str, args: tuple, result) -> None:
    """Add the work counters of one traced call. A call whose arguments or
    result no longer have the expected shape adds nothing."""

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    try:
        if name.startswith("profiles.parse"):
            add("profiles.bytes", len(args[0]))
        elif name == "model.validate_election":
            add("model.votes", sum(map(itemgetter(1), result.votes)))
            add("model.distinct_rankings", len(set(map(itemgetter(0), result.votes))))
        elif name in ("graph.build_graph", "graph.construct"):
            add("graph.edges", len(result.edges))
        elif name == "kernels.sweep":
            sizes = args[5].tolist() if hasattr(args[5], "tolist") else list(args[5])
            written = [size for size in sizes if size]
            add("kernels.seeds_total", len(sizes))
            add("kernels.seeds_run", len(written))
            add("kernels.absorbed", sum(written))
        elif name == "recognize":
            add("recognize.witness_len", len(result.witness) if result.linked else 0)
            stuck = 0 if result.linked else result.certificate.max_stuck_size
            counts["recognize.max_stuck_size"] = max(counts.get("recognize.max_stuck_size", 0), stuck)
    except (AttributeError, IndexError, TypeError, ValueError):
        pass
