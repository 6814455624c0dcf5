"""What importing the package loads. `import linkdomain` loads the
recognizer; every other public name is resolved on first access, and
`check` imports the profile readers and the election model through cli.
Each check runs in a fresh interpreter, since this one has imported
everything already."""

import importlib
import subprocess
import sys
from pathlib import Path

import linkdomain

LAZY_NAMES = {
    "profiles": ["parse_native", "parse_preflib_soc", "scan_profile"],
    "model": ["Election", "ProfileScan", "Vote", "default_names", "validate_election"],
    "generate": ["gen_edge_realizing", "gen_impartial_culture", "gen_linked_graph", "gen_pendant_clique",
                 "gen_random_graph"],
    "oracle": ["brute_force_linked", "enumerate_graphs", "linked_via_all_pair_seeds"],
    "graphio": ["export_dot", "parse_graph", "write_native"],
}
IMPORT_SET_CHECK = """
import sys, linkdomain, linkdomain.cli
print(sorted({"numpy", "dataclasses", "linkdomain.generate", "linkdomain.oracle", "linkdomain.graphio"}
             & set(sys.modules)))
print(sorted(set(linkdomain.__all__) - set(vars(linkdomain))))
assert set(linkdomain.__all__) <= set(dir(linkdomain))
import linkdomain.generate, linkdomain.oracle, linkdomain.graphio
for module, names in LAZY_NAMES.items():
    for name in names:
        assert getattr(linkdomain, name) is getattr(getattr(linkdomain, module), name), name
star = {}
exec("from linkdomain import *", star)
assert set(linkdomain.__all__) <= set(star)
"""
LIBRARY_IMPORT_CHECK = """
import sys, linkdomain
from linkdomain import ConnectivityGraph, recognize
assert recognize(ConnectivityGraph(3, [(0, 1), (1, 2), (0, 2)])).witness == (0, 1, 2)
print(sorted({"linkdomain.profiles", "linkdomain.model", "linkdomain.cli"} & set(sys.modules)))
import linkdomain.record
assert linkdomain.scan_profile is linkdomain.profiles.scan_profile
assert linkdomain.Election is linkdomain.model.Election
assert linkdomain.model.Record is linkdomain.record.Record
"""
CERTIFICATE_LOOKUP_CHECK = """
import sys
from linkdomain import ConnectivityGraph, recognize
certificate = recognize(ConnectivityGraph(3, [(0, 1), (1, 2)])).certificate
assert dict(certificate.items()) == {(0, 1): frozenset({0, 1}), (1, 2): frozenset({1, 2})}
print("heapq" in sys.modules)
"""


def run_fresh(code: str) -> list[str]:
    """The lines that `code` prints in a fresh interpreter that imports
    linkdomain from the same source tree as this one."""
    src = str(Path(linkdomain.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_import_loads_only_what_check_runs():
    """`import linkdomain, linkdomain.cli`, all that `check` imports, loads
    neither numpy, nor dataclasses, nor the generator, oracle and graph-file
    modules. The profile and model names, which cli imports from their own
    modules, are bound in the package, as those of the generators, oracle
    and graph files are, only on first access."""
    lazy = sorted(name for names in LAZY_NAMES.values() for name in names)
    assert run_fresh(f"LAZY_NAMES = {LAZY_NAMES!r}\n{IMPORT_SET_CHECK}") == ["[]", repr(lazy)]


def test_library_import_loads_only_the_recognizer():
    """A library caller that imports the package and recognizes a graph
    loads neither the profile readers, nor the election model, nor the
    CLI. The lazy names then resolve to their modules' objects, and model's
    Record is the one record.py defines."""
    assert run_fresh(LIBRARY_IMPORT_CHECK) == ["[]"]


def test_certificate_lookup_loads_no_heap():
    """Every lookup of a NOT-linked certificate runs the reference closure,
    a first-in, first-out loop: iterating one loads no heap module."""
    assert run_fresh(CERTIFICATE_LOOKUP_CHECK) == ["False"]


def test_recognize_is_the_function_and_import_module_gives_the_module():
    """The package binds the function `recognize` over its submodule of the
    same name, so the module is reached by import_module (or sys.modules)."""
    import linkdomain.recognize as bound

    assert bound is linkdomain.recognize
    module = importlib.import_module("linkdomain.recognize")
    assert linkdomain.recognize is module.recognize
    assert module is sys.modules["linkdomain.recognize"]
    assert module.greedy_closure is linkdomain.greedy_closure
