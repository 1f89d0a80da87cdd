"""The library runs on the standard library alone, as ``dependencies = []``
in pyproject.toml says: every module imports only standard-library or
relative modules.  Inside the library, only ``connectivity`` reaches its
private vertex-cut kernel, two named modules outside ``core`` read the
hosts' private storage, and the oracles import nothing from the package but
the graph and host types, of which they read only the stored adjacency and
the color lookup.  Importing the package loads none of the slow
standard-library modules a cold start would pay for.  The acceptance suite
imports from the package only the claim registry and the cross-check, and
no private name, so each of its criteria runs a registry statement."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rainbowfree"


def test_library_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert modules and not outside


def test_only_connectivity_uses_the_cut_kernel():
    # other modules call the public is_k_connected or largest_k_connected
    kernel = {"_find_cut_below_k", "_split_flow"}
    users = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "connectivity.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rpartition(".")[2] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            users += [(path.name, name) for name in sorted(names & kernel)]
    assert not users


def test_host_storage_readers_are_pinned():
    # a change to how hosts store colors, masks or pair offsets has to mend
    # this reader and no other.  sample_gallai fills the flat color list
    # through the pair offsets: filling per-vertex rows and passing their
    # concatenation to the constructor gave the same colors, but 4,000 K9
    # samples took a median 0.169 s against 0.156 s (best of 5, five runs
    # each, 2 vCPUs, CPython 3.11), and verify-structure draws 2,000 samples
    # per pass
    storage = {"_colors", "_offsets", "_row", "_pairs", "_all_masks", "_tri_offsets"}
    readers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rpartition(".")[2] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            readers |= {(path.name, name) for name in names & storage}
    assert readers == {("gallai.py", "_tri_offsets")}


def test_oracles_import_only_the_graph_types():
    # no oracle can reach flood, components, iter_bits, _peel_to_kcore or a
    # search, so a bug there cannot hide on both sides of a cross-check
    path = PACKAGE / "oracles.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rainbowfree")):
            imported |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.name, None) for a in node.names if a.name.startswith("rainbowfree")}
    assert imported == {("core", "Host"), ("core", "SimpleGraph")}


def test_acceptance_suite_imports_only_the_registry_and_the_crosscheck():
    # a criterion with a body of its own would import the library it checks;
    # time is the criteria's wall-time budget
    path = PACKAGE.parents[1] / "tests" / "test_acceptance.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom):
            imported |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
    assert {module for module, _ in imported} <= {
        "time", "rainbowfree.claims", "rainbowfree.crosscheck"
    }, sorted(imported)
    assert not [name for _, name in imported if name and name.startswith("_")]


def test_oracles_read_only_the_stored_graph_and_host_lookups():
    # derived graph attributes (edges, edge_count, degree, components) come
    # from core, whose helpers the fast side runs too, so an oracle reads only
    # a graph's n and adj_bits, a host's vertex_count and pair_color, a
    # pattern's graph, and methods of builtin ints, lists and sets
    allowed = {"n", "adj_bits", "vertex_count", "pair_color", "graph"}
    allowed |= {"bit_count", "bit_length", "append", "add", "pop"}
    path = PACKAGE / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read <= allowed, sorted(read - allowed)


def test_import_loads_no_heavy_standard_modules():
    # each of these cost milliseconds of every cold start: dataclasses pulls
    # in inspect, fractions pulls in decimal, and traceback is only needed
    # when a claim raises
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "traceback"}
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))

    def loaded(statement):
        code = f"{statement}; import sys; print(*sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                              capture_output=True, text=True, check=True)
        return set(proc.stdout.split())

    added = loaded("import rainbowfree") - loaded("pass")
    assert not sorted(added & heavy)
    # nor does running the whole registry, where no claim raises
    added = loaded("from rainbowfree import run_claims; run_claims('*', 0)") - loaded("pass")
    assert not sorted(added & heavy)
