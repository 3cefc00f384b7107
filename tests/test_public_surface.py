"""Every public name in ``src/`` has a caller outside the tests.

The scan walks ``src/`` with :mod:`ast` and lists every public top-level
function and class, and every public method and property of a top-level
class.  A name passes when it is referenced outside its own definition
somewhere in ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``:
as a name, as an attribute, or as a string literal that is exactly the
name (perfbench's tracer wraps methods by name).  Imports and
``__all__`` lists re-export a name without using it, so they do not
count.  The names that only tests reach on purpose are in ``KEEP``,
each with its reason; an entry that gains a caller or loses its
definition must leave the list.

A package's ``__init__.py`` re-exports what it imports: every public
name it imports must also be in its ``__all__`` (ruff's F401 rule, which
the lint job enforces, checked here without ruff).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")

KEEP = {
    # §3.6 Flight Data Recorder readers and the replay built on them.
    "FlightDataRecorder.stream_out": "§3.6 FDR: the on-chip ring streamed out for debugging",
    "FlightDataRecorder.extended_history": "§3.6 FDR: history spilled to host memory",
    "replay_trace": "§3.6 FDR: rebuilds one request's path from the pod's recorders",
    "TraceReplay.stalls": "§3.6 FDR: finds a hung stage from the gaps between sightings",
    # The sanitizer and dual-run race detector are API for tests.
    "SimSanitizer.open_leases": "sanitizer API: leases still held, for leak assertions",
    "dual_run": "sanitizer API: the dual-run race detector",
    "DualRunReport.trace_match": "sanitizer API: dual-run verdict",
    "DualRunReport.racy": "sanitizer API: dual-run verdict",
    # The paper's hardware models.
    "DramController.read_word": "hardware model: ECC-checked DRAM read (§3.2)",
    "DramController.write_word": "hardware model: ECC-encoded DRAM write (§3.2)",
    "Crc32": "hardware model: the shell's CRC-32 check",
    "Crc32.verify": "hardware model: the shell's CRC-32 check",
    "ConfigFlash.read": "hardware model: the RSU streams an image out of config flash (§3.4)",
    "Fpga.is_operational": "hardware model: whether the part can carry a role",
    "Shell.unsafe_reconfigure": "hardware model: reconfiguration without the §3.4 protocol",
    # Reference values that tests compare samples against.
    "DocumentSizeDistribution.theoretical_mean": "reference for sampled sizes (Figure 4)",
    "DocumentSizeDistribution.theoretical_p99": "reference for sampled sizes (Figure 4)",
    "LatencyStats.from_samples": "exact summary of a sample list, the reference for sampled ones",
    # Invariant readers that tests need.
    "ClusterScheduler.tenancy_of": "invariant reader: a ring's claims and cordons",
    "SlotAllocator.free_count": "invariant reader: slots left in the shared pool",
    "Engine.queue_length": "invariant reader: pending entries in the event queue",
    "BitstreamCache.staged_on": "invariant reader: images staged in a board's DRAM",
    "Router.queue_depth": "invariant reader: packets queued on a router port",
    "Resource.available": "invariant reader: free units of a resource",
    "Resource.queue_length": "invariant reader: requests waiting for a unit",
    # Operator API.
    "Pod.release_all_rx_halts": "brings up a bare pod that no Mapping Manager configured",
    "ClusterManager.sweep": "operator call: one health sweep and reconcile (README)",
    "dump_cluster": "operator surface: the inverse of load_cluster",
    "DiurnalArrivals": "arrival process documented in the README",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each public top-level def
    and class, and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.Module):
    """(name, line) of each use: names, attributes and identifier-like
    string literals, outside ``__all__`` assignments."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno
        pending.extend(ast.iter_child_nodes(node))


def unreferenced_names(root: pathlib.Path = ROOT) -> dict[str, str]:
    """Qualified name -> ``path:line`` of each public definition in
    ``src/`` that nothing outside its own body references."""
    uses: dict[str, list[tuple[pathlib.Path, int]]] = {}
    definitions = []
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, line in _references(tree):
                uses.setdefault(name, []).append((path, line))
            if directory == "src":
                definitions.extend((path, *found) for found in _public_definitions(tree))
    unused = {}
    for path, qualified, name, node in definitions:
        outside = [
            (where, line)
            for where, line in uses.get(name, [])
            if not (where == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            unused[qualified] = f"{path.relative_to(root)}:{node.lineno}"
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    unused = unreferenced_names()
    stray = {name: where for name, where in unused.items() if name not in KEEP}
    assert not stray, (
        "public names only tests reach; delete them, or add them to KEEP "
        f"with a reason: {stray}"
    )


def test_keep_list_holds_only_unreferenced_definitions():
    unused = unreferenced_names()
    stale = sorted(name for name in KEEP if name not in unused)
    assert not stale, f"KEEP entries with a caller or no definition: {stale}"


def test_scan_flags_an_unreferenced_function(tmp_path):
    for directory in CALLER_DIRS:
        (tmp_path / directory).mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "__all__ = ['used', 'orphan']\n"
        "def used():\n    return 1\n"
        "def orphan():\n    return orphan()\n"
        "class Box:\n"
        "    def read(self):\n        return self.read()\n"
        "    def wrapped(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
    )
    (tmp_path / "perfbench" / "tracer.py").write_text("WRAPS = [('Box', 'wrapped')]\n")
    (tmp_path / "examples" / "demo.py").write_text(
        "from mod import Box, used\nused()\nBox()\n"
    )
    assert unreferenced_names(tmp_path) == {
        "orphan": "src/mod.py:4",
        "Box.read": "src/mod.py:7",
    }


def unexported_imports(root: pathlib.Path = ROOT) -> dict[str, list[str]]:
    """``__init__.py`` path -> the public names it imports but leaves
    out of its ``__all__`` (all of them when it has no ``__all__``)."""
    missing = {}
    for path in sorted((root / "src").rglob("__init__.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, exported = set(), set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if not name.startswith("_"):
                        imported.add(name)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        if imported - exported:
            missing[str(path.relative_to(root))] = sorted(imported - exported)
    return missing


def test_package_inits_export_every_public_import(tmp_path):
    assert unexported_imports() == {}
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from __future__ import annotations\n"
        "from pkg.mod import Kept, Dropped, _private\n"
        "__all__ = ['Kept']\n"
    )
    assert unexported_imports(tmp_path) == {"src/pkg/__init__.py": ["Dropped"]}
