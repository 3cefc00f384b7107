"""Every public name and every option in ``src/`` has a caller outside
the tests.

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

The same holds for options.  An option is a parameter with a default
of a public top-level function, of a public method or of the
constructor (``__init__``) of a public top-level class, or a defaulted
field of one of the config dataclasses in ``CONFIG_CLASSES``.  An
option passes when some call outside its own definition passes it,
positionally or by keyword: a call by the function's or method's name,
or the class's for a constructor (``cls(...)`` in a classmethod and
``super().__init__(...)`` in a subclass count as calls to that class).
A ``replace(...)`` call passes the config fields it names, and the keys
of the committed cluster files (``examples/*.json``) and of the serving
benchmark's ``perfbench/spec.json`` pass the ``ServiceSpec`` fields
they name.  Calls are matched by bare name, so a same-named call
elsewhere counts: the gate errs towards passing.  The options that
nothing outside the tests sets on purpose are in ``KEEP_OPTIONS``, each
with its reason.

A package's ``__init__.py`` re-exports what it imports: every public
name it imports must also be in its ``__all__`` (ruff's F401 rule, which
the lint job enforces, checked here without ruff).
"""

import ast
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")

KEEP = {
    # §3.6 Flight Data Recorder readers and the replay built on them.
    "FlightDataRecorder.stream_out": "§3.6 FDR: the on-chip ring streamed out for debugging",
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


# -- options -------------------------------------------------------------------

CONFIG_CLASSES = (
    "ShellConfig",
    "Sl3Config",
    "DramConfig",
    "RepairPolicy",
    "ServiceSpec",
    "FluidProfile",
)
SPEC_FILE_CLASSES = ("ServiceSpec",)

KEEP_OPTIONS = {
    "main(argv=)": (
        "CLI entry point: the console run parses sys.argv, an embedding caller passes its own"
    ),
    "Server.crash(severity=)": (
        "§3.5 reboot ladder: only a crash a soft reboot cannot fix reaches "
        "the Health Monitor's hard-reboot and manual-service rungs"
    ),
    "Shell(config=)": (
        "an existing test pins this behaviour exactly (the Xoff and blocked-send "
        "pins in test_shell_sl3 and test_role_port), and moving the pin is a "
        "re-bless this change does not make"
    ),
    "ShellConfig.sl3": "carries Sl3Config.rx_fifo_packets into the Xoff pin (see Shell(config=))",
    "ShellConfig.router_queue_capacity": "the blocked-send pins (see Shell(config=))",
    "Sl3Config.rx_fifo_packets": "the Xoff pin (see Shell(config=))",
    "ClusterFailureInjector.kill_ring(kind=)": (
        "an existing test pins this behaviour exactly (the echo_dead_ring "
        "behaviour digest fails a ring's cable assemblies), and moving the "
        "pin is a re-bless this change does not make"
    ),
    "FluidProfile.service_ns": "reference path that the fluid error-contract item builds on",
    "FluidProfile.cursor": "reference path that the fluid error-contract item builds on",
    "DiurnalArrivals(amplitude=)": (
        "the fluid error-contract harness runs diurnal arrivals, at a "
        "sub-second period and its own swing"
    ),
    "DiurnalArrivals(period_s=)": "the fluid error-contract harness (see amplitude=)",
}


def _defaulted_parameters(function: ast.FunctionDef, method: bool):
    """(name, position or None) of each defaulted parameter; position
    counts positional arguments after ``self``/``cls``."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    static = any(
        isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
        for decorator in function.decorator_list
    )
    if method and not static:
        positional = positional[1:]
    first = len(positional) - len(arguments.defaults)
    for index, argument in enumerate(positional):
        if index >= first:
            yield argument.arg, index
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults, strict=True):
        if default is not None:
            yield argument.arg, None


def _options(tree: ast.Module):
    """(label, callee, name, position, node) of each option a module
    defines: ``f(x=)``, ``Class.m(x=)``, ``Class(x=)`` or
    ``Config.field``."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            for name, index in _defaulted_parameters(node, method=False):
                yield f"{node.name}({name}=)", node.name, name, index, node
            continue
        if node.name in CONFIG_CLASSES:
            fields = [
                item
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            for index, item in enumerate(fields):
                if item.value is not None:
                    label = f"{node.name}.{item.target.id}"
                    yield label, node.name, item.target.id, index, item
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "__init__":
                label, callee = node.name, node.name
            elif item.name.startswith("_"):
                continue
            else:
                label, callee = f"{node.name}.{item.name}", item.name
            for name, index in _defaulted_parameters(item, method=True):
                yield f"{label}({name}=)", callee, name, index, item


def _calls(tree: ast.Module):
    """(callee, keyword names, positional count, line) of each call."""
    pending = [(tree, None, [], False)]
    while pending:
        node, cls, bases, in_classmethod = pending.pop()
        if isinstance(node, ast.ClassDef):
            cls, bases = node.name, [ast.unparse(base).split(".")[-1] for base in node.bases]
        elif isinstance(node, ast.FunctionDef):
            in_classmethod = any(
                ast.unparse(decorator) == "classmethod" for decorator in node.decorator_list
            )
        elif isinstance(node, ast.Call):
            callee = None
            if isinstance(node.func, ast.Name):
                callee = node.func.id
                if callee == "cls" and in_classmethod:
                    callee = cls
            elif isinstance(node.func, ast.Attribute):
                callee = node.func.attr
                if callee == "__init__" and bases:
                    callee = bases[0]
            keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
            positional = 0
            for argument in node.args:
                if isinstance(argument, ast.Starred):
                    break
                positional += 1
            if callee is not None:
                yield callee, keywords, positional, node.lineno
        pending.extend((child, cls, bases, in_classmethod) for child in ast.iter_child_nodes(node))


def _json_keys(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _json_keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _json_keys(item)


def unpassed_options(root: pathlib.Path = ROOT) -> dict[str, str]:
    """Option label -> ``path:line`` of each option in ``src/`` that no
    call outside its own definition passes."""
    calls: dict[str, list] = {}
    options = []
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for callee, keywords, positional, line in _calls(tree):
                calls.setdefault(callee, []).append((path, line, keywords, positional))
            if directory == "src":
                options.extend((path, *option) for option in _options(tree))
    spec_keys = set()
    for path in [*sorted((root / "examples").glob("*.json")), root / "perfbench" / "spec.json"]:
        if path.exists():
            spec_keys.update(_json_keys(json.loads(path.read_text())))
    unpassed = {}
    for path, label, callee, name, index, node in options:
        field = "(" not in label
        if field and callee in SPEC_FILE_CLASSES and name in spec_keys:
            continue
        sites = calls.get(callee, [])
        if field:  # replace(config, field=...) names fields by keyword only
            sites = sites + [(*site[:3], 0) for site in calls.get("replace", [])]
        if not any(
            (name in keywords or (index is not None and positional > index))
            and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, keywords, positional in sites
        ):
            unpassed[label] = f"{path.relative_to(root)}:{node.lineno}"
    return unpassed


def test_every_option_has_a_caller_outside_tests():
    stray = {
        label: where for label, where in unpassed_options().items() if label not in KEEP_OPTIONS
    }
    assert not stray, (
        "options only tests set; make each the constant it defaulted to, or "
        f"add it to KEEP_OPTIONS with a reason: {stray}"
    )


def test_keep_options_holds_only_unpassed_options():
    unpassed = unpassed_options()
    stale = sorted(label for label in KEEP_OPTIONS if label not in unpassed)
    assert not stale, f"KEEP_OPTIONS entries with a caller or no definition: {stale}"


def test_scan_flags_an_option_only_tests_set(tmp_path):
    for directory in CALLER_DIRS:
        (tmp_path / directory).mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "import dataclasses\n"
        "def fetch(key, retries=3, *, timeout=1.0, unused=None):\n"
        "    return fetch(key, unused=2)\n"
        "class Box:\n"
        "    def __init__(self, size=1, colour='red'):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def small(cls):\n"
        "        return cls(0)\n"
        "    def open(self, force=False):\n"
        "        pass\n"
        "class Crate(Box):\n"
        "    def __init__(self):\n"
        "        super().__init__(colour='blue')\n"
        "@dataclasses.dataclass\n"
        "class ServiceSpec:\n"
        "    name: str\n"
        "    replicas: int = 1\n"
        "    priority: str = 'batch'\n"
        "    regions: float = 1.0\n"
        "    ring: int = 0\n"
    )
    (tmp_path / "examples" / "demo.py").write_text(
        "import dataclasses\n"
        "from mod import Box, ServiceSpec, fetch\n"
        "fetch('k', 5, timeout=2.0)\n"
        "dataclasses.replace(ServiceSpec('s'), ring=1)\n"
    )
    (tmp_path / "examples" / "cluster.json").write_text('{"services": [{"replicas": 2}]}')
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from mod import Box, ServiceSpec, fetch\n"
        "Box().open(force=True)\n"
        "ServiceSpec('s', priority='latency', regions=0.5)\n"
        "fetch('k', unused=1)\n"
    )
    assert unpassed_options(tmp_path) == {
        "fetch(unused=)": "src/mod.py:2",
        "Box.open(force=)": "src/mod.py:10",
        "ServiceSpec.priority": "src/mod.py:19",
        "ServiceSpec.regions": "src/mod.py:20",
    }
