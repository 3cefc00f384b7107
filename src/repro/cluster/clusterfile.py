"""Declarative cluster files: declare a whole cluster, diff, apply.

The control plane's unit of declaration used to be one
:class:`~repro.cluster.spec.ServiceSpec` at a time, applied
imperatively from Python.  This module raises the surface to the whole
cluster, ``kubectl apply``-style: a JSON document declares *every*
service, :func:`diff_cluster` classifies it against a live
:class:`~repro.cluster.manager.ClusterManager` (add / change / remove /
no-op, with the changed fields named), and :func:`apply_cluster`
converges the fabric — new services placed, changed declarations
re-applied, removed services drained.  :func:`diff_cluster` is the dry
run: it reports what an apply would do without touching anything.

Document format (version 1)::

    {
      "version": 1,
      "services": [
        {"service": "bing-ranking", "replicas": 3, "balancing": "...", ...},
        ...
      ]
    }

Each entry is a :meth:`ServiceSpec.to_dict` document.  Role
constructors and adapters are code, not data, so the file references
them by name and the caller supplies a *catalog* (``services`` mapping
name -> :class:`ServiceDefinition`, ``adapters`` mapping class name ->
adapter instance) — the same split RC3E and Coyote make between the
declarative management plane and the images it instantiates.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing

from repro.cluster.spec import ServiceSpec

if typing.TYPE_CHECKING:  # pragma: no cover
    import collections.abc

    from repro.cluster.manager import ClusterManager

CLUSTERFILE_VERSION = 1

_TOP_LEVEL_KEYS = {"version", "services"}


# -- loading -------------------------------------------------------------------


def load_cluster(
    source: "dict | str | pathlib.Path",
    services: "collections.abc.Mapping",
    adapters: "collections.abc.Mapping | None" = None,
) -> dict[str, ServiceSpec]:
    """Parse a cluster document into ``{service name: ServiceSpec}``.

    ``source`` is a parsed document (mapping) or a filesystem path to a
    JSON file.  Validation is strict — unknown top-level keys, a
    missing/duplicate service name, or an invalid spec field all raise
    ``ValueError`` (spec fields with exactly the message direct
    :class:`ServiceSpec` construction produces).
    """
    if isinstance(source, (str, pathlib.Path)):
        document = json.loads(pathlib.Path(source).read_text())
    else:
        document = source
    if not isinstance(document, dict):
        raise ValueError(
            f"cluster document must be a mapping, got {type(document).__name__}"
        )
    unknown = set(document) - _TOP_LEVEL_KEYS
    if unknown:
        raise ValueError(
            f"unknown cluster document keys: {sorted(unknown)} "
            f"(known: {sorted(_TOP_LEVEL_KEYS)})"
        )
    version = document.get("version", CLUSTERFILE_VERSION)
    if version != CLUSTERFILE_VERSION:
        raise ValueError(
            f"unsupported cluster document version {version!r} "
            f"(this build reads version {CLUSTERFILE_VERSION})"
        )
    entries = document.get("services")
    if not isinstance(entries, list):
        raise ValueError("a cluster document needs a 'services' list")
    specs: dict[str, ServiceSpec] = {}
    for entry in entries:
        spec = ServiceSpec.from_dict(entry, services, adapters)
        if spec.name in specs:
            raise ValueError(
                f"service {spec.name!r} is declared twice in the cluster document"
            )
        specs[spec.name] = spec
    return specs


def dump_cluster(specs: "collections.abc.Mapping[str, ServiceSpec]") -> dict:
    """The canonical document for a set of specs (services sorted by name)."""
    return {
        "version": CLUSTERFILE_VERSION,
        "services": [specs[name].to_dict() for name in sorted(specs)],
    }


# -- diffing -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DiffEntry:
    """One service's classification against the live cluster."""

    service: str
    action: str  # add | change | remove | noop
    changed: tuple = ()  # field names driving a "change"
    detail: str = ""

    def __str__(self) -> str:
        marker = {"add": "+", "change": "~", "remove": "-", "noop": "="}[self.action]
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"{marker} {self.service}: {self.action}{suffix}"


@dataclasses.dataclass(frozen=True)
class ClusterDiff:
    """What :func:`apply_cluster` would do, per service, in apply order."""

    entries: tuple

    def _with_action(self, action: str) -> list[DiffEntry]:
        return [entry for entry in self.entries if entry.action == action]

    @property
    def adds(self) -> list[DiffEntry]:
        return self._with_action("add")

    @property
    def changes(self) -> list[DiffEntry]:
        return self._with_action("change")

    @property
    def removes(self) -> list[DiffEntry]:
        return self._with_action("remove")

    @property
    def noops(self) -> list[DiffEntry]:
        return self._with_action("noop")

    def __bool__(self) -> bool:
        """True when applying would change anything."""
        return any(entry.action != "noop" for entry in self.entries)

    def summary(self) -> str:
        """The diff report: one line per service, kubectl-diff style."""
        lines = [str(entry) for entry in self.entries]
        lines.append(
            f"{len(self.adds)} to add, {len(self.changes)} to change, "
            f"{len(self.removes)} to remove, {len(self.noops)} unchanged"
        )
        return "\n".join(lines)


def _fingerprint(spec: ServiceSpec) -> dict:
    """The spec's full serialized identity, definition included.

    Two independently built :class:`ServiceDefinition`s never compare
    equal directly (their role factories are distinct closures), so the
    diff compares canonical dictionaries instead — which also makes
    "the catalog shipped a new image for the same service name" visible
    as a ``service_definition`` change, which re-applying rolls out.
    """
    document = spec.to_dict()
    document["service_definition"] = spec.service.to_dict()
    return document


def diff_cluster(
    manager: "ClusterManager",
    desired: "collections.abc.Mapping[str, ServiceSpec]",
) -> ClusterDiff:
    """Classify ``desired`` against the live cluster, without applying.

    Every service named by either side gets exactly one entry:
    ``add`` (declared, not running), ``remove`` (running, not
    declared), ``change`` (both, fields differ — named in ``changed``),
    or ``noop``.  Entries are sorted by service name.
    """
    live = {
        name: handle
        for name, handle in manager.handles.items()
        if handle.active
    }
    entries: list[DiffEntry] = []
    for name in sorted(set(desired) | set(live)):
        if name not in live:
            spec = desired[name]
            entries.append(
                DiffEntry(name, "add", detail=f"{spec.replicas} replicas")
            )
        elif name not in desired:
            entries.append(
                DiffEntry(
                    name,
                    "remove",
                    detail=f"{len(live[name].deployments)} replicas to drain",
                )
            )
        else:
            old = _fingerprint(live[name].spec)
            new = _fingerprint(desired[name])
            changed = tuple(key for key in sorted(new) if old[key] != new[key])
            if not changed:
                entries.append(DiffEntry(name, "noop"))
            else:
                details = []
                for key in changed:
                    if key == "service_definition":
                        details.append("new service definition")
                    else:
                        details.append(f"{key} {old[key]!r} -> {new[key]!r}")
                entries.append(
                    DiffEntry(name, "change", changed, detail=", ".join(details))
                )
    return ClusterDiff(entries=tuple(entries))


# -- applying ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ClusterApply:
    """Outcome of one :func:`apply_cluster` call.

    ``reports`` maps each touched service to the reconcile report its
    convergence produced (drained services have no report — their
    entry in ``diff.removes`` records the action).
    """

    diff: ClusterDiff
    reports: dict = dataclasses.field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return all(report.converged for report in self.reports.values())


def apply_cluster(
    manager: "ClusterManager",
    desired: "collections.abc.Mapping[str, ServiceSpec]",
) -> ClusterApply:
    """Converge the live cluster onto ``desired``.

    Apply order is removes, then changes, then adds (each sorted by
    name): draining first returns rings to the pool so grown or new
    services can use them in the same pass.  A changed declaration is
    re-applied (:meth:`ClusterManager.apply`), exactly as the Python
    API would: one convergence pass scales, and rolls one replica at a
    time onto a new shape or service *definition*.
    """
    diff = diff_cluster(manager, desired)
    result = ClusterApply(diff=diff)
    if not diff:
        return result
    for entry in diff.removes:
        manager.drain(manager.handles[entry.service])
    for entry in diff.changes + diff.adds:
        result.reports[entry.service] = manager.apply(
            desired[entry.service]
        ).last_reconcile
    return result


def apply_file(
    manager: "ClusterManager",
    source: "dict | str | pathlib.Path",
    services: "collections.abc.Mapping",
    adapters: "collections.abc.Mapping | None" = None,
) -> ClusterApply:
    """:func:`load_cluster` + :func:`apply_cluster` in one operator verb."""
    return apply_cluster(manager, load_cluster(source, services, adapters))
