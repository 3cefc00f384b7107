"""Tests for the operator surface: declarative cluster files, the spec
serialization underneath them, and the stable VIP-style endpoints.

Serialization is lossless by construction — specs and definitions
rebuild through their real constructors, so an invalid document raises
exactly the error direct construction raises — and the clusterfile
layer composes load + diff + apply into the kubectl-style operator
verbs, routed through the existing reconcile / upgrade / scale / drain
paths.
"""

import json

import pytest

from repro.cluster import (
    ClusterManager,
    NoHealthyDeployment,
    RequestAdapter,
    ServiceSpec,
    apply_cluster,
    apply_file,
    diff_cluster,
    dump_cluster,
    echo_service,
    load_cluster,
)
from repro.fabric import Datacenter, TorusTopology
from repro.services.mapping_manager import ServiceDefinition
from repro.sim import Engine
from repro.workloads import OpenLoopInjector, PoissonArrivals


def small_cluster(seed=3, pods=2, height=3):
    eng = Engine(seed=seed)
    dc = Datacenter(
        eng, num_pods=pods, topology=TorusTopology(width=2, height=height)
    )
    return eng, dc, ClusterManager(dc)


ECHO = echo_service()
CATALOG = {"echo-service": ECHO}
ADAPTERS = {"RequestAdapter": RequestAdapter()}


def echo_spec(**overrides) -> ServiceSpec:
    defaults = dict(service=ECHO, replicas=2, health_period_ns=5e9)
    defaults.update(overrides)
    return ServiceSpec(**defaults)


# --- ServiceSpec round trip ----------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"replicas": 1, "balancing": "weighted_health"},
        {"rings_per_replica": 2, "health_period_ns": 5e9},
        {"regions": 0.5, "priority": "latency"},
        {"regions": 0.25, "priority": "batch", "slots_per_server": 12},
        {"adapter": ADAPTERS["RequestAdapter"]},
        {"request_timeout_ns": 1e9, "health_period_ns": 2e9},
    ],
)
def test_spec_round_trips_losslessly(overrides):
    spec = echo_spec(**overrides)
    document = spec.to_dict()
    json.dumps(document)  # JSON-serializable as-is
    rebuilt = ServiceSpec.from_dict(document, CATALOG, ADAPTERS)
    assert rebuilt == spec
    assert rebuilt.service is spec.service
    assert rebuilt.to_dict() == document


def test_spec_document_references_code_by_name():
    document = echo_spec(adapter=ADAPTERS["RequestAdapter"]).to_dict()
    assert document["service"] == "echo-service"
    assert document["adapter"] == "RequestAdapter"
    plain = echo_spec().to_dict()
    assert plain["adapter"] is None


@pytest.mark.parametrize(
    "overrides",
    [
        {"replicas": 0},
        {"rings_per_replica": 0},
        {"balancing": "fastest"},
        {"slots_per_server": 0},
        {"request_timeout_ns": 0.0},
        {"health_period_ns": -1.0},
        {"regions": 1.5},
        {"priority": "interactive"},
        {"regions": 0.5, "rings_per_replica": 2},  # tenants are single-ring
    ],
)
def test_invalid_document_raises_the_constructor_error(overrides):
    document = echo_spec().to_dict()
    document.update(overrides)
    with pytest.raises(ValueError) as from_doc:
        ServiceSpec.from_dict(document, CATALOG)
    with pytest.raises(ValueError) as direct:
        echo_spec(**overrides)
    assert str(from_doc.value) == str(direct.value)


def test_document_resolution_errors():
    with pytest.raises(ValueError, match="must be a mapping"):
        ServiceSpec.from_dict(["not", "a", "mapping"], CATALOG)
    with pytest.raises(ValueError, match="unknown ServiceSpec fields"):
        ServiceSpec.from_dict({"service": "echo-service", "flavor": "blue"}, CATALOG)
    with pytest.raises(ValueError, match="needs a 'service' name"):
        ServiceSpec.from_dict({"replicas": 2}, CATALOG)
    with pytest.raises(ValueError, match="unknown service 'web'"):
        ServiceSpec.from_dict({"service": "web"}, CATALOG)
    with pytest.raises(ValueError, match="unknown adapter 'Custom'"):
        ServiceSpec.from_dict(
            {"service": "echo-service", "adapter": "Custom"}, CATALOG, ADAPTERS
        )


# --- ServiceDefinition round trip ----------------------------------------------------


def definition_factories(service: ServiceDefinition) -> dict:
    factories = {role.name: role.factory for role in service.roles}
    factories[service.spare.name] = service.spare.factory
    return factories


def test_definition_round_trips_with_factories():
    document = ECHO.to_dict()
    json.dumps(document)
    rebuilt = ServiceDefinition.from_dict(document, definition_factories(ECHO))
    assert rebuilt.to_dict() == document
    assert [r.name for r in rebuilt.roles] == [r.name for r in ECHO.roles]
    assert rebuilt.roles[0].bitstream == ECHO.roles[0].bitstream
    assert rebuilt.roles[0].factory is ECHO.roles[0].factory


def test_definition_document_is_the_fingerprint():
    # Two independent builds never compare equal directly (factory
    # closures differ) but fingerprint identically.
    assert echo_service() != echo_service()
    assert echo_service().to_dict() == echo_service().to_dict()


def test_definition_duplicate_role_error_is_identical():
    document = ECHO.to_dict()
    document["spare"] = dict(document["roles"][0])  # same name twice
    factories = definition_factories(ECHO)
    factories[document["spare"]["name"]] = ECHO.spare.factory
    with pytest.raises(ValueError, match="duplicate role names"):
        ServiceDefinition.from_dict(document, factories)


def test_definition_missing_factory_error():
    with pytest.raises(ValueError, match="no factory for role 'echo'"):
        ServiceDefinition.from_dict(ECHO.to_dict(), {"spare": ECHO.spare.factory})


# --- cluster files -------------------------------------------------------------------


def cluster_document(*specs: ServiceSpec) -> dict:
    return {"version": 1, "services": [spec.to_dict() for spec in specs]}


def test_load_and_dump_cluster_round_trip(tmp_path):
    specs = {"echo-service": echo_spec()}
    document = dump_cluster(specs)
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(document))
    loaded = load_cluster(path, CATALOG)
    assert loaded == specs
    assert dump_cluster(loaded) == document


def test_cluster_document_validation():
    with pytest.raises(ValueError, match="must be a mapping"):
        load_cluster([1, 2], CATALOG)
    with pytest.raises(ValueError, match="unknown cluster document keys"):
        load_cluster({"version": 1, "services": [], "extra": 1}, CATALOG)
    with pytest.raises(ValueError, match="unsupported cluster document version"):
        load_cluster({"version": 99, "services": []}, CATALOG)
    with pytest.raises(ValueError, match="needs a 'services' list"):
        load_cluster({"version": 1}, CATALOG)
    twice = cluster_document(echo_spec(), echo_spec(replicas=1))
    with pytest.raises(ValueError, match="declared twice"):
        load_cluster(twice, CATALOG)


def test_diff_classifies_every_action():
    _eng, _dc, manager = small_cluster()
    manager.apply(echo_spec())  # live: echo-service x2
    other = echo_service(name="other-service")
    desired = {
        "echo-service": echo_spec(replicas=3),  # change
        "other-service": ServiceSpec(service=other, replicas=1),  # add
    }
    diff = diff_cluster(manager, desired)
    assert [e.action for e in diff.entries] == ["change", "add"]
    assert diff.changes[0].changed == ("replicas",)
    assert "replicas 2 -> 3" in diff.changes[0].detail
    # Removing from the declaration classifies as remove; identical
    # declaration is a no-op even through a fresh (fingerprint-equal)
    # definition build.
    rebuilt_catalog = {"echo-service": echo_service()}
    same = load_cluster(cluster_document(echo_spec()), rebuilt_catalog)
    diff = diff_cluster(manager, same)
    assert [e.action for e in diff.entries] == ["noop"]
    assert not diff
    diff = diff_cluster(manager, {})
    assert [e.action for e in diff.entries] == ["remove"]
    assert bool(diff)
    lines = diff.summary().splitlines()
    assert lines[-1] == "0 to add, 0 to change, 1 to remove, 0 unchanged"


def test_new_definition_diffs_as_upgrade():
    _eng, _dc, manager = small_cluster()
    manager.apply(echo_spec())
    # The fingerprint sees serialized state (role names, bitstream
    # images) — a new image name is a visible definition change.
    v2 = echo_service(role_name="echo-v2", payload="scored-v2")
    diff = diff_cluster(manager, {"echo-service": echo_spec(service=v2)})
    assert diff.changes[0].changed == ("service_definition",)
    assert "new service definition" in diff.changes[0].detail


def test_dry_run_touches_nothing():
    _eng, _dc, manager = small_cluster()
    manager.apply(echo_spec())
    result = apply_cluster(manager, {}, dry_run=True)
    assert result.dry_run
    assert result.diff.removes
    assert manager.handles["echo-service"].active  # still running


def test_apply_cluster_converges_add_change_remove(tmp_path):
    eng, _dc, manager = small_cluster(height=4)  # 2 rings/pod: 4 total
    other = echo_service(name="other-service")
    catalog = {"echo-service": ECHO, "other-service": other}
    path = tmp_path / "cluster.json"
    path.write_text(
        json.dumps(
            cluster_document(
                echo_spec(), ServiceSpec(service=other, replicas=1)
            )
        )
    )
    result = apply_file(manager, path, catalog)
    assert not result.dry_run
    assert result.converged
    assert manager.handles["echo-service"].status().ready_replicas == 2
    assert manager.handles["other-service"].status().ready_replicas == 1
    # Fixed point: applying the same file again changes nothing.
    again = apply_file(manager, path, catalog)
    assert not again.diff
    assert again.reports == {}
    # Scale via edit + removal in one pass: the drained ring frees
    # capacity the scale-up consumes (4 rings total, 3 -> 4 replicas).
    edited = cluster_document(echo_spec(replicas=4))
    result = apply_cluster(manager, load_cluster(edited, catalog))
    assert result.converged
    assert "other-service" not in [
        name for name, handle in manager.handles.items() if handle.active
    ]
    assert manager.handles["echo-service"].status().ready_replicas == 4


def test_apply_cluster_rolls_new_definition():
    eng, _dc, manager = small_cluster()
    handle = manager.apply(echo_spec())
    old_deployments = list(handle.deployments)
    v2 = echo_service(role_name="echo-v2", payload="scored-v2")
    result = apply_cluster(manager, {"echo-service": echo_spec(service=v2)})
    assert result.converged
    report = result.reports["echo-service"]
    assert any(a.kind == "upgrade_place" for a in report.actions)
    assert all(d.service is v2 for d in handle.deployments)
    assert handle.deployments != old_deployments


# --- endpoints -----------------------------------------------------------------------


def test_endpoint_is_memoized_and_may_predate_apply():
    eng, _dc, manager = small_cluster()
    endpoint = manager.endpoint("echo-service")
    assert manager.endpoint("echo-service") is endpoint
    assert not endpoint.attached
    assert endpoint.outstanding == 0
    with pytest.raises(KeyError):
        endpoint.status()
    manager.apply(echo_spec())
    assert endpoint.attached
    assert endpoint.status().ready_replicas == 2


def test_detached_endpoint_refuses_at_the_front_door():
    eng, _dc, manager = small_cluster()
    endpoint = manager.endpoint("echo-service")

    def caller():
        with pytest.raises(NoHealthyDeployment):
            yield from endpoint.submit(object())

    eng.run_until(eng.process(caller()))


def test_endpoint_survives_drain_and_redeclaration():
    eng, _dc, manager = small_cluster()
    endpoint = manager.endpoint("echo-service")
    handle = manager.apply(echo_spec())
    pool = [object() for _ in range(8)]
    stats = eng.run_until(
        OpenLoopInjector(
            eng, endpoint, PoissonArrivals(50_000.0), pool, seed_tag="a"
        ).run(40)
    )
    assert stats.completed == 40
    manager.drain(handle)
    assert not endpoint.attached
    # Shed at the front door while nothing answers to the name: the
    # injector counts rejections and completes the run.
    stats = eng.run_until(
        OpenLoopInjector(
            eng, endpoint, PoissonArrivals(50_000.0), pool, seed_tag="b"
        ).run(40)
    )
    assert stats.completed == 0
    assert stats.rejected == stats.offered == 40
    # Re-declare (a new handle object): the same endpoint resolves the
    # new incarnation with no rewiring.
    redeclared = manager.apply(echo_spec())
    assert redeclared is not handle
    stats = eng.run_until(
        OpenLoopInjector(
            eng, endpoint, PoissonArrivals(50_000.0), pool, seed_tag="c"
        ).run(40)
    )
    assert stats.completed == 40


def test_endpoint_survives_rolling_upgrade():
    eng, _dc, manager = small_cluster()
    endpoint = manager.endpoint("echo-service")
    handle = manager.apply(echo_spec())
    v2 = echo_service(payload="scored-v2", delay_ns=1_500.0)
    handle.upgrade(echo_spec(service=v2))
    pool = [object() for _ in range(8)]
    stats = eng.run_until(
        OpenLoopInjector(
            eng, endpoint, PoissonArrivals(50_000.0), pool, seed_tag="u"
        ).run(40)
    )
    assert stats.completed == 40
    assert all(d.service is v2 for d in handle.deployments)
