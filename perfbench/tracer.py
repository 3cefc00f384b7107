"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``repro`` modules from outside
(no file under ``src/`` changes) and records a span at each layer
boundary.  A span has a name, host start and end, simulated start and
end, a parent and a request id.  Every span of one request shares the
id; once a packet exists, the packet's ``trace_id`` maps back to it.

* Plain functions are timed per call.
* Generator methods are timed on every resume; their self time is the
  time of each resume minus the child spans inside it.
* ``Process._resume`` is wrapped, so each process's resumes are timed
  and attributed to its name prefix (``pcie.scan``, ``role.echo``,
  ``openloop.src``, ...).
* Kernel factories (``Engine.timeout``, ``Engine.process``,
  ``Store.put``/``get``, ``PcieCore.dma_time_ns``) are counted only.

Aggregates cover every span.  Full span records are kept in memory for
one request in ``SAMPLE_EVERY`` (and for control-plane spans)
and written out by :meth:`Tracer.write` when the run ends.

A wrapper never schedules, cancels or reorders an event, so a traced run
simulates exactly what the untraced run does.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

perf_counter = time.perf_counter

# Spans outside a request that are recorded in full (control plane and
# set-up calls, a handful per run).
RARE = (
    "ClusterManager.apply",
    "ClusterManager.reconcile",
    "ClusterManager.upgrade",
    "MappingManager.deploy",
    "MetricsRegistry.sample",
    "Datacenter.service_ring",
    "synthesize",
)
# Full span records are kept for one request in this many.
SAMPLE_EVERY = 64
# Process-name families kept to two dotted components.
TWO_LEVEL = ("pcie", "sl3", "role", "openloop", "cluster")


def process_family(name: str) -> str:
    """``role.echo@(0, 1)`` -> ``role.echo``; ``feed.m3.north`` -> ``feed``."""
    base = name.split("@", 1)[0].split(":", 1)[0]
    parts = base.split(".")
    keep = 2 if parts[0] in TWO_LEVEL else 1
    return "proc:" + ".".join(parts[:keep])


class Span:
    """One logical span: a call, or a generator from first resume to return."""

    __slots__ = ("sid", "name", "parent", "rid", "host_start", "host_end",
                 "sim_start", "sim_end")

    def __init__(self, sid, name, parent, rid, host_start, sim_start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.rid = rid
        self.host_start = host_start
        self.host_end = None
        self.sim_start = sim_start
        self.sim_end = None

    def to_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "request": self.rid,
            "host_start_s": self.host_start,
            "host_end_s": self.host_end,
            "sim_start_ns": self.sim_start,
            "sim_end_ns": self.sim_end,
        }


class Tracer:
    """Install with :meth:`install` before the workload is built."""

    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        # name -> simulated durations (ns) of finished spans
        self.sim_ns: dict[str, list] = {}
        self.spans: list[Span] = []
        self.covered = 0.0  # host seconds inside top-level spans
        self.nested_runs = 0
        self._child = []  # per open frame: child seconds so far
        self._open: list[Span | None] = []  # logical span per open frame
        self._engine = None
        self._current = None  # process being resumed
        self._rid_of: dict = {}  # process -> request id
        self._rid_of_trace: dict[int, int] = {}  # packet trace_id -> request id
        self._submits: dict = {}  # process -> [entry, granted, prep] (sim ns)
        self._next_rid = 0
        self._next_sid = 0
        self._run_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- frame accounting ----------------------------------------------------

    def _close(self, name: str, started: float) -> float:
        elapsed = perf_counter() - started
        child = self._child.pop()
        self._open.pop()
        if self._child:
            self._child[-1] += elapsed
        else:
            self.covered += elapsed
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[1] += elapsed
        entry[2] += elapsed - child
        return elapsed

    def _span(self, name: str, rid) -> Span | None:
        """A logical span record, kept only for sampled requests."""
        if rid is None:
            if name not in RARE:
                return None
        elif rid % SAMPLE_EVERY:
            return None
        self._next_sid += 1
        parent = None
        for span in reversed(self._open):
            if span is not None:
                parent = span.sid
                break
        span = Span(self._next_sid, name, parent, rid, perf_counter(), self._engine.now)
        self.spans.append(span)
        return span

    def _rid(self, args) -> int | None:
        rid = self._rid_of.get(self._current)
        if rid is None and len(args) > 1:
            trace_id = getattr(args[1], "trace_id", None)
            if trace_id is not None:
                rid = self._rid_of_trace.get(trace_id)
        return rid

    # -- wrappers ------------------------------------------------------------

    def _plain(self, name: str, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            tracer._child.append(0.0)
            span = tracer._span(name, tracer._rid(args))
            tracer._open.append(span)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, started)
                entry = tracer.stats[name]
                entry[0] += 1
                if span is not None:
                    span.host_end = perf_counter()
                    span.sim_end = tracer._engine.now

        return traced

    def _generator(self, name: str, fn, on_first=None, on_end=None, sim=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            engine = tracer._engine
            rid = None
            span = None
            sim_start = None
            first = True
            value = None
            thrown = None
            while True:
                tracer._child.append(0.0)
                if first:
                    rid = tracer._rid(args)
                    if on_first is not None:
                        rid = on_first(args, rid)
                    span = tracer._span(name, rid)
                    sim_start = engine.now
                    first = False
                tracer._open.append(span)
                started = perf_counter()
                try:
                    if thrown is None:
                        item = inner.send(value)
                    else:
                        item = inner.throw(thrown)
                except StopIteration as stop:
                    tracer._close(name, started)
                    tracer._finish(name, span, sim_start, sim, on_end, args)
                    return stop.value
                except BaseException:
                    tracer._close(name, started)
                    tracer._finish(name, span, sim_start, sim, on_end, args)
                    raise
                tracer._close(name, started)
                try:
                    value = yield item
                    thrown = None
                except GeneratorExit:
                    # Killed or collected: no boundary hook, since the
                    # process being resumed now is not this one.
                    inner.close()
                    tracer._finish(name, span, sim_start, sim, None, args)
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded inward
                    thrown = exc
                    value = None

        return traced

    def _finish(self, name, span, sim_start, sim, on_end, args) -> None:
        self.stats[name][0] += 1
        now = self._engine.now
        if sim:
            self.sim_ns.setdefault(name, []).append(now - sim_start)
        if on_end is not None:
            on_end(args, sim_start, span)
        if span is not None:
            span.host_end = perf_counter()
            span.sim_end = now

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str | None = None, **options) -> None:
        fn = owner.__dict__[attr]
        name = name or f"{owner.__name__}.{attr}"
        if inspect.isgeneratorfunction(fn):
            self._patch(owner, attr, self._generator(name, fn, **options))
        else:
            self._patch(owner, attr, self._plain(name, fn, **options))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries of every ``repro`` module in use."""
        from repro.analysis.stats import ReservoirSample
        from repro.cluster.deployment import Deployment, RequestAdapter
        from repro.cluster.endpoint import ServiceEndpoint
        from repro.cluster.load_balancer import LoadBalancer
        from repro.cluster.manager import ClusterManager
        from repro.cluster.metrics import MetricsRegistry
        from repro.fabric.datacenter import Datacenter
        from repro.fabric.server import Server
        from repro.hardware import synthesis
        from repro.host.slots import SlotLease
        from repro.ranking.engine import ScoringEngine
        from repro.ranking.ffe.processor import FfeProcessor
        from repro.services.mapping_manager import MappingManager
        from repro.shell.fdr import FlightDataRecorder
        from repro.shell.pcie import HostDmaBuffers, PcieCore
        from repro.shell.role import Role
        from repro.shell.router import Router
        from repro.shell.sl3 import Sl3Endpoint
        from repro.sim.engine import Engine
        from repro.sim.process import Process
        from repro.sim.stores import PriorityStore, Store

        tracer = self

        # -- sim kernel: resumes per process family, counted factories --
        original_init = Engine.__init__

        @functools.wraps(original_init)
        def engine_init(engine, *args, **kwargs):
            original_init(engine, *args, **kwargs)
            tracer._engine = engine

        self._patch(Engine, "__init__", engine_init)
        resume = Process.__dict__["_resume"]
        families: dict[str, str] = {}

        @functools.wraps(resume)
        def traced_resume(process, event):
            name = families.get(process.name)
            if name is None:
                name = families[process.name] = process_family(process.name)
            previous = tracer._current
            tracer._current = process
            tracer._child.append(0.0)
            tracer._open.append(None)
            started = perf_counter()
            try:
                return resume(process, event)
            finally:
                tracer._close(name, started)
                tracer.stats[name][0] += 1
                tracer._current = previous
                if process.triggered:
                    tracer._rid_of.pop(process, None)

        self._patch(Process, "_resume", traced_resume)
        for attr in ("timeout", "process"):
            self._patch(Engine, attr, self._counter(f"Engine.{attr}", Engine.__dict__[attr]))
        for owner in (Store, PriorityStore):
            for attr in ("put", "get"):
                if attr in owner.__dict__:
                    self._patch(owner, attr, self._counter("Store.ops", owner.__dict__[attr]))
        self._patch(PcieCore, "dma_time_ns",
                    self._counter("PcieCore.dma_time_ns", PcieCore.__dict__["dma_time_ns"]))
        for attr in ("run", "run_until"):
            self._patch(Engine, attr, self._run_counter(Engine.__dict__[attr]))

        # -- cluster: front door, balancer, ring, control plane --
        self._wrap(ServiceEndpoint, "submit", on_first=self._new_request)
        self._wrap(LoadBalancer, "submit")
        self._wrap(LoadBalancer, "pick")
        self._wrap(Deployment, "submit", on_first=self._submit_entered, on_end=self._lease_wait)
        for adapter in _subclasses(RequestAdapter):
            if "prep" in adapter.__dict__:
                self._wrap(adapter, "prep", name="RequestAdapter.prep", on_end=self._prep_done)
        self._wrap(ClusterManager, "apply")
        self._wrap(ClusterManager, "reconcile")
        self._wrap(ClusterManager, "upgrade")
        self._wrap(MetricsRegistry, "sample")
        self._wrap(MappingManager, "deploy")
        self._wrap(Datacenter, "service_ring")
        self._wrap(Server, "run_on_core", sim=True)

        # -- host: slot lease and DMA buffers --
        self._wrap(SlotLease, "request", on_first=self._lease_granted, sim=True)
        self._wrap(HostDmaBuffers, "fill_input", on_call=self._note_packet)
        self._wrap(HostDmaBuffers, "consume_output")
        fill = HostDmaBuffers.__dict__["fill_input"]

        @functools.wraps(fill)
        def fill_waited(buffers, slot_id, packet):
            issued = buffers.engine.now
            done = fill(buffers, slot_id, packet)
            waits = tracer.sim_ns.setdefault("fill_wait", [])
            done.add_callback(lambda _e: waits.append(buffers.engine.now - issued))
            return done

        self._patch(HostDmaBuffers, "fill_input", fill_waited)

        # -- shell: router, FDR, SL3, roles --
        self._wrap(Router, "submit")
        self._wrap(FlightDataRecorder, "record")
        self._wrap(Sl3Endpoint, "send")
        for role in _subclasses(Role):
            if "handle" in role.__dict__:
                self._wrap(role, "handle", name="Role.handle", sim=True)

        # -- ranking, hardware, analysis --
        for attr in ("score", "bank_partial"):
            self._wrap(ScoringEngine, attr, name="ScoringEngine.score")
        for attr in ("execute", "evaluate_only"):
            self._wrap(FfeProcessor, attr, name="FfeProcessor.execute")
        self._wrap(ReservoirSample, "append")
        # Modules that imported ``synthesize`` by name hold their own
        # reference: patch each one.
        synthesize = synthesis.synthesize
        traced_synth = self._plain("synthesize", synthesize)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "synthesize", None) is synthesize
            ):
                self._patch(module, "synthesize", traced_synth)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- boundary hooks --------------------------------------------------------

    def _run_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run(*args, **kwargs):
            if tracer._run_depth:
                tracer.nested_runs += 1
            tracer._run_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._run_depth -= 1

        return run

    def _new_request(self, _args, rid):
        if rid is None and self._current is not None:
            self._next_rid += 1
            rid = self._rid_of[self._current] = self._next_rid
        return rid

    def _note_packet(self, args) -> None:
        rid = self._rid_of.get(self._current)
        if rid is not None:
            self._rid_of_trace[args[2].trace_id] = rid

    # Deployment.submit, the adapter's prep and SlotLease.request all run
    # in the request's own process: [entry, lease granted, prep ns].

    def _submit_entered(self, _args, rid):
        self._submits[self._current] = [self._engine.now, None, 0.0]
        return rid

    def _prep_done(self, _args, sim_start, _span) -> None:
        submit = self._submits.get(self._current)
        if submit is not None:
            submit[2] += self._engine.now - sim_start

    def _lease_granted(self, _args, rid):
        submit = self._submits.get(self._current)
        if submit is not None and submit[1] is None:
            submit[1] = self._engine.now
        return rid

    def _lease_wait(self, _args, sim_start, _span) -> None:
        """Lease wait: submit entry to SlotLease.request entry, less the
        adapter's host prep; a request that timed out waiting for a
        lease waited until it resolved."""
        submit = self._submits.pop(self._current, None)
        if submit is None:
            return
        entered, granted, prep = submit
        end = self._engine.now if granted is None else granted
        self.sim_ns.setdefault("lease_wait", []).append(end - entered - prep)

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """A copy of every aggregate, to diff the measured phase against."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "sim_ns": {k: len(v) for k, v in self.sim_ns.items()},
            "covered": self.covered,
            "nested_runs": self.nested_runs,
        }

    def write(self, path) -> int:
        """Write the recorded spans as JSON lines; returns the count."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")
        return len(self.spans)


def busy_wait(seconds: float) -> None:
    until = perf_counter() + seconds
    while perf_counter() < until:
        pass


def inject_cost(target: str, seconds: float) -> None:
    """Add a busy-wait of ``seconds`` to every call of ``target``, named
    ``module:Class.method`` (``repro.shell.router:Router.submit``): the
    sensitivity self-test's slower layer.

    Call it before :meth:`Tracer.install`, so a traced run wraps the
    slowed function and the added time lands in that function's span.
    A generator method stays a generator and pays the cost on its first
    resume.
    """
    module, qualname = target.split(":")
    owner_name, attr = qualname.split(".")
    owner = getattr(importlib.import_module(module), owner_name)
    fn = owner.__dict__[attr]
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def slower(*args, **kwargs):
            busy_wait(seconds)
            return (yield from fn(*args, **kwargs))

    else:

        @functools.wraps(fn)
        def slower(*args, **kwargs):
            busy_wait(seconds)
            return fn(*args, **kwargs)

    setattr(owner, attr, slower)


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found
