"""SimSanitizer: runtime race and leak detection for the sim kernel.

Opt-in via ``Engine(sanitize=True)`` or ``REPRO_SANITIZE=1``.  The
sanitizer watches four contract violations that static analysis cannot
prove:

* **Timeout leaks** — a ``Timeout`` that stays armed after every
  waiter has moved on (say, a guard beside an ``AllOf`` that failed
  early) keeps a bare ``run()`` alive and bloats the queue.  A deadline
  its waiter may abandon belongs in ``engine.deadlines``, which
  disarms.  Reported with the creation site.
* **Orphaned processes** — a non-daemon process still alive when a
  bare ``run()`` drains is waiting on an event nothing will ever
  trigger: a silent deadlock.
* **Slot-lease leaks** — leases acquired from a shared
  :class:`~repro.host.slots.SlotAllocator` whose owning deployment was
  released without returning them: the slots are lost to every future
  tenant of that server.
* **Non-monotonic dispatch** — the engine's core ordering invariant,
  asserted on every event.

The **dual-run race detector** (:func:`dual_run`) goes further: it
runs a scenario twice, the second time with a *salted* tie-break order
(same event times, different order among same-timestamp events — a
legal alternative schedule), and compares state digests.  A scenario
whose observable state depends on same-timestamp dispatch order has a
real discrete-event race.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import typing

from repro.sim.events import Event, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Callable

    from repro.sim.engine import Engine
    from repro.sim.process import Process

# Default tie-break salt for the shuffled run: a large odd constant so
# XOR flips high and low sequence bits alike.
DEFAULT_TIE_SALT = 0x5DEECE66D

_KERNEL_FILES = (
    f"{os.sep}sim{os.sep}engine.py",
    f"{os.sep}sim{os.sep}events.py",
    f"{os.sep}sim{os.sep}process.py",
    f"{os.sep}sim{os.sep}sanitizer.py",
    f"{os.sep}sim{os.sep}stores.py",
    f"{os.sep}sim{os.sep}resources.py",
    f"{os.sep}sim{os.sep}fluid.py",
)


class SanitizerError(RuntimeError):
    """Raised at run() return when the sanitizer holds findings."""


@dataclasses.dataclass(frozen=True)
class SanitizerFinding:
    """One detected violation."""

    kind: str  # timeout-leak | orphan-process | lease-leak | clock-regression
    message: str
    site: str  # creation site "file:line in func", or "" when unknown

    def format(self) -> str:
        suffix = f" (created at {self.site})" if self.site else ""
        return f"[{self.kind}] {self.message}{suffix}"


@dataclasses.dataclass
class LeaseToken:
    """Tracks one acquisition of a shared resource until closed."""

    kind: str
    label: str
    site: str
    owner: object = None  # object with a .released attribute, if any
    closed: bool = False

    def close(self) -> None:
        self.closed = True


def _creation_site() -> str:
    """First stack frame outside the sim kernel, as 'file:line in func'."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.endswith(_KERNEL_FILES):
            return f"{filename}:{frame.f_lineno} in {frame.f_code.co_name}"
        frame = frame.f_back
    return ""


class SimSanitizer:
    """Per-engine runtime checker; created by ``Engine(sanitize=True)``."""

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.strict = True  # check() raises on findings; dual_run reads them instead
        self.findings: list[SanitizerFinding] = []
        self._timeout_sites: dict[Timeout, str] = {}
        self._processes: list[Process] = []
        self._process_sites: dict[object, str] = {}
        self._leases: list[LeaseToken] = []
        # Order-insensitive event-trace digest: records accumulate per
        # timestamp and fold in sorted order when the clock advances,
        # so two tie-break schedules of a race-free scenario digest
        # identically.
        self._trace_hash = hashlib.sha256()
        self._trace_time: float | None = None
        self._trace_records: list[str] = []

    # -- engine hooks ----------------------------------------------------

    def note_timeout(self, timeout: Timeout) -> None:
        self._timeout_sites[timeout] = _creation_site()

    def note_process(self, process: "Process") -> None:
        self._processes.append(process)
        self._process_sites[process] = _creation_site()

    def on_dispatch(self, when: float, event: Event) -> None:
        """Called by the engine for every dispatch, before the clock moves."""
        now = self.engine.now
        if when < now:
            self.findings.append(
                SanitizerFinding(
                    kind="clock-regression",
                    message=(
                        f"dispatch at t={when} after clock reached {now}: "
                        "the (time, seq) ordering invariant is broken"
                    ),
                    site="",
                )
            )
        if isinstance(event, Timeout) and self._timeout_abandoned(event):
            self.findings.append(
                SanitizerFinding(
                    kind="timeout-leak",
                    message=(
                        f"{event!r} fired at t={when} with no live waiter; "
                        "it was kept armed (and kept run() alive) after every "
                        "waiter moved on — arm a deadline its waiter may "
                        "abandon in engine.deadlines and disarm it"
                    ),
                    site=self._timeout_sites.get(event, ""),
                )
            )
        if when != self._trace_time:
            self._fold_trace()
            self._trace_time = when
        self._trace_records.append(
            f"{type(event).__name__}:{event.name}:{event.cancelled:d}"
        )

    # -- resource tracking ----------------------------------------------

    def track_lease(
        self, kind: str, label: str, owner: object = None
    ) -> LeaseToken:
        token = LeaseToken(kind=kind, label=label, site=_creation_site(), owner=owner)
        self._leases.append(token)
        return token

    def open_leases(self) -> "list[LeaseToken]":
        return [token for token in self._leases if not token.closed]

    # -- leak predicates -------------------------------------------------

    @staticmethod
    def _timeout_abandoned(timeout: Timeout) -> bool:
        """Armed, and every registered waiter has already triggered."""
        if timeout.cancelled or timeout.triggered:
            return False
        callbacks = timeout.callbacks
        if not callbacks:
            return True  # never awaited at all
        for callback in callbacks:
            owner = getattr(callback, "__self__", None)
            if not isinstance(owner, Event):
                return False  # opaque waiter; assume live
            if not owner.triggered:
                return False  # a pending process/condition may still need it
        return True

    def _pending_timeout_leaks(self) -> "list[SanitizerFinding]":
        findings = []
        for _, _, event in self.engine._pending_entries():
            if isinstance(event, Timeout) and self._timeout_abandoned(event):
                findings.append(
                    SanitizerFinding(
                        kind="timeout-leak",
                        message=(
                            f"{event!r} still armed at run() return with no "
                            "live waiter — arm abandonable deadlines in "
                            "engine.deadlines and disarm them"
                        ),
                        site=self._timeout_sites.get(event, ""),
                    )
                )
        return findings

    def _orphan_processes(self) -> "list[SanitizerFinding]":
        findings = []
        for process in self._processes:
            if process.triggered or process.daemon or process.expendable:
                continue
            waiting = process._waiting_on
            findings.append(
                SanitizerFinding(
                    kind="orphan-process",
                    message=(
                        f"{process!r} still alive after the queue drained, "
                        f"waiting on {waiting!r} which nothing will trigger"
                    ),
                    site=self._process_sites.get(process, ""),
                )
            )
        return findings

    def _lease_leaks(self) -> "list[SanitizerFinding]":
        findings = []
        for token in self._leases:
            if token.closed:
                continue
            owner_released = bool(getattr(token.owner, "released", False))
            if owner_released:
                findings.append(
                    SanitizerFinding(
                        kind="lease-leak",
                        message=(
                            f"{token.kind} {token.label!r}: owner was released "
                            "but the lease was never returned — the slots are "
                            "lost to every future tenant"
                        ),
                        site=token.site,
                    )
                )
        return findings

    # -- checks ----------------------------------------------------------

    def check(self, drained: bool = False) -> "list[SanitizerFinding]":
        """Collect leak findings; raise when strict and any exist.

        Called by the engine at every ``run()`` return (``drained=True``
        for a bare run that emptied its non-daemon work).  Timeout and
        lease leaks are checked on every return; orphan detection only
        after a drain, because a time-bounded run legitimately leaves
        work pending.
        """
        self.findings.extend(self._pending_timeout_leaks())
        self.findings.extend(self._lease_leaks())
        if drained:
            self.findings.extend(self._orphan_processes())
        if self.findings and self.strict:
            lines = "\n  ".join(finding.format() for finding in self.findings)
            raise SanitizerError(f"SimSanitizer found {len(self.findings)} issue(s):\n  {lines}")
        return self.findings

    # -- trace digest ----------------------------------------------------

    def _fold_trace(self) -> None:
        if self._trace_time is None:
            return
        self._trace_hash.update(repr(self._trace_time).encode())
        for record in sorted(self._trace_records):
            self._trace_hash.update(record.encode())
        self._trace_records.clear()

    def trace_digest(self) -> str:
        """Digest of the dispatch trace, order-insensitive per timestamp."""
        snapshot = self._trace_hash.copy()
        if self._trace_time is not None:
            snapshot.update(repr(self._trace_time).encode())
            for record in sorted(self._trace_records):
                snapshot.update(record.encode())
        return snapshot.hexdigest()


# -- dual-run race detection ---------------------------------------------


def state_digest(state: object) -> str:
    """SHA-256 of a canonical, order-stable rendering of ``state``."""
    digest = hashlib.sha256()
    digest.update(_canonical(state).encode())
    return digest.hexdigest()


def _canonical(obj: object) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: _canonical(kv[0]))
        body = ",".join(f"{_canonical(k)}:{_canonical(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(item) for item in obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in obj) + "]"
    if isinstance(obj, float):
        return repr(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: getattr(obj, field.name)
            for field in dataclasses.fields(obj)
        }
        return f"{type(obj).__name__}({_canonical(fields)})"
    return repr(obj)


@dataclasses.dataclass(frozen=True)
class DualRunReport:
    """Outcome of a tie-break-shuffled A/B run."""

    baseline_state: str
    shuffled_state: str
    baseline_trace: str
    shuffled_trace: str

    @property
    def state_match(self) -> bool:
        return self.baseline_state == self.shuffled_state

    @property
    def trace_match(self) -> bool:
        return self.baseline_trace == self.shuffled_trace

    @property
    def racy(self) -> bool:
        """True when observable state depends on same-timestamp order."""
        return not self.state_match


def dual_run(scenario: "Callable[[Engine], object]") -> DualRunReport:
    """Run ``scenario`` twice — FIFO vs salted tie-breaks — and compare.

    ``scenario`` receives a sanitized engine, must drive it (including
    ``engine.run()``), and returns its observable state (stats,
    counters, latency summaries — anything :func:`state_digest` can
    canonicalize).  Differing digests mean the scenario's outcome
    depends on the dispatch order of same-timestamp events: a
    discrete-event race no single run can expose.
    """
    from repro.sim.engine import Engine

    def run_once(tie_salt: int) -> tuple[str, str]:
        engine = Engine(sanitize=True, tie_break_salt=tie_salt)
        engine.sanitizer.strict = False
        state = scenario(engine)
        return state_digest(state), engine.sanitizer.trace_digest()

    baseline_state, baseline_trace = run_once(0)
    shuffled_state, shuffled_trace = run_once(DEFAULT_TIE_SALT)
    return DualRunReport(
        baseline_state=baseline_state,
        shuffled_state=shuffled_state,
        baseline_trace=baseline_trace,
        shuffled_trace=shuffled_trace,
    )
