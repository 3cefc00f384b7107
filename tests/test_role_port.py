"""The role port and the router FIFOs, pinned on exact instants.

The shell hands each packet on its ROLE port to the role and drives the
role's ``handle`` generator; the router's output queues and the SL3
queues are bounded FIFOs whose blocked puts wait for room.  These
scenarios pin the instants at which a role starts, sends, stalls and is
corrupted, so a change to how the port or the queues are built cannot
move them.
"""

import pytest

from repro.shell import Packet, PacketKind, Port, Role, ShellConfig
from repro.sim import Engine, Fifo, StoreFull
from tests.test_shell_integration import build_pair

# A 1 KB packet reaches B's role 912 ns after it enters A's router
# (512 ns of serialization plus the 400 ns hop); back to back, the link
# delivers one every 512 ns.
REPLACED_LOG = [
    ("start", "old", 0, 912.0),
    ("replaced", None, None, 5_912.0),
    ("start", "new", 1, 5_912.0),
    ("send", "new", 1, 15_912.0),
    ("start", "new", 2, 15_912.0),
    ("send", "new", 2, 25_912.0),
]
REPLACED_RESPONSES = [(16_344.0, ("new", 1)), (26_344.0, ("new", 2))]
# Four 1 KB responses into B's own PCIe port, which queues two: the
# output DMA takes the first at once and the fourth put waits until the
# DMA has moved the first one out (its transfer ends at 1,456.0 ns).
BLOCKED_SENDS = [(0, 0.0), (1, 0.0), (2, 0.0), (3, 1_456.0)]
# Garbage from an unprotected neighbour corrupts an idle role when it
# arrives, and a busy role when it takes the garbage off its queue.
IDLE_GARBAGE = [("corrupted", "idle", None, 1_479.5), ("corrupted", "idle", None, 51_027.5)]
BUSY_GARBAGE = [
    ("start", "busy", 0, 656.0),
    ("send", "busy", 0, 100_656.0),
    ("corrupted", "busy", None, 100_656.0),
    ("corrupted", "busy", None, 100_656.0),
]


class LoggingRole(Role):
    """Logs when it starts on a packet, when it sends the response after
    ``delay_ns``, and when garbage corrupts it."""

    name = "logging"

    def __init__(self, tag, log, delay_ns=10_000.0):
        self.tag = tag
        self.log = log
        self.delay_ns = delay_ns
        super().__init__()

    @property
    def corrupted(self):
        return self._corrupted

    @corrupted.setter
    def corrupted(self, value):
        if value:
            self.log.append(("corrupted", self.tag, None, self.shell.engine.now))
        self._corrupted = value

    def handle(self, packet):
        engine = self.shell.engine
        self.log.append(("start", self.tag, packet.payload, engine.now))
        yield engine.timeout(self.delay_ns)
        self.log.append(("send", self.tag, packet.payload, engine.now))
        yield self.send(packet.response_to(64, (self.tag, packet.payload)))


def _request(index, size_bytes=1024):
    return Packet(
        kind=PacketKind.REQUEST, src=(0, 0), dst=(1, 0), size_bytes=size_bytes, payload=index
    )


def _responses_into(engine, shell, start):
    """Log ``(instant since start, payload)`` of each response ``shell``'s
    router routes to its PCIe port."""
    responses = []
    submit = shell.router.submit

    def record(packet, in_port):
        if packet.kind is PacketKind.RESPONSE:
            responses.append((engine.now - start, packet.payload))
        return submit(packet, in_port)

    shell.router.submit = record
    return responses


def test_a_replaced_role_sends_nothing_and_its_successor_serves_the_queue():
    engine = Engine()
    shell_a, shell_b = build_pair(engine)
    log = []
    shell_b.attach_role(LoggingRole("old", log))
    start = engine.now
    responses = _responses_into(engine, shell_a, start)

    def scenario():
        for index in range(3):
            shell_a.router.submit(_request(index), Port.PCIE)
        yield engine.timeout(5_912.0)  # mid-way through the old role's service
        log.append(("replaced", None, None, engine.now - start))
        shell_b.attach_role(LoggingRole("new", log))

    engine.process(scenario())
    engine.run()
    relative = [
        (kind, tag, payload, at if kind == "replaced" else at - start)
        for kind, tag, payload, at in log
    ]
    assert relative == REPLACED_LOG
    assert responses == REPLACED_RESPONSES
    assert shell_b.role.packets_handled == 2


def test_a_replaced_role_s_timeout_does_not_hold_run_open():
    """Replacing a role cancels the timeout its handler waits on and
    demotes it to daemon work: a bare run() ends with the live work, not
    at that timeout's instant with the shell's SEU scrubber ticking all
    the way there."""
    engine = Engine()
    shell_a, shell_b = build_pair(engine)
    log = []
    shell_b.attach_role(LoggingRole("old", log, delay_ns=1e9))
    start = engine.now

    def scenario():
        shell_a.router.submit(_request(0), Port.PCIE)
        yield engine.timeout(5_912.0)
        shell_b.attach_role(LoggingRole("new", log))

    engine.process(scenario())
    assert engine.run() - start == 5_912.0
    assert log == [("start", "old", 0, start + 912.0)]


class BurstRole(Role):
    """Answers one request with four responses to its own host, each
    ``send`` yielded in turn; logs the instant each put completes."""

    name = "burst"

    def __init__(self, log):
        super().__init__()
        self.log = log

    def handle(self, packet):
        engine = self.shell.engine
        for index in range(4):
            response = Packet(
                kind=PacketKind.RESPONSE,
                src=self.shell.node_id,
                dst=self.shell.node_id,
                size_bytes=1024,
                payload=index,
                slot_id=index,
            )
            yield self.send(response)
            self.log.append((index, engine.now))


def test_a_blocked_send_resumes_at_the_dispatch_of_its_put():
    engine = Engine()
    _shell_a, shell_b = build_pair(engine, ShellConfig(router_queue_capacity=2))
    log = []
    shell_b.attach_role(BurstRole(log))
    engine.run()
    start = engine.now
    request = Packet(
        kind=PacketKind.REQUEST, src=(1, 0), dst=(1, 0), size_bytes=64, slot_id=9
    )

    def scenario():
        yield shell_b.router.submit(request, Port.PCIE)

    engine.process(scenario())
    engine.run()
    assert [(index, at - start) for index, at in log] == BLOCKED_SENDS
    assert shell_b.pcie.stats.responses_dma_out == 4


def test_a_role_replaced_while_its_send_is_blocked_drops_that_response():
    engine = Engine()
    _shell_a, shell_b = build_pair(engine, ShellConfig(router_queue_capacity=2))
    log = []
    shell_b.attach_role(BurstRole(log))
    engine.run()
    start = engine.now
    request = Packet(
        kind=PacketKind.REQUEST, src=(1, 0), dst=(1, 0), size_bytes=64, slot_id=9
    )

    def scenario():
        yield shell_b.router.submit(request, Port.PCIE)
        yield engine.timeout(100.0)  # the fourth send is blocked
        shell_b.attach_role(BurstRole([]))

    engine.process(scenario())
    engine.run()
    assert [(index, at - start) for index, at in log] == BLOCKED_SENDS[:3]
    assert shell_b.pcie.stats.responses_dma_out == 3
    assert shell_b.router.queue_depth(Port.PCIE) == 0


@pytest.mark.parametrize(
    "busy, expected", [(False, IDLE_GARBAGE), (True, BUSY_GARBAGE)], ids=["idle", "busy"]
)
def test_garbage_corrupts_a_role_exactly(busy, expected):
    engine = Engine(seed=1)
    shell_a, shell_b = build_pair(engine)
    log = []
    tag = "busy" if busy else "idle"
    shell_b.attach_role(LoggingRole(tag, log, delay_ns=100_000.0))
    engine.run()
    start = engine.now
    east = shell_a.endpoints[Port.EAST]
    if busy:
        shell_a.router.submit(_request(0, size_bytes=512), Port.PCIE)
    east.link.start_garbage(east, duration_ns=100_000.0)
    engine.run()
    assert [(kind, tag, payload, at - start) for kind, tag, payload, at in log] == expected
    assert shell_b.role.app_error


# -- the bounded FIFO under the router and SL3 queues ------------------------------------

FIFOS = [Fifo]


@pytest.mark.parametrize("fifo_class", FIFOS)
def test_a_put_with_room_is_done_at_once(fifo_class):
    engine = Engine()
    fifo = fifo_class(engine, capacity=2, name="q")
    put = fifo.put("a")
    assert put._dispatched
    assert len(fifo) == 1 and list(fifo.items) == ["a"]
    assert fifo.try_get() == "a"
    assert fifo.try_get() is None
    assert engine.queue_length == 0


@pytest.mark.parametrize("fifo_class", FIFOS)
def test_blocked_puts_succeed_on_the_try_get_that_makes_room_in_putter_order(fifo_class):
    engine = Engine()
    fifo = fifo_class(engine, capacity=1, name="q")
    fifo.put("a")
    second, third = fifo.put("b"), fifo.put("c")
    assert not second.triggered and not third.triggered
    assert len(fifo) == fifo.capacity and list(fifo.items) == ["a"]
    woken = []
    second.add_callback(lambda _event: woken.append(("b", engine.now)))
    third.add_callback(lambda _event: woken.append(("c", engine.now)))
    assert fifo.try_get() == "a"
    # Room for one: the first putter's item goes in and its event
    # succeeds now, to dispatch at this instant; the second still waits.
    assert second.triggered and not second._dispatched
    assert not third.triggered
    assert list(fifo.items) == ["b"]
    engine.run()
    assert woken == [("b", 0.0)]
    assert fifo.try_get() == "b"
    assert third.triggered and list(fifo.items) == ["c"]
    engine.run()
    assert woken == [("b", 0.0), ("c", 0.0)]


@pytest.mark.parametrize("fifo_class", FIFOS)
def test_a_cancelled_putter_s_item_is_dropped(fifo_class):
    engine = Engine()
    fifo = fifo_class(engine, capacity=1, name="q")
    fifo.put("a")
    departed, waiting = fifo.put("b"), fifo.put("c")
    departed.cancelled = True  # its process was killed
    assert fifo.try_get() == "a"
    assert not departed.triggered
    assert waiting.triggered
    assert list(fifo.items) == ["c"]


@pytest.mark.parametrize("fifo_class", FIFOS)
def test_try_put_into_a_full_fifo_raises(fifo_class):
    engine = Engine()
    fifo = fifo_class(engine, capacity=1, name="q")
    fifo.try_put("a")
    with pytest.raises(StoreFull):
        fifo.try_put("b")
