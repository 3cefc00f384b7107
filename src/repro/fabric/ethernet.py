"""The Ethernet management network (§2.3, §3.3).

Servers carry a 10 Gb NIC into a 48-port top-of-rack switch.  The
Mapping Manager and Health Monitor communicate over this network — it
is entirely separate from the inter-FPGA torus.  We model it as a
reliable RPC fabric with a fixed one-way latency; unresponsive servers
simply never answer, which the caller turns into a timeout.
"""

from __future__ import annotations

import collections.abc

from repro.sim import Engine, Event
from repro.sim.units import MS, US


class RpcTimeout(Exception):
    """The destination did not answer within the deadline."""


class EthernetNetwork:
    """Datacenter management network with per-machine RPC handlers."""

    ONE_WAY_LATENCY_NS = 50 * US

    def __init__(self, engine: Engine):
        self.engine = engine
        self._handlers: dict[str, collections.abc.Callable[[object], object]] = {}
        self.rpcs_sent = 0
        self.rpcs_timed_out = 0

    def register(self, machine_id: str, handler: collections.abc.Callable[[object], object]) -> None:
        """Install the RPC handler for ``machine_id``.

        The handler receives the message and returns a response, or
        returns None / raises to model an unresponsive machine.
        """
        self._handlers[machine_id] = handler

    def unregister(self, machine_id: str) -> None:
        self._handlers.pop(machine_id, None)

    def rpc(
        self, dst: str, message: object, timeout_ns: float = 10 * MS
    ) -> Event:
        """Send ``message`` to ``dst``; event succeeds with the response.

        Fails with :class:`RpcTimeout` if the machine is unregistered,
        its handler raises, or it returns None (unresponsive).
        """
        self.rpcs_sent += 1
        done = self.engine.event(name=f"rpc:{dst}")

        def body():
            yield self.engine.timeout(self.ONE_WAY_LATENCY_NS)
            handler = self._handlers.get(dst)
            response = None
            if handler is not None:
                try:
                    response = handler(message)
                except Exception:
                    response = None
            if response is None:
                # No answer: the caller's timeout expires.
                yield self.engine.timeout(timeout_ns)
                self.rpcs_timed_out += 1
                done.fail(RpcTimeout(dst))
                return
            yield self.engine.timeout(self.ONE_WAY_LATENCY_NS)
            done.succeed(response)

        self.engine.process(body(), name=f"rpc.{dst}")
        return done
