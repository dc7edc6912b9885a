"""Single-flight deduplication of identical in-flight requests.

Compilation (and, in this deterministic VM, execution) is a pure
function of the request, so N concurrent identical requests need one
pool task: the first becomes the **leader** and submits; the other
N-1 become **followers** and await the same future.  This is the
in-flight analogue of the compile cache — the cache collapses repeats
*across* time, the flight table collapses repeats *within* the window
where the answer is still being computed (exactly the window where a
cold cache would otherwise stampede the pool).

The table counts each flight's waiters, so a request that is
withdrawn (a ``cancel`` op, or its client going away) only stops the
work behind it when nobody else is waiting for the answer.

Everything here runs on one event loop; there is no locking because
there is no preemption between :meth:`join`'s check and insert.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Tuple


class _Flight:
    __slots__ = ("future", "waiters")

    def __init__(self, future: "asyncio.Future") -> None:
        self.future = future
        self.waiters = 1


class FlightTable:
    """key → the future every waiter of that computation awaits."""

    def __init__(self) -> None:
        self._flights: Dict[str, _Flight] = {}
        #: Followers served so far (the ``repro_serve_inflight_dedup``
        #: mirror, kept here so ``stats`` needs no registry).
        self.dedup_hits = 0
        self.flights = 0

    def join(self, key: str) -> Tuple[bool, "asyncio.Future"]:
        """Returns ``(leader, future)``.  The flight retires when its
        future is done — resolved (by :meth:`resolve`, or by whoever
        the leader handed it to) or cancelled by :meth:`leave`."""
        flight = self._flights.get(key)
        if flight is not None and not flight.future.done():
            flight.waiters += 1
            self.dedup_hits += 1
            return False, flight.future
        future = asyncio.get_running_loop().create_future()
        flight = self._flights[key] = _Flight(future)
        future.add_done_callback(lambda _: self._retire(key, flight))
        self.flights += 1
        return True, future

    def resolve(self, key: str, result) -> None:
        """Publish a result to every waiter of *key*'s flight.  Results
        are plain values (a failed task is still a
        :class:`~repro.serve.pool.TaskResult`), so a waiter can never
        see a raised exception it did not cause."""
        flight = self._flights.get(key)
        if flight is not None and not flight.future.done():
            flight.future.set_result(result)

    def leave(self, key: str) -> bool:
        """One waiter of *key*'s live flight withdrew.  Returns True when
        it was the last: the flight's future is cancelled (so nothing
        is ever set on a future nobody awaits, and a later identical
        request starts a flight of its own), and the caller should
        stop the work behind it."""
        flight = self._flights[key]
        flight.waiters -= 1
        if flight.waiters:
            return False
        flight.future.cancel()
        return True

    def _retire(self, key: str, flight: _Flight) -> None:
        if self._flights.get(key) is flight:
            del self._flights[key]

    @property
    def in_flight(self) -> int:
        return sum(not flight.future.done() for flight in self._flights.values())

    def stats(self) -> Dict[str, int]:
        return {
            "in_flight": self.in_flight,
            "flights": self.flights,
            "dedup_hits": self.dedup_hits,
        }
