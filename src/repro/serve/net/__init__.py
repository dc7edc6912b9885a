"""The daemon behind ``repro serve``: an asyncio JSON-lines core over
the crash-isolated worker pool.

* :mod:`repro.serve.net.server` — the daemon core for both transports
  (``repro serve --tcp`` listens; ``repro serve --stdio`` hands it
  stdin and stdout as one connection): control ops, per-tenant
  admission control, single-flight dedup, withdrawal, graceful drain.
* :mod:`repro.serve.net.admission` — bounded per-tenant queues and
  429-style ``overloaded`` rejects.
* :mod:`repro.serve.net.singleflight` — the flight table that lets N
  concurrent identical compiles cost one pool task.
* :mod:`repro.serve.net.loadgen` — ``repro loadgen``: corpus replay at
  configurable concurrency, latency percentiles, and the SLO gate.
"""

from repro.serve.net.admission import AdmissionController
from repro.serve.net.loadgen import run_loadgen
from repro.serve.net.server import BackgroundServer, NetServer, serve_tcp
from repro.serve.net.singleflight import FlightTable

__all__ = [
    "AdmissionController",
    "BackgroundServer",
    "FlightTable",
    "NetServer",
    "run_loadgen",
    "serve_tcp",
]
