"""The asyncio citation service: one warm engine serving all traffic.

The library-shaped engine pays its expensive warm-up — plan cache,
rewriting cache, sub-plan memo, secondary/composite indexes,
statistics — once per *process*; this package turns that process into a
long-running HTTP service so the warm state amortizes across every
client (``repro serve`` on the CLI).  Layers:

- :mod:`repro.service.protocol` — minimal HTTP/1.1 framing over asyncio
  streams (no web-framework dependency);
- :mod:`repro.service.batcher` — the engine lane: one worker serializing
  all engine work, micro-batching concurrent single-query requests into
  ``cite_batch`` calls, bounded admission with backpressure;
- :mod:`repro.service.server` — endpoint routing, per-request timeouts,
  graceful SIGTERM drain, structured request logging, ``/stats``;
- :mod:`repro.service.metrics` — per-endpoint latency histograms and
  batching/rejection counters;
- :mod:`repro.service.client` — a blocking stdlib client (used by the
  workload replay mode, tests, and examples).
"""

from repro.service.batcher import AdmissionFull, EngineLane, LaneClosed
from repro.service.client import (
    ServiceClient,
    ServiceClientError,
    ServiceReply,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    HttpRequest,
    PayloadTooLarge,
    ProtocolError,
)
from repro.service.server import (
    CitationService,
    ServiceConfig,
    ServiceThread,
)

__all__ = [
    "AdmissionFull",
    "CitationService",
    "EngineLane",
    "HttpRequest",
    "LaneClosed",
    "PayloadTooLarge",
    "ProtocolError",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceReply",
    "ServiceThread",
]
