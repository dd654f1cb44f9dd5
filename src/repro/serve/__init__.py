"""repro.serve — the asyncio serving tier for reachability queries.

One port serves query traffic and the observability scrapes
(``/metrics``, ``/healthz``, ``/slow``).  The centerpiece is request
coalescing: concurrent ``GET /reach`` and ``POST /reach_many`` requests
arriving within a configurable window are answered through a single
vectorized ``query_many`` call — one numpy cut pass for the whole
batch — with answers bit-identical to issuing each query alone.

Layout:

* :mod:`repro.serve.config` — :class:`ServeConfig`, the one audited knob
  surface (coalescing window, admission control, budgets, drain).
* :mod:`repro.serve.coalescer` — :class:`Coalescer`, the batching core.
* :mod:`repro.serve.server` — :class:`ReachServer`, HTTP/1.1 on asyncio
  streams with admission control, graceful drain, and observability
  endpoints (``/metrics``, ``/healthz``, ``/slow``) folded in.
* :mod:`repro.serve.results` — :class:`ReachResult`, the typed response.
* :mod:`repro.serve.loadgen` — closed/open-loop load generation and the
  baseline-vs-coalesced comparison behind ``repro loadgen``.

See ``docs/SERVING.md`` for the operational guide.
"""

from repro.serve.coalescer import Coalescer, CoalescerClosed
from repro.serve.config import OVERLOAD_POLICIES, ServeConfig
from repro.serve.loadgen import calibrate_ms, compare_serving, run_loadgen
from repro.serve.results import ReachResult, verdict_of
from repro.serve.server import ReachServer

__all__ = [
    "ReachServer",
    "ServeConfig",
    "OVERLOAD_POLICIES",
    "Coalescer",
    "CoalescerClosed",
    "ReachResult",
    "verdict_of",
    "run_loadgen",
    "compare_serving",
    "calibrate_ms",
]
