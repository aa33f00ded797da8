"""Sharded async network front end for the estimation service.

See ``docs/SERVICE.md`` ("Network deployment") for the model: an
asyncio TCP/HTTP acceptor parses each v1/v2 JSON line once and routes
it across N in-process shards (one warm ``Estimator`` each) by
rendezvous-hashing the graph spec, with a peak-hold admission
controller shedding load before it can stall the event loop.
"""

from .admission import (
    AdmissionController,
    PeakHoldEstimator,
    TokenBucket,
)
from .loadgen import LoadReport, run_loadgen
from .protocol import (
    DEFAULT_MAX_LINE_BYTES,
    ERROR_CODES,
    ParsedLine,
    answer_request,
    error_payload,
    parse_request_line,
)
from .routing import RendezvousRouter, routing_key
from .server import Frontend, FrontendConfig, run_http_server, run_tcp_server

__all__ = [
    "AdmissionController",
    "DEFAULT_MAX_LINE_BYTES",
    "ERROR_CODES",
    "Frontend",
    "FrontendConfig",
    "LoadReport",
    "ParsedLine",
    "PeakHoldEstimator",
    "RendezvousRouter",
    "TokenBucket",
    "answer_request",
    "error_payload",
    "parse_request_line",
    "routing_key",
    "run_http_server",
    "run_loadgen",
    "run_tcp_server",
]
