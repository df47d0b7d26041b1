"""Concurrent query service tier.

An asyncio front end (:class:`~repro.service.server.QueryService`)
over one :class:`~repro.core.engine.QueryEngine`: requests from many
clients are admission-controlled with the planner's cost model,
fused by the :class:`~repro.service.broker.RequestBroker` when they
share a fusion key within one scheduling window, executed as stacked
engine calls, and demultiplexed back to each caller.  Per-tenant
accounting lives in :mod:`repro.service.tenants`.

See ``docs/ARCHITECTURE.md`` for where this tier sits in the stack
and ``docs/OPERATIONS.md`` for tuning the fusion window and budgets.
"""

from repro.service.broker import (
    FusedGroup,
    PendingRequest,
    RequestBroker,
    fingerprint_of,
    fusion_key,
)
from repro.service.server import QueryService, ServiceStandingQuery
from repro.service.tenants import TenantAccount, TenantLedger

__all__ = [
    "FusedGroup",
    "PendingRequest",
    "QueryService",
    "RequestBroker",
    "ServiceStandingQuery",
    "TenantAccount",
    "TenantLedger",
    "fingerprint_of",
    "fusion_key",
]
