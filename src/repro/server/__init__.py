"""The concurrent serving layer (R-SERVE): sessions, per-tenant
admission control and graceful overload degradation over one shared
:class:`~repro.services.platform.Platform`."""

from .admission import (
    DEFAULT_COST_THRESHOLD,
    STATE_OPEN,
    STATE_OVERLOAD,
    STATE_SHED_EXPENSIVE,
    AdmissionController,
    AdmissionTicket,
    TenantQuota,
    TokenBucket,
)
from .driver import StageResult, WorkloadDriver, percentile
from .frontend import DataServer, ServerResponse
from .session import Session, SessionManager, Tenant

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "DataServer",
    "DEFAULT_COST_THRESHOLD",
    "STATE_OPEN",
    "STATE_OVERLOAD",
    "STATE_SHED_EXPENSIVE",
    "ServerResponse",
    "Session",
    "SessionManager",
    "StageResult",
    "Tenant",
    "TenantQuota",
    "TokenBucket",
    "WorkloadDriver",
    "percentile",
]
