"""repro — a reproduction of "Query Processing in the AquaLogic Data
Services Platform" (VLDB 2006).

A federated XQuery data-services engine: declarative data services over
relational databases (simulated), Web services, Java functions and files;
an optimizing compiler with view unfolding, structural typing and inverse
functions; vendor-specific SQL pushdown; PP-k distributed joins; streaming
group-by; async/failover/caching; lineage-driven updates through SDO
change logs; and fine-grained security.

Start with :class:`repro.Platform` — see ``examples/quickstart.py``.
"""

from .clock import Clock, VirtualClock, WallClock
from .config import EngineConfig
from .diagnostics import Diagnostic, DiagnosticReport, Severity
from .errors import (
    ConcurrencyError,
    DynamicError,
    LineageError,
    ParseError,
    PlanVerificationError,
    ReproError,
    SchemaError,
    SecurityError,
    SourceError,
    SourceTimeoutError,
    SQLError,
    StaticError,
    TransactionError,
    TypeMatchError,
    UpdateError,
    XMLError,
)
from .errors import CircuitOpenError
from .relational import Column, Database, ForeignKey, LatencyModel
from .resilience import (
    CircuitBreakerConfig,
    DegradationRecord,
    FaultInjector,
    RetryPolicy,
    SourcePolicy,
)
from .sdo import ConcurrencyPolicy, DataGraph, DataObject
from .security import SecurityService, User
from .services import Mediator, Platform, RequestConfig
from .sources import WebServiceDescriptor, WebServiceOperation
from .xml import AtomicValue, ElementNode, element, serialize

__version__ = "1.0.0"

__all__ = [
    "Clock",
    "VirtualClock",
    "WallClock",
    "EngineConfig",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "ConcurrencyError",
    "DynamicError",
    "LineageError",
    "ParseError",
    "PlanVerificationError",
    "ReproError",
    "SchemaError",
    "SecurityError",
    "SourceError",
    "SourceTimeoutError",
    "SQLError",
    "StaticError",
    "TransactionError",
    "TypeMatchError",
    "UpdateError",
    "XMLError",
    "CircuitOpenError",
    "Column",
    "Database",
    "ForeignKey",
    "LatencyModel",
    "CircuitBreakerConfig",
    "DegradationRecord",
    "FaultInjector",
    "RetryPolicy",
    "SourcePolicy",
    "ConcurrencyPolicy",
    "DataGraph",
    "DataObject",
    "SecurityService",
    "User",
    "Mediator",
    "Platform",
    "RequestConfig",
    "WebServiceDescriptor",
    "WebServiceOperation",
    "AtomicValue",
    "ElementNode",
    "element",
    "serialize",
    "__version__",
]
