"""Adaptor framework base (sections 2.2 and 5.3).

Every data-source invocation follows the same five steps:

1. establish a connection to the physical data source,
2. translate parameters from the XML token stream to the source's model,
3. invoke the data source,
4. translate the result into (typed) XML token-stream form,
5. release the physical connection.

Adaptors have a design-time side (introspecting metadata into physical
data services — :mod:`repro.services.introspect`) and this runtime side.
"""

from __future__ import annotations

from typing import Sequence

from ..clock import Clock, VirtualClock
from ..errors import SourceError
from ..relational.database import SourceStats
from ..xml.items import Item
from ..xml.tokens import Token, items_to_tokens, tokens_to_items


class Adaptor:
    """Base runtime adaptor.

    Subclasses implement the source-model hooks; ``invoke`` runs the
    five-step protocol.  ``available`` and ``extra_latency_ms`` support the
    failure/slowness injection that the failover machinery (section 5.6)
    is tested against; ``faults`` accepts a scripted
    :class:`~repro.resilience.FaultInjector` plan (R-RESIL).
    """

    def __init__(self, name: str, clock: Clock | None = None):
        self.name = name
        self.clock = clock or VirtualClock()
        self.available = True
        self.extra_latency_ms = 0.0
        #: what step 1 costs against an unavailable source before it raises
        self.connect_timeout_ms = 10.0
        self.invocations = 0
        self.stats = SourceStats()
        #: optional scripted fault plan (repro.resilience.FaultInjector)
        self.faults = None

    # -- protocol hooks ---------------------------------------------------------

    def connect(self) -> object:
        """Step 1; returns an opaque connection handle."""
        return object()

    def translate_parameters(self, args: list[list[Item]]) -> list[object]:
        """Step 2: token stream -> source data model (default: items)."""
        return [list(arg) for arg in args]

    def call(self, connection: object, params: list[object]) -> object:
        """Step 3: actually invoke the source."""
        raise NotImplementedError

    def translate_result(self, result: object) -> list[Item]:
        """Step 4: source result -> typed XML items."""
        raise NotImplementedError

    def close(self, connection: object) -> None:
        """Step 5."""

    # -- entry point -----------------------------------------------------------------

    def invoke(self, args: list[list[Item]]) -> list[Item]:
        if not self.available:
            # A failed connect is never free: charge the connect timeout
            # before raising so failover economics stay realistic (R-RESIL).
            if self.connect_timeout_ms:
                self.clock.charge_ms(self.connect_timeout_ms)
            raise SourceError(f"source {self.name} is unavailable")
        if self.faults is not None:
            self.faults.on_call(self.name, self.clock)
        self.invocations += 1
        if self.extra_latency_ms:
            self.clock.charge_ms(self.extra_latency_ms)
        connection = self.connect()
        try:
            params = self.translate_parameters(args)
            raw = self.call(connection, params)
            items = self.result_items(raw)
        finally:
            self.close(connection)
        return items

    def result_items(self, raw: object) -> list[Item]:
        """Step 4 as ``invoke`` runs it: fresh items for this call, built
        from the typed token stream (a file adaptor that keeps what
        validated builds them from that instead)."""
        return tokens_to_items(self.result_tokens(raw))

    def result_tokens(self, raw: object) -> Sequence[Token]:
        """Step 4 as the runtime sees it: the source result as a typed
        token stream, the form in which data enters the ALDSP runtime
        (section 5.1).  ``invoke`` builds fresh items from it per call."""
        items = self.translate_result(raw)
        if self.faults is not None:
            items, dropped = self.faults.on_result(self.name, items)
            if dropped is not None:
                raise dropped
        return list(items_to_tokens(items))
