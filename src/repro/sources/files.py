"""Non-queryable file sources: XML documents and delimited (CSV) files.

"For files, XML schemas are required at file registration time, and are
used to validate the data for typed processing" (section 5.3).  These
sources are *non-queryable*: ALDSP reads the full content and all
filtering happens in the middleware.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Sequence

from ..clock import Clock
from ..concurrency import TrackedRLock, guarded_by
from ..errors import SourceError
from ..schema.builder import validate
from ..schema.types import ComplexContent, ElementItemType, SimpleContent
from ..xml.items import ElementNode, Item, TextNode
from ..xml.parser import parse_document
from ..xml.qname import QName
from ..xml.tokens import Token
from .adaptor import Adaptor


@guarded_by("_lock")
class FileAdaptor(Adaptor):
    """What the file sources share: every call charges ``latency_ms`` and
    reads the whole file; subclasses turn the text into validated records.

    Validation is a function of the text alone, so the adaptor keeps the
    typed token stream of the last content that validated and, while the
    text just read is equal to it, hands those (immutable) tokens straight
    to ``invoke``'s item builder: no parse, no record construction, no
    ``validate``, no tokenizing.  Changed content, content that failed to
    validate and any installed ``FaultInjector`` take every step."""

    def __init__(self, name: str, path: str | Path, record_shape: ElementItemType,
                 clock: Clock | None = None, latency_ms: float = 2.0):
        super().__init__(name, clock)
        self.path = Path(path)
        self.record_shape = record_shape
        self.latency_ms = latency_ms
        self._lock = TrackedRLock(f"FileAdaptor:{name}")
        #: (text, its tokens) for the last content read that validated
        self._memo: tuple[object, tuple[Token, ...]] | None = None

    def call(self, connection: object, params: list[object]) -> object:
        self.clock.charge_ms(self.latency_ms)
        try:
            return self.path.read_text()
        except OSError as exc:
            raise SourceError(f"cannot read {self.path}: {exc}") from exc

    def result_tokens(self, raw: object) -> Sequence[Token]:
        if self.faults is not None:
            return super().result_tokens(raw)
        memo = self._memo
        if memo is not None and memo[0] == raw:
            return memo[1]
        tokens = tuple(super().result_tokens(raw))
        with self._lock:
            self._memo = (raw, tokens)
        return tokens


class XMLFileAdaptor(FileAdaptor):
    """Serves the row/record elements of an XML file, validated against the
    registration-time schema."""

    def translate_result(self, result: object) -> list[Item]:
        root = parse_document(str(result)).root_element()
        records = [c for c in root.children() if isinstance(c, ElementNode)]
        if not records and self.record_shape.name == root.name.local:
            records = [root]
        for record in records:
            validate(record, self.record_shape)
        return list(records)


class CSVFileAdaptor(FileAdaptor):
    """Serves the rows of a delimited file as typed row elements.

    The record shape must be flat (simple-content leaves only); column
    order follows the shape's particle order, header row optional.
    """

    def __init__(self, name: str, path: str | Path, record_shape: ElementItemType,
                 delimiter: str = ",", has_header: bool = True,
                 clock: Clock | None = None, latency_ms: float = 2.0):
        super().__init__(name, path, record_shape, clock, latency_ms)
        self.delimiter = delimiter
        self.has_header = has_header
        self._fields = self._field_spec(record_shape)

    @staticmethod
    def _field_spec(shape: ElementItemType) -> list[tuple[str, str]]:
        if not isinstance(shape.content, ComplexContent):
            raise SourceError("CSV record shape must have complex content")
        fields = []
        for particle in shape.content.particles:
            item_type = particle.item_type
            if not isinstance(item_type, ElementItemType) or not isinstance(
                item_type.content, SimpleContent
            ):
                raise SourceError("CSV record shape must be flat")
            assert item_type.name is not None
            fields.append((item_type.name, item_type.content.type_name))
        return fields

    def translate_result(self, result: object) -> list[Item]:
        reader = csv.reader(io.StringIO(str(result)), delimiter=self.delimiter)
        rows = list(reader)
        if self.has_header and rows:
            rows = rows[1:]
        items: list[Item] = []
        record_name = self.record_shape.name or "RECORD"
        for row in rows:
            if not row:
                continue
            if len(row) != len(self._fields):
                raise SourceError(
                    f"{self.name}: row has {len(row)} fields, expected {len(self._fields)}"
                )
            element = ElementNode(QName(record_name))
            for (field_name, _xs_type), raw in zip(self._fields, row):
                if raw == "":
                    continue  # missing value -> missing element (ragged data)
                child = ElementNode(QName(field_name))
                child.add_child(TextNode(raw))
                element.add_child(child)
            validate(element, self.record_shape)
            items.append(element)
        return items
