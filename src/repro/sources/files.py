"""Non-queryable file sources: XML documents and delimited (CSV) files.

"For files, XML schemas are required at file registration time, and are
used to validate the data for typed processing" (section 5.3).  These
sources are *non-queryable*: ALDSP reads the full content and all
filtering happens in the middleware.  Validation is remembered per file
content: an XML file keeps its typed token stream, a delimited file its
validated rows, from which every call builds row-backed records.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterator, Sequence

from ..clock import Clock
from ..concurrency import TrackedRLock, guarded_by
from ..errors import SourceError
from ..schema.builder import validate
from ..schema.types import ComplexContent, ElementItemType, SimpleContent
from ..xml.items import ElementNode, Item
from ..xml.parser import parse_document
from ..xml.tokens import tokens_to_items
from .adaptor import Adaptor


@guarded_by("_lock")
class FileAdaptor(Adaptor):
    """What the file sources share: every call charges ``latency_ms`` and
    reads the whole file; subclasses turn the text into validated records.

    Validation is a function of the text alone, so the adaptor keeps what
    the last content that validated came to — its typed token stream, or a
    delimited file's rows — and, while the text just read is equal to it,
    builds the call's fresh items straight from that (immutable) memo: no
    parse, no ``validate``, no tokenizing.  Changed content, content that
    failed to validate and any installed ``FaultInjector`` take every
    step."""

    def __init__(self, name: str, path: str | Path, record_shape: ElementItemType,
                 clock: Clock | None = None, latency_ms: float = 2.0):
        super().__init__(name, clock)
        self.path = Path(path)
        self.record_shape = record_shape
        self.latency_ms = latency_ms
        self._lock = TrackedRLock(f"FileAdaptor:{name}")
        #: (text, what it validated to) for the last content read that validated
        self._memo: tuple[object, Sequence] | None = None

    def call(self, connection: object, params: list[object]) -> object:
        self.clock.charge_ms(self.latency_ms)
        try:
            return self.path.read_text()
        except OSError as exc:
            raise SourceError(f"cannot read {self.path}: {exc}") from exc

    def result_items(self, raw: object) -> list[Item]:
        if self.faults is not None:
            return super().result_items(raw)
        memo = self._memo
        if memo is not None and memo[0] == raw:
            return self._items(memo[1])
        validated = self._validated(raw)
        with self._lock:
            self._memo = (raw, validated)
        return self._items(validated)

    def _validated(self, raw: object) -> Sequence:
        """What the memo keeps of content that validated (it raises if the
        content does not): its typed token stream."""
        return tuple(self.result_tokens(raw))

    def _items(self, validated: Sequence) -> list[Item]:
        """One call's fresh items, from what the memo keeps."""
        return tokens_to_items(validated)


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
    order follows the shape's particle order, and so must an optional header.  A
    record is row-backed, like a pushed region's: built from the line's
    fields through one compiled template (``pushedsql.record_fn``), so a
    child step that is atomized reads the field and builds no tree.  The
    memo keeps the rows of content that validated, shared by every call
    and never written; each call builds its own records over them.
    """

    def __init__(self, name: str, path: str | Path, record_shape: ElementItemType,
                 delimiter: str = ",", has_header: bool = True,
                 clock: Clock | None = None, latency_ms: float = 2.0):
        from ..runtime.operators.pushedsql import record_fn  # (the runtime imports sources)

        super().__init__(name, path, record_shape, clock, latency_ms)
        self.delimiter = delimiter
        self.has_header = has_header
        self._fields = self._field_spec(record_shape)
        # positional aliases: two fields may share a name
        self._aliases = [f"c{index}" for index in range(len(self._fields))]
        self._record = record_fn(record_shape.name or "RECORD", tuple(
            (alias, xs_type, field_name)
            for alias, (field_name, xs_type) in zip(self._aliases, self._fields)))

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

    def _rows(self, text: object) -> Iterator[dict]:
        """The file's lines as rows, alias -> field text; an empty field is
        NULL, a missing element (ragged data)."""
        reader = csv.reader(io.StringIO(str(text)), delimiter=self.delimiter)
        lines = list(reader)
        if self.has_header and lines:
            header, expected = [name.strip() for name in lines[0]], [f[0] for f in self._fields]
            if header != expected:  # fields are mapped by position
                raise SourceError(f"{self.name}: the header names {', '.join(header)}; "
                                  f"the record shape names {', '.join(expected)}")
            lines = lines[1:]
        for line in lines:
            if not line:
                continue
            if len(line) != len(self._fields):
                raise SourceError(
                    f"{self.name}: row has {len(line)} fields, expected {len(self._fields)}"
                )
            yield {alias: field or None for alias, field in zip(self._aliases, line)}

    def _validated_record(self, row: dict) -> ElementNode:
        [record] = self._record(row, [row])
        return validate(record, self.record_shape)

    def translate_result(self, result: object) -> list[Item]:
        return [self._validated_record(row) for row in self._rows(result)]

    def _validated(self, raw: object) -> Sequence:
        """The rows, each checked once through a tree of its record."""
        rows = []
        for row in self._rows(raw):
            self._validated_record(row)
            rows.append(row)
        return tuple(rows)

    def _items(self, validated: Sequence) -> list[Item]:
        build = self._record
        items: list[Item] = []
        for row in validated:
            items.extend(build(row, [row]))
        return items
