"""Serialization of data-model items to XML text."""

from __future__ import annotations

from typing import Iterable

from .items import (
    AtomicValue,
    AttributeNode,
    DocumentNode,
    ElementNode,
    Item,
    Node,
    TextNode,
)


def escape_text(text: str) -> str:
    # most text has nothing to escape: three scans beat three copies
    if "&" in text or "<" in text or ">" in text:
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text


def escape_attribute(text: str) -> str:
    return escape_text(text).replace('"', "&quot;")


def _write(item: Item, indent: int | None, level: int, append) -> None:
    """Append the fragments of ``item``'s serialization, in order.  Every
    public entry point below funnels through here and joins once."""
    if isinstance(item, ElementNode):
        source = item._source
        if source is not None and indent is None:
            # a template's element nobody has read: its text comes straight
            # from the row, and the tree is never built
            source[0].write(source[1], source[2], append)
            return
        pad = None if indent is None else "\n" + " " * (indent * level)
        tag = item.name.lexical
        opening = "<" + tag if pad is None else pad + "<" + tag
        for attr in item.attributes:
            opening += f' {attr.name.lexical}="{escape_attribute(attr.string_value())}"'
        children = item.children()
        if not children:
            append(opening + "/>")
            return
        append(opening + ">")
        nested = False
        for child in children:
            if isinstance(child, TextNode):
                append(escape_text(child.content))
            else:
                nested = True
                _write(child, indent, level + 1, append)
        # pretty-printed, the end tag of an element with nested children
        # goes on a line of its own
        append(pad + "</" + tag + ">" if nested and pad is not None else "</" + tag + ">")
    elif isinstance(item, AtomicValue):
        append(item.string_value())
    elif isinstance(item, TextNode):
        append(escape_text(item.content))
    elif isinstance(item, AttributeNode):
        append(f'{item.name.lexical}="{escape_attribute(item.string_value())}"')
    elif isinstance(item, DocumentNode):
        for child in item.children():
            _write(child, indent, level, append)
    else:
        raise TypeError(f"cannot serialize {type(item).__name__}")


def serialize_item(item: Item, indent: int | None = None, _level: int = 0) -> str:
    """Serialize one item.  ``indent`` enables pretty printing."""
    parts: list[str] = []
    _write(item, indent, _level, parts.append)
    return "".join(parts)


def serialize_to_sink(items: Iterable[Item], sink, indent: int | None = None,
                      separator: str = "\n", batch_size: int = 1) -> int:
    """Stream ``items`` into ``sink`` (a writable text file object),
    ``separator`` between items; returns the item count.

    The fragments of ``batch_size`` items are buffered and flushed with a
    single ``"".join`` + ``write``, amortizing the per-token sink call.
    The bytes produced are identical for every batch size.
    """
    count = 0
    buffer: list[str] = []
    append = buffer.append
    for item in items:
        if count:
            append(separator)
        _write(item, indent, 0, append)
        count += 1
        if count % batch_size == 0:
            sink.write("".join(buffer))
            buffer.clear()
    if buffer:
        sink.write("".join(buffer))
    return count


def serialize(items: Item | Iterable[Item], indent: int | None = None) -> str:
    """Serialize an item or sequence of items.

    Adjacent atomic values are separated by a single space, per the XQuery
    serialization rules.
    """
    if isinstance(items, (Node, AtomicValue)):
        items = [items]
    parts: list[str] = []
    append = parts.append
    previous_atomic = False
    for item in items:
        is_atomic = isinstance(item, AtomicValue)
        if is_atomic and previous_atomic:
            append(" ")
        _write(item, indent, 0, append)
        previous_atomic = is_atomic
    text = "".join(parts)
    return text.lstrip("\n") if indent is not None else text
