"""Service Data Objects: change-tracked XML business objects (section 6).

Supports both programming styles the paper mentions: the *untyped* model
(``get("LAST_NAME")`` / ``set("LAST_NAME", v)`` with slash paths) and the
*typed* model (dynamic ``getLAST_NAME()`` / ``setLAST_NAME(v)`` accessors,
mirroring the Java snippet in Figure 5).
"""

from __future__ import annotations

import re

from ..errors import UpdateError
from ..xml.items import AtomicValue, ElementNode, TextNode
from ..xml.qname import QName
from .changelog import Change, ChangeLog

_STEP_RE = re.compile(r"([A-Za-z_][\w.\-]*)(?:\[(\d+)\])?$")


class DataObject:
    """A change-tracked view over one business-object element."""

    def __init__(self, element: ElementNode, service_name: str = ""):
        self._element = element
        self.service_name = service_name
        self._changes: list[Change] = []
        self._original = dict(self._leaf_values(element))

    # -- plumbing ---------------------------------------------------------------

    @property
    def element(self) -> ElementNode:
        return self._element

    @property
    def root_name(self) -> str:
        return self._element.name.local

    @staticmethod
    def _leaf_values(element: ElementNode):
        """All leaf values keyed by [index]-disambiguated paths."""
        yield from DataObject._walk(element, (), element.name.local)

    @staticmethod
    def _walk(element: ElementNode, prefix: tuple[str, ...], label: str):
        path = prefix + (label,)
        child_elements = element.child_elements()
        if not child_elements:
            yield path, _typed_value(element)
            return
        counters: dict[str, int] = {}
        for child in child_elements:
            counters[child.name.local] = counters.get(child.name.local, 0) + 1
        indexed: dict[str, int] = {}
        for child in child_elements:
            name = child.name.local
            if counters[name] > 1:
                indexed[name] = indexed.get(name, 0) + 1
                child_label = f"{name}[{indexed[name]}]"
            else:
                child_label = name
            yield from DataObject._walk(child, path, child_label)

    def _resolve(self, path: str) -> ElementNode:
        """Resolve a slash path (relative to the root element) to a leaf."""
        current = self._element
        for raw_step in path.split("/"):
            match = _STEP_RE.match(raw_step)
            if not match:
                raise UpdateError(f"bad path step {raw_step!r}")
            name, index = match.group(1), match.group(2)
            matches = current.child_elements(QName(name))
            if not matches:
                raise UpdateError(f"{self.root_name}: no element at {path!r}")
            position = int(index) - 1 if index else 0
            if position >= len(matches):
                raise UpdateError(f"{self.root_name}: index out of range in {path!r}")
            current = matches[position]
        return current

    def _full_path(self, path: str) -> tuple[str, ...]:
        return (self.root_name,) + tuple(path.split("/"))

    # -- untyped accessors -----------------------------------------------------------

    def get(self, path: str):
        return _typed_value(self._resolve(path))

    def set(self, path: str, value) -> None:
        leaf = self._resolve(path)
        if leaf.child_elements():
            raise UpdateError(f"{path!r} is not a leaf")
        old = _typed_value(leaf)
        if old == value:
            return
        text = AtomicValue(value).string_value() if not isinstance(value, str) else value
        leaf.replace_children([TextNode(text)])
        self._changes.append(Change(self._full_path(path), old, value))

    # -- typed accessors (Figure 5 style) ------------------------------------------------

    def __getattr__(self, name: str):
        if name.startswith("get") and name[3:4].isupper():
            path = name[3:]
            return lambda: self.get(path)
        if name.startswith("set") and name[3:4].isupper():
            path = name[3:]
            return lambda value: self.set(path, value)
        raise AttributeError(name)

    # -- change log -------------------------------------------------------------------------

    def is_changed(self) -> bool:
        return bool(self._changes)

    def change_log(self) -> ChangeLog:
        return ChangeLog(self.root_name, list(self._changes), dict(self._original))

    def discard_changes(self) -> None:
        self._changes.clear()


class DataGraph:
    """A set of data objects submitted together (one submit call is the
    unit of update execution, section 6)."""

    def __init__(self, objects: list[DataObject] | None = None):
        self.objects = list(objects or [])

    def add(self, obj: DataObject) -> None:
        self.objects.append(obj)

    def changed(self) -> list[DataObject]:
        return [obj for obj in self.objects if obj.is_changed()]


def _typed_value(element: ElementNode):
    if element.child_elements():
        raise UpdateError(f"element {element.name.local} is not a leaf")
    text = element.string_value()
    annotation = element.type_annotation
    base = annotation.split(":")[-1]
    try:
        if base in ("integer", "int", "long", "short", "byte"):
            return int(text)
        if base in ("double", "float", "decimal"):
            return float(text)
        if base == "boolean":
            return text.strip() in ("true", "1")
    except ValueError:
        pass
    return text


