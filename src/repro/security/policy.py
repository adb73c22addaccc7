"""Data security (section 7).

Two granularities of access control:

* **function level** — who may call which data-service functions;
* **element/attribute level** — a subtree of a data-service shape is a
  labeled *security resource* with an access policy; unauthorized callers
  either see nothing (silent removal, when the subtree is optional in the
  schema) or an administratively-specified replacement value.

Fine-grained filtering runs at a late stage — *after* the function cache —
so plans and cached results stay shared across users (section 7); the
platform enforces that ordering.  An audit trail records security
decisions when enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import SecurityError
from ..xml.items import AtomicValue, ElementNode, Item, Node, TextNode


@dataclass(frozen=True)
class User:
    name: str
    roles: frozenset[str] = frozenset()

    @staticmethod
    def of(name: str, *roles: str) -> "User":
        return User(name, frozenset(roles))


#: the implicit caller when none is given: an administrator seeing everything
ADMIN = User("system", frozenset({"admin"}))


@dataclass
class ElementResource:
    """A labeled subtree of a data-service shape (section 7).

    ``path`` addresses the subtree from the shape's root element, e.g.
    ``("PROFILE", "SSN")``.  ``action`` is ``"remove"`` (the data is
    silently removed — chosen when the subtree is optional in the schema)
    or ``"replace"`` with a replacement value.
    """

    path: tuple[str, ...]
    allowed_roles: frozenset[str]
    action: str = "remove"  # "remove" | "replace"
    replacement: object = None

    def permits(self, user: User) -> bool:
        return "admin" in user.roles or bool(self.allowed_roles & user.roles)


@dataclass
class AuditRecord:
    kind: str  # "function-call" | "element-filter"
    subject: str
    user: str
    decision: str  # "allow" | "deny" | "redact" | "remove"


class SecurityService:
    """Access-control policies plus the auditing service (section 7)."""

    def __init__(self):
        self._function_roles: dict[str, frozenset[str]] = {}
        self._resources: list[ElementResource] = []
        #: the element names a protected path starts at
        self._roots: frozenset[str] = frozenset()
        self.auditing_enabled = False
        self.audit_log: list[AuditRecord] = []

    # -- administration -----------------------------------------------------------

    def protect_function(self, function_name: str, roles: Iterable[str]) -> None:
        self._function_roles[function_name] = frozenset(roles)

    def protect_element(
        self,
        path: tuple[str, ...] | list[str],
        roles: Iterable[str],
        action: str = "remove",
        replacement: object = None,
    ) -> ElementResource:
        if action not in ("remove", "replace"):
            raise SecurityError(f"unknown resource action {action!r}")
        resource = ElementResource(tuple(path), frozenset(roles), action, replacement)
        self._resources.append(resource)
        if resource.path:
            self._roots |= {resource.path[0]}
        return resource

    def enable_auditing(self) -> None:
        self.auditing_enabled = True

    def _audit(self, kind: str, subject: str, user: User, decision: str) -> None:
        if self.auditing_enabled:
            self.audit_log.append(AuditRecord(kind, subject, user.name, decision))

    # -- function-level enforcement ---------------------------------------------------

    def check_call(self, function_name: str, user: User) -> None:
        required = self._function_roles.get(function_name)
        if required is None or "admin" in user.roles or required & user.roles:
            self._audit("function-call", function_name, user, "allow")
            return
        self._audit("function-call", function_name, user, "deny")
        raise SecurityError(
            f"user {user.name} may not call {function_name}"
        )

    # -- element-level filtering --------------------------------------------------------

    def has_element_policies(self) -> bool:
        return bool(self._resources)

    def filter_items(self, items: list[Item], user: User) -> list[Item]:
        """Apply element-level policies; returns filtered copies (cached
        originals are never mutated — the cache is shared across users).
        An element no protected path starts at is returned as it is."""
        if not self._resources or "admin" in user.roles:
            return items
        result: list[Item] = []
        for item in items:
            if isinstance(item, ElementNode) and item.name.local in self._roots:
                filtered = self._filter_element(item.deep_copy(), (item.name.local,), user)
                if filtered is not None:
                    result.append(filtered)
            else:
                result.append(item)
        return result

    def _filter_element(self, element: ElementNode, path: tuple[str, ...],
                        user: User) -> Optional[ElementNode]:
        # an element no one has read yet knows every path its template can
        # produce, from itself down: with no denied resource among them it
        # stays as it is, its tree never built
        source = element._source
        if source is not None and not any(
                resource.path[:len(path) - 1] == path[:-1]
                and resource.path[len(path) - 1:] in source[0].paths
                and not resource.permits(user)
                for resource in self._resources):
            return element
        for resource in self._resources:
            if resource.path == path and not resource.permits(user):
                if resource.action == "remove":
                    self._audit("element-filter", "/".join(path), user, "remove")
                    return None
                self._audit("element-filter", "/".join(path), user, "redact")
                return _replace_content(element, resource.replacement)
        kept: list[Node] = []
        for child in list(element.children()):
            if isinstance(child, ElementNode):
                filtered = self._filter_element(child, path + (child.name.local,), user)
                if filtered is not None:
                    kept.append(filtered)
            else:
                kept.append(child)
        element.replace_children(kept)
        return element


def _replace_content(element: ElementNode, replacement) -> ElementNode:
    value = replacement if replacement is not None else ""
    text = AtomicValue(value).string_value() if not isinstance(value, str) else value
    element.replace_children([TextNode(text)])
    return element
