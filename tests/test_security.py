"""Security tests (section 7): function ACLs, element-level resources,
post-cache filtering, auditing."""

import pytest

from repro.errors import SecurityError
from repro.security import SecurityService, User
from repro.xml import element, serialize

from tests.conftest import build_platform


AGENT = User.of("alice", "agent")
MANAGER = User.of("bob", "manager")


class TestFunctionACL:
    def test_unprotected_function_open_to_all(self):
        service = SecurityService()
        service.check_call("getProfile", AGENT)  # no exception

    def test_protected_function_requires_role(self):
        service = SecurityService()
        service.protect_function("getProfile", ["manager"])
        service.check_call("getProfile", MANAGER)
        with pytest.raises(SecurityError):
            service.check_call("getProfile", AGENT)

    def test_admin_bypasses(self):
        service = SecurityService()
        service.protect_function("getProfile", ["manager"])
        service.check_call("getProfile", User.of("root", "admin"))

    def test_platform_enforces_on_call(self, platform):
        platform.security.protect_function("getProfile", ["manager"])
        platform.call("getProfile", user=MANAGER)
        with pytest.raises(SecurityError):
            platform.call("getProfile", user=AGENT)


def sample_profile():
    return element(
        "PROFILE",
        element("CID", "C1"),
        element("SSN", "111-22-3333"),
        element("RATING", 700, type_annotation="xs:integer"),
    )


class TestElementResources:
    def test_silent_removal(self):
        service = SecurityService()
        service.protect_element(("PROFILE", "SSN"), ["manager"], action="remove")
        [filtered] = service.filter_items([sample_profile()], AGENT)
        assert "<SSN>" not in serialize(filtered)
        assert "<CID>" in serialize(filtered)

    def test_replacement_value(self):
        service = SecurityService()
        service.protect_element(("PROFILE", "RATING"), ["manager"],
                                action="replace", replacement="***")
        [filtered] = service.filter_items([sample_profile()], AGENT)
        assert "<RATING>***</RATING>" in serialize(filtered)

    def test_authorized_role_sees_everything(self):
        service = SecurityService()
        service.protect_element(("PROFILE", "SSN"), ["manager"])
        [filtered] = service.filter_items([sample_profile()], MANAGER)
        assert "<SSN>111-22-3333</SSN>" in serialize(filtered)

    def test_originals_never_mutated(self):
        service = SecurityService()
        service.protect_element(("PROFILE", "SSN"), ["manager"])
        original = sample_profile()
        service.filter_items([original], AGENT)
        assert "<SSN>" in serialize(original)

    def test_nested_path_matching(self):
        service = SecurityService()
        service.protect_element(("PROFILE", "CARDS", "NUMBER"), ["manager"],
                                action="replace", replacement="XXXX")
        doc = element("PROFILE", element("CARDS", element("NUMBER", "4400")))
        [filtered] = service.filter_items([doc], AGENT)
        assert "<NUMBER>XXXX</NUMBER>" in serialize(filtered)

    def test_unprotected_roots_pass_through_unchanged(self):
        service = SecurityService()
        service.enable_auditing()
        service.protect_element(("PROFILE", "SSN"), ["manager"])
        other = element("C", element("SSN", "111-22-3333"))
        [passed, filtered] = service.filter_items([other, sample_profile()], AGENT)
        assert passed is other  # no protected path starts at <C>
        assert "<SSN>" not in serialize(filtered)
        assert [(r.subject, r.decision) for r in service.audit_log] == \
            [("PROFILE/SSN", "remove")]

    def test_bad_action_rejected(self):
        with pytest.raises(SecurityError):
            SecurityService().protect_element(("X",), [], action="explode")


class TestPostCacheFiltering:
    def test_cache_shared_across_users_with_per_user_filtering(self):
        # Section 7: "Function result caching is done before security
        # filters have been applied, thereby making the cache effective
        # across users."
        platform = build_platform(ws_latency_ms=50.0)
        platform.enable_function_cache("getRating", ttl_ms=60_000, arity=1)
        platform.security.protect_element(
            ("PROFILE", "RATING"), ["manager"], action="replace", replacement="hidden")
        query_manager = platform.call("getProfile", user=MANAGER)
        calls_after_manager = platform.ctx.stats.service_calls
        query_agent = platform.call("getProfile", user=AGENT)
        # cache hit: the agent's call did not re-invoke the rating service
        assert platform.ctx.stats.service_calls == calls_after_manager
        assert "<RATING>701</RATING>" in serialize(query_manager[0])
        assert "<RATING>hidden</RATING>" in serialize(query_agent[0])

    def test_filtering_applies_to_ad_hoc_queries(self, platform):
        platform.security.protect_element(
            ("CID",), ["manager"], action="replace", replacement="?")
        out = platform.execute("for $c in CUSTOMER() return $c/CID", user=AGENT)
        assert serialize(out[0]) == "<CID>?</CID>"


class TestServedTenantFiltering:
    def test_scan_and_lookup_answers_and_audit_records(self):
        """A tenant under a ``PROFILE/CREDIT_CARDS`` policy: a ``<C>`` scan
        (no policy starts at ``<C>``) and a ``getProfileByID`` give the
        answers and audit records they always have."""
        from repro.demo import build_demo_platform
        from repro.server import DataServer
        from repro.xml.items import AtomicValue

        platform = build_demo_platform(customers=3)
        server = DataServer(platform)
        server.register_tenant("acme", "pw", roles=("agent",))
        platform.security.protect_element(("PROFILE", "CREDIT_CARDS"), ["manager"])
        platform.security.enable_auditing()
        session = server.open_session("acme", "pw")
        scan = server.execute(
            session.session_id,
            "for $c in CUSTOMER() return <C>{$c/CID}{$c/LAST_NAME}</C>")
        lookup = server.execute(session.session_id, "getProfileByID($id)",
                                {"id": [AtomicValue("C2", "xs:string")]})
        assert [serialize(item) for item in scan.items] == [
            "<C><CID>C1</CID><LAST_NAME>Jones</LAST_NAME></C>",
            "<C><CID>C2</CID><LAST_NAME>Smith</LAST_NAME></C>",
            "<C><CID>C3</CID><LAST_NAME>Nguyen</LAST_NAME></C>"]
        assert [serialize(item) for item in lookup.items] == [
            "<PROFILE><CID>C2</CID><LAST_NAME>Smith</LAST_NAME><ORDERS>"
            "<ORDER><OID>O4</OID><CID>C2</CID><AMOUNT>40</AMOUNT></ORDER>"
            "<ORDER><OID>O5</OID><CID>C2</CID><AMOUNT>50</AMOUNT></ORDER>"
            "<ORDER><OID>O6</OID><CID>C2</CID><AMOUNT>60</AMOUNT></ORDER>"
            "</ORDERS><RATING>702</RATING></PROFILE>"]
        assert [(r.kind, r.subject, r.user, r.decision)
                for r in platform.security.audit_log] == [
            ("element-filter", "PROFILE/CREDIT_CARDS", "acme", "remove")]


class TestAuditing:
    def test_audit_records_decisions(self):
        service = SecurityService()
        service.enable_auditing()
        service.protect_function("f", ["manager"])
        service.protect_element(("PROFILE", "SSN"), ["manager"])
        service.check_call("f", MANAGER)
        with pytest.raises(SecurityError):
            service.check_call("f", AGENT)
        service.filter_items([sample_profile()], AGENT)
        kinds = [(r.kind, r.decision) for r in service.audit_log]
        assert ("function-call", "allow") in kinds
        assert ("function-call", "deny") in kinds
        assert ("element-filter", "remove") in kinds

    def test_auditing_off_by_default(self):
        service = SecurityService()
        service.check_call("f", AGENT)
        assert service.audit_log == []
