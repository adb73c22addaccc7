"""Static concurrency lint (A-CONC): toy-source verdicts for every
ALDSP-C4xx code, the repo-at-HEAD cleanliness gate, and the seeded
mutation check (removing a lock must trip the lint)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import REGISTRY, analyze_source, run_concurrency_lint

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint(source: str, classes=None, strict: bool = False):
    return analyze_source(source, "toy.py", classes=classes, strict=strict)


class TestVerdicts:
    def test_guarded_mutation_is_clean(self):
        report = lint("""
class Box:
    def __init__(self):
        self._lock = TrackedRLock("Box")
        self.items = []
    def add(self, item):
        with self._lock:
            self.items.append(item)
""")
        assert report.codes() == []

    def test_a_lock_in_the_class_body_guards_every_instance(self):
        source = """
@guarded_by("_lock")
class Cell:
    _lock = TrackedRLock("Cell")
    def __init__(self):
        self.value = None
    def fill(self, value):
        %s
            self.value = value
"""
        assert lint(source % "with self._lock:").codes() == []
        assert lint(source % "if True:").codes() == ["ALDSP-C401"]

    def test_c401_unguarded_write(self):
        report = lint("""
class Box:
    def __init__(self):
        self._lock = TrackedRLock("Box")
        self.count = 0
    def bump(self):
        self.count += 1
""")
        assert report.codes() == ["ALDSP-C401"]
        assert "without holding _lock" in report.diagnostics[0].message

    def test_c401_container_mutator_in_expression(self):
        report = lint("""
class Box:
    def __init__(self):
        self._lock = TrackedRLock("Box")
        self.pending = {}
    def take(self, key):
        return self.pending.pop(key, None)
""")
        assert report.codes() == ["ALDSP-C401"]

    def test_c401_closure_does_not_inherit_lock_scope(self):
        report = lint("""
class Box:
    def __init__(self):
        self._lock = TrackedRLock("Box")
        self.items = []
    def deferred(self):
        with self._lock:
            def later():
                self.items.append(1)
            return later
""")
        assert report.codes() == ["ALDSP-C401"]

    def test_c402_guard_declared_but_no_lock(self):
        report = lint("""
@guarded_by("_lock")
class Box:
    def __init__(self):
        self.count = 0
    def bump(self):
        self.count += 1
""")
        assert "ALDSP-C402" in report.codes()

    def test_c403_shared_state_with_no_lock_at_all(self):
        report = lint("""
class Box:
    def __init__(self):
        self.count = 0
    def bump(self):
        self.count += 1
""")
        assert report.codes() == ["ALDSP-C403"]
        assert report.warnings  # advisory, not an error

    def test_c404_wrong_lock_held(self):
        report = lint("""
class Box:
    def __init__(self):
        self._lock = TrackedRLock("a")
        self._other = TrackedRLock("b")
        self.items = []  # guarded-by: _lock
    def add(self, item):
        with self._other:
            self.items.append(item)
""")
        assert report.codes() == ["ALDSP-C404"]
        assert "_other" in report.diagnostics[0].message

    def test_c405_unguarded_read_strict_only(self):
        source = """
class Box:
    def __init__(self):
        self._lock = TrackedRLock("Box")
        self.items = []
    def add(self, item):
        with self._lock:
            self.items.append(item)
    def peek(self):
        return len(self.items)
"""
        assert lint(source).codes() == []
        strict = lint(source, strict=True)
        assert strict.codes() == ["ALDSP-C405"]
        assert strict.warnings

    def test_c406_race_ok_suppression_is_audited(self):
        report = lint("""
class Box:
    def __init__(self):
        self._lock = TrackedRLock("Box")
        self.count = 0
    def bump(self):
        self.count += 1  # race-ok: single-writer by construction
""")
        assert report.codes() == ["ALDSP-C406"]
        assert "single-writer by construction" in report.diagnostics[0].message
        assert not report.has_errors

    def test_c407_foreign_counter_write(self):
        report = lint("""
def charge(db):
    db.stats.roundtrips += 1
""")
        assert report.codes() == ["ALDSP-C407"]
        assert "bump()" in report.diagnostics[0].message

    def test_c407_covers_every_declared_counter(self):
        # the field set is derived from the SyncCounters declarations, so
        # a counter declared on a cache class is guarded like a stats one
        report = lint("""
def record_compile(cache):
    cache.compiles += 1
""")
        assert report.codes() == ["ALDSP-C407"]

    def test_c407_ignores_local_variables(self):
        # regression: a *local* named after a counter field is not a
        # foreign stats write (resilience/manager.py's retry loop)
        report = lint("""
def call(self):
    attempts = 0
    while True:
        attempts += 1
        if attempts > 3:
            return attempts
""")
        assert report.codes() == []

    def test_c407_ignores_self_field(self):
        report = lint("""
class Stats:
    def __init__(self):
        self._lock = TrackedRLock("Stats")
    def bump(self):
        with self._lock:
            self.hits += 1
""", classes=())
        assert report.codes() == []

    def test_caller_holds_transfers_the_obligation(self):
        report = lint("""
class Box:
    def __init__(self):
        self._lock = TrackedRLock("Box")
        self.items = []
    def _drain(self):  # caller-holds: _lock
        self.items.clear()
""")
        assert report.codes() == []

    def test_init_is_exempt(self):
        report = lint("""
class Box:
    def __init__(self):
        self._lock = TrackedRLock("Box")
        self.items = []
        self.items.append(0)
""")
        assert report.codes() == []

    def test_unparseable_source_reports_e000(self):
        report = lint("def broken(:\n")
        assert report.codes() == ["ALDSP-E000"]

    def test_classes_argument_restricts_the_pass(self):
        source = """
class Checked:
    def __init__(self):
        self.n = 0
    def bump(self):
        self.n += 1

class Ignored:
    def __init__(self):
        self.n = 0
    def bump(self):
        self.n += 1
"""
        report = lint(source, classes=("Checked",))
        assert report.codes() == ["ALDSP-C403"]
        assert "Checked" in report.diagnostics[0].message


class TestRepoAtHead:
    def test_engine_lint_is_clean(self):
        report = run_concurrency_lint()
        errors = [d.render() for d in report.errors]
        warnings = [d.render() for d in report.warnings]
        assert errors == []
        assert warnings == []

    def test_every_registered_module_exists(self):
        report = run_concurrency_lint()
        assert report.by_code("ALDSP-E000") == []
        for relative in REGISTRY:
            assert (SRC_ROOT / relative).exists(), relative

    def test_registered_classes_exist_in_their_modules(self):
        import ast as ast_mod

        for relative, classes in REGISTRY.items():
            tree = ast_mod.parse((SRC_ROOT / relative).read_text())
            defined = {node.name for node in tree.body
                       if isinstance(node, ast_mod.ClassDef)}
            for cls in classes:
                assert cls in defined, f"{cls} not defined in {relative}"


class TestMutationIsCaught:
    @pytest.mark.parametrize("relative", ["runtime/cache.py",
                                          "relational/prepared.py",
                                          "xml/items.py"])
    def test_removing_one_lock_trips_the_lint(self, relative):
        """Seeded static mutation: neutralize the first ``with self._lock:``
        and the lint must report an unguarded mutation."""
        source = (SRC_ROOT / relative).read_text()
        needle = "with self._lock:"
        assert needle in source
        mutated = source.replace(needle, "if True:  # lock removed", 1)
        report = analyze_source(mutated, relative)
        assert report.has_errors, f"lint missed the lock removal in {relative}"
        assert report.by_code("ALDSP-C401"), report.render_text()

    def test_unmutated_module_is_clean(self):
        source = (SRC_ROOT / "runtime" / "cache.py").read_text()
        report = analyze_source(source, "runtime/cache.py")
        assert not report.has_errors, report.render_text()


class TestCli:
    def test_lint_concurrency_exits_zero_at_head(self, capsys):
        from repro.cli import main

        assert main(["lint", "--concurrency"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_concurrency_json(self, capsys):
        import json

        from repro.cli import main

        assert main(["lint", "--concurrency", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["warnings"] == 0

    def test_lint_without_query_or_flag_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 2
        assert "provide an XQuery" in capsys.readouterr().err
