"""CLI tests (``python -m repro ...``)."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=120,
    )
    return result


class TestCLI:
    def test_demo(self):
        result = run_cli("--customers", "2", "demo")
        assert result.returncode == 0
        assert result.stdout.count("<PROFILE>") == 2
        assert "pushed SQL queries" in result.stdout

    def test_query(self):
        result = run_cli("--customers", "2", "query",
                         "for $c in CUSTOMER() return $c/CID")
        assert result.returncode == 0
        assert result.stdout.splitlines() == ["<CID>C1</CID>", "<CID>C2</CID>"]

    def test_explain(self):
        result = run_cli("explain", "for $c in CUSTOMER() return $c/CID")
        assert result.returncode == 0
        assert "PUSHED SQL -> custdb" in result.stdout

    def test_sql(self):
        result = run_cli("--customers", "2", "sql", 'getProfileByID("C1")')
        assert result.returncode == 0
        assert "[custdb]" in result.stdout and "[ccdb]" in result.stdout

    def test_lineage(self):
        result = run_cli("lineage")
        assert result.returncode == 0
        assert "PROFILE/LAST_NAME" in result.stdout
        assert "custdb.CUSTOMER.LAST_NAME" in result.stdout

    def test_query_error_exit_code(self):
        result = run_cli("query", "for $c in NO_SUCH() return $c")
        assert result.returncode == 1
        assert "error:" in result.stderr

    def test_in_process_main(self, capsys):
        code = main(["--customers", "1", "query", "1 + 1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTraceCommand:
    def test_trace_emits_valid_chrome_trace_json(self):
        import json

        result = run_cli("--customers", "2", "trace",
                         "for $c in CUSTOMER() return $c/CID")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["displayTimeUnit"] == "ms"
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans
        for event in spans:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
        assert any(e["cat"] == "source.roundtrip" for e in spans)

    def test_trace_tree(self):
        result = run_cli("--customers", "2", "trace", "--tree",
                         "for $c in CUSTOMER() return $c/CID")
        assert result.returncode == 0
        assert result.stdout.startswith("query ")
        assert "pushed-sql custdb" in result.stdout

    def test_trace_profile(self):
        result = run_cli("--customers", "2", "trace", "--profile",
                         'getProfileByID("C1")')
        assert result.returncode == 0
        assert "actual:" in result.stdout and "roundtrips=" in result.stdout

    def test_trace_error_exit_code(self):
        result = run_cli("trace", "for $c in NO_SUCH() return $c")
        assert result.returncode == 1
        assert "error:" in result.stderr


class TestStatsCommand:
    def test_stats_renders_unified_snapshot(self):
        result = run_cli("--customers", "2", "stats")
        assert result.returncode == 0
        for series in ("runtime.pushed_queries", "source.roundtrips{source=custdb}",
                       "source.attempts{source=ccdb}", "cache.hits",
                       "source.degraded{source=ccdb}", "trace.span_ms{kind=query}"):
            assert series in result.stdout

    def test_stats_json_with_query(self):
        import json

        result = run_cli("--customers", "2", "stats", "--json",
                         "for $c in CUSTOMER() return $c/CID")
        assert result.returncode == 0
        snapshot = json.loads(result.stdout)
        assert snapshot["runtime.pushed_queries"] == 1
        assert snapshot["source.roundtrips{source=custdb}"] == 1


class TestFlightCommand:
    def test_flight_renders_records_and_ledger(self):
        result = run_cli("--customers", "2", "flight", "--requests", "4")
        assert result.returncode == 0
        assert "[acme]" in result.stdout and "[globex]" in result.stdout
        assert "completed" in result.stdout
        assert "fp=" in result.stdout  # plan fingerprint on every record
        assert '"outcomes"' in result.stdout  # the ledger trailer

    def test_flight_json_reconciles_with_admission(self):
        import json

        result = run_cli("--customers", "2", "flight", "--requests", "4",
                         "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload["records"]) == 8
        outcomes = payload["flight"]["outcomes"]
        admission = payload["admission"]
        assert outcomes.get("completed", 0) + outcomes.get("deadline", 0) + \
            outcomes.get("error", 0) == admission["admitted"]
        assert outcomes.get("shed", 0) == admission["shed_quota"] + \
            admission["shed_overload"] + admission["shed_cost"]
        assert payload["continuous"]["requests"] == 8

    def test_flight_filters_by_outcome(self):
        import json

        result = run_cli("--customers", "2", "flight", "--requests", "4",
                         "--outcome", "shed", "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["records"] == []  # nothing shed at default quotas


class TestNoTracingFlag:
    def test_trace_profile_fails_cleanly_when_disabled(self):
        result = run_cli("--set", "tracing_allowed=false", "--customers", "2", "trace",
                         "--profile", 'getProfileByID("C1")')
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert "error: ALDSP-E501:" in result.stderr
        assert "administratively disabled" in result.stderr

    def test_trace_fails_cleanly_when_disabled(self):
        result = run_cli("--set", "tracing_allowed=false", "trace",
                         "for $c in CUSTOMER() return $c/CID")
        assert result.returncode == 1
        assert "error: ALDSP-E501:" in result.stderr

    def test_stats_window_fails_cleanly_when_disabled(self):
        result = run_cli("--set", "tracing_allowed=false", "stats", "--window")
        assert result.returncode == 1
        assert "error: ALDSP-E501:" in result.stderr


class TestStatsWindowCommand:
    def test_stats_window_renders_rolling_plane(self):
        result = run_cli("--customers", "2", "stats", "--window")
        assert result.returncode == 0
        assert "trace.requests" in result.stdout
        assert "trace.latency_ms" in result.stdout

    def test_stats_window_json(self):
        import json

        result = run_cli("--customers", "2", "stats", "--window", "--json")
        assert result.returncode == 0
        snapshot = json.loads(result.stdout)
        assert snapshot["trace.requests"]["window_total"] == 1.0


class TestHealthCommand:
    def test_health_with_dead_database(self):
        result = run_cli("--customers", "2", "health", "--kill", "ccdb",
                         "--retry", "2")
        assert result.returncode == 0
        assert "profiles returned: 2" in result.stdout
        assert "DOWN" in result.stdout
        assert "degradations (partial results):" in result.stdout
        assert "ccdb: database ccdb is unavailable" in result.stdout

    def test_health_json(self):
        import json

        result = run_cli("--customers", "2", "health", "--kill", "ccdb",
                         "--retry", "2", "--breaker", "3", "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["results"] == 2
        assert payload["sources"]["ccdb"]["available"] is False
        assert payload["sources"]["ccdb"]["retries"] == 1
        [record] = payload["degradations"]
        assert record["source"] == "ccdb" and record["attempts"] == 2

    def test_health_flaky_source_is_seeded(self):
        a = run_cli("health", "--flaky", "ccdb", "--seed", "5", "--retry", "2",
                    "--json")
        b = run_cli("health", "--flaky", "ccdb", "--seed", "5", "--retry", "2",
                    "--json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout  # same seed, bit-for-bit identical

    def test_health_unknown_source_errors(self):
        result = run_cli("health", "--kill", "nosuchdb")
        assert result.returncode == 1
        assert "no source named nosuchdb" in result.stderr

    def test_serve_demo(self):
        result = run_cli("--customers", "2", "serve", "--requests", "4")
        assert result.returncode == 0
        assert "[acme]" in result.stdout and "[globex]" in result.stdout
        assert "completed=8 shed=0" in result.stdout
        assert '"state": "open"' in result.stdout

    def test_bench_serve_writes_report(self, tmp_path):
        import json

        output = tmp_path / "BENCH_serving.json"
        result = run_cli("bench-serve", "--stages", "2,6",
                         "--stage-seconds", "0.2", "--output", str(output))
        assert result.returncode == 0
        payload = json.loads(output.read_text())
        assert payload["benchmark"] == "serving-overload-ramp"
        assert [stage["clients"] for stage in payload["stages"]] == [2, 6]
        for stage in payload["stages"]:
            assert stage["errors"] == 0
            assert stage["completed"] > 0
        assert payload["serving"]["admission"]["depth"] == 0
