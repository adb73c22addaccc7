"""The metrics plane's two read surfaces, pinned to a committed golden.

``Platform.metrics_snapshot()`` (every cumulative series) and
``Platform.window_snapshot()`` (the rolling window) are generated under
the virtual clock after two scenarios: the paper's running example
(``getProfile`` over custdb, ccdb and the rating service, one request
through a ``DataServer``, a DDL statement-cache invalidation, a request
failed by a dead source and the same source then degraded) and the
composite scenario of ``tests/test_composite_scenario.py``.  A change to how counters are
declared, attached, snapshotted or reset must leave every series name and
value alone; one meant to move them regenerates the golden and says so:

    PYTHONPATH=src python tests/test_metrics_pin.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.errors import ReproError
from repro.observability import TRACE_ALL, ContinuousConfig
from repro.server import DataServer
from repro.xml.items import AtomicValue
from tests.conftest import build_platform
from tests.test_composite_scenario import SALES_VELOCITY, build_scenario

GOLDEN = Path(__file__).resolve().parent / "golden" / "metrics_pin.json"


def _surfaces(platform) -> dict:
    return {"metrics": platform.metrics_snapshot(),
            "window": platform.window_snapshot()}


def running_example() -> dict:
    platform = build_platform()
    platform.configure(continuous=TRACE_ALL)
    platform.call("getProfile")
    platform.call("getProfile")
    platform.execute('getProfileByID("C1")')
    server = DataServer(platform)
    server.register_tenant("acme", "pw")
    session = server.open_session("acme", "pw")
    server.execute(session.session_id,
                   "for $c in CUSTOMER() where $c/CID eq $id return $c/LAST_NAME",
                   {"id": [AtomicValue("C2", "xs:string")]})
    platform.ctx.databases["custdb"].create_table(
        "AUDIT", [("AID", "VARCHAR", False)], primary_key=["AID"])
    platform.execute('getProfileByID("C2")')
    platform.ctx.databases["ccdb"].available = False
    try:
        platform.call("getProfile")
    except ReproError:
        pass
    platform.configure(partial_results=True)
    platform.call("getProfile")
    return _surfaces(platform)


def composite_scenario(tmp_path: Path) -> dict:
    platform, _, _ = build_scenario(tmp_path)
    platform.configure(continuous=ContinuousConfig(sample_rate=0.5, seed=3))
    platform.call("productInfo")
    platform.call("replenishmentReport")
    platform.execute(SALES_VELOCITY)
    platform.profile(SALES_VELOCITY)
    platform.call("productInfo")
    return _surfaces(platform)


def pin(tmp_path: Path) -> dict:
    return {"running_example": running_example(),
            "composite_scenario": composite_scenario(tmp_path)}


def render(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=1, sort_keys=True) + "\n"


def test_snapshots_match_the_golden(tmp_path):
    assert render(pin(tmp_path)) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(render(pin(Path(scratch))))
    print(f"wrote {GOLDEN}")
