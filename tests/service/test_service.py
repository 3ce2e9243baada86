"""The warm report service end to end.

One module-scoped daemon serves a tiny world chain; the tests drive it
the way an operator would — over HTTP and through the spool directory —
and check the service's central promise: what it serves is always
byte-identical to a cold full rebuild of the chain's tip.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis.paper_report import fragment_inputs, fragment_keys
from repro.datasets import WorldCache, WorldConfig
from repro.service import ReportServer, ReportService
from repro.sweep import ScenarioGrid, run_sweep, sweep_files

CONFIG = WorldConfig(
    seed=23, n_dasu_users=80, n_fcc_users=12, days_per_year=1.0, sanitize=True
)


class Client:
    def __init__(self, base_url: str):
        self.base_url = base_url

    def get(self, path: str, headers: dict | None = None):
        request = urllib.request.Request(
            self.base_url + path, headers=headers or {}
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    cache = WorldCache(root / "cache")
    service = ReportService(
        CONFIG, state_dir=root / "state", cache=cache, jobs=1
    )
    server = ReportServer(
        service, port=0, spool_dir=root / "spool", interval_s=0.05
    )
    server.start()
    yield server, service, cache, root / "spool"
    server.stop()


@pytest.fixture()
def client(daemon):
    server, _, _, _ = daemon
    return Client(server.url)


def expected_report(cache: WorldCache, config: WorldConfig) -> bytes:
    """The cold-rebuild reference: render straight from the world."""
    from repro.analysis.paper_report import full_report

    world = cache.load(config)
    assert world is not None
    text = full_report(world.dasu.columns, world.fcc.columns, world.survey)
    return (text + "\n").encode("utf-8")


def test_healthz(client):
    status, _, body = client.get("/healthz")
    assert status == 200 and body == b"ok\n"


def test_report_matches_cold_rebuild(daemon, client):
    _, service, cache, _ = daemon
    status, headers, body = client.get("/report.txt")
    assert status == 200
    assert body == expected_report(cache, service.log.tip_config())
    assert headers.get("ETag")


def test_etag_304(client):
    _, headers, _ = client.get("/report.txt")
    status, _, body = client.get(
        "/report.txt", {"If-None-Match": headers["ETag"]}
    )
    assert status == 304 and body == b""
    status, _, _ = client.get(
        "/report.txt", {"If-None-Match": "stale-tag"}
    )
    assert status == 200


def test_manifest_and_trace(client):
    status, headers, body = client.get("/manifest.json")
    assert status == 200
    manifest = json.loads(body)
    assert manifest["command"] == "serve"
    assert manifest["append_chain"] == [] or isinstance(
        manifest["append_chain"], list
    )
    status, _, body = client.get("/trace.jsonl")
    assert status == 200
    for line in body.splitlines():
        json.loads(line)


def test_unknown_route_404(client):
    status, _, _ = client.get("/nope")
    assert status == 404


def test_sweep_endpoints_404_without_grid(client):
    for path in ("/sweep.json", "/sweep-report.txt"):
        status, _, body = client.get(path)
        assert status == 404
        assert b"grid" in body


def test_status_payload(client):
    status, _, body = client.get("/status.json")
    assert status == 200
    payload = json.loads(body)
    assert payload["ready"] is True
    assert payload["refreshes"] >= 1
    assert payload["n_dasu_users"] >= CONFIG.n_dasu_users


def test_spool_append_refreshes_and_confines_recompute(daemon, client):
    """An appended period changes the ETag, re-renders the report to the
    cold-rebuild bytes, and re-executes only data-dependent fragments."""
    server, service, cache, spool = daemon
    _, headers, _ = client.get("/report.txt")
    old_etag = headers["ETag"]
    before = service.log.tip_config()

    (spool / "batch-100.json").write_text(json.dumps({"n_dasu_users": 16}))
    assert server.poll_once() == 1
    assert not list(spool.glob("batch-100.json"))

    tip = service.log.tip_config()
    assert tip.n_dasu_users == before.n_dasu_users + 16
    status, headers, body = client.get("/report.txt")
    assert status == 200
    assert headers["ETag"] != old_etag
    assert body == expected_report(cache, tip)

    _, _, status_body = client.get("/status.json")
    payload = json.loads(status_body)
    survey_only = {
        f"fragment/{key}"
        for key in fragment_keys()
        if fragment_inputs(key) == ("survey",)
    }
    cached = {s for s in payload["cached"] if s.startswith("fragment/")}
    executed = {s for s in payload["executed"] if s.startswith("fragment/")}
    assert cached == survey_only
    assert executed == {
        f"fragment/{key}" for key in fragment_keys()
    } - survey_only


def test_spool_rejects_malformed_files(daemon, client):
    server, service, _, spool = daemon
    (spool / "broken.json").write_text("{not json")
    rejected_before = service.rejected
    assert server.poll_once() == 0
    assert service.rejected == rejected_before + 1
    assert (spool / "broken.json.rejected").exists()
    (spool / "broken.json.rejected").unlink()


def test_spool_rejects_invalid_delta(daemon, client):
    """A misspelled key is rejected, not applied as an empty append."""
    server, service, _, spool = daemon
    appends, tip = service.appends, service.log.tip_config()
    (spool / "typo.json").write_text(json.dumps({"n_dasu_user": 16}))
    assert server.poll_once() == 0
    assert (spool / "typo.json.rejected").exists()
    assert service.appends == appends
    assert service.log.tip_config() == tip
    (spool / "typo.json.rejected").unlink()


def test_spool_grid_enables_sweep_endpoints(daemon, client):
    server, service, cache, spool = daemon
    grid = {"name": "svc", "scenarios": [{"name": "baseline"}]}
    (spool / "verdicts.grid.json").write_text(json.dumps(grid))
    assert server.poll_once() == 1
    status, headers, body = client.get("/sweep.json")
    assert status == 200
    payload = json.loads(body)
    assert payload["cells"]
    status, _, report = client.get("/sweep-report.txt")
    assert status == 200 and report
    # The served files are the CLI's files for the same grid and seeds.
    tip = service.log.tip_config()
    files = sweep_files(
        run_sweep(
            tip, ScenarioGrid.from_payload(grid), (tip.seed,),
            cache_root=cache.root,
        )
    )
    assert body.decode("utf-8") == files["sweep.json"]
    assert report.decode("utf-8") == files["report.txt"]


def test_run_loop_exits_on_stop(daemon):
    """A second front-end over the same (warm) service: its polling
    loop must exit promptly once stop is requested."""
    _, service, _, spool = daemon
    second = ReportServer(service, port=0, spool_dir=spool, interval_s=0.05)
    second.start()
    timer = threading.Timer(0.3, second._stop.set)
    timer.start()
    second.run()  # returns (and shuts down) once the stop event fires
    timer.cancel()
    with pytest.raises(RuntimeError):
        second.port


def test_restart_replays_chain_and_reloads_fragments(daemon, tmp_path_factory):
    """A fresh service over the same cache + state dir replays the delta
    log to the same tip and reloads every fragment from the store."""
    _, service, cache, _ = daemon
    tip = service.log.tip_config()
    restarted = ReportService(
        CONFIG, state_dir=service.state_dir, cache=cache, jobs=1
    )
    assert restarted.snapshot() is None
    snapshot = restarted.refresh()
    assert snapshot.config == tip
    assert snapshot.report_text.encode("utf-8") == expected_report(cache, tip)
    assert not [s for s in snapshot.executed if s.startswith("fragment/")]


def test_iqb_matches_cold_payload(daemon, client):
    """/iqb.json is byte-identical to iqb_payload on the chain's tip."""
    from repro.analysis.iqb import iqb_barometer, iqb_payload

    _, service, cache, _ = daemon
    status, headers, body = client.get("/iqb.json")
    assert status == 200
    assert headers.get("ETag")
    world = cache.load(service.log.tip_config())
    expected = (
        json.dumps(
            iqb_payload(iqb_barometer(world.dasu.columns, world.fcc.columns)),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    assert body == expected.encode("utf-8")
    status, _, stale = client.get(
        "/iqb.json", {"If-None-Match": headers["ETag"]}
    )
    assert status == 304 and stale == b""
