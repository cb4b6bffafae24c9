"""Tests for multi-node worker federation (leases, fencing, node lifecycle).

``TestFederationBackend`` unit-tests the coordinator-side lease manager:
time-bounded leases, token fencing, dead-node detection, quarantine, drain.
``TestFederatedService`` runs a live coordinator with in-process
:class:`NodeAgent` threads.  ``TestFederationChaos`` is the acceptance
scenario: a 2-node federated sweep under node-kill, a healing heartbeat
partition and torn uploads completes bit-identical to a fault-free
single-node baseline, with the killed node reported dead in ``/healthz``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import monotonic

import pytest

from repro.engine import Campaign, ResultCache, RetryPolicy, RunRecord, RunSpec
from repro.engine.executor import RunBackend, failure_record
from repro.engine.spec import SweepSpec
from repro.faults import ENV_VAR, FaultPlan, FaultRule
from repro.serve import (
    CampaignService,
    FederationBackend,
    FencedLeaseError,
    NodeAgent,
    NodeGoneError,
    ServeClient,
    ServeDaemon,
    UnknownNodeError,
    WorkerPool,
)

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

FAST_SWEEP = {
    "experiment_id": "ablation_tuning",
    "grid": {"shifts_nm": [[0.2], [0.5], [1.0]]},
}

#: Six fast points — same shape the serve chaos tests use.
CHAOS_SWEEP = {
    "experiment_id": "ablation_tuning",
    "grid": {"shifts_nm": [[0.1], [0.2], [0.3], [0.4], [0.5], [0.6]]},
}


def chaos_specs() -> list[RunSpec]:
    return SweepSpec(
        experiment_id=CHAOS_SWEEP["experiment_id"], grid=CHAOS_SWEEP["grid"]
    ).expand()


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _subprocess_env(faults: FaultPlan | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_SRC}{os.pathsep}{env.get('PYTHONPATH', '')}"
    env.pop(ENV_VAR, None)
    if faults is not None:
        env[ENV_VAR] = faults.to_json()
    return env


def _ok_record(cache: ResultCache, spec: RunSpec) -> RunRecord:
    return RunRecord(
        fingerprint=cache.fingerprint(spec), spec=spec, payload={"shift": spec.params}
    )


# ------------------------------------------------------------- lease manager
class TestFederationBackend:
    def _backend(self, tmp_path, **kwargs) -> FederationBackend:
        kwargs.setdefault("lease_ttl_s", 0.5)
        kwargs.setdefault("heartbeat_s", 0.1)
        return FederationBackend(cache_dir=str(tmp_path / "cache"), **kwargs)

    def test_backends_share_the_runbackend_interface(self, tmp_path):
        """The scheduler drives local pools and the federation uniformly."""
        fed = self._backend(tmp_path)
        pool = WorkerPool(workers=1, cache_dir=str(tmp_path / "pool"))
        assert isinstance(fed, RunBackend) and isinstance(pool, RunBackend)
        assert fed.backend_name == "federation"
        assert pool.backend_name == "local-pool"
        for method in ("try_submit", "in_flight", "kill_for", "reap", "health"):
            assert callable(getattr(fed, method)) and callable(getattr(pool, method))

    def test_register_claim_upload_roundtrip(self, tmp_path):
        fed = self._backend(tmp_path)
        config = fed.register_node("n1", workers=2)
        assert config["generation"] == 1
        assert config["lease_ttl_s"] == fed.lease_ttl_s
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})
        assert fed.try_submit(("job", 0), spec) is True
        leases = fed.claim("n1", max_runs=4)
        assert len(leases) == 1
        lease = leases[0]
        assert lease["spec"]["experiment_id"] == "ablation_tuning"
        assert fed.in_flight() == {("job", 0): ("n1", fed.in_flight()[("job", 0)][1])}
        record = _ok_record(fed.cache, spec)
        fed.upload(lease["lease_id"], "n1", lease["token"], record.to_dict())
        got = list(fed.completions(timeout=0.1))
        assert got == [(("job", 0), got[0][1])] and got[0][1].ok
        # Write-through: the coordinator cache now owns the result.
        assert fed.cache.get(spec) is not None
        node = fed.nodes()[0]
        assert node["completed"] == 1 and node["leases"] == 0
        assert fed.health()["degraded"] is False

    def test_claim_respects_worker_budget_and_drain(self, tmp_path):
        fed = self._backend(tmp_path)
        fed.register_node("n1", workers=1)
        fed.register_node("n2", workers=1)  # capacity for a second claimable run
        for i in range(2):
            assert fed.try_submit(
                ("job", i), RunSpec("ablation_tuning", params={"shifts_nm": [i]})
            )
        assert len(fed.claim("n1", max_runs=5)) == 1  # 1 worker -> 1 lease
        assert fed.claim("n1", max_runs=5) == []  # slot already holds a lease
        fed.drain("n1")
        fed._nodes["n1"].leases.clear()  # white-box: free the slot
        assert fed.claim("n1", max_runs=5) == []  # draining claims nothing
        assert fed.nodes()[0]["state"] == "draining"

    def test_expired_lease_is_reaped_and_upload_fenced(self, tmp_path):
        fed = self._backend(tmp_path, lease_ttl_s=0.15)
        fed.register_node("n1", workers=1)
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})
        assert fed.try_submit(("job", 0), spec)
        lease = fed.claim("n1")[0]
        time.sleep(0.25)
        assert fed.reap() == [("job", 0)]  # reclaimed: scheduler re-dispatches
        record = _ok_record(fed.cache, spec)
        with pytest.raises(FencedLeaseError):
            fed.upload(lease["lease_id"], "n1", lease["token"], record.to_dict())
        assert fed.cache.get(spec) is None  # fenced upload never touches cache
        assert fed.nodes()[0]["expired_leases"] == 1

    def test_renew_extends_and_bad_token_is_fenced(self, tmp_path):
        fed = self._backend(tmp_path, lease_ttl_s=0.3, node_timeout_s=10.0)
        fed.register_node("n1", workers=1)
        assert fed.try_submit(("job", 0), RunSpec("ablation_tuning", params={"shifts_nm": [0.2]}))
        lease = fed.claim("n1")[0]
        for _ in range(3):  # renewals outlive several TTLs
            time.sleep(0.15)
            fed.renew(lease["lease_id"], "n1", lease["token"])
            assert fed.reap() == []
        with pytest.raises(FencedLeaseError):
            fed.renew(lease["lease_id"], "n1", "not-the-token")
        with pytest.raises(FencedLeaseError):
            fed.renew(lease["lease_id"], "other-node", lease["token"])

    def test_kill_for_revokes_the_lease(self, tmp_path):
        fed = self._backend(tmp_path)
        fed.register_node("n1", workers=1)
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})
        assert fed.try_submit(("job", 0), spec)
        lease = fed.claim("n1")[0]
        assert fed.kill_for(("job", 0)) is True
        assert fed.kill_for(("job", 0)) is False
        with pytest.raises(FencedLeaseError):  # the remote SIGKILL analogue
            fed.upload(lease["lease_id"], "n1", lease["token"],
                       _ok_record(fed.cache, spec).to_dict())

    def test_dead_node_detection_and_revival_fences_old_leases(self, tmp_path):
        fed = self._backend(tmp_path, lease_ttl_s=5.0, node_timeout_s=0.2)
        fed.register_node("n1", workers=2)
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})
        assert fed.try_submit(("job", 0), spec)
        lease = fed.claim("n1")[0]
        time.sleep(0.3)  # silence > node_timeout_s
        assert fed.reap() == [("job", 0)]  # dead node's leases requeue at once
        assert fed.nodes()[0]["state"] == "dead"
        assert fed.health()["degraded"] is True
        with pytest.raises(NodeGoneError):
            fed.heartbeat("n1")
        with pytest.raises(NodeGoneError):
            fed.claim("n1")
        # The healed partition re-registers: generation bumps, cluster heals,
        # but the pre-partition lease token stays fenced forever.
        config = fed.register_node("n1", workers=2)
        assert config["generation"] == 2
        assert fed.health()["degraded"] is False
        with pytest.raises(FencedLeaseError):
            fed.upload(lease["lease_id"], "n1", lease["token"],
                       _ok_record(fed.cache, spec).to_dict())

    def test_unknown_node_is_typed(self, tmp_path):
        fed = self._backend(tmp_path)
        with pytest.raises(UnknownNodeError):
            fed.heartbeat("ghost")
        with pytest.raises(UnknownNodeError):
            fed.drain("ghost")
        with pytest.raises(UnknownNodeError):
            fed.deregister_node("ghost")

    def test_deregister_requeues_but_does_not_degrade(self, tmp_path):
        fed = self._backend(tmp_path)
        fed.register_node("n1", workers=1)
        assert fed.try_submit(("job", 0), RunSpec("ablation_tuning", params={"shifts_nm": [0.2]}))
        fed.claim("n1")
        fed.deregister_node("n1")
        assert fed.reap() == [("job", 0)]
        assert fed.nodes()[0]["state"] == "left"
        assert fed.health()["degraded"] is False  # graceful exit is healthy

    def test_poisoning_node_is_quarantined(self, tmp_path):
        fed = self._backend(tmp_path, quarantine_after=2)
        fed.register_node("bad", workers=2)
        for i in range(2):
            spec = RunSpec("ablation_tuning", params={"shifts_nm": [float(i)]})
            assert fed.try_submit(("job", i), spec)
            lease = fed.claim("bad")[0]
            poisoned = failure_record(spec, "boom", executor_kind="node-worker")
            fed.upload(lease["lease_id"], "bad", lease["token"], poisoned.to_dict())
        node = fed.nodes()[0]
        assert node["state"] == "quarantined" and node["failed"] == 2
        assert fed.claim("bad") == []  # no new leases for a poisoner
        assert fed.health()["degraded"] is True
        # Reconnecting does not launder the record.
        fed.register_node("bad", workers=2)
        assert fed.nodes()[0]["quarantined"] is True

    def test_withdraw_and_capacity_accounting(self, tmp_path):
        fed = self._backend(tmp_path)
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})
        assert fed.try_submit(("job", 0), spec) is False  # no nodes, no capacity
        fed.register_node("n1", workers=2)
        assert fed.capacity() == 2
        assert fed.try_submit(("job", 0), spec) is True
        assert fed.try_submit(("job", 1), spec) is True
        assert fed.try_submit(("job", 2), spec) is False  # backlog == slots
        assert fed.withdraw(("job", 1)) is True
        assert fed.withdraw(("job", 1)) is False
        assert fed.capacity() == 1


# ------------------------------------------------------- live federated runs
def _coordinator(tmp, **kwargs):
    """A coordinator service + daemon with test-speed federation knobs."""
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("tick_s", 0.05)
    kwargs.setdefault("lease_ttl_s", 2.0)
    kwargs.setdefault("heartbeat_s", 0.25)
    kwargs.setdefault("node_timeout_s", 1.25)
    kwargs.setdefault(
        "policy", RetryPolicy(max_attempts=8, backoff_s=0.1, backoff_cap_s=0.5)
    )
    service = CampaignService(
        jobstore_dir=tmp / "jobs", cache_dir=tmp / "cache", **kwargs
    )
    daemon = ServeDaemon(service, port=0)
    daemon.start()
    return service, daemon


class TestFederatedService:
    def test_sweep_runs_entirely_on_a_remote_node(self, tmp_path):
        """A coordinator with zero local workers completes a sweep through
        one NodeAgent, then drains it cleanly over HTTP."""
        service, daemon = _coordinator(tmp_path)
        agent = NodeAgent(
            daemon.url, workers=2, node_id="remote-a",
            cache_dir=str(tmp_path / "nodecache"), poll_s=0.05,
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        try:
            client = ServeClient(daemon.url)
            job = client.wait(client.submit(FAST_SWEEP)["job_id"], timeout=90)
            assert job["state"] == "done" and job["failures"] == 0
            assert job["done"] == job["total"] == 3
            assert agent.stats["executed"] == 3 and agent.stats["uploaded"] == 3
            health = client.health()
            assert health["workers"] == 0 and health["degraded"] is False
            nodes = {n["node_id"]: n for n in client.nodes()}
            assert nodes["remote-a"]["state"] == "alive"
            assert nodes["remote-a"]["completed"] == 3
            # Results are read back from the coordinator's own cache.
            assert len(client.results(job["job_id"])["payloads"]) == 3
            # Remote drain: the agent notices via its heartbeat and exits.
            client.drain_node("remote-a")
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert {n["node_id"]: n["state"] for n in client.nodes()}[
                "remote-a"
            ] == "left"
        finally:
            agent.stop()
            thread.join(timeout=10)
            daemon.shutdown()

    def test_killed_node_leases_requeue_to_a_second_node(self, tmp_path):
        """Hard-stop a node mid-sweep: its leases expire, the points
        re-dispatch to a later-joining node, and the job still finishes."""
        service, daemon = _coordinator(tmp_path)
        sweep = {
            "experiment_id": "signal_mc",
            "grid": {"size": [96]},
            "base": {"trials": 8000},
            "seeds": [0, 1, 2, 3],
        }
        first = NodeAgent(
            daemon.url, workers=2, node_id="doomed",
            cache_dir=str(tmp_path / "n1"), poll_s=0.05,
        )
        first_thread = threading.Thread(target=first.run, daemon=True)
        first_thread.start()
        second = NodeAgent(
            daemon.url, workers=2, node_id="survivor",
            cache_dir=str(tmp_path / "n2"), poll_s=0.05,
        )
        second_thread = threading.Thread(target=second.run, daemon=True)
        try:
            client = ServeClient(daemon.url)
            job_id = client.submit(sweep)["job_id"]
            deadline = monotonic() + 30
            while monotonic() < deadline and not first._held:
                time.sleep(0.05)
            assert first._held, "first node never claimed a lease"
            first.stop()  # no drain, no deregister: renewals just stop
            first_thread.join(timeout=30)
            second_thread.start()
            job = client.wait(job_id, timeout=120)
            assert job["state"] == "done" and job["failures"] == 0
            assert job["done"] == job["total"] == 4
            nodes = {n["node_id"]: n for n in client.nodes()}
            assert nodes["doomed"]["state"] == "dead"
            assert nodes["survivor"]["completed"] >= 1
            health = client.health()
            assert health["degraded"] is True  # the dead node is visible
            assert health["status"] == "degraded"
        finally:
            first.stop()
            second.stop()
            first_thread.join(timeout=10)
            second_thread.join(timeout=10)
            daemon.shutdown()


# -------------------------------------------------------- acceptance: chaos
class TestFederationChaos:
    def _spawn_node(self, url, node_id, tmp, plan=None) -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "node",
                "--coordinator", url,
                "--workers", "2",
                "--node-id", node_id,
                "--cache-dir", str(tmp / f"{node_id}-cache"),
            ],
            env=_subprocess_env(plan),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )

    @pytest.mark.slow
    def test_two_node_chaos_bit_identical(self, tmp_path):
        """The ISSUE acceptance scenario: a 2-node federated sweep under a
        node SIGKILL, a healing heartbeat partition, lost renewals and torn
        uploads completes with zero failures, bit-identical to a fault-free
        single-node baseline; the killed node is reported dead in /healthz;
        no point is ever dispatched more than max_attempts times."""
        specs = chaos_specs()
        baseline = Campaign(specs, cache=tmp_path / "baseline").run()
        assert baseline.failures == 0
        expected = {r.spec.label(): r.payload for r in baseline.records}

        service, daemon = _coordinator(tmp_path, node_quarantine_after=50)
        torn = FaultPlan(
            [
                # Torn uploads: the request body is truncated mid-transfer,
                # the coordinator 400s the fragment, the agent retries whole.
                FaultRule("node.upload", "corrupt_write", probability=0.4),
                FaultRule("node.lease_renew", "raise", probability=0.2),
            ],
            seed=7,
        )
        partitioned = FaultPlan(
            # A partition that heals: the first heartbeats are lost, then the
            # node reconnects (possibly after being declared dead) and keeps
            # working under a bumped generation.
            [FaultRule("node.heartbeat", "raise", probability=1.0, max_fires=4)],
            seed=11,
        )
        doomed = self._spawn_node(daemon.url, "chaos-n1", tmp_path, torn)
        flaky = self._spawn_node(daemon.url, "chaos-n2", tmp_path, partitioned)
        try:
            client = ServeClient(daemon.url)
            deadline = monotonic() + 60
            while monotonic() < deadline:
                alive = [n for n in client.nodes() if n["state"] == "alive"]
                if len(alive) == 2:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("node agents never registered")

            job_id = client.submit(CHAOS_SWEEP)["job_id"]
            # Let the sweep get going, then SIGKILL one whole node mid-run.
            deadline = monotonic() + 60
            while monotonic() < deadline:
                job = client.job(job_id)
                if job["done"] >= 1 or job["executed"] >= 1:
                    break
                time.sleep(0.05)
            os.killpg(doomed.pid, signal.SIGKILL)
            doomed.wait(timeout=10)

            final = client.wait(job_id, timeout=180)
            assert final["state"] == "done", final
            assert final["done"] == final["total"] == 6
            assert final["failures"] == 0 and not final["quarantined"]

            # Bit-identity against the fault-free single-node baseline.
            results = client.results(job_id)
            assert len(results["records"]) == 6
            for record in results["records"]:
                assert record["status"] == "ok", record
                assert canonical(record["payload"]) == canonical(
                    expected[record["label"]]
                ), f"payload drift under federation chaos: {record['label']}"

            # The killed node is visible: dead in /healthz, cluster degraded.
            # (The job can finish before the node's heartbeat timeout lapses,
            # so give the coordinator's reaper a moment to notice.)
            deadline = monotonic() + 30
            while monotonic() < deadline:
                health = client.health()
                nodes = {n["node_id"]: n for n in health["nodes"]}
                if nodes["chaos-n1"]["state"] == "dead":
                    break
                time.sleep(0.1)
            assert nodes["chaos-n1"]["state"] == "dead"
            assert health["degraded"] is True

            # Attempt budget held: every retry event stays under max_attempts.
            policy_max = service.policy.max_attempts
            for line in client.events(job_id):
                if "(attempt " in line:
                    used = int(line.split("(attempt ", 1)[1].split("/", 1)[0])
                    assert used <= policy_max, line
        finally:
            for proc in (doomed, flaky):
                if proc.poll() is None:
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    proc.wait(timeout=10)
            daemon.shutdown()
