"""Tests for the persistent campaign service (job store, workers, API, CLI).

The crash-resume tests drive real ``repro serve`` subprocesses: one SIGKILLs
the whole process group mid-campaign — the acceptance scenario for durable
jobs — and one SIGKILLs only the daemon and restarts it on the same port.
The API tests run a live localhost daemon in-process (worker processes,
threaded HTTP server) to keep them fast.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.engine import Campaign, ResultCache, RunSpec, make_executor
from repro.engine.cli import main as cli_main
from repro.engine.spec import SweepSpec
from repro.faults import ENV_VAR, FaultPlan, FaultRule
from repro.serve import (
    AdmissionError,
    CampaignService,
    JobFailedError,
    JobRecord,
    JobStore,
    ServeClient,
    ServeDaemon,
    ServeError,
    WorkerPool,
    sweep_job_id,
)
from repro.utils.serialization import load_json, save_json

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: A fast sweep payload (ablation_tuning points are milliseconds once the
#: thermal LU factorization is warm in a worker).
FAST_SWEEP = {
    "experiment_id": "ablation_tuning",
    "grid": {"shifts_nm": [[0.2], [0.5], [1.0]]},
}

#: A deliberately slow sweep (~0.4s/point) used where a test must observe a
#: job mid-flight (cancellation, admission control, crash-resume).
def slow_sweep(seeds: int = 10) -> dict:
    return {
        "experiment_id": "signal_mc",
        "grid": {"size": [96]},
        "base": {"trials": 8000},
        "seeds": list(range(seeds)),
    }


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_SRC}{os.pathsep}{env.get('PYTHONPATH', '')}"
    return env


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------- job store
class TestJobStore:
    def _job(self, specs=None) -> JobRecord:
        specs = specs or [RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})]
        return JobRecord(
            job_id=sweep_job_id(specs),
            sweep={"experiment_id": "ablation_tuning"},
            specs=tuple(spec.canonical() for spec in specs),
        )

    def test_roundtrip_and_events(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.save(self._job())
        assert job.state == "queued" and job.total == 1 and job.active
        loaded = store.get(job.job_id)
        assert loaded is not None
        assert loaded.to_dict() == job.to_dict()
        assert loaded.run_specs()[0].params == {"shifts_nm": [0.2]}
        store.append_event(job.job_id, "line one")
        store.append_event(job.job_id, "line two\n")
        assert store.events(job.job_id) == ["line one", "line two"]
        assert store.get("no-such-job") is None
        assert store.jobs()[0].job_id == job.job_id

    def test_job_id_is_content_addressed(self):
        a = [RunSpec("ablation_tuning", params={"shifts_nm": [0.2]}, seed=0)]
        b = [RunSpec("ablation_tuning", params={"shifts_nm": [0.2]}, seed=0)]
        c = [RunSpec("ablation_tuning", params={"shifts_nm": [0.3]}, seed=0)]
        assert sweep_job_id(a) == sweep_job_id(b)
        assert sweep_job_id(a) != sweep_job_id(c)
        assert sweep_job_id(a, version="other") != sweep_job_id(a)

    def test_update_and_requeue(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.save(self._job())
        job = store.update(job.job_id, state="running", done=1, executed=1)
        assert store.get(job.job_id).state == "running"
        requeued = job.requeued(note="resumed after restart")
        assert requeued.state == "queued"
        assert requeued.done == requeued.executed == 0
        assert requeued.note == "resumed after restart"
        with pytest.raises(KeyError):
            store.update("missing", state="done")

    def test_recover_requeues_only_active_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        running = store.save(self._job())
        store.update(running.job_id, state="running", done=1)
        done_specs = [RunSpec("ablation_tuning", params={"shifts_nm": [9.0]})]
        done = store.save(self._job(done_specs))
        store.update(done.job_id, state="done")
        recovered = store.recover()
        assert [job.job_id for job in recovered] == [running.job_id]
        assert store.get(running.job_id).state == "queued"
        assert store.get(running.job_id).done == 0
        assert store.get(done.job_id).state == "done"


# ----------------------------------------------------- atomic cache writes
class TestAtomicWrites:
    def test_concurrent_threads_never_tear_json(self, tmp_path):
        """Satellite: hammer one path from many threads; readers always see
        a complete document (tmp names are unique per thread, rename is
        atomic)."""
        path = tmp_path / "record.json"
        errors: list[Exception] = []

        def writer(tag: int) -> None:
            try:
                for i in range(30):
                    save_json(path, {"tag": tag, "i": i, "pad": "x" * 2048})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def reader() -> None:
            try:
                for _ in range(200):
                    if path.is_file():
                        payload = load_json(path)
                        assert "pad" in payload and len(payload["pad"]) == 2048
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(6)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert load_json(path)["i"] == 29
        assert not list(tmp_path.glob("*.tmp*"))  # no leaked temporaries

    def test_result_cache_put_is_atomic_under_threads(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})
        from repro.engine.records import RunRecord

        record = RunRecord(
            fingerprint=cache.fingerprint(spec), spec=spec, payload={"v": 1}
        )
        threads = [
            threading.Thread(target=lambda: [cache.put(record) for _ in range(20)])
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        hit = cache.get(spec)
        assert hit is not None and hit.payload["v"] == 1


# ------------------------------------------------- worker pool as executor
class TestWorkerPoolExecutor:
    def test_worker_pool_runs_a_campaign(self, tmp_path):
        """The serve pool is a RunBackend: Campaign can drive it directly."""
        pool = WorkerPool(workers=2, cache_dir=str(tmp_path))
        assert make_executor(pool).backend is pool
        pool.start()
        try:
            specs = [
                RunSpec("ablation_tuning", params={"shifts_nm": [shift]})
                for shift in (0.2, 0.5, 1.0)
            ]
            result = Campaign(specs, cache=tmp_path, workers=pool).run()
            assert result.executed == 3 and result.failures == 0
            assert result.executor_kind == "worker-pool"
            assert {r.provenance["executor"] for r in result.records} == {
                "worker-pool"
            }
            # Workers wrote through the shared cache: a serial re-run all hits.
            again = Campaign(specs, cache=tmp_path).run()
            assert again.cache_hits == 3 and again.executed == 0
        finally:
            pool.close()


# ------------------------------------------------------- live API daemon
@pytest.fixture(scope="class")
def daemon(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    service = CampaignService(
        jobstore_dir=tmp / "jobs", cache_dir=tmp / "cache", workers=2, max_jobs=8
    )
    daemon = ServeDaemon(service, port=0)
    daemon.start()
    yield daemon
    daemon.shutdown()


@pytest.mark.usefixtures("daemon")
class TestServeAPI:
    def test_healthz_and_routes(self, daemon):
        client = ServeClient(daemon.url)
        health = client.health()
        assert health["status"] == "ok" and health["workers"] == 2
        with pytest.raises(ServeError) as err:
            client.job("nope")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client._request("GET", "/no/such/route")
        assert err.value.status == 404

    def test_submit_wait_results_and_dedupe(self, daemon):
        client = ServeClient(daemon.url)
        job = client.submit(FAST_SWEEP)
        assert job["created"] is True and job["total"] == 3
        events: list[str] = []
        final = client.wait(job["job_id"], timeout=90, on_event=events.append)
        assert final["state"] == "done"
        assert final["executed"] == 3 and final["failures"] == 0
        assert any("ablation_tuning" in line for line in events)
        assert any(line.startswith("-- done") for line in events)

        # Identical resubmit dedupes to the finished job: no new executions.
        again = client.submit(FAST_SWEEP)
        assert again["job_id"] == job["job_id"]
        assert again["created"] is False
        assert again["state"] == "done" and again["submits"] >= 2

        results = client.results(job["job_id"])
        assert len(results["payloads"]) == 3
        assert all(record["cached"] for record in results["records"])
        # Repeat fetch is pure cache reads and returns identical payloads.
        assert client.results(job["job_id"])["payloads"] == results["payloads"]
        assert any(j["job_id"] == job["job_id"] for j in client.jobs())

    def test_bad_sweep_is_400(self, daemon):
        client = ServeClient(daemon.url)
        for payload in (
            {"experiment_id": "no_such_experiment"},
            {"experiment_id": "ablation_tuning", "grid": {"bogus_param": [1]}},
            {"experiment_id": "ablation_tuning", "what": 1},
        ):
            with pytest.raises(ServeError) as err:
                client.submit(payload)
            assert err.value.status == 400

    def test_events_endpoint_plain_text(self, daemon):
        client = ServeClient(daemon.url)
        job = client.submit(FAST_SWEEP)  # dedupes to the finished job
        lines = client.events(job["job_id"])
        assert lines and lines[0].startswith("-- submitted")


class TestCancelAndAdmission:
    def test_cancel_and_429(self, tmp_path):
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs",
            cache_dir=tmp_path / "cache",
            workers=1,
            max_jobs=1,
        )
        daemon = ServeDaemon(service, port=0)
        daemon.start()
        try:
            client = ServeClient(daemon.url)
            slow = client.submit(slow_sweep(seeds=30))
            assert slow["created"] is True

            # Queue bound reached: a *different* sweep is refused with 429...
            with pytest.raises(ServeError) as err:
                client.submit(FAST_SWEEP)
            assert err.value.status == 429
            # ...but the identical sweep still dedupes instead of erroring.
            assert client.submit(slow_sweep(seeds=30))["job_id"] == slow["job_id"]

            cancelled = client.cancel(slow["job_id"])
            assert cancelled["state"] == "cancelled"
            job = client.job(slow["job_id"])
            assert job["state"] == "cancelled" and job["done"] < job["total"]

            # Admission frees up: the fast sweep is now accepted and runs.
            fast = client.submit(FAST_SWEEP)
            final = client.wait(fast["job_id"], timeout=90)
            assert final["state"] == "done"

            # Resubmitting the cancelled sweep requeues it (resume semantics).
            resumed = client.submit(slow_sweep(seeds=30))
            assert resumed["job_id"] == slow["job_id"]
            assert resumed["state"] == "queued"
            client.cancel(slow["job_id"])
        finally:
            daemon.shutdown()

    def test_admission_error_direct(self, tmp_path):
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs",
            cache_dir=tmp_path / "cache",
            workers=1,
            max_jobs=1,
        )
        # No scheduler running: the queued job never drains, so the second
        # distinct submit must hit the admission bound deterministically.
        service.submit(FAST_SWEEP)
        with pytest.raises(AdmissionError):
            service.submit(slow_sweep(seeds=2))


# ------------------------------------------------------------ crash-resume
class TestCrashResume:
    """Acceptance: SIGKILL a daemon mid-campaign; the restart completes the
    job executing only the runs missing from the result cache."""

    def _start_daemon(
        self, tmp: Path, port: int, plan: FaultPlan | None = None
    ) -> subprocess.Popen:
        env = _subprocess_env()
        if plan is not None:
            env[ENV_VAR] = plan.to_json()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(port), "--workers", "1",
                "--cache-dir", str(tmp / "cache"),
                "--jobstore-dir", str(tmp / "jobs"),
            ],
            env=env,
            start_new_session=True,  # so killpg nukes daemon + workers
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=5.0)
        deadline = time.monotonic() + 60
        while True:
            try:
                client.health()
                return proc
            except ServeError:
                if proc.poll() is not None or time.monotonic() > deadline:
                    proc.kill()
                    raise AssertionError("serve daemon failed to come up")
                time.sleep(0.2)

    def _killpg(self, proc: subprocess.Popen, sig: int) -> None:
        try:
            os.killpg(os.getpgid(proc.pid), sig)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)

    @pytest.mark.slow
    def test_sigkill_mid_campaign_resumes_from_cache(self, tmp_path):
        port = _free_port()
        sweep = slow_sweep(seeds=8)  # ~0.4s/point, 1 worker => ~3s campaign
        cache_glob = tmp_path / "cache" / "signal_mc"

        daemon = self._start_daemon(tmp_path, port)
        try:
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=5.0)
            job = client.submit(sweep)
            job_id = job["job_id"]
            assert job["total"] == 8
            deadline = time.monotonic() + 60
            while len(list(cache_glob.glob("*.json"))) < 2:
                assert time.monotonic() < deadline, "no runs completed in time"
                time.sleep(0.05)
        finally:
            self._killpg(daemon, signal.SIGKILL)  # kill -9 daemon AND worker

        cached_at_kill = len(list(cache_glob.glob("*.json")))
        assert 0 < cached_at_kill < 8, "kill must land mid-campaign"
        on_disk = json.loads((tmp_path / "jobs" / f"{job_id}.json").read_text())
        assert on_disk["state"] in ("running", "queued")  # never torn, not done

        daemon = self._start_daemon(tmp_path, port)
        try:
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=5.0)
            final = client.wait(job_id, timeout=90)
            assert final["state"] == "done"
            assert final["note"] == "resumed after restart"
            # THE durability contract: the restart executed exactly the runs
            # the cache did not already hold, and served the rest as hits.
            assert final["cache_hits"] == cached_at_kill
            assert final["executed"] == 8 - cached_at_kill
            assert len(list(cache_glob.glob("*.json"))) == 8

            # Repeat POST of the same spec: dedupe to the finished job,
            # zero new executions, fully cached results.
            resubmit = client.submit(sweep)
            assert resubmit["job_id"] == job_id
            assert resubmit["created"] is False and resubmit["state"] == "done"
            assert resubmit["executed"] == final["executed"]  # nothing new ran
            results = client.results(job_id)
            assert len(results["payloads"]) == 8
            assert all(record["cached"] for record in results["records"])
        finally:
            self._killpg(daemon, signal.SIGTERM)

    @pytest.mark.slow
    def test_sigkill_of_the_daemon_alone_frees_its_port(self, tmp_path):
        """Workers never hold the daemon's listening socket: with only the
        daemon SIGKILLed and its orphaned worker still busy, a restart binds
        the same port and finishes the job."""
        port = _free_port()
        hang = FaultPlan([FaultRule("worker.run", "hang", seconds=60.0)])
        first = self._start_daemon(tmp_path, port, plan=hang)
        try:
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=5.0)
            job_id = client.submit(FAST_SWEEP)["job_id"]
            deadline = time.monotonic() + 60
            while client.health()["pool"]["in_flight"] == 0:
                assert time.monotonic() < deadline, "the worker never started a run"
                time.sleep(0.05)
            os.kill(first.pid, signal.SIGKILL)  # the daemon only
            first.wait(timeout=10)

            second = self._start_daemon(tmp_path, port)
            try:
                client = ServeClient(f"http://127.0.0.1:{port}", timeout=5.0)
                assert client.wait(job_id, timeout=90)["state"] == "done"
            finally:
                self._killpg(second, signal.SIGTERM)
        finally:
            try:
                os.killpg(first.pid, signal.SIGKILL)  # its orphaned, hung worker
            except ProcessLookupError:
                pass
            first.wait(timeout=10)


# ------------------------------------------------------------------- CLI
class TestServeCli:
    def test_version_flag(self, capsys):
        from repro.version import __version__

        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--version"])
        assert exit_info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_submit_and_jobs_cli(self, tmp_path, capsys):
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=1
        )
        daemon = ServeDaemon(service, port=0)
        daemon.start()
        try:
            argv = [
                "submit", "ablation_tuning", "--grid", "shifts_nm=[0.2],[0.6]",
                "--url", daemon.url, "--quiet",
            ]
            assert cli_main(argv) == 0
            captured = capsys.readouterr()
            assert "2 points" in captured.err
            assert "done: 2 points" in captured.out

            assert cli_main(["jobs", "--url", daemon.url]) == 0
            listing = capsys.readouterr().out
            assert "ablation_tuning" in listing and "done" in listing

            job_id = service.jobs()[0].job_id
            assert cli_main(["jobs", job_id, "--url", daemon.url]) == 0
            assert "state: done" in capsys.readouterr().out
            assert cli_main(["jobs", job_id, "--events", "--url", daemon.url]) == 0
            assert "-- submitted" in capsys.readouterr().out
            assert cli_main(["jobs", job_id, "--results", "--url", daemon.url]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert len(payload["payloads"]) == 2
        finally:
            daemon.shutdown()

    def test_submit_unreachable_daemon_fails_cleanly(self, capsys):
        argv = [
            "submit", "ablation_tuning", "--url", "http://127.0.0.1:1",
        ]
        assert cli_main(argv) == 1
        assert "cannot reach repro serve" in capsys.readouterr().err

    @pytest.mark.slow
    def test_sweep_sigint_exits_gracefully(self, tmp_path):
        """Satellite: Ctrl-C mid-sweep flushes completed runs, no traceback."""
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep", "signal_mc",
                "--grid", "size=96", "--set", "trials=8000",
                "--seeds", ",".join(str(s) for s in range(30)),
                "--serial", "--quiet", "--cache-dir", str(tmp_path),
            ],
            env=_subprocess_env(),
            start_new_session=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        cache_glob = tmp_path / "signal_mc"
        deadline = time.monotonic() + 60
        while len(list(cache_glob.glob("*.json"))) < 1:
            assert time.monotonic() < deadline, "sweep made no progress"
            time.sleep(0.05)
        os.killpg(os.getpgid(proc.pid), signal.SIGINT)
        _, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 130, stderr
        assert "Traceback" not in stderr
        assert "interrupted" in stderr
        assert "re-run the same sweep to resume" in stderr
        flushed = len(list(cache_glob.glob("*.json")))
        assert flushed >= 1  # completed points survived the interrupt


# ------------------------------------------------- per-client admission quota
class TestPerClientQuota:
    def test_quota_is_charged_per_identity(self, tmp_path):
        """Satellite: each X-Repro-Client identity gets its own active-job
        bound under the global queue bound."""
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs",
            cache_dir=tmp_path / "cache",
            workers=1,
            max_jobs=8,
            max_jobs_per_client=1,
        )
        # No scheduler running: jobs stay queued, so the bounds are exact.
        service.submit(FAST_SWEEP, client="alice")
        with pytest.raises(AdmissionError) as err:
            service.submit(slow_sweep(seeds=2), client="alice")
        assert "alice" in str(err.value) or "jobs active" in str(err.value)
        # A different identity — and the anonymous bucket — are unaffected.
        service.submit(slow_sweep(seeds=2), client="bob")
        service.submit(slow_sweep(seeds=3))
        with pytest.raises(AdmissionError):
            service.submit(slow_sweep(seeds=4))  # anonymous bucket now full
        # Identical resubmission still dedupes instead of erroring.
        job, created = service.submit(FAST_SWEEP, client="alice")
        assert created is False

    def test_http_429_with_retry_after_and_client_on_job(self, tmp_path):
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs",
            cache_dir=tmp_path / "cache",
            workers=1,
            max_jobs=8,
            max_jobs_per_client=1,
        )
        daemon = ServeDaemon(service, port=0)
        daemon.start()
        try:
            alice = ServeClient(daemon.url, client="alice", retries=0)
            slow = alice.submit(slow_sweep(seeds=30))
            assert alice.job(slow["job_id"])["client"] == "alice"
            with pytest.raises(ServeError) as err:
                alice.submit(FAST_SWEEP)
            assert err.value.status == 429
            assert err.value.payload.get("retry_after") is not None
            # Another identity still gets in and completes normally.
            bob = ServeClient(daemon.url, client="bob", retries=0)
            fast = bob.submit(FAST_SWEEP)
            assert bob.wait(fast["job_id"], timeout=90)["state"] == "done"
            assert service.health()["max_jobs_per_client"] == 1
            alice.cancel(slow["job_id"])
        finally:
            daemon.shutdown()


# ------------------------------------------------------- streaming follow
class TestEventStreaming:
    def test_chunked_follow_streams_until_terminal(self, tmp_path):
        """``?follow=1`` streams chunked progress lines ending at the
        terminal state."""
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=2
        )
        daemon = ServeDaemon(service, port=0)
        daemon.start()
        try:
            client = ServeClient(daemon.url)
            job_id = client.submit(FAST_SWEEP)["job_id"]
            chunked = list(client.stream_events(job_id))  # terminates on done
            assert any(line.startswith("-- submitted") for line in chunked)
            assert any(line.startswith("-- done") for line in chunked)
            assert not any(line.startswith(":") for line in chunked)
            assert client.job(job_id)["state"] == "done"
        finally:
            daemon.shutdown()

    def test_idle_stream_emits_keepalive_comments(self, tmp_path):
        """A coordinator with no capacity produces no events — the chunked
        stream stays alive via ``: keep-alive`` comment chunks."""
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=0
        )
        daemon = ServeDaemon(service, port=0)
        daemon.start()
        try:
            client = ServeClient(daemon.url)
            job_id = client.submit(FAST_SWEEP)["job_id"]  # queued forever
            request = urllib.request.Request(
                f"{daemon.url}/jobs/{job_id}/events?follow=1"
            )
            saw_comment = False
            with urllib.request.urlopen(request, timeout=10) as response:
                deadline = time.monotonic() + 8
                for raw in response:
                    if raw.decode(errors="replace").startswith(":"):
                        saw_comment = True
                        break
                    assert time.monotonic() < deadline
            assert saw_comment, "no keep-alive comment within the idle window"
        finally:
            daemon.shutdown()


# ------------------------------------------------ typed job-failure surface
class TestWaitFailureSurface:
    def test_wait_raises_typed_error_on_terminal_failure(self, tmp_path):
        """Satellite: wait() distinguishes 'the job ended badly' from
        transport errors via JobFailedError carrying the job document."""
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=1
        )
        daemon = ServeDaemon(service, port=0)
        daemon.start()
        try:
            client = ServeClient(daemon.url)
            job_id = client.submit(slow_sweep(seeds=30))["job_id"]
            client.cancel(job_id)
            with pytest.raises(JobFailedError) as err:
                client.wait(job_id, timeout=30)
            assert err.value.state == "cancelled"
            assert err.value.job["job_id"] == job_id
            assert err.value.quarantined == []
            assert err.value.status == 0  # not a transport error
            assert isinstance(err.value, ServeError)  # old handlers still catch
        finally:
            daemon.shutdown()

    def test_wait_times_out_on_an_idle_job(self, tmp_path):
        """A job that never progresses still ends the wait at its timeout:
        the stream's keep-alive comments give the wait its deadline checks."""
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=0
        )
        daemon = ServeDaemon(service, port=0)
        daemon.start()
        try:
            client = ServeClient(daemon.url)
            job_id = client.submit(FAST_SWEEP)["job_id"]  # queued forever
            events: list[str] = []
            raised: list[Exception] = []

            def wait() -> None:
                try:
                    client.wait(job_id, timeout=1.0, on_event=events.append)
                except ServeError as exc:
                    raised.append(exc)

            waiter = threading.Thread(target=wait, daemon=True)
            waiter.start()
            waiter.join(timeout=10)
            assert not waiter.is_alive(), "wait ignored its timeout on an idle job"
            assert len(raised) == 1 and "timed out" in str(raised[0])
            assert not isinstance(raised[0], JobFailedError)
            assert events == client.events(job_id)  # each line exactly once
            assert client.job(job_id)["state"] in ("queued", "running")
        finally:
            daemon.shutdown()


# --------------------------------------- restart recovery with remote leases
class TestLeaseRecovery:
    def test_restart_requeues_leased_runs_without_rerunning_cached(self, tmp_path):
        """Satellite: a restart requeues runs whose lease-holder node is gone
        (leases are deliberately in-memory) and serves already-completed
        points straight from the cache — no re-execution."""
        specs = SweepSpec(
            experiment_id=FAST_SWEEP["experiment_id"], grid=FAST_SWEEP["grid"]
        ).expand()
        # Two of three points are already in the shared result cache.
        warm = Campaign(specs[:2], cache=tmp_path / "cache").run()
        assert warm.failures == 0 and warm.executed == 2

        # First life: a coordinator-only service leases the remaining point
        # to a node that will never come back.
        first = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=0
        )
        first.submit(FAST_SWEEP)
        first.federation.register_node("vanishing", workers=2)
        granted = []
        deadline = time.monotonic() + 30
        first.start()
        try:
            while time.monotonic() < deadline and not granted:
                granted = first.federation.claim("vanishing", max_runs=2)
                time.sleep(0.05)
        finally:
            first.shutdown()
        assert granted, "the federation never leased the uncached point"

        # Second life: same jobstore + cache, local workers, no such node.
        second = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=1
        )
        second.start()
        try:
            recovered = [job.job_id for job in second.store.jobs()]
            job_id = recovered[0]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                job = second.job(job_id)
                if job is not None and job.finished:
                    break
                time.sleep(0.05)
            assert job is not None and job.state == "done"
            assert job.done == job.total == 3
            # Cached points were *not* re-run: only the leased one executed.
            assert job.cache_hits >= 2
            assert job.executed <= 1
            assert second.federation.nodes() == []  # the holder is simply gone
        finally:
            second.shutdown()
