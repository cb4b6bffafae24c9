"""Chaos tests: deterministic fault injection across engine and serve.

The acceptance scenario (``TestServeChaos``) drives a *live* serve campaign
under a seeded plan that crashes ~1/3 of worker runs, corrupts ~1/5 of cache
writes and hangs one run past its wall-clock deadline — and asserts the job
still completes, its surviving results are bit-identical to a fault-free run,
the hung run is quarantined promptly, and no point ever executes more than
``max_attempts`` times.

Everything here relies on plans being a pure function of their seed: a plan
activated through ``REPRO_FAULTS`` (``set_env=True``) propagates into spawned
worker processes, which re-roll on their own pid-salted streams so retried
runs genuinely get a fresh chance.
"""

from __future__ import annotations

import json
import os
import threading
import time
from multiprocessing.context import SpawnProcess
from time import monotonic

import pytest

from repro.engine import (
    Campaign,
    ResultCache,
    RetryPolicy,
    RunLedger,
    RunRecord,
    RunSpec,
    SerialExecutor,
    make_executor,
)
from repro.engine.spec import SweepSpec
from repro.faults import (
    ENV_VAR,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    fault_point,
    load_env_plan,
)
from repro.serve import (
    CampaignService,
    JobRecord,
    JobStore,
    ServeClient,
    ServeDaemon,
    ServeError,
    WorkerPool,
    sweep_job_id,
)

#: Six fast points (milliseconds each once a worker's thermal LU is warm).
CHAOS_SWEEP = {
    "experiment_id": "ablation_tuning",
    "grid": {"shifts_nm": [[0.1], [0.2], [0.3], [0.4], [0.5], [0.6]]},
}


def chaos_specs() -> list[RunSpec]:
    return SweepSpec(
        experiment_id="ablation_tuning",
        grid={"shifts_nm": [[0.1], [0.2], [0.3], [0.4], [0.5], [0.6]]},
    ).expand()


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------- fault plans
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            [
                FaultRule("worker.run", "crash", probability=0.3),
                FaultRule("cache.put", "corrupt_write", match="ablation", max_fires=2),
                FaultRule("worker.run", "hang", seconds=1.5),
            ],
            seed=42,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again.to_dict() == plan.to_dict()
        assert again.seed == 42 and again.rules == plan.rules

    def test_validation_rejects_bad_rules(self):
        from repro.utils.validation import ValidationError

        with pytest.raises(ValidationError):
            FaultRule("worker.run", "explode")
        with pytest.raises(ValidationError):
            FaultRule("worker.run", "crash", probability=1.5)
        with pytest.raises(ValidationError):
            FaultRule("", "crash")
        with pytest.raises(ValidationError):
            FaultRule.from_dict({"point": "worker.run", "effect": "crash", "bogus": 1})
        with pytest.raises(ValidationError):
            FaultPlan.from_dict({"seed": 0, "rules": [], "bogus": 1})
        with pytest.raises(ValidationError):
            FaultPlan.from_json("not json")

    def test_firing_is_deterministic_per_seed(self):
        def sequence(seed: int) -> list[bool]:
            plan = FaultPlan(
                [FaultRule("worker.run", "raise", probability=0.5)], seed=seed
            )
            return [plan.fire("worker.run", key=f"k{i}") is not None for i in range(64)]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_match_filters_and_max_fires_caps(self):
        plan = FaultPlan(
            [FaultRule("worker.run", "raise", match="target", max_fires=2)], seed=0
        )
        assert plan.fire("worker.run", key="other run") is None
        assert plan.fire("cache.put", key="target") is None
        assert plan.fire("worker.run", key="target A") is not None
        assert plan.fire("worker.run", key="target B") is not None
        assert plan.fire("worker.run", key="target C") is None  # cap reached
        counters = plan.counters()[0]
        assert counters["fires"] == 2 and counters["calls"] == 3

    def test_env_round_trip_and_at_file(self, tmp_path):
        plan = FaultPlan([FaultRule("api.handle", "raise")], seed=3)
        assert load_env_plan({}) is None
        assert load_env_plan({ENV_VAR: "  "}) is None
        loaded = load_env_plan({ENV_VAR: plan.to_json()})
        assert loaded is not None and loaded.to_dict() == plan.to_dict()
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        loaded = load_env_plan({ENV_VAR: f"@{path}"})
        assert loaded is not None and loaded.to_dict() == plan.to_dict()

    def test_activated_restores_previous_state(self):
        assert active_plan() is None
        plan = FaultPlan([FaultRule("worker.run", "raise")], seed=1)
        with plan.activated(set_env=True):
            assert active_plan() is plan
            assert os.environ[ENV_VAR] == plan.to_json()
        assert active_plan() is None
        assert ENV_VAR not in os.environ

    def test_fault_point_is_noop_without_a_plan(self):
        assert active_plan() is None
        assert fault_point("worker.run", key="anything") is None

    def test_effects_raise_hang_corrupt_enospc(self):
        plan = FaultPlan(
            [
                FaultRule("p.raise", "raise"),
                FaultRule("p.hang", "hang", seconds=0.2),
                FaultRule("p.corrupt", "corrupt_write"),
                FaultRule("p.enospc", "enospc"),
            ]
        )
        with plan.activated():
            with pytest.raises(InjectedFault):
                fault_point("p.raise")
            start = monotonic()
            assert fault_point("p.hang") is None
            assert monotonic() - start >= 0.2
            assert fault_point("p.corrupt") == "corrupt_write"
            with pytest.raises(OSError) as err:
                fault_point("p.enospc")
            assert "ENOSPC" in str(err.value) or err.value.errno is not None

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            [
                FaultRule("p", "corrupt_write", match="special"),
                FaultRule("p", "raise"),
            ]
        )
        with plan.activated():
            assert fault_point("p", key="a special key") == "corrupt_write"
            with pytest.raises(InjectedFault):
                fault_point("p", key="ordinary")


# ------------------------------------------------------------- cache faults
class TestCacheFaults:
    def _record(self, cache: ResultCache, shift: float = 0.2) -> RunRecord:
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [shift]})
        return RunRecord(
            fingerprint=cache.fingerprint(spec), spec=spec, payload={"v": shift}
        )

    def test_at_rest_corruption_is_quarantined_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = self._record(cache)
        path = cache.put(record)
        path.write_text('{"torn": ')  # freeze a torn write to disk
        assert cache.get(record.spec) is None  # miss, not a crash
        assert not path.exists()  # moved aside...
        assert cache.quarantined_count() == 1  # ...into corrupt/
        quarantined = list(cache.corrupt_dir.iterdir())
        assert quarantined[0].name.startswith("ablation_tuning-")
        # The miss lets the run recompute and rewrite cleanly.
        cache.put(record)
        hit = cache.get(record.spec)
        assert hit is not None and hit.payload == {"v": 0.2}

    def test_repeated_corruption_never_overwrites_evidence(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = self._record(cache)
        for _ in range(3):
            path = cache.put(record)
            path.write_text("garbage")
            assert cache.get(record.spec) is None
        assert cache.quarantined_count() == 3

    def test_verified_put_survives_corrupt_writes(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = self._record(cache)
        plan = FaultPlan([FaultRule("cache.put", "corrupt_write", max_fires=2)])
        with plan.activated():
            path = cache.put(record, verify=True)
        # Two torn attempts were quarantined; the third wrote a good entry.
        assert cache.quarantined_count() == 2
        hit = cache.get(record.spec)
        assert hit is not None and hit.payload == record.payload
        assert json.loads(path.read_text())["payload"] == {"v": 0.2}

    def test_verified_put_raises_when_writes_never_verify(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = self._record(cache)
        plan = FaultPlan([FaultRule("cache.put", "corrupt_write")])
        with plan.activated():
            with pytest.raises(OSError):
                cache.put(record, verify=True)
        assert cache.get(record.spec) is None

    def test_enospc_propagates_from_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = FaultPlan([FaultRule("cache.put", "enospc")])
        with plan.activated():
            with pytest.raises(OSError):
                cache.put(self._record(cache))

    def test_records_walk_quarantines_bad_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = self._record(cache, shift=0.2)
        bad = self._record(cache, shift=0.5)
        cache.put(good)
        cache.put(bad).write_text("]]]")
        records = list(cache.records())
        assert [r.payload for r in records] == [good.payload]
        assert cache.quarantined_count() == 1

    def test_clear_preserves_quarantined_evidence(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = self._record(cache)
        cache.put(record).write_text("junk")
        assert cache.get(record.spec) is None
        cache.put(record)
        assert cache.clear() == 1
        assert cache.quarantined_count() == 1


# -------------------------------------------------------------- retry policy
class TestRetryPolicy:
    def test_backoff_is_deterministic_capped_and_jittered(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=0.5, backoff_cap_s=2.0, seed=1)
        delays = [policy.delay_s(n, key="run") for n in (1, 2, 3, 4, 5)]
        assert delays == [policy.delay_s(n, key="run") for n in (1, 2, 3, 4, 5)]
        for attempt, delay in enumerate(delays, start=1):
            base = min(2.0, 0.5 * 2 ** (attempt - 1))
            assert 0.5 * base <= delay <= base
        assert policy.delay_s(1, key="a") != policy.delay_s(1, key="b")
        assert RetryPolicy(backoff_s=0.0).delay_s(3) == 0.0

    def test_from_dict_merges_over_default_and_rejects_unknown(self):
        default = RetryPolicy(max_attempts=3, backoff_s=0.5, deadline_s=60.0)
        merged = RetryPolicy.from_dict({"max_attempts": 5}, default=default)
        assert merged.max_attempts == 5
        assert merged.backoff_s == 0.5 and merged.deadline_s == 60.0
        cleared = RetryPolicy.from_dict({"deadline_s": None}, default=default)
        assert cleared.deadline_s is None
        with pytest.raises(ValueError):
            RetryPolicy.from_dict({"max_attemptz": 5})
        with pytest.raises(ValueError):
            RetryPolicy.from_dict({"deadline_s": -1})
        assert RetryPolicy.from_dict(default.to_dict()) == default


# ---------------------------------------------------------- engine executors
class TestExecutorRetry:
    def _spec(self) -> RunSpec:
        return RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})

    def test_serial_retries_until_success(self):
        plan = FaultPlan([FaultRule("worker.run", "raise", max_fires=2)])
        policy = RetryPolicy(max_attempts=3, backoff_s=0.01)
        with plan.activated():
            [(_, record)] = list(
                SerialExecutor(retry=policy).run_specs([self._spec()])
            )
        assert record.ok
        assert record.provenance["attempts"] == 3

    def test_serial_quarantines_after_budget(self):
        plan = FaultPlan([FaultRule("worker.run", "raise")])
        policy = RetryPolicy(max_attempts=2, backoff_s=0.01)
        with plan.activated():
            [(_, record)] = list(
                SerialExecutor(retry=policy).run_specs([self._spec()])
            )
        assert not record.ok
        assert "InjectedFault" in (record.error or "")
        assert record.provenance["attempts"] == 2

    def test_default_policy_keeps_failures_final(self):
        plan = FaultPlan([FaultRule("worker.run", "raise")])
        with plan.activated():
            [(_, record)] = list(SerialExecutor().run_specs([self._spec()]))
        assert not record.ok
        assert "attempts" not in record.provenance  # historical record shape

    @pytest.mark.slow
    def test_process_pool_survives_worker_crashes(self):
        """~40% of pool runs die mid-flight; retry completes every point and
        payloads stay bit-identical to a fault-free serial run."""
        specs = chaos_specs()
        baseline = {
            record.spec.label(): record.payload
            for _, record in SerialExecutor().run_specs(specs)
        }
        plan = FaultPlan(
            [FaultRule("worker.run", "crash", probability=0.4)], seed=11
        )
        policy = RetryPolicy(max_attempts=12, backoff_s=0.05, backoff_cap_s=0.2)
        pool = make_executor(2, retry=policy)
        with plan.activated(set_env=True):
            records = dict(pool.run_specs(specs))
        assert len(records) == len(specs)
        for record in records.values():
            assert record.ok, record.error
            assert canonical(record.payload) == canonical(baseline[record.spec.label()])

    @pytest.mark.slow
    def test_process_pool_deadline_quarantines_hung_run(self):
        specs = chaos_specs()[:4]
        hung = specs[2]
        plan = FaultPlan(
            [FaultRule("worker.run", "hang", seconds=60.0, match=hung.label())],
            seed=5,
        )
        policy = RetryPolicy(max_attempts=2, backoff_s=0.05, deadline_s=1.5)
        pool = make_executor(2, retry=policy)
        start = monotonic()
        with plan.activated(set_env=True):
            records = dict(pool.run_specs(specs))
        assert monotonic() - start < 60  # nowhere near the 60s hang
        assert len(records) == 4
        by_label = {record.spec.label(): record for record in records.values()}
        poison = by_label[hung.label()]
        assert not poison.ok and "quarantined" in (poison.error or "")
        assert poison.provenance["attempts"] == 2
        assert all(r.ok for label, r in by_label.items() if label != hung.label())


    def test_pool_charges_each_death_to_the_run_it_hosted(self):
        """A run that kills its worker every time is quarantined at its own
        budget; the neighbours sharing the pool (slowed down so that they are
        in flight when it dies) are never charged."""
        specs = chaos_specs()
        plan = FaultPlan([
            FaultRule("worker.run", "crash", match=specs[2].label()),
            FaultRule("worker.run", "hang", seconds=0.2),
        ])
        executor = make_executor(2, retry=RetryPolicy(max_attempts=3, backoff_s=0.01))
        try:
            with plan.activated(set_env=True):
                records = dict(executor.run_specs(specs))
        finally:
            executor.close()
        poison = records.pop(2)
        assert not poison.ok and "quarantined" in (poison.error or "")
        assert poison.provenance["attempts"] == 3
        for record in records.values():
            assert record.ok, record.error
            assert "attempts" not in record.provenance

    @pytest.mark.slow
    def test_crash_storm_attempts_equal_worker_deaths(self):
        """Under a 40% crash storm on a caller-owned pool every point completes
        with serial-identical payloads, and the attempts charged beyond the
        first add up to exactly the number of workers that died."""
        specs = chaos_specs()
        baseline = {
            record.spec.label(): record.payload
            for _, record in SerialExecutor().run_specs(specs)
        }
        plan = FaultPlan([FaultRule("worker.run", "crash", probability=0.4)], seed=23)
        policy = RetryPolicy(max_attempts=12, backoff_s=0.01, backoff_cap_s=0.05)
        pool = WorkerPool(workers=2)
        try:
            with plan.activated(set_env=True):
                result = Campaign(specs, workers=pool, retry=policy).run()
        finally:
            pool.close()
        assert result.failures == 0 and len(result.records) == len(specs)
        for record in result.records:
            assert record.ok, record.error
            assert canonical(record.payload) == canonical(baseline[record.spec.label()])
        charged = sum(r.provenance.get("attempts", 1) - 1 for r in result.records)
        assert charged == pool.respawns

    @pytest.mark.slow
    def test_campaign_on_a_pool_retries_a_crashed_run(self, monkeypatch):
        """Regression: a Campaign driving a WorkerPool used to wait forever
        for a run whose worker crashed."""
        specs = chaos_specs()[:3]
        crash = FaultPlan([FaultRule("worker.run", "crash", match=specs[1].label())])
        pool = WorkerPool(workers=1)
        monkeypatch.setenv(ENV_VAR, crash.to_json())
        pool.start()  # the first worker carries the crash plan ...
        monkeypatch.delenv(ENV_VAR)  # ... its replacement does not
        campaign = Campaign(
            specs, workers=pool, retry=RetryPolicy(max_attempts=2, backoff_s=0.01)
        )
        results = []
        thread = threading.Thread(target=lambda: results.append(campaign.run()), daemon=True)
        try:
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive(), "the campaign hung on the crashed run"
        finally:
            pool.close()
        [result] = results
        crashed = result.records[1]
        assert crashed.ok and crashed.provenance["attempts"] == 2
        assert all(record.ok for record in result.records)

    @pytest.mark.slow
    def test_campaign_ends_when_its_pool_runs_out_of_workers(self):
        """Regression: once every worker was dead with the respawn budget
        spent, the runs still queued were never charged and the campaign
        waited forever; now they are quarantined."""
        specs = chaos_specs()
        plan = FaultPlan([FaultRule("worker.run", "crash")])  # always crash
        pool = WorkerPool(workers=1)
        pool.max_respawns = 1
        campaign = Campaign(
            specs, workers=pool, retry=RetryPolicy(max_attempts=2, backoff_s=0.01)
        )
        results = []
        thread = threading.Thread(target=lambda: results.append(campaign.run()), daemon=True)
        with plan.activated(set_env=True):
            pool.start()
            try:
                thread.start()
                thread.join(timeout=60)
                assert not thread.is_alive(), "the campaign outlived its workers"
            finally:
                pool.close()
        [result] = results
        assert result.failures == len(specs) == len(result.records)
        for record in result.records:
            assert not record.ok and "quarantined" in (record.error or "")
        assert pool.respawns == 1

    def test_owned_pool_is_replaced_once_exhausted(self):
        """A batch whose pool loses its last worker quarantines the runs it
        still holds; the executor's next batch runs on a fresh pool."""
        specs = chaos_specs()
        plan = FaultPlan([FaultRule("worker.run", "crash", match=s.label()) for s in specs[2:]])
        executor = make_executor(2)
        with plan.activated(set_env=True):
            try:
                assert all(record.ok for _, record in executor.run_specs(specs[:2]))
                spent = executor.backend
                spent.max_respawns = spent.respawns  # no replacements left
                stranded = dict(executor.run_specs(specs[2:]))
                assert sorted(stranded) == [0, 1, 2, 3]
                errors = [record.error or "" for record in stranded.values()]
                assert all("quarantined" in error for error in errors)
                # Each worker died on its first run; the other two never ran.
                assert sum("worker died mid-run" in error for error in errors) == 2
                assert sum("no workers left" in error for error in errors) == 2
                fresh = [record for _, record in executor.run_specs(specs[:2])]
                assert executor.backend is not spent
                assert len(fresh) == 2 and all(record.ok for record in fresh)
            finally:
                executor.close()


class TestRunLedger:
    class _Backend:
        def withdraw(self, token) -> bool:
            return False

    def test_queued_run_is_presumed_lost_only_while_its_backend_idles(self):
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})
        policy = RetryPolicy(max_attempts=2, backoff_s=0.0)
        ledger = RunLedger([(0, spec)], policy, lost_task_grace_s=0.05)
        backend = self._Backend()
        assert ledger.dispatch(lambda token, spec: backend)
        time.sleep(0.1)
        # Queued behind another run the backend is executing: not lost.
        assert ledger.supervise({backend: {("other", 0): (1, monotonic())}}) == []
        assert ledger.supervise({backend: {}}) == []  # the wait restarted
        time.sleep(0.1)
        [failure] = ledger.supervise({backend: {}})
        assert "never started" in failure.error and not failure.quarantined
        assert ledger.attempts[0] == 1 and ledger.delayed

    def test_abandon_quarantines_every_unsettled_run(self):
        specs = chaos_specs()[:3]
        ledger = RunLedger(enumerate(specs), RetryPolicy(max_attempts=3, backoff_s=5.0))
        backend = self._Backend()
        assert ledger.dispatch(lambda token, spec: backend)
        assert ledger.dispatch(lambda token, spec: backend)
        assert not ledger.fail(1, "worker died mid-run").quarantined  # now delayed
        failures = ledger.abandon("no workers left to run it")
        assert sorted((f.index, f.attempts) for f in failures) == [(0, 1), (1, 1), (2, 0)]
        assert all(f.quarantined and f.record is None for f in failures)
        assert not ledger.active and ledger.settled == {0, 1, 2}
        assert [entry["index"] for entry in ledger.quarantined] == [0, 1, 2]


# ---------------------------------------------------------- worker pool
class TestWorkerPoolRobustness:
    def _drain(self, pool: WorkerPool, seconds: float = 0.2) -> None:
        """Consume pending started/heartbeat messages (nothing completes)."""
        for _ in pool.completions(timeout=seconds):
            pass

    def test_stop_graceful_drains_a_full_task_queue(self):
        """Regression: stop(graceful=True) used to give up on the first Full,
        leaving stale tasks enqueued and some workers without a sentinel."""
        specs = chaos_specs()
        plan = FaultPlan([FaultRule("worker.run", "hang", seconds=60.0)])
        pool = WorkerPool(workers=1, queue_depth=2)
        with plan.activated(set_env=True):
            pool.start()
            pool.submit(0, specs[0])  # consumed: the worker hangs on it
            deadline = monotonic() + 30
            while not pool.in_flight():
                assert monotonic() < deadline, "worker never announced its run"
                self._drain(pool, seconds=0.1)
            pool.submit(1, specs[1])  # these two fill the bounded queue
            pool.submit(2, specs[2])
            start = monotonic()
            pool.stop(graceful=True, timeout=1.0)
        assert monotonic() - start < 20
        assert pool.alive() == 0
        # The old code broke out on the first Full: both stale tasks stayed
        # queued and no sentinel ever landed.  Now stale slots are shed until
        # every sentinel fits (the hung worker never consumed its sentinel,
        # so it is still there to observe).
        import queue as queue_module

        leftovers = []
        deadline = monotonic() + 5  # allow for the queue's feeder latency
        while monotonic() < deadline:
            try:
                leftovers.append(pool.task_queue.get_nowait())
            except (OSError, ValueError):
                break
            except queue_module.Empty:
                if None in leftovers:
                    break
                time.sleep(0.05)
        assert None in leftovers, f"no sentinel ever landed: {leftovers}"
        stale = [item for item in leftovers if item is not None]
        assert len(stale) < 2, f"no stale task was shed for the sentinel: {stale}"

    def test_dying_worker_reports_its_last_messages(self):
        """A worker's messages reach the parent before its next step: the run
        it finished is reported and the run it died on is named, every time."""
        specs = chaos_specs()
        plan = FaultPlan([FaultRule("worker.run", "crash", match=specs[1].label())])
        with plan.activated(set_env=True):
            for trial in range(10):
                pool = WorkerPool(workers=1)
                pool.max_respawns = 0
                try:
                    pool.start()
                    pool.submit("A", specs[0])
                    pool.submit("B", specs[1])
                    reported = []
                    deadline = monotonic() + 30
                    while pool.alive():
                        assert monotonic() < deadline, "worker never died"
                        reported += [t for t, _ in pool.completions(timeout=0.05)]
                    lost = pool.reap()
                    reported += [t for t, _ in pool.completions(timeout=0.05)]
                    assert (reported, lost) == (["A"], ["B"]), f"trial {trial}"
                finally:
                    pool.close()

    def test_threaded_parent_spawns_its_workers(self):
        release = threading.Event()
        helper = threading.Thread(target=release.wait, daemon=True)
        helper.start()
        pool = WorkerPool(workers=1)
        try:
            pool.start()
            assert [type(proc) for proc in pool._workers.values()] == [SpawnProcess]
        finally:
            release.set()
            helper.join()
            pool.close()

    def test_max_respawns_backstop_and_reap_redispatch(self):
        """Satellite: crashing workers are replaced up to the budget; reap()
        names exactly the lost tokens; past the budget the pool reports
        degraded instead of forking forever."""
        specs = chaos_specs()
        plan = FaultPlan([FaultRule("worker.run", "crash")])  # always crash
        pool = WorkerPool(workers=1)
        pool.max_respawns = 2
        with plan.activated(set_env=True):
            pool.start()
            try:
                for round_no, token in enumerate(("a", "b", "c")):
                    pool.submit(token, specs[round_no])
                    deadline = monotonic() + 60
                    # Wait for the crash, consuming the started announcement
                    # so the pool knows which token went down with the worker.
                    while pool.alive() > 0 or token not in pool.in_flight():
                        assert monotonic() < deadline, f"worker never died ({token})"
                        self._drain(pool, seconds=0.1)
                    lost = pool.reap()
                    assert lost == [token]  # exactly the hosted run, no more
                assert pool.respawns == 2
                assert pool.alive() == 0  # budget spent: no replacement
                assert pool.degraded
                health = pool.health()
                assert health["degraded"] is True
                assert health["alive"] == 0 and health["respawns"] == 2
            finally:
                pool.stop(graceful=False)
        assert not pool.degraded  # a stopped pool is not degraded, just stopped


# --------------------------------------------------------------- serve chaos
def _run_service_job(
    tmp_path,
    sweep: dict,
    plan: FaultPlan | None = None,
    policy: RetryPolicy | None = None,
    timeout: float = 180.0,
):
    """Run one sweep on a live CampaignService; returns (job, results, health)."""
    service = CampaignService(
        jobstore_dir=tmp_path / "jobs",
        cache_dir=tmp_path / "cache",
        workers=2,
        tick_s=0.05,
        # A generous default budget: with crash probability 0.3 per attempt,
        # a point needs 8 crashes in a row (~0.007%) to be quarantined by
        # accident, so the bit-identity assertions are statistically stable.
        policy=policy or RetryPolicy(max_attempts=8, backoff_s=0.1, backoff_cap_s=0.5),
    )
    context = plan.activated(set_env=True) if plan is not None else None
    if context is not None:
        context.__enter__()
    try:
        service.start()
        job, created = service.submit(sweep)
        assert created
        deadline = monotonic() + timeout
        while monotonic() < deadline:
            current = service.job(job.job_id)
            if current is not None and current.finished:
                break
            time.sleep(0.1)
        final = service.job(job.job_id)
        assert final is not None and final.finished, "job never reached a terminal state"
        return final, service.results(job.job_id), service.health()
    finally:
        service.shutdown()
        if context is not None:
            context.__exit__(None, None, None)


class TestServeChaos:
    @pytest.mark.slow
    def test_chaos_sweep_completes_bit_identical(self, tmp_path):
        """Crash ~30% of worker runs and corrupt ~20% of cache writes: the
        campaign still finishes with zero failures and every payload
        bit-identical to the fault-free baseline."""
        baseline_job, baseline_results, _ = _run_service_job(
            tmp_path / "baseline", CHAOS_SWEEP
        )
        assert baseline_job.state == "done" and baseline_job.failures == 0
        baseline = {
            r["label"]: r["payload"] for r in baseline_results["records"]
        }

        plan = FaultPlan(
            [
                FaultRule("worker.run", "crash", probability=0.3),
                FaultRule("cache.put", "corrupt_write", probability=0.2),
            ],
            seed=42,
        )
        job, results, health = _run_service_job(tmp_path / "chaos", CHAOS_SWEEP, plan)
        assert job.state == "done", (job.state, job.error, job.quarantined)
        assert job.done == job.total == 6
        assert job.failures == 0 and not job.quarantined
        assert health["faults_active"] is not None  # plan visible in /healthz
        for record in results["records"]:
            assert record["status"] == "ok", record
            assert canonical(record["payload"]) == canonical(
                baseline[record["label"]]
            ), f"payload drift under chaos: {record['label']}"

    @pytest.mark.slow
    def test_acceptance_full_chaos_with_hung_run(self, tmp_path):
        """The ISSUE acceptance scenario in one plan: crashes + corrupt cache
        writes + one run that hangs past its deadline every attempt.  The job
        completes promptly; the hung point is quarantined at exactly
        max_attempts; every other payload is bit-identical to fault-free."""
        baseline_job, baseline_results, _ = _run_service_job(
            tmp_path / "baseline", CHAOS_SWEEP
        )
        baseline = {
            r["label"]: r["payload"] for r in baseline_results["records"]
        }
        hung = chaos_specs()[3]
        plan = FaultPlan(
            [
                FaultRule("worker.run", "hang", seconds=120.0, match=hung.label()),
                FaultRule("worker.run", "crash", probability=0.3),
                FaultRule("cache.put", "corrupt_write", probability=0.2),
            ],
            seed=42,
        )
        # max_attempts=6 keeps an accidental quarantine (a point crashing on
        # every attempt: 0.3^6 per point) vanishingly rare while the matched
        # point — which hangs on *every* attempt — is still quarantined fast:
        # six 3s deadlines plus backoff is ~20s.
        policy = RetryPolicy(
            max_attempts=6, backoff_s=0.1, backoff_cap_s=0.5, deadline_s=3.0
        )
        start = monotonic()
        job, results, _ = _run_service_job(tmp_path / "chaos", CHAOS_SWEEP, plan, policy)
        elapsed = monotonic() - start
        assert elapsed < 120, "the hung run stalled the job"  # 120s hang never waited out
        assert job.state == "failed"  # completed terminally, with the poison run recorded
        assert job.done == job.total == 6
        assert job.failures == 1
        assert len(job.quarantined) == 1
        entry = job.quarantined[0]
        assert entry["label"] == hung.label()
        assert entry["attempts"] == policy.max_attempts  # never dispatched beyond budget
        assert "deadline" in entry["error"]
        statuses = {r["label"]: r for r in results["records"]}
        assert statuses[hung.label()]["status"] == "quarantined"
        for label, record in statuses.items():
            if label == hung.label():
                continue
            assert record["status"] == "ok", record
            assert canonical(record["payload"]) == canonical(baseline[label])

    def test_job_ends_when_its_pool_runs_out_of_workers(self, tmp_path):
        """Regression: once the local pool had spent its respawn budget with
        no node registered, the job's re-dispatched runs sat in a task queue
        no worker read and the job stayed running; now they are quarantined
        and the job fails."""
        plan = FaultPlan([FaultRule("worker.run", "crash")])  # always crash
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=1
        )
        service.pool.max_respawns = 1
        sweep = {
            "experiment_id": "ablation_tuning",
            "grid": {"shifts_nm": [[0.1], [0.2], [0.3]]},
        }
        with plan.activated(set_env=True):
            try:
                service.start()
                job, _ = service.submit(sweep)
                deadline = monotonic() + 60
                while not service.job(job.job_id).finished:
                    assert monotonic() < deadline, "the job outlived its workers"
                    time.sleep(0.1)
            finally:
                service.shutdown()
        final = service.job(job.job_id)
        assert final.state == "failed" and final.failures == final.total == 3
        assert len(final.quarantined) == 3
        assert any("no workers left" in entry["error"] for entry in final.quarantined)
        assert service.pool.respawns == 1

    def test_degraded_pool_is_surfaced_by_health(self, tmp_path):
        """Satellite: /healthz flips status to "degraded" (with the explicit
        boolean) once the respawn budget is spent with reduced capacity."""
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=2
        )
        health = service.health()
        assert health["status"] == "ok" and health["degraded"] is False
        assert health["pool"]["max_respawns"] == service.pool.max_respawns
        assert health["policy"]["max_attempts"] >= 1
        # Simulate a pool that spent its budget with capacity lost (white-box:
        # mark it started with zero live workers rather than burning real
        # processes — the full lifecycle is covered by the backstop test).
        service.pool._started = True
        service.pool.respawns = service.pool.max_respawns
        health = service.health()
        assert health["status"] == "degraded" and health["degraded"] is True
        assert health["pool"]["degraded"] is True

    def test_bad_policy_rejected_at_submit(self, tmp_path):
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=1
        )
        with pytest.raises((KeyError, ValueError)):
            service.submit(dict(CHAOS_SWEEP, policy={"max_attemptz": 2}))
        with pytest.raises(KeyError):
            service.submit(dict(CHAOS_SWEEP, policy="not an object"))

    def test_policy_override_persists_on_the_job(self, tmp_path):
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=1
        )
        job, created = service.submit(
            dict(CHAOS_SWEEP, policy={"max_attempts": 5, "deadline_s": 30})
        )
        assert created
        stored = service.job(job.job_id)
        assert stored.policy == {"max_attempts": 5, "deadline_s": 30}
        effective = service._job_policy(stored)
        assert effective.max_attempts == 5 and effective.deadline_s == 30.0
        # The override is not part of the job identity: same sweep dedupes.
        again, created = service.submit(dict(CHAOS_SWEEP, policy={"max_attempts": 2}))
        assert again.job_id == job.job_id and not created
        assert service.job(job.job_id).policy == {"max_attempts": 2}


# ----------------------------------------------------------- jobstore faults
class TestJobStoreFaults:
    def _job(self) -> JobRecord:
        specs = [RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})]
        return JobRecord(
            job_id=sweep_job_id(specs),
            sweep={"experiment_id": "ablation_tuning"},
            specs=tuple(spec.canonical() for spec in specs),
        )

    def test_save_survives_corrupt_writes(self, tmp_path):
        store = JobStore(tmp_path)
        plan = FaultPlan([FaultRule("jobstore.save", "corrupt_write", max_fires=2)])
        with plan.activated():
            job = store.save(self._job())
        loaded = store.get(job.job_id)
        assert loaded is not None and loaded.to_dict() == job.to_dict()

    def test_save_raises_when_disk_stays_broken(self, tmp_path):
        store = JobStore(tmp_path)
        plan = FaultPlan([FaultRule("jobstore.save", "enospc")])
        with plan.activated():
            with pytest.raises(OSError) as err:
                store.save(self._job())
        assert "job store write failed" in str(err.value)

    def test_quarantined_entries_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.save(self._job())
        entry = {"index": 0, "label": "x", "attempts": 3, "error": "boom"}
        job = store.update(job.job_id, quarantined=(entry,), policy={"max_attempts": 3})
        loaded = store.get(job.job_id)
        assert loaded.quarantined == (entry,)
        assert loaded.policy == {"max_attempts": 3}
        assert len(loaded.summary()["quarantined"]) == 1
        requeued = loaded.requeued(note="fresh chance")
        assert requeued.quarantined == ()  # poison runs get retried on requeue
        assert requeued.policy == {"max_attempts": 3}  # the policy survives


# ------------------------------------------------------------- API + client
class TestClientBackoff:
    @pytest.fixture()
    def daemon(self, tmp_path):
        service = CampaignService(
            jobstore_dir=tmp_path / "jobs", cache_dir=tmp_path / "cache", workers=1
        )
        daemon = ServeDaemon(service, port=0)
        daemon.start()
        yield daemon
        daemon.shutdown()

    def test_client_retries_injected_503s(self, daemon):
        plan = FaultPlan(
            [FaultRule("api.handle", "raise", match="healthz", max_fires=2)]
        )
        client = ServeClient(
            daemon.url, retries=3, backoff_s=0.01, backoff_cap_s=0.05
        )
        with plan.activated():  # in-process: handler threads see it
            health = client.health()
        assert health["status"] == "ok"
        assert plan.counters()[0]["fires"] == 2  # both 503s were absorbed

    def test_client_surfaces_503_after_budget(self, daemon):
        plan = FaultPlan([FaultRule("api.handle", "raise", match="healthz")])
        client = ServeClient(
            daemon.url, retries=1, backoff_s=0.01, backoff_cap_s=0.05
        )
        with plan.activated():
            with pytest.raises(ServeError) as err:
                client.health()
        assert err.value.status == 503
        assert "temporarily unavailable" in str(err.value)

    def test_unexpected_handler_errors_are_json_500(self, daemon):
        plan = FaultPlan([FaultRule("api.handle", "enospc", match="healthz")])
        client = ServeClient(daemon.url, retries=2, backoff_s=0.01)
        with plan.activated():
            with pytest.raises(ServeError) as err:
                client.health()
        assert err.value.status == 500  # terminal shape: not retried
        assert "OSError" in str(err.value)
        assert plan.counters()[0]["fires"] == 1  # exactly one attempt

    def test_definitive_errors_never_retry(self, daemon):
        client = ServeClient(daemon.url, retries=3, backoff_s=0.01)
        start = monotonic()
        with pytest.raises(ServeError) as err:
            client.job("no-such-job")
        assert err.value.status == 404
        assert monotonic() - start < 1.0  # no backoff loop for a 404

    def test_retries_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ServeClient("http://127.0.0.1:1", retries=-1)
