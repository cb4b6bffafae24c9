"""Tests for repro.attacks.search: spaces, optimizers, Pareto, driver, CLI.

Every search generation is one ``Campaign``; the driver tests run it on the
three executors (serial, where a generation is one stacked group; a worker
pool; a live ``repro serve`` daemon) against real ``cnn_mnist`` candidate
evaluations — the workload trains once per process and is cached, so these
stay fast.  The kill-resume test drives the real CLI in a subprocess and
SIGKILLs it mid-search to prove the content-addressed cache resumes
interrupted searches.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.attacks.hotspot import HotspotAttackConfig
from repro.attacks.registry import PARAM_METADATA_KEYS, attack_kind_info, get_attack_kind
from repro.attacks.search import (
    AttackSearch,
    AttackSearchConfig,
    Candidate,
    MuPlusLambdaES,
    ParetoPoint,
    RandomSearch,
    SearchError,
    SuccessiveHalving,
    dominates,
    front_dominates,
    front_payload,
    make_optimizer,
    pareto_front,
    space_for_kind,
)
from repro.attacks.search.space import Dimension, quantize
from repro.engine.cache import ResultCache
from repro.engine.cli import main as cli_main
from repro.engine.executor import RetryPolicy
from repro.faults import FaultPlan, FaultRule
from repro.utils.validation import ValidationError

REPO_ROOT = Path(__file__).resolve().parent.parent


def _free_port() -> int:
    """A localhost port nothing listens on."""
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ------------------------------------------------------------- search space
class TestSearchSpace:
    def test_laser_power_space_dims(self):
        space = space_for_kind("laser_power")
        assert [dim.name for dim in space.dims] == ["fraction", "residual_power"]
        fraction, residual = space.dims
        assert (fraction.lower, fraction.upper) == (0.005, 0.10)
        assert (residual.lower, residual.upper) == (0.0, 1.0)

    def test_hotspot_space_excludes_unsearchable_fields(self):
        space = space_for_kind("hotspot")
        names = [dim.name for dim in space.dims]
        assert names == ["fraction", "heater_power_mw"]
        assert space.dims[1].log  # heater power is sampled logarithmically

    def test_triggered_space_is_fraction_only(self):
        # every triggered params field opts out with search=False
        space = space_for_kind("triggered")
        assert [dim.name for dim in space.dims] == ["fraction"]

    def test_decode_respects_bounds_and_quantizes(self):
        space = space_for_kind("laser_power", fraction_range=(0.01, 0.08))
        lo = space.decode(np.zeros(space.size))
        hi = space.decode(np.ones(space.size))
        assert lo == {"fraction": 0.01, "params": {"residual_power": 0.0}}
        assert hi == {"fraction": 0.08, "params": {"residual_power": 1.0}}
        mid = space.decode(np.array([1 / 3, 2 / 3]))
        assert mid["fraction"] == quantize(0.01 + (0.08 - 0.01) / 3)
        assert mid["params"]["residual_power"] == quantize(2 / 3)

    def test_log_dimension_decodes_geometrically(self):
        dim = Dimension(name="p", lower=1.0, upper=100.0, log=True)
        assert dim.decode(0.0) == 1.0
        assert dim.decode(1.0) == 100.0
        assert dim.decode(0.5) == 10.0  # geometric midpoint

    def test_categorical_dimension_decode(self):
        dim = Dimension(name="mode", kind="categorical", choices=("a", "b", "c"))
        assert [dim.decode(u) for u in (0.0, 0.4, 0.9, 1.0)] == ["a", "b", "c", "c"]

    def test_integer_dimension_decode(self):
        dim = Dimension(name="rows", kind="integer", lower=4, upper=8)
        assert dim.decode(0.0) == 4 and dim.decode(1.0) == 8
        assert isinstance(dim.decode(0.5), int)

    def test_invalid_fraction_range_rejected(self):
        with pytest.raises(ValidationError):
            space_for_kind("hotspot", fraction_range=(0.0, 0.1))
        with pytest.raises(ValidationError):
            space_for_kind("hotspot", fraction_range=(0.2, 0.1))

    def test_quantize_six_significant_digits(self):
        assert quantize(0.123456789) == 0.123457
        assert quantize(0.0) == 0.0
        assert quantize(1234567.89) == 1234570.0


# ------------------------------------------- bounds metadata and validation
class TestParamBounds:
    def test_attack_kind_info_exposes_param_info(self):
        rows = {row["kind"]: row for row in attack_kind_info()}
        info = rows["hotspot"]["param_info"]
        assert info["heater_power_mw"]["bounds"] == (1.0, 2000.0)
        assert info["heater_power_mw"]["log"] is True
        assert info["heater_power_mw"]["searchable"] is True
        assert info["grid_rows"]["searchable"] is False
        assert rows["triggered"]["param_info"]["trigger"]["choices"] == (
            "always_on", "inference_count", "external",
        )
        assert "bounds" in PARAM_METADATA_KEYS and "choices" in PARAM_METADATA_KEYS

    def test_coerce_params_rejects_out_of_bounds_mapping(self):
        with pytest.raises(ValidationError, match="hotspot.heater_power_mw"):
            get_attack_kind("hotspot").coerce_params({"heater_power_mw": 1e6})
        with pytest.raises(ValidationError, match="residual_power"):
            get_attack_kind("laser_power").coerce_params({"residual_power": -0.1})
        with pytest.raises(ValidationError, match="leakage_power_mw"):
            get_attack_kind("crosstalk").coerce_params({"leakage_power_mw": 0.0})

    def test_coerce_params_rejects_out_of_bounds_instance(self):
        config = HotspotAttackConfig(grid_rows=2)
        with pytest.raises(ValidationError, match="hotspot.grid_rows"):
            get_attack_kind("hotspot").coerce_params(config)

    def test_coerce_params_rejects_bad_choice(self):
        with pytest.raises(ValidationError, match="trigger"):
            get_attack_kind("triggered").coerce_params({"trigger": "bogus"})

    def test_coerce_params_accepts_in_bounds_values(self):
        params = get_attack_kind("hotspot").coerce_params(
            {"heater_power_mw": 1500.0}
        )
        assert params.heater_power_mw == 1500.0
        assert get_attack_kind("laser_power").coerce_params(
            {"residual_power": 0.0}
        ).residual_power == 0.0


# --------------------------------------------------------------- optimizers
def _space():
    return space_for_kind("laser_power")


class TestOptimizers:
    def test_random_search_is_seed_deterministic(self):
        a = RandomSearch(_space(), seed=7, generation_size=5, placements=1)
        b = RandomSearch(_space(), seed=7, generation_size=5, placements=1)
        c = RandomSearch(_space(), seed=8, generation_size=5, placements=1)
        asked_a, asked_b, asked_c = a.ask(), b.ask(), c.ask()
        assert [x.vector for x in asked_a] == [x.vector for x in asked_b]
        assert [x.vector for x in asked_a] != [x.vector for x in asked_c]
        assert all(0.0 <= v <= 1.0 for cand in asked_a for v in cand.vector)
        assert all(cand.cost == 1 for cand in asked_a)
        assert not a.done

    def test_candidate_decodes_through_space(self):
        opt = RandomSearch(_space(), seed=0, generation_size=2, placements=3)
        candidate = opt.ask()[0]
        assert isinstance(candidate, Candidate)
        assert set(candidate.values) == {"fraction", "params"}
        assert candidate.placements == 3

    def test_es_keeps_top_mu_parents(self):
        opt = MuPlusLambdaES(
            _space(), seed=1, generation_size=4, placements=1, mu=2, sigma=0.1
        )
        first = opt.ask()  # random cold start
        opt.tell(first, [0.1, 0.9, 0.3, 0.7])
        parents = [tuple(vec) for vec, _ in opt._parents]
        assert parents == [first[1].vector, first[3].vector]
        children = opt.ask()
        assert len(children) == 4
        # deterministic: an identical optimizer retraces the same children
        twin = MuPlusLambdaES(
            _space(), seed=1, generation_size=4, placements=1, mu=2, sigma=0.1
        )
        twin.tell(twin.ask(), [0.1, 0.9, 0.3, 0.7])
        assert [c.vector for c in twin.ask()] == [c.vector for c in children]

    def test_halving_schedule_and_done(self):
        opt = SuccessiveHalving(
            _space(), seed=2, generation_size=4, placements=1, eta=2
        )
        rung0 = opt.ask()
        assert len(rung0) == 4 and all(c.placements == 1 for c in rung0)
        opt.tell(rung0, [0.4, 0.1, 0.8, 0.2])
        rung1 = opt.ask()
        assert len(rung1) == 2 and all(c.placements == 2 for c in rung1)
        assert rung1[0].vector == rung0[2].vector  # best survivor first
        opt.tell(rung1, [0.5, 0.6])
        rung2 = opt.ask()
        assert len(rung2) == 1 and rung2[0].placements == 4
        opt.tell(rung2, [0.7])
        assert opt.done and opt.ask() == []

    def test_make_optimizer_strips_foreign_kwargs(self):
        opt = make_optimizer(
            "random", _space(), seed=0, generation_size=2, placements=1,
            mu=None, sigma=0.3, eta=3,
        )
        assert isinstance(opt, RandomSearch)
        with pytest.raises(ValidationError):
            make_optimizer("annealing", _space())


# ------------------------------------------------------------------- pareto
class TestPareto:
    def test_dominates(self):
        a = ParetoPoint(stealth=10, damage=0.5)
        assert dominates(a, ParetoPoint(stealth=20, damage=0.5))
        assert dominates(a, ParetoPoint(stealth=10, damage=0.4))
        assert not dominates(a, ParetoPoint(stealth=10, damage=0.5))
        assert not dominates(a, ParetoPoint(stealth=5, damage=0.6))

    def test_pareto_front_filters_and_orders(self):
        points = [
            ParetoPoint(stealth=50, damage=0.30, label="mid"),
            ParetoPoint(stealth=10, damage=0.10, label="stealthy"),
            ParetoPoint(stealth=50, damage=0.20, label="dominated"),
            ParetoPoint(stealth=100, damage=0.90, label="loud"),
            ParetoPoint(stealth=10, damage=0.10, label="duplicate"),
        ]
        front = pareto_front(points)
        assert [p.label for p in front] == ["stealthy", "mid", "loud"]

    def test_front_dominates(self):
        reference = [
            ParetoPoint(stealth=100, damage=0.2),
            ParetoPoint(stealth=500, damage=0.5),
        ]
        better = [ParetoPoint(stealth=80, damage=0.6)]
        assert front_dominates(better, reference)
        partial = [ParetoPoint(stealth=80, damage=0.3)]  # misses the 0.5 point
        assert not front_dominates(partial, reference)
        assert not front_dominates([], reference)
        assert not front_dominates(reference, reference)  # equal: no strict win
        assert front_dominates(
            [ParetoPoint(stealth=80, damage=0.49)], reference, tol=0.02
        )

    def test_front_payload(self):
        payload = front_payload(
            [ParetoPoint(stealth=3, damage=0.25, label="x", meta={"f": 0.01})]
        )
        assert payload == [
            {
                "num_attacked_mrs": 3,
                "accuracy_drop": 0.25,
                "label": "x",
                "meta": {"f": 0.01},
            }
        ]


# ------------------------------------------------------------------- driver
def _config(**overrides) -> AttackSearchConfig:
    defaults = dict(
        kind="laser_power",
        model="cnn_mnist",
        optimizer="random",
        budget=6,
        generation_size=3,
        placements=1,
        seed=3,
    )
    defaults.update(overrides)
    return AttackSearchConfig(**defaults)


class TestAttackSearchDriver:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            _config(optimizer="annealing")
        with pytest.raises(ValidationError):
            _config(budget=0)

    def test_backends_produce_identical_trajectories(self, tmp_path):
        # Serial generations run as stacked groups; pool workers evaluate
        # one candidate per run.
        stacked = AttackSearch(_config()).run()
        pool_cache = ResultCache(tmp_path / "pool")
        pooled = AttackSearch(_config(), cache=pool_cache, workers=2).run()
        assert stacked.trajectory_json() == pooled.trajectory_json()
        assert front_payload(stacked.front) == front_payload(pooled.front)
        # One pool serves every generation: its two workers ran all candidates.
        pids = {r.provenance["pid"] for r in pool_cache.records("fig7_candidate")}
        assert pooled.generations == 2 and 1 <= len(pids) <= 2
        assert stacked.evaluations == 6 and stacked.generations == 2
        assert len(stacked.front) >= 1
        assert stacked.baseline > 0.5  # trained workload, sane clean accuracy

    def test_cache_resume_skips_completed_candidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fresh = AttackSearch(_config(), cache=cache).run()
        assert fresh.executed == len(fresh.candidates) and fresh.cache_hits == 0
        again = AttackSearch(_config(), cache=cache).run()
        assert again.executed == 0
        assert again.cache_hits == len(fresh.candidates)
        assert again.trajectory_json() == fresh.trajectory_json()

    def test_partial_cache_resumes_only_missing_candidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # a shorter run under the same seed covers exactly the first generation
        partial = AttackSearch(_config(budget=3), cache=cache).run()
        assert partial.executed == 3
        full = AttackSearch(_config(), cache=cache).run()
        assert full.cache_hits == 3 and full.executed == len(full.candidates) - 3
        reference = AttackSearch(_config()).run()
        assert full.trajectory_json() == reference.trajectory_json()

    def test_default_search_honours_the_retry_policy(self):
        """A one-shot injected raise fails the default search at one attempt,
        and a second attempt lands on the fault-free trajectory."""

        def one_raise() -> FaultPlan:
            return FaultPlan([FaultRule("worker.run", "raise", max_fires=1)])

        with one_raise().activated():
            with pytest.raises(SearchError, match="1 candidate .*InjectedFault"):
                AttackSearch(_config(), retry=RetryPolicy(max_attempts=1)).run()
        with one_raise().activated():
            retried = AttackSearch(
                _config(), retry=RetryPolicy(max_attempts=2, backoff_s=0.01)
            ).run()
        assert retried.executed == len(retried.candidates)
        assert retried.trajectory_json() == AttackSearch(_config()).run().trajectory_json()

    def test_evolutionary_and_halving_run_end_to_end(self):
        es = AttackSearch(
            _config(optimizer="evolutionary", budget=6, mu=1)
        ).run()
        halving = AttackSearch(
            _config(optimizer="halving", budget=8, generation_size=4)
        ).run()
        assert es.generations == 2 and len(es.candidates) == 6
        assert halving.generations >= 2
        # halving re-evaluates survivors at doubled placements
        assert {c["placements"] for c in halving.candidates} >= {1, 2}

    def test_payload_shape_and_best(self):
        result = AttackSearch(_config()).run()
        payload = result.to_payload()
        assert payload["kind"] == "laser_power"
        assert payload["num_candidates"] == len(payload["candidates"])
        assert payload["evaluations"] == 6
        for key in ("executed", "cache_hits", "duration_s"):
            assert key not in payload  # payload must stay execution-independent
        best = payload["best"]
        assert best["damage_per_mr"] == max(
            c["damage_per_mr"] for c in payload["candidates"]
        )
        fronts = payload["front"]
        stealths = [p["num_attacked_mrs"] for p in fronts]
        assert stealths == sorted(stealths)

    def test_searched_fronts_dominate_fixed_grid_at_equal_budget(self):
        """Searching the bounded space beats enumerating the fixed grid.

        The grid is fig7_grid's fraction axis with the kind's default physical
        parameters, 8 placements per point, evaluated through the same
        candidate machinery as the search; each optimizer gets exactly the
        grid's 24 scenario evaluations.
        """
        from repro.analysis.experiments import candidate_payloads_batched, get_experiment

        fractions, placements = (0.01, 0.05, 0.10), 8
        descriptor = get_experiment("fig7_candidate")
        param_sets = []
        for fraction in fractions:
            params = descriptor.resolve_params(
                {"kind": "laser_power", "fraction": fraction, "placements": placements}
            )
            params.pop("seed")
            param_sets.append(params)
        grid = pareto_front([
            ParetoPoint(
                stealth=int(payload["num_attacked_mrs"]),
                damage=float(payload["drop_mean"]),
                label=f"grid[fraction={fraction}]",
            )
            for fraction, payload in zip(
                fractions, candidate_payloads_batched(param_sets, seed=0)
            )
        ])
        budget = len(fractions) * placements
        for optimizer in ("random", "evolutionary"):
            result = AttackSearch(
                _config(optimizer=optimizer, budget=budget, generation_size=8, seed=0)
            ).run()
            assert result.evaluations == budget
            assert front_dominates(result.front, grid), optimizer

    def test_kill_resume_from_result_cache(self, tmp_path):
        """SIGKILL a real CLI search mid-run; the rerun resumes from cache."""
        cache_dir = tmp_path / "cache"
        argv = [
            sys.executable, "-m", "repro", "search", "laser_power",
            "--budget", "12", "--generation", "4", "--placements", "1",
            "--seed", "5", "--cache-dir", str(cache_dir),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            argv, env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill it: full-cache resume
                done = len(list(ResultCache(cache_dir).records("fig7_candidate")))
                if done >= 1:
                    proc.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.05)
            else:
                pytest.fail("search subprocess produced no cached record in time")
        finally:
            proc.kill()
            proc.wait()
        cached = len(list(ResultCache(cache_dir).records("fig7_candidate")))
        assert cached >= 1
        config = _config(budget=12, generation_size=4, seed=5)
        resumed = AttackSearch(config, cache=ResultCache(cache_dir)).run()
        assert resumed.cache_hits >= 1
        assert resumed.cache_hits + resumed.executed == len(resumed.candidates)
        reference = AttackSearch(config).run()  # fresh, no cache
        assert resumed.trajectory_json() == reference.trajectory_json()


# ------------------------------------------------------------ serial groups
class TestSerialGroups:
    """The serial executor runs due same-seed ``fig7_candidate`` runs in one
    call of the experiment's batch runner."""

    FOUR = ({"fraction": 0.01}, {"fraction": 0.03}, {"fraction": 0.05, "block": "fc"},
            {"fraction": 0.08})

    @pytest.fixture
    def batch_calls(self, monkeypatch) -> list:
        """The sizes of the ``fig7_candidate`` batch calls, in call order."""
        import dataclasses

        from repro.analysis import experiments

        calls: list[int] = []

        def counting(param_sets, seed):
            calls.append(len(param_sets))
            return experiments.candidate_payloads_batched(param_sets, seed)

        descriptor = experiments.EXPERIMENTS["fig7_candidate"]
        monkeypatch.setitem(
            experiments.EXPERIMENTS, "fig7_candidate",
            dataclasses.replace(descriptor, batch=counting),
        )
        return calls

    @staticmethod
    def _specs(*overrides, seeds=None):
        from repro.analysis.experiments import get_experiment

        candidate = get_experiment("fig7_candidate")
        seeds = seeds or [0] * len(overrides)
        return [
            candidate.spec({"kind": "laser_power", "placements": 1, **params}, seed)
            for params, seed in zip(overrides, seeds)
        ]

    @staticmethod
    def _assert_one_at_a_time_payloads(specs, records):
        from repro.analysis.experiments import get_experiment

        candidate = get_experiment("fig7_candidate")
        for spec, record in zip(specs, records):
            if record.ok:
                assert record.payload == candidate.run(spec.params, seed=spec.seed)

    def test_one_batch_call_with_one_at_a_time_payloads(self, batch_calls):
        from repro.engine.campaign import Campaign

        specs = self._specs(*self.FOUR)
        records = Campaign(specs).run().records
        assert batch_calls == [len(specs)]
        assert all(record.ok for record in records)
        assert {record.provenance["executor"] for record in records} == {"serial"}
        assert len({record.started_at for record in records}) == 1
        self._assert_one_at_a_time_payloads(specs, records)

    def test_groups_split_by_seed_and_size(self, batch_calls, monkeypatch):
        from repro.engine import executor
        from repro.engine.campaign import Campaign

        monkeypatch.setattr(executor, "_MAX_GROUP_RUNS", 2)
        specs = self._specs(*self.FOUR, {"fraction": 0.02}, seeds=[0, 0, 0, 1, 1])
        records = Campaign(specs).run().records
        # Groups: two of seed 0, the third alone (its runner), two of seed 1.
        assert batch_calls == [2, 2]
        assert all(record.ok for record in records)
        self._assert_one_at_a_time_payloads(specs, records)

    def test_poison_candidate_fails_alone(self, batch_calls):
        from repro.engine.campaign import Campaign

        specs = self._specs({"fraction": 0.01}, {"fraction": 0.03, "variant": "bogus"},
                            {"fraction": 0.05})
        records = Campaign(specs).run().records
        assert batch_calls == [3]  # it raised; then each run went alone
        assert [record.ok for record in records] == [True, False, True]
        assert "bogus" in records[1].error
        self._assert_one_at_a_time_payloads(specs, records)

    def test_injected_raise_fails_only_its_run(self, batch_calls):
        from repro.engine.campaign import Campaign

        specs = self._specs(*self.FOUR)
        plan = FaultPlan([FaultRule("worker.run", "raise", match=specs[1].label())])
        with plan.activated():
            records = Campaign(specs).run().records
        assert batch_calls == [3]
        assert [record.ok for record in records] == [True, False, True, True]
        assert "InjectedFault" in records[1].error
        self._assert_one_at_a_time_payloads(specs, records)


# -------------------------------------------------------------------- serve
class TestServeBackend:
    @pytest.fixture(scope="class")
    def daemon(self, tmp_path_factory):
        from repro.serve.api import ServeDaemon
        from repro.serve.service import CampaignService

        tmp = tmp_path_factory.mktemp("search-serve")
        service = CampaignService(
            jobstore_dir=tmp / "jobs", cache_dir=tmp / "cache", workers=2
        )
        daemon = ServeDaemon(service, port=0)
        daemon.start()
        yield daemon
        daemon.shutdown()

    def test_search_generations_run_as_serve_sweeps(self, daemon):
        from repro.serve.client import ServeClient

        config = _config(budget=4, generation_size=2)
        search = AttackSearch(config, client=ServeClient(daemon.url))
        assert search.executor.kind == "serve"
        remote = search.run()
        local = AttackSearch(config).run()
        assert remote.trajectory_json() == local.trajectory_json()
        assert remote.executed + remote.cache_hits == len(remote.candidates)

    def test_failed_candidates_raise_search_error(self, daemon):
        from repro.serve.client import ServeClient

        search = AttackSearch(
            _config(model="nope", budget=2, generation_size=2),
            client=ServeClient(daemon.url),
        )
        with pytest.raises(SearchError, match="failed; quarantined candidates: .*nope"):
            search.run()

    def test_unreachable_daemon_raises_search_error(self):
        from repro.serve.client import ServeClient

        search = AttackSearch(
            _config(budget=2, generation_size=2),
            client=ServeClient(f"http://127.0.0.1:{_free_port()}", retries=0),
        )
        with pytest.raises(SearchError, match="cannot reach"):
            search.run()

    def test_daemon_cache_hits_count_as_cache_hits(self, daemon):
        from repro.serve.client import ServeClient

        config = _config(budget=4, generation_size=2, seed=9)
        fresh = AttackSearch(config, client=ServeClient(daemon.url)).run()
        assert fresh.executed == len(fresh.candidates) and fresh.cache_hits == 0
        # The identical jobs are already done: the daemon serves every record.
        again = AttackSearch(config, client=ServeClient(daemon.url)).run()
        assert again.executed == 0 and again.cache_hits == len(again.candidates)
        assert again.trajectory_json() == fresh.trajectory_json()

    def test_local_cache_replays_without_submitting(self, daemon, tmp_path):
        from repro.serve.client import ServeClient

        config = _config(budget=4, generation_size=2, seed=7)
        cache = ResultCache(tmp_path / "local")
        first = AttackSearch(config, cache=cache, client=ServeClient(daemon.url)).run()
        assert len(list(cache.records("fig7_candidate"))) == len(first.candidates)
        # Every candidate is a local cache hit, so no daemon is contacted.
        nowhere = ServeClient(f"http://127.0.0.1:{_free_port()}", retries=0)
        replay = AttackSearch(config, cache=cache, client=nowhere).run()
        assert replay.executed == 0 and replay.cache_hits == len(first.candidates)
        assert replay.trajectory_json() == first.trajectory_json()

    def test_retry_policy_reaches_the_job(self, daemon, capsys):
        """Retry flags reach the job as partial overrides of the daemon's policy."""
        from repro.serve.client import ServeClient
        from repro.serve.service import DEFAULT_POLICY

        client = ServeClient(daemon.url)
        before = {job["job_id"] for job in client.jobs()}
        assert cli_main([
            "search", "laser_power", "--budget", "2", "--generation", "2",
            "--placements", "1", "--seed", "11", "--serve", "--url", daemon.url,
            "--retry-backoff", "0.05", "--no-cache", "--json", "-q",
        ]) == 0
        capsys.readouterr()
        [job] = [job for job in client.jobs() if job["job_id"] not in before]
        assert job["policy"] == {"backoff_s": 0.05}
        effective = RetryPolicy.from_dict(job["policy"], default=DEFAULT_POLICY)
        assert effective.max_attempts == DEFAULT_POLICY.max_attempts == 3

    def test_whole_retry_policy_replaces_the_daemons(self, daemon):
        from repro.serve.client import ServeClient

        client = ServeClient(daemon.url)
        policy = RetryPolicy(max_attempts=4, backoff_s=0.05)
        before = {job["job_id"] for job in client.jobs()}
        AttackSearch(
            _config(budget=2, generation_size=2, seed=12), client=client, retry=policy
        ).run()
        [job] = [job for job in client.jobs() if job["job_id"] not in before]
        assert job["policy"] == policy.to_dict()


# ----------------------------------------------------------- experiments/CLI
class TestExperimentAndCli:
    def test_fig7_adversarial_experiment_matches_driver(self):
        from repro.analysis.experiments import get_experiment

        payload = get_experiment("fig7_adversarial").run(
            {"kind": "laser_power", "budget": 4, "generation_size": 2,
             "placements": 1},
            seed=3,
        )
        direct = AttackSearch(
            _config(budget=4, generation_size=2, seed=3)
        ).run().to_payload()
        assert payload == direct

    def test_cli_search_json_and_cache_determinism(self, tmp_path, capsys):
        argv = [
            "search", "laser_power", "--budget", "4", "--generation", "2",
            "--placements", "1", "--seed", "3", "--json", "-q",
            "--cache-dir", str(tmp_path),
        ]
        assert cli_main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli_main(argv) == 0  # second run: all cache hits
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["front"] and first["num_candidates"] == 4

    def test_cli_search_rejects_bad_args(self, capsys):
        assert cli_main(
            ["search", "laser_power", "--fraction-range", "nope"]
        ) == 2
        assert "fraction-range" in capsys.readouterr().err
        assert cli_main(["search", "not_a_kind", "--budget", "2"]) == 1
        assert "not_a_kind" in capsys.readouterr().err
        # Failing candidates are one error line and exit 1, not a traceback.
        assert cli_main([
            "search", "laser_power", "--variant", "bogus", "--budget", "2",
            "--generation", "2", "--placements", "1", "--no-cache",
        ]) == 1
        err = capsys.readouterr().err
        assert "error: 2 candidate evaluation(s) failed" in err and "bogus" in err

    def test_cli_search_has_no_serial_switch(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["search", "laser_power", "--serial"])
        assert exit_info.value.code == 2
        assert "--serial" in capsys.readouterr().err

    def test_cli_attacks_shows_bounds_and_choices(self, capsys):
        assert cli_main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert "[1..2000,log]" in out  # hotspot heater bounds
        assert "{always_on|inference_count|external}" in out
        assert cli_main(["attacks", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_kind = {row["kind"]: row for row in payload["kinds"]}
        assert by_kind["laser_power"]["param_info"]["residual_power"]["bounds"] == [
            0.0, 1.0,
        ]

    def test_cli_report_includes_pareto_section(self, tmp_path, capsys):
        run = [
            "search", "laser_power", "--budget", "4", "--generation", "2",
            "--placements", "1", "--seed", "3", "--json", "-q",
            "--cache-dir", str(tmp_path),
        ]
        assert cli_main(run) == 0
        searched = json.loads(capsys.readouterr().out)["front"]
        assert cli_main(["report", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Pareto front —" in out and "laser_power" in out
        assert cli_main(["report", "--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        reported = payload["pareto"]["cnn_mnist/-/laser_power"]

        def objectives(front):
            return [
                (point["num_attacked_mrs"], point["accuracy_drop"], point["label"])
                for point in front
            ]

        assert reported and objectives(reported) == objectives(searched)
