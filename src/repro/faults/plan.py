"""Deterministic, seeded fault injection for the execution stack.

The execution stack (engine executors, serve scheduler, worker pool, caches,
HTTP API) claims a set of robustness invariants: campaigns finish when workers
crash, hung runs cannot stall a job forever, corrupt cache writes never count
as results, clients survive 429s.  This module makes those invariants
*testable* instead of hand-waved: production code is instrumented with named
:func:`fault_point` calls, and an activated :class:`FaultPlan` decides — from
a seeded :mod:`repro.utils.rng` stream — whether each call fires an effect.

Fault points instrumented across the library:

====================  =======================================================
``worker.run``        once per run in :func:`repro.engine.executor.execute_run`
                      or ``execute_batch``, i.e. in every executor (serial,
                      or on a pool worker)
``cache.put``         :meth:`repro.engine.cache.ResultCache.put` write step
``jobstore.save``     :meth:`repro.serve.jobstore.JobStore.save` write step
``api.handle``        the serve daemon's HTTP request dispatch
``node.heartbeat``    a federated node agent's coordinator heartbeat send
                      (``raise`` = the heartbeat is lost in the network — a
                      partition as the coordinator sees it)
``node.lease_renew``  a node agent's lease renewal send
``node.upload``       a node agent's result upload (``corrupt_write`` = the
                      request body is torn mid-transfer)
====================  =======================================================

Effects:

``crash``
    ``os._exit(137)`` — the process dies instantly, exactly like ``kill -9``
    or the OOM killer, mid-run and mid-write.
``raise``
    raises :class:`InjectedFault` (an ordinary exception the surrounding
    error handling must absorb).
``hang``
    sleeps ``seconds`` — a stuck native call / deadlocked run.
``corrupt_write``
    *cooperative*: :func:`fault_point` returns ``"corrupt_write"`` and the
    instrumented write site persists a truncated document instead of the real
    one (a torn write frozen to disk).
``enospc``
    raises ``OSError(ENOSPC)`` — the disk filled up under the writer.

Activation:

* :func:`activate` / :meth:`FaultPlan.activated` for the current process;
* the ``REPRO_FAULTS`` environment variable (the plan's JSON, or ``@path`` to
  a JSON file) — which is what propagates a plan into worker processes.  It
  is read at import time, and re-read once per pid the first time
  :func:`fault_point` runs in a new process: spawn children re-import and hit
  the import hook, fork children inherit the parent's already-imported module
  (inactive plan and all) and hit the per-pid re-check instead.

When no plan is active :func:`fault_point` is a single attribute load and a
``None`` check — zero overhead on production hot paths.

Determinism: each rule draws from a ``numpy`` generator seeded from
``(plan.seed, rule index, point name, pid)``.  Within one process the firing
sequence is a pure function of the plan seed and the call order; the pid term
gives every (re)spawned worker an independent stream, so a run that crashed
its worker genuinely re-rolls on redispatch instead of crash-looping forever.
Per-rule ``fires``/``calls`` counters (and ``max_fires`` caps) are likewise
per-process.
"""

from __future__ import annotations

import errno
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.utils.rng import stable_hash
from repro.utils.validation import ValidationError

__all__ = [
    "ENV_VAR",
    "EFFECTS",
    "FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "activate",
    "active_plan",
    "deactivate",
    "fault_point",
    "load_env_plan",
]

#: Environment variable carrying an active plan (JSON, or ``@path`` to JSON).
ENV_VAR = "REPRO_FAULTS"

#: Supported rule effects (see the module docstring for semantics).
EFFECTS = ("crash", "raise", "hang", "corrupt_write", "enospc")

#: The fault points instrumented in-tree.  Rules may name other points too
#: (tests and plugins can instrument their own code with :func:`fault_point`).
FAULT_POINTS = (
    "worker.run",
    "cache.put",
    "jobstore.save",
    "api.handle",
    "node.heartbeat",
    "node.lease_renew",
    "node.upload",
)


class InjectedFault(RuntimeError):
    """The exception raised by the ``raise`` effect (and nothing else)."""


@dataclass(frozen=True)
class FaultRule:
    """One trigger: *at this point, with this probability, do this*.

    Attributes
    ----------
    point:
        Fault-point name the rule listens on (e.g. ``"worker.run"``).
    effect:
        One of :data:`EFFECTS`.
    probability:
        Chance in ``[0, 1]`` that an eligible call fires (drawn from the
        rule's seeded stream; ``1.0`` always fires and draws nothing).
    match:
        Optional substring filter on the call's ``key`` (e.g. a run label),
        so a rule can target one specific run or experiment.
    seconds:
        Sleep duration for the ``hang`` effect.
    max_fires:
        Per-process cap on how many times the rule fires (``None``: unbounded).
    """

    point: str
    effect: str
    probability: float = 1.0
    match: str = ""
    seconds: float = 5.0
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if not self.point:
            raise ValidationError("FaultRule.point must be a non-empty string")
        if self.effect not in EFFECTS:
            raise ValidationError(
                f"unknown fault effect {self.effect!r}; expected one of {EFFECTS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"FaultRule.probability must be in [0, 1], got {self.probability}"
            )
        if self.seconds < 0:
            raise ValidationError(f"FaultRule.seconds must be >= 0, got {self.seconds}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValidationError(
                f"FaultRule.max_fires must be >= 0, got {self.max_fires}"
            )

    def to_dict(self) -> dict:
        data: dict = {"point": self.point, "effect": self.effect}
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.match:
            data["match"] = self.match
        if self.effect == "hang":
            data["seconds"] = self.seconds
        if self.max_fires is not None:
            data["max_fires"] = self.max_fires
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultRule":
        known = {"point", "effect", "probability", "match", "seconds", "max_fires"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(
                f"unknown fault-rule field(s) {unknown}; accepted: {sorted(known)}"
            )
        max_fires = data.get("max_fires")
        return cls(
            point=str(data.get("point", "")),
            effect=str(data.get("effect", "")),
            probability=float(data.get("probability", 1.0)),  # type: ignore[arg-type]
            match=str(data.get("match", "")),
            seconds=float(data.get("seconds", 5.0)),  # type: ignore[arg-type]
            max_fires=None if max_fires is None else int(max_fires),  # type: ignore[arg-type]
        )


class _RuleState:
    """Per-process mutable bookkeeping for one rule (stream + counters)."""

    __slots__ = ("rng", "calls", "fires")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.calls = 0
        self.fires = 0


class FaultPlan:
    """An ordered set of :class:`FaultRule` triggers under one seed.

    The plan is plain data (JSON round-trippable) plus per-process runtime
    state.  Rule order matters: the first matching rule that decides to fire
    wins for a given :func:`fault_point` call.
    """

    def __init__(self, rules: Sequence[FaultRule | Mapping[str, object]], seed: int = 0):
        self.rules: tuple[FaultRule, ...] = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule)
            for rule in rules
        )
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._pid: int | None = None
        self._states: list[_RuleState] = []

    # ------------------------------------------------------------- firing
    def _process_states(self) -> list[_RuleState]:
        """(Re)build rule states for the current process.

        Detecting a pid change (fork inheritance, or the same object reused
        after a spawn-pickle round trip) gives every process its own seeded
        streams and fresh counters — a respawned worker re-rolls instead of
        deterministically repeating its predecessor's crash.
        """
        pid = os.getpid()
        if self._pid != pid:
            self._pid = pid
            self._states = [
                _RuleState(
                    np.random.default_rng(
                        np.random.SeedSequence(
                            [self.seed, index, stable_hash(rule.point), pid]
                        )
                    )
                )
                for index, rule in enumerate(self.rules)
            ]
        return self._states

    def fire(self, point: str, key: str = "") -> FaultRule | None:
        """Return the first rule firing for this call, or ``None``.

        Pure decision logic — effect application lives in :func:`fault_point`
        so the plan itself stays side-effect free (and unit-testable).
        """
        with self._lock:
            states = self._process_states()
            for rule, state in zip(self.rules, states):
                if rule.point != point:
                    continue
                if rule.match and rule.match not in key:
                    continue
                state.calls += 1
                if rule.max_fires is not None and state.fires >= rule.max_fires:
                    continue
                if rule.probability >= 1.0 or state.rng.random() < rule.probability:
                    state.fires += 1
                    return rule
        return None

    def counters(self) -> list[dict]:
        """Per-rule ``{"calls", "fires"}`` counters (this process)."""
        with self._lock:
            states = self._process_states()
            return [
                {"point": rule.point, "effect": rule.effect,
                 "calls": state.calls, "fires": state.fires}
                for rule, state in zip(self.rules, states)
            ]

    # ------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        known = {"seed", "rules"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(
                f"unknown fault-plan field(s) {unknown}; accepted: {sorted(known)}"
            )
        rules = data.get("rules", ())
        if not isinstance(rules, Sequence) or isinstance(rules, (str, bytes)):
            raise ValidationError("fault-plan 'rules' must be a list of rule objects")
        return cls(
            rules=[FaultRule.from_dict(rule) for rule in rules],  # type: ignore[arg-type]
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(data, Mapping):
            raise ValidationError("fault plan must be a JSON object")
        return cls.from_dict(data)

    def describe(self) -> str:
        """One line per rule, for the serve startup warning."""
        return "; ".join(
            f"{rule.point}->{rule.effect}"
            + (f" p={rule.probability}" if rule.probability != 1.0 else "")
            + (f" match={rule.match!r}" if rule.match else "")
            for rule in self.rules
        ) or "(empty plan)"

    # --------------------------------------------------------- activation
    @contextmanager
    def activated(self, set_env: bool = False) -> Iterator["FaultPlan"]:
        """Context manager activating the plan (and restoring the previous).

        With ``set_env=True`` the plan is also exported to :data:`ENV_VAR`
        for the duration, so worker processes spawned inside the block
        inherit and apply it too.
        """
        previous = active_plan()
        previous_env = os.environ.get(ENV_VAR)
        activate(self)
        if set_env:
            os.environ[ENV_VAR] = self.to_json()
        try:
            yield self
        finally:
            if previous is not None:
                activate(previous)
            else:
                deactivate()
            if set_env:
                if previous_env is None:
                    os.environ.pop(ENV_VAR, None)
                else:
                    os.environ[ENV_VAR] = previous_env


# -------------------------------------------------------------- module state
_ACTIVE: FaultPlan | None = None

#: Pid that last consulted :data:`ENV_VAR`.  A mismatch in :func:`fault_point`
#: means this process was forked after import (or the variable was set for
#: children only) — re-check the environment exactly once for the new pid.
_ENV_PID: int | None = None


def activate(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide active plan; returns it."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def deactivate() -> None:
    """Clear the active plan (fault points become no-ops again)."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> FaultPlan | None:
    """The currently active plan, or ``None``."""
    return _ACTIVE


def load_env_plan(environ: Mapping[str, str] | None = None) -> FaultPlan | None:
    """Parse a plan from :data:`ENV_VAR` (``None`` when unset/empty).

    The value is either the plan JSON itself or ``@path`` pointing at a JSON
    file (handy when the plan is too unwieldy for an environment variable).
    """
    raw = (environ if environ is not None else os.environ).get(ENV_VAR, "").strip()
    if not raw:
        return None
    if raw.startswith("@"):
        raw = Path(raw[1:]).read_text()
    return FaultPlan.from_json(raw)


def fault_point(name: str, key: str = "") -> str | None:
    """Declare a named fault point; apply the active plan's effect, if any.

    ``key`` is free-form context (a run label, a cache path) that rules can
    ``match`` against.  Returns ``"corrupt_write"`` when the caller — a write
    site — should persist a deliberately torn document, ``None`` otherwise.
    Other effects act here directly: ``crash`` exits the process, ``raise``
    raises :class:`InjectedFault`, ``enospc`` raises ``OSError(ENOSPC)`` and
    ``hang`` sleeps before returning ``None``.

    With no active plan this is one global load, a ``None`` check and a pid
    compare (the pid compare catches fork children that inherited an
    inactive module but carry :data:`ENV_VAR` — they load the plan here).
    """
    global _ENV_PID
    plan = _ACTIVE
    if plan is None:
        pid = os.getpid()
        if pid == _ENV_PID:
            return None
        _ENV_PID = pid
        try:
            plan = load_env_plan()
        except (ValidationError, OSError) as exc:
            print(f"warning: ignoring malformed {ENV_VAR}: {exc}", file=sys.stderr)
            return None
        if plan is None:
            return None
        activate(plan)
    rule = plan.fire(name, key)
    if rule is None:
        return None
    detail = f"{name} ({key})" if key else name
    if rule.effect == "crash":
        os._exit(137)
    if rule.effect == "raise":
        raise InjectedFault(f"injected fault at {detail}")
    if rule.effect == "enospc":
        raise OSError(errno.ENOSPC, f"injected ENOSPC at {detail}")
    if rule.effect == "hang":
        time.sleep(rule.seconds)
        return None
    return rule.effect  # "corrupt_write" — cooperative, applied by the caller


# Import-time activation from the environment: spawned worker processes
# inherit REPRO_FAULTS and pick the plan up here on their own import.  A
# malformed value must never take the production stack down — warn and ignore.
_ENV_PID = os.getpid()
try:
    _env_plan = load_env_plan()
except (ValidationError, OSError) as exc:
    print(f"warning: ignoring malformed {ENV_VAR}: {exc}", file=sys.stderr)
else:
    if _env_plan is not None:
        _ACTIVE = _env_plan
