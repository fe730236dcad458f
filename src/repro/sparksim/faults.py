"""Deterministic fault injection for the Spark simulator.

Section IV of the paper motivates the whole provider-side vision with the
cost of failure: "any failed test execution is expensive and has a long
fix-execute-debug cycle".  A tuning service that only ever sees clean
executions is untested exactly where it matters, so this module makes
failure a first-class, *reproducible* input: a :class:`FaultPlan` attached
to a :class:`~repro.sparksim.simulator.SparkSimulator` decides, as a pure
function of the plan and the execution's noise seed, which faults strike
a given run.

Determinism contract: :meth:`FaultPlan.draw` uses its own generator
derived from ``(salt, seed)`` — it never touches the simulator's noise
stream — so (a) the same request always experiences the same faults, no
matter how the engine groups or retries it (fault scenarios are
cacheable under the engine's seed-keyed memoization), and (b) a plan
whose faults do not fire leaves the execution bit-identical to a run
with no plan at all.

Every fault changes the :class:`ExecutionResult` itself and is applied
inside the simulator: ``executor_loss`` (a fraction of executors die
mid-run; in-flight work re-runs and the remaining stages run on fewer
slots), ``straggler`` (one stage's tasks slow down), ``oom_kill`` (the
application is killed at a stage, a failed run), and ``env_spike`` (a
transient interference burst multiplies the environment factors for
this run only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..cloud.interference import Environment

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultDraw",
    "FaultPlan",
    "executor_loss",
    "straggler",
    "oom_kill",
    "env_spike",
]

FAULT_KINDS = ("executor_loss", "straggler", "oom_kill", "env_spike")

_SEED_MASK = 2**63 - 1


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: what strikes, how often, how hard.

    ``severity`` is interpreted per kind: fraction of executors lost
    (``executor_loss``), task slowdown factor (``straggler``), or the
    multiplier on the interference factors (``env_spike``); it is unused
    for ``oom_kill``.  ``span`` is the number of
    leading stage ordinals a stage-targeted fault may strike (the stage
    is drawn uniformly from ``[0, span)``); the default of 1 pins the
    fault to the first stage, which keeps single-fault scenarios exactly
    reproducible across workloads with different stage counts.
    """

    kind: str
    probability: float
    severity: float = 1.0
    span: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.severity <= 0.0:
            raise ValueError("severity must be positive")
        if self.kind == "executor_loss" and not self.severity < 1.0:
            raise ValueError("executor_loss severity is a fraction in (0, 1)")
        if self.kind in ("straggler", "env_spike") and self.severity < 1.0:
            raise ValueError(f"{self.kind} severity is a slowdown factor >= 1.0")
        if self.span < 1:
            raise ValueError("span must be >= 1")


@dataclass(frozen=True)
class FaultDraw:
    """The faults that strike one execution (pure function of plan + seed)."""

    loss_fraction: float = 0.0       # fraction of executors lost...
    loss_stage: int = -1             # ...at this stage ordinal (-1 = none)
    straggler_factor: float = 1.0    # task slowdown on...
    straggler_stage: int = -1        # ...this stage ordinal (-1 = none)
    oom_stage: int = -1              # application killed here (-1 = none)
    env_multiplier: float = 1.0      # transient interference spike

    @property
    def any(self) -> bool:
        return (
            self.loss_stage >= 0
            or self.straggler_stage >= 0
            or self.oom_stage >= 0
            or self.env_multiplier > 1.0
        )

    def spike_env(self, env: Environment) -> Environment:
        """Apply the transient interference spike to ``env`` (or pass through)."""
        if self.env_multiplier <= 1.0:
            return env
        from ..cloud.interference import Environment

        return Environment(
            cpu_factor=env.cpu_factor * self.env_multiplier,
            disk_factor=env.disk_factor * self.env_multiplier,
            network_factor=env.network_factor * self.env_multiplier,
        )


#: the no-fault draw, shared so fault-free paths allocate nothing
NO_FAULTS = FaultDraw()


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault specs plus the salt that keys their draws.

    Frozen and hashable, so two simulators built from the same plan
    inject identical faults for identical seeds.  When several specs
    share a kind, the later spec's draw wins.
    """

    specs: tuple[FaultSpec, ...] = ()
    salt: int = 0xFA17

    def __post_init__(self) -> None:
        # Tolerate list input; the field must be hashable.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def of(cls, *specs: FaultSpec, salt: int = 0xFA17) -> "FaultPlan":
        return cls(specs=tuple(specs), salt=salt)

    def draw(self, seed: int) -> FaultDraw:
        """Decide which faults strike the execution seeded with ``seed``.

        Every spec consumes a fixed number of random draws whether or not
        it fires, so one spec's outcome never shifts another's stream.
        """
        if not self.specs:
            return NO_FAULTS
        rng = np.random.default_rng([self.salt & _SEED_MASK, seed & _SEED_MASK])
        fields = {}
        for spec in self.specs:
            fired = float(rng.random()) < spec.probability
            stage = int(rng.integers(0, spec.span))
            if not fired:
                continue
            if spec.kind == "executor_loss":
                fields["loss_fraction"] = spec.severity
                fields["loss_stage"] = stage
            elif spec.kind == "straggler":
                fields["straggler_factor"] = spec.severity
                fields["straggler_stage"] = stage
            elif spec.kind == "oom_kill":
                fields["oom_stage"] = stage
            elif spec.kind == "env_spike":
                fields["env_multiplier"] = spec.severity
        if not fields:
            return NO_FAULTS
        return FaultDraw(**fields)


# --- spec factories (the readable way to build plans) ------------------------

def executor_loss(probability: float, fraction: float = 0.5,
                  span: int = 1) -> FaultSpec:
    """Lose ``fraction`` of the executors at a drawn stage; the run survives."""
    return FaultSpec("executor_loss", probability, severity=fraction, span=span)


def straggler(probability: float, slowdown: float = 3.0,
              span: int = 1) -> FaultSpec:
    """Slow one stage's tasks by ``slowdown`` (a slow node / hot neighbour)."""
    return FaultSpec("straggler", probability, severity=slowdown, span=span)


def oom_kill(probability: float, span: int = 1) -> FaultSpec:
    """Kill the application at a drawn stage: a failed, wasted execution."""
    return FaultSpec("oom_kill", probability, span=span)


def env_spike(probability: float, multiplier: float = 1.5) -> FaultSpec:
    """Transient interference burst multiplying all environment factors."""
    return FaultSpec("env_spike", probability, severity=multiplier)
