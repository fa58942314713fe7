"""Contract definitions: payoffs, event schedules and the constraints a
pricing's block takes.

``constraint_hooks`` lists them in the order the stepper applies them, as
plain data of the kinds ``fdm.Constraint`` names: knock-out regions, ghost
barrier rows, discrete knock-outs and the American projection.

Knock-in contracts are intentionally absent: price them by in-out parity
(knock-in = vanilla - knock-out, exact for these payoffs) instead of the
two-payoff simultaneous solve, which doubles the PDE surface for no gain on
flat barriers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fdm import (AmericanProjection, BarrierMode, BoundaryKind, Constraint, DirichletRegion,
                  DiscreteKnockout, GhostBarrier, GhostSide, PdeConfig)
from .gridgen import Grid


class ContractError(ValueError):
    """Contract definition or contract/config combination is invalid."""


class ExerciseStyle(enum.Enum):
    EUROPEAN_VANILLA = "european_vanilla"
    AMERICAN_VANILLA = "american_vanilla"
    DISCRETE_KO = "discrete_ko"
    DISCRETE_DOUBLE_KO = "discrete_double_ko"
    CONTINUOUS_DOUBLE_KO = "continuous_double_ko"


class OptionType(enum.Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class ContractSpec:
    style: ExerciseStyle
    put_call: OptionType
    strike: float
    maturity: float
    barrier_lower: float | None = None
    barrier_upper: float | None = None
    rebate: float = 0.0
    observations_per_year: int | None = None
    observation_dates: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("strike", "maturity", "rebate", "barrier_lower", "barrier_upper"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ContractError(f"{name} must be finite, got {value}")
        if self.strike <= 0.0 or self.maturity <= 0.0:
            raise ContractError("need positive strike and maturity")
        if self.barrier_lower is not None and self.barrier_upper is not None \
                and not self.barrier_lower < self.barrier_upper:
            raise ContractError("need barrier_lower < barrier_upper")
        if self.style is ExerciseStyle.DISCRETE_KO and self.barrier_upper is None \
                and self.barrier_lower is None:
            raise ContractError("discrete knock-out needs a barrier")
        if self.style in (ExerciseStyle.DISCRETE_DOUBLE_KO,
                          ExerciseStyle.CONTINUOUS_DOUBLE_KO):
            if self.barrier_lower is None or self.barrier_upper is None:
                raise ContractError("double knock-out needs both barriers")
        count = self.observations_per_year
        if self.is_discrete and count is not None:
            if count < 1:
                raise ContractError(f"observations_per_year must be at least 1, got {count}")
            if round(self.maturity * count) < 1:
                raise ContractError(f"observations_per_year = {count} gives no observation "
                                    f"date up to maturity {self.maturity}")
        if self.observation_dates is not None:
            dates = tuple(float(t) for t in self.observation_dates)
            if self.is_discrete and not dates:
                raise ContractError("observation_dates must name at least one date, got ()")
            if any(not 0.0 < t <= self.maturity + 1e-12 for t in dates):
                raise ContractError("observation dates must lie in (0, T]")
            object.__setattr__(self, "observation_dates", dates)

    @property
    def is_discrete(self) -> bool:
        return self.style in (ExerciseStyle.DISCRETE_KO, ExerciseStyle.DISCRETE_DOUBLE_KO)

    def schedule(self) -> tuple[float, ...]:
        """Observation dates; built from the per-year count when not explicit."""
        if self.observation_dates is not None:
            return self.observation_dates
        if self.observations_per_year is None:
            raise ContractError("discrete style needs an observation schedule")
        count = round(self.maturity * self.observations_per_year)
        return tuple((i + 1) / self.observations_per_year for i in range(count))

    def knockout_mask(self, s: np.ndarray) -> np.ndarray:
        """Nodes at or beyond a barrier (value forced to the rebate there)."""
        mask = np.zeros(s.size, dtype=bool)
        if self.barrier_upper is not None:
            mask |= s >= self.barrier_upper
        if self.barrier_lower is not None:
            mask |= s <= self.barrier_lower
        return mask


def payoff(spec: ContractSpec, grid: Grid) -> np.ndarray:
    """Terminal condition on the grid nodes, including terminal knock-out."""
    s = grid.points
    if spec.put_call is OptionType.CALL:
        v = np.maximum(s - spec.strike, 0.0)
    else:
        v = np.maximum(spec.strike - s, 0.0)
    if spec.style in (ExerciseStyle.DISCRETE_KO, ExerciseStyle.DISCRETE_DOUBLE_KO,
                      ExerciseStyle.CONTINUOUS_DOUBLE_KO):
        v[spec.knockout_mask(s)] = spec.rebate
    return v


def observation_steps(spec: ContractSpec, config: PdeConfig) -> set[int]:
    """Map observation dates onto time-step indices; every date must land
    exactly on the step grid (e.g. 1500 steps for 250 yearly observations)."""
    dt = spec.maturity / config.time_steps
    steps: set[int] = set()
    for t in spec.schedule():
        tau = spec.maturity - t
        ratio = tau / dt
        j = round(ratio)
        if abs(ratio - j) > 1e-9:
            raise ContractError(
                f"observation date {t} does not land on the time grid "
                f"(N = {config.time_steps}); choose N divisible by the schedule")
        steps.add(int(j))
    return steps


def _locate_node(s: np.ndarray, level: float, rng: float) -> int | None:
    k = int(np.argmin(np.abs(s - level)))
    return k if abs(s[k] - level) <= 1e-9 * rng else None


def constraint_hooks(spec: ContractSpec, grid: Grid, config: PdeConfig) -> list[Constraint]:
    """Ordered hook list the stepper applies each step."""
    s = grid.points
    rng = s[-1] - s[0]
    hooks: list[Constraint] = []

    if spec.style is ExerciseStyle.EUROPEAN_VANILLA:
        return hooks

    if spec.style is ExerciseStyle.AMERICAN_VANILLA:
        hooks.append(AmericanProjection(payoff(
            ContractSpec(ExerciseStyle.EUROPEAN_VANILLA, spec.put_call,
                         spec.strike, spec.maturity), grid)))
        return hooks

    if spec.is_discrete:
        steps = observation_steps(spec, config)
        hooks.append(DiscreteKnockout(spec.knockout_mask(s), steps, spec.rebate))
        return hooks

    # continuously monitored double knock-out
    for level, side in ((spec.barrier_lower, GhostSide.DOWN),
                        (spec.barrier_upper, GhostSide.UP)):
        node = _locate_node(s, level, rng)
        boundary_node = node in (0, s.size - 1)
        if config.barrier_mode is BarrierMode.ON_GRID_DIRICHLET or node is not None:
            if node is None:
                raise ContractError(
                    f"barrier {level} is off the grid; place it on a node or "
                    f"switch to a ghost barrier mode")
            if not boundary_node:
                hooks += _knockout_region(side, node, s.size, spec.rebate)
            elif not _boundary_is_dirichlet(config, side, spec.rebate):
                raise ContractError(
                    f"barrier {level} sits on the domain boundary; configure a "
                    f"Dirichlet boundary with the rebate value there")
            continue
        hook = GhostBarrier(s, float(level), config.barrier_mode, spec.rebate, side)
        hooks.append(hook)
        beyond = hook.ghost + 1 if side is GhostSide.UP else hook.ghost - 1
        hooks += _knockout_region(side, beyond, s.size, spec.rebate)
    return hooks


def _knockout_region(side: GhostSide, first: int, n: int, rebate: float) -> list[Constraint]:
    """Pin nodes from ``first`` outward to the domain edge; none if that is empty."""
    start, stop = (first, n) if side is GhostSide.UP else (0, first + 1)
    return [DirichletRegion(start, stop, rebate)] if start < stop else []


def _boundary_is_dirichlet(config: PdeConfig, side: GhostSide, rebate: float) -> bool:
    bc = config.boundary_lower if side is GhostSide.DOWN else config.boundary_upper
    return bc.kind is BoundaryKind.DIRICHLET_VALUE and math.isclose(
        bc.value, rebate, rel_tol=0.0, abs_tol=1e-12)
