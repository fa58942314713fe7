"""Black-Scholes spatial discretization and TR-BDF2 time stepping.

The spatial operator L V = 0.5 sigma^2 S^2 V_SS + (r - q) S V_S - r V is
discretized with central three-point stencils on a nonuniform grid.  Time
marches backward from maturity with the composite trapezoidal/BDF2 step
(gamma = 2 - sqrt(2), so both substages share one tridiagonal matrix).
That matrix is factored once per run by a tridiagonal LU with partial
pivoting (LAPACK gttrf), and every substage reuses the factors (gttrs).
Constraint hooks enforce Dirichlet rows, off-grid barrier (ghost) rows,
discrete knock-outs and the American exercise projection.  A 3-point ghost
row is stamped straight into that matrix, its entry two columns off the
diagonal eliminated in place against the neighbouring row, so the system
stays tridiagonal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .gridgen import Grid

GAMMA = 2.0 - math.sqrt(2.0)
OMEGA = GAMMA / 2.0                      # shared implicit coefficient
BDF2_NEW = 1.0 / (GAMMA * (2.0 - GAMMA))             # weight of the stage value
BDF2_OLD = (1.0 - GAMMA) ** 2 / (GAMMA * (2.0 - GAMMA))


class SingularSystemError(np.linalg.LinAlgError):
    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"zero pivot at row {row}")


class NonFiniteValueError(FloatingPointError):
    """A TR-BDF2 step produced a NaN or an infinity."""

    def __init__(self, step: int, tau: float):
        self.step = step
        self.tau = tau
        super().__init__(f"fdm: non-finite value after TR-BDF2 step {step} "
                         f"(time to maturity {tau:g})")


@dataclass(frozen=True)
class MarketParams:
    rate: float = 0.0
    dividend: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")


class BoundaryKind(enum.Enum):
    DIRICHLET_VALUE = "dirichlet"
    ZERO_GAMMA = "zero_gamma"
    DEGENERATE_EXACT = "degenerate_exact"


@dataclass(frozen=True)
class BoundaryCondition:
    kind: BoundaryKind = BoundaryKind.ZERO_GAMMA
    value: float = 0.0


class BarrierMode(enum.Enum):
    ON_GRID_DIRICHLET = "on_grid"
    GHOST_LINEAR = "ghost_linear"
    GHOST_LAGRANGE3 = "ghost_lagrange3"


@dataclass(frozen=True)
class PdeConfig:
    time_steps: int
    boundary_lower: BoundaryCondition = BoundaryCondition(BoundaryKind.ZERO_GAMMA)
    boundary_upper: BoundaryCondition = BoundaryCondition(BoundaryKind.ZERO_GAMMA)
    barrier_mode: BarrierMode = BarrierMode.ON_GRID_DIRICHLET

    def __post_init__(self):
        if self.time_steps < 1:
            raise ValueError("need at least one time step")


# ---------------------------------------------------------------------------
# Spatial discretization


def first_derivative_weights(h_minus, h_plus):
    """Central nonuniform 3-point weights (w_lower, w_center, w_upper) for V_S."""
    return (-h_plus / (h_minus * (h_minus + h_plus)),
            (h_plus - h_minus) / (h_minus * h_plus),
            h_minus / (h_plus * (h_minus + h_plus)))


def second_derivative_weights(h_minus, h_plus):
    """Central nonuniform 3-point weights for V_SS (exact on quadratics)."""
    return (2.0 / (h_minus * (h_minus + h_plus)),
            -2.0 / (h_minus * h_plus),
            2.0 / (h_plus * (h_minus + h_plus)))


@dataclass
class SpatialOperator:
    """Tridiagonal rows of L; boundary rows depend on the PdeConfig."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[1:] += self.lower[1:] * v[:-1]
        out[:-1] += self.upper[:-1] * v[1:]
        return out


def discretize_operator(grid: Grid, mkt: MarketParams) -> SpatialOperator:
    """Interior rows of the Black-Scholes operator; boundary rows left zero."""
    s = grid.points
    if s.size < 3:
        raise ValueError("need at least three grid nodes")
    if np.any(np.diff(s) <= 0.0):
        raise ValueError("grid is not strictly increasing")
    n = s.size
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    hm = s[1:-1] - s[:-2]
    hp = s[2:] - s[1:-1]
    d1 = first_derivative_weights(hm, hp)
    d2 = second_derivative_weights(hm, hp)
    si = s[1:-1]
    conv = (mkt.rate - mkt.dividend) * si
    diff = 0.5 * mkt.sigma ** 2 * si ** 2
    lower[1:-1] = diff * d2[0] + conv * d1[0]
    diag[1:-1] = diff * d2[1] + conv * d1[1] - mkt.rate
    upper[1:-1] = diff * d2[2] + conv * d1[2]
    return SpatialOperator(lower, diag, upper)


def attach_boundary_rows(op: SpatialOperator, grid: Grid, mkt: MarketParams,
                         config: PdeConfig) -> SpatialOperator:
    """Fill the first and last operator rows per the configured treatment."""
    lower = op.lower.copy()
    diag = op.diag.copy()
    upper = op.upper.copy()
    s = grid.points
    for row, bc in ((0, config.boundary_lower), (s.size - 1, config.boundary_upper)):
        if bc.kind is BoundaryKind.DIRICHLET_VALUE:
            lower[row] = diag[row] = upper[row] = 0.0
        elif bc.kind is BoundaryKind.DEGENERATE_EXACT:
            if abs(s[row]) > 1e-12 * (s[-1] - s[0]):
                raise ValueError("degenerate-exact row is only valid at S = 0")
            lower[row] = upper[row] = 0.0
            diag[row] = -mkt.rate
        else:  # zero gamma: drop V_SS, one-sided first derivative
            if row == 0:
                h = s[1] - s[0]
                conv = (mkt.rate - mkt.dividend) * s[0]
                lower[0] = 0.0
                diag[0] = -conv / h - mkt.rate
                upper[0] = conv / h
            else:
                h = s[-1] - s[-2]
                conv = (mkt.rate - mkt.dividend) * s[-1]
                lower[row] = -conv / h
                diag[row] = conv / h - mkt.rate
                upper[row] = 0.0
    return SpatialOperator(lower, diag, upper)


# ---------------------------------------------------------------------------
# Ghost-point barrier rows


class GhostSide(enum.Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class GhostContext:
    """Off-grid barrier bracketed by nodes i0-1 and i0.

    For an up barrier the ghost node is i0 (first node at or above the
    barrier); for a down barrier it is i0-1 (first node at or below).  The
    barrier may coincide with the ghost node, in which case the rows reduce
    exactly to a Dirichlet row; coincidence with the interior-side node is
    rejected (use the on-grid Dirichlet treatment there).
    """

    points: np.ndarray
    i0: int
    barrier: float
    rebate: float = 0.0
    side: GhostSide = GhostSide.UP

    def __post_init__(self):
        s = self.points
        if not 1 <= self.i0 <= s.size - 1:
            raise ValueError("bracketing index out of range")
        lo, hi = s[self.i0 - 1], s[self.i0]
        if self.side is GhostSide.UP:
            if not lo < self.barrier <= hi:
                raise ValueError("need S[i0-1] < barrier <= S[i0] for an up barrier")
        else:
            if not lo <= self.barrier < hi:
                raise ValueError("need S[i0-1] <= barrier < S[i0] for a down barrier")

    @property
    def ghost(self) -> int:
        return self.i0 if self.side is GhostSide.UP else self.i0 - 1

    @property
    def inner(self) -> int:
        return self.i0 - 1 if self.side is GhostSide.UP else self.i0


# ---------------------------------------------------------------------------
# Constraint hooks


class Hook:
    """Constraint applied while stepping; methods default to no-ops."""

    def override_previous(self, v: np.ndarray, tau: float) -> np.ndarray:
        return v

    def owned_rows(self) -> tuple[int, ...]:
        """Rows whose equations this hook replaces (boundary rows a hook
        owns must not be re-pinned by the configured boundary values)."""
        return ()

    def stamp_matrix(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        pass

    def adjust_rhs(self, rhs: np.ndarray, tau: float):
        pass

    def post_substage(self, v: np.ndarray, tau: float):
        pass

    def post_step(self, v: np.ndarray, step: int, tau: float):
        pass


class DirichletRegion(Hook):
    """Pin a contiguous index range to a fixed value: the knock-out region
    beyond a barrier, whether the barrier sits on a node or has a ghost row.

    Values are re-stamped after each substage solve as well: banded LU with
    partial pivoting returns the pinned rows only to round-off, while the
    constraint is exact by definition.
    """

    def __init__(self, start: int, stop: int, value: float):
        self.start = start
        self.stop = stop
        self.value = value

    def stamp_matrix(self, lower, diag, upper):
        sl = slice(self.start, self.stop)
        lower[sl] = 0.0
        upper[sl] = 0.0
        diag[sl] = 1.0

    def adjust_rhs(self, rhs, tau):
        rhs[self.start:self.stop] = self.value

    def post_substage(self, v, tau):
        v[self.start:self.stop] = self.value


class GhostBarrier(Hook):
    """Ghost-point row for an off-grid barrier.

    The ghost row holds the Lagrange weights that interpolate the solution
    at the barrier from the ghost node and one (GHOST_LINEAR) or two
    (GHOST_LAGRANGE3) interior nodes, with the rebate on the right.  The
    3-point row's entry two columns off the diagonal is eliminated in place
    against the inner row, once, when the matrix is stamped; the same factor
    carries the inner row's rhs into the ghost rhs on every solve.  The
    explicit half-steps set the ghost value from the same weights.  Rows
    beyond the ghost node are pinned by a separate DirichletRegion (see
    ``instruments.constraint_hooks``).
    """

    def __init__(self, ctx: GhostContext, order: BarrierMode):
        if order not in (BarrierMode.GHOST_LINEAR, BarrierMode.GHOST_LAGRANGE3):
            raise ValueError("ghost hook needs a ghost barrier mode")
        self.ctx = ctx
        self.order = order
        nodes = (ctx.ghost, ctx.inner)
        if order is BarrierMode.GHOST_LAGRANGE3:
            second = ctx.inner - 1 if ctx.side is GhostSide.UP else ctx.inner + 1
            if not 0 <= second < ctx.points.size:
                raise ValueError("three-point rows need two interior nodes beside the ghost")
            nodes += (second,)
        # Lagrange weights at the barrier; each numerator and denominator is
        # multiplied in node order
        s, x = ctx.points, ctx.barrier
        self.nodes = nodes
        self.weights = tuple(
            math.prod(x - s[k] for k in nodes if k != j)
            / math.prod(s[j] - s[k] for k in nodes if k != j) for j in nodes)
        self._factor = 0.0

    def override_previous(self, v, tau):
        g, *inner = self.nodes
        wg, *w_inner = self.weights
        v = np.array(v, dtype=float)
        value = self.ctx.rebate
        for w, k in zip(w_inner, inner):
            value -= w * v[k]
        v[g] = value / wg
        return v

    def owned_rows(self):
        return (self.ctx.ghost,)

    def stamp_matrix(self, lower, diag, upper):
        g, a, *far = self.nodes
        wg, wa, *w_far = self.weights
        # the band toward the interior, and the one away from it
        inward, outward = (lower, upper) if self.ctx.side is GhostSide.UP else (upper, lower)
        diag[g] = wg
        inward[g] = wa
        outward[g] = 0.0
        if far:
            pivot = inward[a]
            if pivot == 0.0:
                raise SingularSystemError(
                    a, f"fdm: cannot eliminate the 3-point ghost row {g} of barrier "
                    f"{self.ctx.barrier}: inner row {a} has no coupling to node {far[0]}")
            self._factor = w_far[0] / pivot
            inward[g] -= self._factor * diag[a]
            diag[g] -= self._factor * outward[a]

    def adjust_rhs(self, rhs, tau):
        rhs[self.ctx.ghost] = self.ctx.rebate - self._factor * rhs[self.ctx.inner]


class AmericanProjection(Hook):
    """Keep the solution above the exercise payoff after every substage solve."""

    def __init__(self, obstacle: np.ndarray):
        self.obstacle = np.asarray(obstacle, dtype=float)

    def post_substage(self, v, tau):
        np.maximum(v, self.obstacle, out=v)


class DiscreteKnockout(Hook):
    """Set the knocked-out region to the rebate at each observation step."""

    def __init__(self, mask: np.ndarray, steps: set[int], rebate: float):
        self.mask = np.asarray(mask, dtype=bool)
        self.steps = steps
        self.rebate = rebate

    def post_step(self, v, step, tau):
        if step in self.steps:
            v[self.mask] = self.rebate


# ---------------------------------------------------------------------------
# TR-BDF2 stepping


class TrBdf2Stepper:
    """Backward-in-time marcher; owns its work buffers (one per pricing task)."""

    def __init__(self, grid: Grid, mkt: MarketParams, config: PdeConfig,
                 horizon: float, hooks: tuple[Hook, ...] = ()):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.grid = grid
        self.config = config
        self.hooks = tuple(hooks)
        self.dt = horizon / config.time_steps
        self.n_steps = config.time_steps
        op = attach_boundary_rows(discretize_operator(grid, mkt), grid, mkt, config)
        self.op = op
        n = op.n
        w = OMEGA * self.dt
        lower = -w * op.lower
        diag = 1.0 - w * op.diag
        upper = -w * op.upper
        hook_rows = {row for hook in self.hooks for row in hook.owned_rows()}
        self._dirichlet_rows = []
        for row, bc in ((0, config.boundary_lower), (n - 1, config.boundary_upper)):
            if bc.kind is BoundaryKind.DIRICHLET_VALUE and row not in hook_rows:
                lower[row] = 0.0
                upper[row] = 0.0
                diag[row] = 1.0
                self._dirichlet_rows.append((row, bc.value))
        for hook in self.hooks:
            hook.stamp_matrix(lower, diag, upper)
        *self._lu, info = dgttrf(lower[1:], diag, upper[:-1])
        if info > 0:
            raise SingularSystemError(
                info - 1, f"fdm: TR-BDF2 matrix is singular (n = {n}, dt = {self.dt:g}): "
                f"zero U pivot at index {info - 1} after partial pivoting; the faulty "
                f"equation may be an earlier row")
        self._w = w

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        return dgttrs(*self._lu, rhs, overwrite_b=1)[0]

    def _rhs_pins(self, rhs: np.ndarray, tau: float):
        for row, value in self._dirichlet_rows:
            rhs[row] = value
        for hook in self.hooks:
            hook.adjust_rhs(rhs, tau)

    def _value_pins(self, v: np.ndarray):
        # Partial pivoting solves pinned rows only to round-off; constraints
        # are exact, so re-stamp them.
        for row, value in self._dirichlet_rows:
            v[row] = value

    def step(self, v: np.ndarray, step_index: int, tau: float) -> np.ndarray:
        """One composite step from tau to tau + dt (tau is time to maturity)."""
        v_eff = v
        for hook in self.hooks:
            v_eff = hook.override_previous(v_eff, tau)

        rhs = v_eff + self._w * self.op.matvec(v_eff)
        self._rhs_pins(rhs, tau + GAMMA * self.dt)
        v_stage = self._solve(rhs)
        self._value_pins(v_stage)
        for hook in self.hooks:
            hook.post_substage(v_stage, tau + GAMMA * self.dt)

        rhs = BDF2_NEW * v_stage - BDF2_OLD * v_eff
        self._rhs_pins(rhs, tau + self.dt)
        v_new = self._solve(rhs)
        tau_new = tau + self.dt
        self._value_pins(v_new)
        for hook in self.hooks:
            hook.post_substage(v_new, tau_new)
        for hook in self.hooks:
            hook.post_step(v_new, step_index, tau_new)
        if not np.isfinite(v_new).all():
            raise NonFiniteValueError(step_index, tau_new)
        return v_new

    def run(self, terminal: np.ndarray) -> np.ndarray:
        v = np.asarray(terminal, dtype=float).copy()
        for j in range(self.n_steps):
            v = self.step(v, j + 1, j * self.dt)
        return v

