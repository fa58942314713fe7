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

Pricings that share dt and N march in lockstep: ``TrBdf2Stepper.stack``
joins their matrices into one block-diagonal system, factored once, with one
gttrs per substage, one operator product and one finiteness check per step
over the stacked vector, and each hook applied to its own block's rows.  No
matrix couples a block's edge rows outward, so every block's values are
exactly equal to those of its own march; a single pricing is a stack of one
block.
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
    """Constraint applied while stepping; methods default to no-ops.

    Every vector a hook receives holds its own pricing's rows only (a view
    into a stacked vector when pricings march together, see
    ``TrBdf2Stepper.stack``), so hooks index their grid from zero.
    """

    def override_previous(self, v: np.ndarray, tau: float):
        """Write, in place, the values the explicit half-steps use into ``v``,
        the stepper's copy of the previous step's values."""

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
        value = self.ctx.rebate
        for w, k in zip(w_inner, inner):
            value -= w * v[k]
        v[g] = value / wg

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


def _factor(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, dt: float) -> list:
    *lu, info = dgttrf(lower[1:], diag, upper[:-1])
    if info > 0:
        raise SingularSystemError(
            info - 1, f"fdm: TR-BDF2 matrix is singular (n = {diag.size}, dt = {dt:g}): "
            f"zero U pivot at index {info - 1} after partial pivoting; the faulty "
            f"equation may be an earlier row")
    return lu


def _acting(blocks, name: str) -> tuple:
    """(bound method, block rows) of every hook that overrides ``name``."""
    default = getattr(Hook, name)
    return tuple((getattr(hook, name), rows) for rows, hooks in blocks for hook in hooks
                 if getattr(type(hook), name) is not default)


class TrBdf2Stepper:
    """Backward-in-time marcher over a stack of blocks, one per pricing.

    The constructor builds and factors a single block; ``stack`` joins
    blocks that share dt and N into one block-diagonal system marched in
    lockstep.  Each hook sees only its own block's rows.
    """

    def __init__(self, grid: Grid, mkt: MarketParams, config: PdeConfig,
                 horizon: float, hooks: tuple[Hook, ...] = ()):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.grid = grid
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
        pins = []
        for row, bc in ((0, config.boundary_lower), (n - 1, config.boundary_upper)):
            if bc.kind is BoundaryKind.DIRICHLET_VALUE and row not in hook_rows:
                lower[row] = 0.0
                upper[row] = 0.0
                diag[row] = 1.0
                pins.append((row, bc.value))
        for hook in self.hooks:
            hook.stamp_matrix(lower, diag, upper)
        self._bands = (lower, diag, upper)
        self._lu = _factor(lower, diag, upper, self.dt)
        self._w = w
        self._setup(((slice(0, n), self.hooks),), pins)

    @classmethod
    def stack(cls, steppers) -> TrBdf2Stepper:
        """One block-diagonal system that marches ``steppers`` in lockstep.

        Every block's first row has no coupling below it and its last row
        none above it (lower[0] = upper[-1] = 0), so LU with partial pivoting
        never pivots across a block edge and ``matvec`` adds exact zeros
        there: each block's values equal those of its own ``run`` exactly.
        """
        steppers = tuple(steppers)
        if not steppers:
            raise ValueError("fdm: nothing to stack")
        head = steppers[0]
        for k, part in enumerate(steppers):
            if (part.dt, part.n_steps) != (head.dt, head.n_steps):
                raise ValueError(
                    f"fdm: cannot stack block {k}: dt = {part.dt:g}, N = {part.n_steps} "
                    f"differ from block 0 (dt = {head.dt:g}, N = {head.n_steps})")
            stamped = part._bands
            for lower, upper in ((part.op.lower, part.op.upper), (stamped[0], stamped[2])):
                if lower[0] != 0.0 or upper[-1] != 0.0:
                    raise ValueError(
                        f"fdm: cannot stack block {k}: its first row couples below "
                        f"it or its last row above it (lower[0] = {lower[0]:g}, "
                        f"upper[-1] = {upper[-1]:g})")
        self = object.__new__(cls)
        self.grid = None
        self.hooks = tuple(hook for part in steppers for hook in part.hooks)
        self.dt = head.dt
        self.n_steps = head.n_steps
        self.op = SpatialOperator(*(np.concatenate(band) for band in zip(
            *((part.op.lower, part.op.diag, part.op.upper) for part in steppers))))
        self._bands = tuple(np.concatenate(band) for band in zip(
            *(part._bands for part in steppers)))
        self._lu = _factor(*self._bands, self.dt)
        self._w = head._w
        blocks, pins = [], []
        offset = 0
        for part in steppers:
            blocks += [(slice(offset + rows.start, offset + rows.stop), hooks)
                       for rows, hooks in part._blocks]
            pins += [(offset + row, value)
                     for row, value in zip(part._pin_rows, part._pin_values)]
            offset += part.op.n
        self._setup(tuple(blocks), pins)
        return self

    def _setup(self, blocks, pins):
        """Record each block's (rows, hooks), the pinned rows, and which hooks
        act in each phase."""
        self._blocks = blocks
        self._pin_rows = np.array([row for row, _ in pins], dtype=np.intp)
        self._pin_values = np.array([value for _, value in pins], dtype=float)
        self._overrides = _acting(blocks, "override_previous")
        self._rhs_hooks = _acting(blocks, "adjust_rhs")
        self._substage_hooks = _acting(blocks, "post_substage")
        self._step_hooks = _acting(blocks, "post_step")

    def split(self, v: np.ndarray) -> list[np.ndarray]:
        """Each block's rows of a stacked vector, in stacking order."""
        return [v[rows] for rows, _ in self._blocks]

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        return dgttrs(*self._lu, rhs, overwrite_b=1)[0]

    def _rhs_pins(self, rhs: np.ndarray, tau: float):
        rhs[self._pin_rows] = self._pin_values
        for adjust_rhs, rows in self._rhs_hooks:
            adjust_rhs(rhs[rows], tau)

    def _after_solve(self, v: np.ndarray, tau: float):
        # Partial pivoting solves pinned rows only to round-off; constraints
        # are exact, so re-stamp them.
        v[self._pin_rows] = self._pin_values
        for post_substage, rows in self._substage_hooks:
            post_substage(v[rows], tau)

    def step(self, v: np.ndarray, step_index: int, tau: float) -> np.ndarray:
        """One composite step from tau to tau + dt (tau is time to maturity).

        ``v`` is not written: hooks that override the explicit half-step
        values write into one copy of it.
        """
        v_eff = v
        if self._overrides:
            v_eff = np.array(v, dtype=float)
            for override_previous, rows in self._overrides:
                override_previous(v_eff[rows], tau)

        rhs = v_eff + self._w * self.op.matvec(v_eff)
        self._rhs_pins(rhs, tau + GAMMA * self.dt)
        v_stage = self._solve(rhs)
        self._after_solve(v_stage, tau + GAMMA * self.dt)

        rhs = BDF2_NEW * v_stage - BDF2_OLD * v_eff
        self._rhs_pins(rhs, tau + self.dt)
        v_new = self._solve(rhs)
        tau_new = tau + self.dt
        self._after_solve(v_new, tau_new)
        for post_step, rows in self._step_hooks:
            post_step(v_new[rows], step_index, tau_new)
        if not np.isfinite(v_new).all():
            raise NonFiniteValueError(step_index, tau_new)
        return v_new

    def run(self, terminal: np.ndarray) -> np.ndarray:
        v = np.asarray(terminal, dtype=float).copy()
        for j in range(self.n_steps):
            v = self.step(v, j + 1, j * self.dt)
        return v
