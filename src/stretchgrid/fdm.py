"""Black-Scholes spatial discretization and TR-BDF2 time stepping.

The spatial operator L V = 0.5 sigma^2 S^2 V_SS + (r - q) S V_S - r V is
discretized with central three-point stencils on a nonuniform grid.  Time
marches backward from maturity with the composite trapezoidal/BDF2 step
(gamma = 2 - sqrt(2), so both substages share one tridiagonal matrix).
That matrix is factored once per run by a tridiagonal LU with partial
pivoting (LAPACK gttrf), and every substage reuses the factors (gttrs).
Both are the f2py routines ``scipy.linalg.lapack`` exposes, taken straight
from scipy's compiled ``scipy/linalg/_flapack`` module: importing
``scipy.linalg`` runs its whole package ``__init__``, which cost more of
``import stretchgrid`` (≈0.25 s and ≈20 MB) than the package itself, to reach
two functions.  The calls, and so every factor, solve and price, are the same.
The stepper pins every Dirichlet row, boundary rows and knock-out regions
alike; hooks enforce off-grid barrier (ghost) rows, discrete knock-outs and
the American exercise projection.  A 3-point ghost row is stamped straight
into that matrix, its entry two columns off the diagonal eliminated in place
against the neighbouring row, so the system stays tridiagonal.

Pricings that share dt and N march in lockstep: ``TrBdf2Stepper.stack``
joins their matrices into one block-diagonal system, factored once, with one
gttrs per substage, one operator product and one finiteness check per step
over the stacked vector, and each hook applied to its own block's rows.  No
matrix couples a block's edge rows outward, so every block's values are
exactly equal to those of its own march; a single pricing is a stack of one
block.

Systems that share nothing march at the same time: ``TrBdf2Stepper.parallel``
hands its parts (single blocks or stacks, of any dt and N), costliest first,
to as many threads as the process has CPUs to run on (``workers``), the
calling thread among them.  The f2py ``dgttrs`` releases the GIL for the
whole solve, and numpy releases it inside the array loops of the operator
product and the rhs arithmetic on long vectors, so the serial LU
recurrences of two large systems run on two cores; the Python of the step
loop and of the hooks holds it, which is why small parts gain little.  A thread runs only a part's step loop, on that part's own
arrays: the same calls on the same values in the same order as the part's
own ``run``, so every part's values are bit for bit those of its solo march,
on any number of threads.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gridgen import Grid


def _load_gttr(linalg_dir: Path):
    """LAPACK's ``dgttrf`` and ``dgttrs`` from scipy's compiled ``_flapack``.

    Loads the one extension module from ``linalg_dir`` without running any
    scipy package ``__init__``, and leaves ``sys.modules`` as it found it, so
    a later ``import scipy.linalg`` builds the normal package.  Raises
    ``ImportError`` naming the file, the module and scipy's version when the
    module is missing or lacks either routine.
    """
    name = "scipy.linalg._flapack"
    path = linalg_dir / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    saved = sys.modules.get(name)
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        return module.dgttrf, module.dgttrs
    except (ImportError, AttributeError) as exc:
        raise ImportError(f"fdm: needs dgttrf and dgttrs from scipy's compiled "
                          f"module {name}, expected at {path} "
                          f"(installed scipy: {_scipy_version()})") from exc
    finally:
        if saved is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = saved


def _scipy_version() -> str:
    from importlib import metadata
    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return "unknown"


_SCIPY = importlib.util.find_spec("scipy")
if _SCIPY is None:
    raise ModuleNotFoundError("fdm: needs scipy for LAPACK dgttrf and dgttrs",
                              name="scipy")
dgttrf, dgttrs = _load_gttr(Path(_SCIPY.origin).parent / "linalg")

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
    """Pin the index range [start, stop) to a fixed value: the knock-out region
    beyond a barrier, whether the barrier sits on a node or has a ghost row.

    Plain data: ``TrBdf2Stepper`` adds these rows to the rows it pins.
    """

    def __init__(self, start: int, stop: int, value: float):
        self.start = start
        self.stop = stop
        self.value = value


class GhostBarrier(Hook):
    """Ghost-point row for an off-grid barrier.

    The ghost node is the first node at or beyond the barrier: at or above
    it for an up barrier, at or below it for a down one; the inner node is
    its neighbour on the other side.  A barrier on the ghost node reduces the
    row exactly to a Dirichlet row.  The ghost row holds the Lagrange weights
    that interpolate the solution at the barrier from the ghost node and one
    (GHOST_LINEAR) or two (GHOST_LAGRANGE3) interior nodes, with the rebate
    on the right.  The 3-point row's entry two columns off the diagonal is
    eliminated in place against the inner row, once, when the matrix is
    stamped; the same factor carries the inner row's rhs into the ghost rhs
    on every solve.  The explicit half-steps set the ghost value from the
    same weights.  Rows beyond the ghost node are pinned by a separate
    DirichletRegion (see ``instruments.constraint_hooks``).
    """

    def __init__(self, points: np.ndarray, barrier: float, order: BarrierMode,
                 rebate: float = 0.0, side: GhostSide = GhostSide.UP):
        if order not in (BarrierMode.GHOST_LINEAR, BarrierMode.GHOST_LAGRANGE3):
            raise ValueError("ghost hook needs a ghost barrier mode")
        s = np.asarray(points, dtype=float)
        up = side is GhostSide.UP
        i0 = int(np.searchsorted(s, barrier, side="left" if up else "right"))
        if not 1 <= i0 <= s.size - 1:
            raise ValueError(
                f"fdm: {side.value} barrier {barrier} is not inside the grid "
                f"{'(' if up else '['}{s[0]}, {s[-1]}{']' if up else ')'}")
        self.barrier = barrier
        self.rebate = rebate
        self.side = side
        self.order = order
        self.ghost, self.inner = (i0, i0 - 1) if up else (i0 - 1, i0)
        nodes = (self.ghost, self.inner)
        if order is BarrierMode.GHOST_LAGRANGE3:
            second = self.inner - 1 if up else self.inner + 1
            if not 0 <= second < s.size:
                raise ValueError("three-point rows need two interior nodes beside the ghost")
            nodes += (second,)
        # Lagrange weights at the barrier; each numerator and denominator is
        # multiplied in node order
        self.nodes = nodes
        self.weights = tuple(
            math.prod(barrier - s[k] for k in nodes if k != j)
            / math.prod(s[j] - s[k] for k in nodes if k != j) for j in nodes)
        self._factor = 0.0

    def override_previous(self, v, tau):
        g, *inner = self.nodes
        wg, *w_inner = self.weights
        value = self.rebate
        for w, k in zip(w_inner, inner):
            value -= w * v[k]
        v[g] = value / wg

    def owned_rows(self):
        return (self.ghost,)

    def stamp_matrix(self, lower, diag, upper):
        g, a, *far = self.nodes
        wg, wa, *w_far = self.weights
        # the band toward the interior, and the one away from it
        inward, outward = (lower, upper) if self.side is GhostSide.UP else (upper, lower)
        diag[g] = wg
        inward[g] = wa
        outward[g] = 0.0
        if far:
            pivot = inward[a]
            if pivot == 0.0:
                raise SingularSystemError(
                    a, f"fdm: cannot eliminate the 3-point ghost row {g} of barrier "
                    f"{self.barrier}: inner row {a} has no coupling to node {far[0]}")
            self._factor = w_far[0] / pivot
            inward[g] -= self._factor * diag[a]
            diag[g] -= self._factor * outward[a]

    def adjust_rhs(self, rhs, tau):
        rhs[self.ghost] = self.rebate - self._factor * rhs[self.inner]


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


def workers() -> int:
    """Threads a parallel march uses: the CPUs this process may run on, or
    ``os.cpu_count()`` where the platform reports no affinity."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def _march_parts(parts, values, threads: int) -> np.ndarray:
    """March independent ``parts`` from their ``values``, the costliest
    (nodes x N) first, on ``threads`` threads counting the calling one, and
    join their results in the given order.  A part that raises stops the
    hand-out of the rest; once every running part is done, the exception of
    the first failed part in the given order is raised."""
    results: list = [None] * len(parts)
    pending = deque(sorted(range(len(parts)),
                           key=lambda k: -parts[k].op.n * parts[k].n_steps))
    errors: dict[int, Exception] = {}

    def work():
        while True:
            try:
                k = pending.popleft()
            except IndexError:
                return
            try:
                results[k] = parts[k]._march(values[k])
            except Exception as exc:  # raised again on the calling thread
                errors[k] = exc
                pending.clear()

    extra = [threading.Thread(target=work, name=f"fdm-march-{j}")
             for j in range(min(threads, len(parts)) - 1)]
    for thread in extra:
        thread.start()
    try:
        work()
    finally:
        pending.clear()        # an interrupt on this thread stops the hand-out
        for thread in extra:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return np.concatenate(results)


class TrBdf2Stepper:
    """Backward-in-time marcher over a stack of blocks, one per pricing.

    The constructor builds and factors a single block; ``stack`` joins
    blocks that share dt and N into one block-diagonal system marched in
    lockstep.  Each hook sees only its own block's rows.  ``parallel``
    marches independent steppers at the same time.
    """

    _parts: tuple = ()        # the independent steppers of a parallel march

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
        self._w = OMEGA * self.dt
        # Pinned rows: the Dirichlet boundary rows no hook owns, then the rows
        # of each DirichletRegion; a later pin of the same row wins.
        hook_rows = {row for hook in self.hooks for row in hook.owned_rows()}
        pins = {row: bc.value
                for row, bc in ((0, config.boundary_lower), (n - 1, config.boundary_upper))
                if bc.kind is BoundaryKind.DIRICHLET_VALUE and row not in hook_rows}
        for hook in self.hooks:
            if isinstance(hook, DirichletRegion):
                pins.update(dict.fromkeys(range(n)[hook.start:hook.stop], hook.value))
        self._setup(((slice(0, n), self.hooks),), pins.items())
        self._lu = _factor(*self._stamped(), self.dt)

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
            if part._parts:
                raise ValueError(f"fdm: cannot stack block {k}: it is a parallel march")
            if (part.dt, part.n_steps) != (head.dt, head.n_steps):
                raise ValueError(
                    f"fdm: cannot stack block {k}: dt = {part.dt:g}, N = {part.n_steps} "
                    f"differ from block 0 (dt = {head.dt:g}, N = {head.n_steps})")
        self = object.__new__(cls)
        self.grid = None
        self.hooks = tuple(hook for part in steppers for hook in part.hooks)
        self.dt = head.dt
        self.n_steps = head.n_steps
        self.op = SpatialOperator(*(np.concatenate(band) for band in zip(
            *((part.op.lower, part.op.diag, part.op.upper) for part in steppers))))
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
        stamped = self._stamped()
        for k, (rows, _) in enumerate(self._blocks):
            for lower, upper in ((self.op.lower, self.op.upper), (stamped[0], stamped[2])):
                first, last = lower[rows.start], upper[rows.stop - 1]
                if first != 0.0 or last != 0.0:
                    raise ValueError(
                        f"fdm: cannot stack block {k}: its first row couples below "
                        f"it or its last row above it (lower[0] = {first:g}, "
                        f"upper[-1] = {last:g})")
        self._lu = _factor(*stamped, self.dt)
        return self

    @classmethod
    def parallel(cls, parts) -> TrBdf2Stepper:
        """Independent steppers (single blocks or stacks, of any dt and N)
        marched at the same time on ``workers()`` threads, the calling
        thread among them.

        ``run`` takes and returns the parts' values concatenated in the
        given order, and ``split`` returns each part's values.  Each thread
        runs only the parts' step loop, so every part's values equal those of
        its own ``run`` exactly.  If a part raises, ``run`` raises its
        exception.  With one worker no thread starts.
        """
        parts = tuple(parts)
        if not parts:
            raise ValueError("fdm: nothing to march")
        for k, part in enumerate(parts):
            if part._parts:
                raise ValueError(f"fdm: part {k} is itself a parallel march")
        self = object.__new__(cls)
        self.grid = None
        self.hooks = tuple(hook for part in parts for hook in part.hooks)
        self._parts = parts
        blocks = []
        offset = 0
        for part in parts:
            blocks.append((slice(offset, offset + part.op.n), part.hooks))
            offset += part.op.n
        self._blocks = tuple(blocks)
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

    def _stamped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bands of the TR-BDF2 matrix I - w L: pinned rows become identity
        rows, then each hook stamps its own block's rows.  Built again for a
        stack rather than kept, so no stepper holds a second copy of its
        bands beside the factors."""
        w = self._w
        lower = -w * self.op.lower
        diag = 1.0 - w * self.op.diag
        upper = -w * self.op.upper
        lower[self._pin_rows] = 0.0
        upper[self._pin_rows] = 0.0
        diag[self._pin_rows] = 1.0
        for rows, hooks in self._blocks:
            for hook in hooks:
                hook.stamp_matrix(lower[rows], diag[rows], upper[rows])
        return lower, diag, upper

    def split(self, v: np.ndarray) -> list[np.ndarray]:
        """Each block's rows of a stacked vector (each part's, for a parallel
        march), in stacking order."""
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
        """Values at time to maturity ``N * dt`` from the ``terminal`` payoff,
        which is not written."""
        v = np.asarray(terminal, dtype=float)
        if self._parts:
            return _march_parts(self._parts, self.split(v), workers())
        return self._march(v)

    def _march(self, v: np.ndarray) -> np.ndarray:
        # ``step`` never writes its input, so the caller's vector needs no copy
        for j in range(self.n_steps):
            v = self.step(v, j + 1, j * self.dt)
        return v
