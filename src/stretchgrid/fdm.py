"""Black-Scholes spatial discretization and TR-BDF2 time stepping.

The spatial operator L V = 0.5 sigma^2 S^2 V_SS + (r - q) S V_S - r V is
discretized with central three-point stencils on a nonuniform grid.  Time
marches backward from maturity with the composite trapezoidal/BDF2 step
(gamma = 2 - sqrt(2), so both substages share one tridiagonal matrix).
A pricing is one block, ``TrBdf2Stepper``, built unfactored: its operator
with boundary rows, dt, N, hooks and the rows it pins (Dirichlet boundary rows
and knock-out regions alike).  Hooks enforce off-grid barrier (ghost) rows,
discrete knock-outs and the American exercise projection; a 3-point ghost row
is stamped straight into the matrix, its entry two columns off the diagonal
eliminated in place against the neighbouring row, so the system stays
tridiagonal.

``Stack`` joins blocks that share dt and N into one block-diagonal matrix and
factors it once by a tridiagonal LU with partial pivoting (LAPACK gttrf);
every substage of their lockstep march reuses the factors (gttrs).  Both are
the f2py routines ``scipy.linalg.lapack`` exposes, loaded straight from
scipy's compiled ``scipy/linalg/_flapack`` module: importing ``scipy.linalg``
runs its whole package ``__init__``, which cost more of ``import
stretchgrid`` (≈0.25 s and ≈20 MB) than the package itself.

``march`` marches independent groups of blocks at the same time on
``workers()`` threads, the calling thread among them.  The f2py ``dgttrs``
releases the GIL for the whole solve, and numpy releases it inside the array
loops on long vectors, so the serial LU recurrences of two large systems run
on two cores; the Python of the step loop and of the hooks holds it, which is
why small groups gain little.  Every block's values are bit for bit those of
its own march, on any number of threads.  A zero pivot
(``SingularSystemError``) and a non-finite value (``NonFiniteValueError``)
both rise from the march.
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
    into a ``Stack``'s vector), so hooks index their grid from zero.
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
    """Threads a march uses: the CPUs this process may run on, or
    ``os.cpu_count()`` where the platform reports no affinity."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


class TrBdf2Stepper:
    """One pricing's block of the TR-BDF2 system, built unfactored: its grid,
    operator with boundary rows, dt, N, hooks and pinned rows.

    ``Stack`` stamps and factors blocks that share dt and N, ``march``
    marches groups of them, and ``run`` marches this block alone.
    """

    def __init__(self, grid: Grid, mkt: MarketParams, config: PdeConfig,
                 horizon: float, hooks: tuple[Hook, ...] = ()):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.grid = grid
        self.hooks = tuple(hooks)
        self.dt = horizon / config.time_steps
        self.n_steps = config.time_steps
        self.op = attach_boundary_rows(discretize_operator(grid, mkt), grid, mkt, config)
        n = self.op.n
        # Pinned rows: the Dirichlet boundary rows no hook owns, then the rows
        # of each DirichletRegion; a later pin of the same row wins.
        hook_rows = {row for hook in self.hooks for row in hook.owned_rows()}
        self.pins = {row: bc.value
                     for row, bc in ((0, config.boundary_lower), (n - 1, config.boundary_upper))
                     if bc.kind is BoundaryKind.DIRICHLET_VALUE and row not in hook_rows}
        for hook in self.hooks:
            if isinstance(hook, DirichletRegion):
                self.pins.update(dict.fromkeys(range(n)[hook.start:hook.stop], hook.value))

    def run(self, terminal: np.ndarray) -> np.ndarray:
        """Values at time to maturity ``N * dt`` from the ``terminal`` payoff,
        which is not written: ``march`` with this block alone.

        ``terminal`` may instead be the groups ``march`` takes, and ``run``
        then returns what ``march`` does.  A table marches each batch through
        one ``run`` of its first block, so a subclass that wraps ``run`` wraps
        every march.
        """
        if isinstance(terminal, np.ndarray):
            return march([[(self, terminal)]])[0][0]
        return march(terminal)


class Stack:
    """Blocks that share dt and N as one block-diagonal system: stamped and
    factored once (gttrf), then marched in lockstep with one gttrs per
    substage, one operator product and one finiteness check per step over
    the stacked vector, and each hook on its own block's rows.

    No block may couple across its edge to the next (lower[0] = upper[-1] =
    0), so LU with partial pivoting never pivots across a block edge and
    ``matvec`` adds exact zeros there: each block's values equal those of
    its own march exactly.  A zero pivot, or a ghost row that cannot be
    eliminated, raises ``SingularSystemError`` here.
    """

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("fdm: nothing to stack")
        head = blocks[0]
        for k, block in enumerate(blocks):
            if (block.dt, block.n_steps) != (head.dt, head.n_steps):
                raise ValueError(
                    f"fdm: cannot stack block {k}: dt = {block.dt:g}, N = {block.n_steps} "
                    f"differ from block 0 (dt = {head.dt:g}, N = {head.n_steps})")
        self.dt = head.dt
        self.n_steps = head.n_steps
        self._w = w = OMEGA * self.dt
        self.op = SpatialOperator(*(np.concatenate(band) for band in zip(
            *((block.op.lower, block.op.diag, block.op.upper) for block in blocks))))
        self._blocks, pins, offset = [], {}, 0
        for block in blocks:
            self._blocks.append((slice(offset, offset + block.op.n), block.hooks))
            pins.update((offset + row, value) for row, value in block.pins.items())
            offset += block.op.n
        self._pin_rows = np.fromiter(pins, dtype=np.intp, count=len(pins))
        self._pin_values = np.fromiter(pins.values(), dtype=float, count=len(pins))
        self._overrides = _acting(self._blocks, "override_previous")
        self._rhs_hooks = _acting(self._blocks, "adjust_rhs")
        self._substage_hooks = _acting(self._blocks, "post_substage")
        self._step_hooks = _acting(self._blocks, "post_step")
        # The matrix I - w L: pinned rows become identity rows, then each hook
        # stamps its own block's rows.
        lower = -w * self.op.lower
        diag = 1.0 - w * self.op.diag
        upper = -w * self.op.upper
        lower[self._pin_rows] = 0.0
        upper[self._pin_rows] = 0.0
        diag[self._pin_rows] = 1.0
        for rows, hooks in self._blocks:
            for hook in hooks:
                hook.stamp_matrix(lower[rows], diag[rows], upper[rows])
        for k, (rows, _) in enumerate(self._blocks[1:], 1):
            for below, above in ((self.op.lower, self.op.upper), (lower, upper)):
                if below[rows.start] != 0.0 or above[rows.start - 1] != 0.0:
                    raise ValueError(
                        f"fdm: cannot stack block {k}: it couples across its edge with "
                        f"block {k - 1} (its lower[0] = {below[rows.start]:g}, block "
                        f"{k - 1}'s upper[-1] = {above[rows.start - 1]:g})")
        self._lu = _factor(lower, diag, upper, self.dt)

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

    def march(self, v: np.ndarray) -> np.ndarray:
        """Values after all N steps from ``v``, which is not written."""
        for j in range(self.n_steps):
            v = self.step(v, j + 1, j * self.dt)
        return v


def march(groups) -> list[list[np.ndarray]]:
    """March independent ``groups`` of (block, terminal payoff) pairs at the
    same time, and return each group's values, block by block.

    The blocks of a group share dt and N: the thread that takes a group
    stacks them (one gttrf) and marches the ``Stack``.  Groups are handed
    out costliest (nodes x N) first to ``workers()`` threads, the calling
    thread among them; with one worker no thread starts.  No thread calls
    ``run``.  A group that raises stops the hand-out of the rest; once every
    running group is done, the exception of the first failed group in the
    given order is raised.
    """
    groups = [tuple(group) for group in groups]
    results: list = [None] * len(groups)
    pending = deque(sorted(range(len(groups)), key=lambda k: -sum(
        block.op.n * block.n_steps for block, _ in groups[k])))
    errors: dict[int, Exception] = {}

    def work():
        while True:
            try:
                k = pending.popleft()
            except IndexError:
                return
            try:
                system = Stack(block for block, _ in groups[k])
                results[k] = system.split(system.march(np.concatenate(
                    [terminal for _, terminal in groups[k]], dtype=float)))
            except Exception as exc:  # raised again on the calling thread
                errors[k] = exc
                pending.clear()

    extra = [threading.Thread(target=work, name=f"fdm-march-{j}")
             for j in range(min(workers(), len(groups)) - 1)]
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
    return results
