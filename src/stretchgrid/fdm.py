"""Black-Scholes spatial discretization and TR-BDF2 time stepping.

The spatial operator L V = 0.5 sigma^2 S^2 V_SS + (r - q) S V_S - r V is
discretized with central three-point stencils on a nonuniform grid.  Time
marches backward from maturity with the composite trapezoidal/BDF2 step
(gamma = 2 - sqrt(2), so both substages share one tridiagonal matrix).
A pricing is one block, ``TrBdf2Stepper``, built unfactored: its operator
with boundary rows, dt, N, hooks and the rows it pins (Dirichlet boundary rows
and knock-out regions alike).  Its hooks are constraints, plain data that a
``Stack`` turns into stacked arrays once: off-grid barrier (ghost) rows,
discrete knock-outs and the American exercise projection.  ``Stack`` stamps
a 3-point ghost row straight into the matrix, its entry two columns off the
diagonal eliminated against the neighbouring row, so it stays tridiagonal.

``Stack`` joins blocks that share dt and N into one block-diagonal matrix and
factors it once; every substage of their lockstep march reuses the factors.
A block whose matrix I - wL is similar to a symmetric positive definite one
(every block of the bundled tables is an M-matrix with dominant diagonal) is
factored by LDL^T: rows with no off-diagonal (pinned rows, the S = 0 row) are
solved first and folded into their neighbours' rhs, a wrong-signed chain end
(a zero-gamma edge, a ghost row) is folded into its neighbour by one Schur
step, a diagonal row scaling R makes the rest symmetric, and LAPACK dpttrf
factors it; each solve is one dpttrs, whose back-substitution keeps the
division off the recurrence that gttrs has on it.  Any other block (a cell
Peclet number above 1, sigma = 0 included, or a zero-gamma edge row whose
diagonal turns negative at a large dt) is factored by a tridiagonal LU with
partial pivoting (gttrf) and solved by gttrs, with R = 1.
The march runs in the row-scaled system: the stack keeps R (I + wL), R times
each BDF2 weight and the folds' coefficients times R, so a step's first rhs
is one banded product, LAPACK dlagtm, and its second one combination, with no
scaling pass per solve.

The LAPACK calls come from ``_lapack``, which binds one library; every
march's record names it, beside each stack's solve (``ldl`` or ``lu``).

``march`` marches independent blocks in the calling thread: it stacks them
per (dt, N) and marches the stacks one after another, starting no thread or
process.  ``start`` runs the same march beside the caller, started now and
joined later, so that the caller can build while it marches: on Linux in a
process forked for it, elsewhere on a thread (``_threads.Part``).  Threads
would share the GIL: a step releases it for each LAPACK call and inside
numpy's loops on long vectors and takes it back for the Python between them,
so a march on a thread and a caller building beside it hand it back and forth
and each waits on the other, where a forked march waits on nothing.  A
started march runs under the caller's ``np.geterr()``, and every block's
values, or the exception that fails it, are those of its own march, in
whichever thread or process it marched.  A zero pivot
(``SingularSystemError``) and a non-finite value (``NonFiniteValueError``)
both rise from the march, which returns each in its failing block's slot;
both survive pickling, as a forked march's results must.  How many marches
run at once is the caller's choice (``bench`` starts one per reference, at
most ``_threads.workers()`` at a time).
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _lapack, _threads
from ._threads import LostPartError  # noqa: F401 - a started march raises it
from .gridgen import Grid


log = logging.getLogger(__name__)


GAMMA = 2.0 - math.sqrt(2.0)
OMEGA = GAMMA / 2.0                      # shared implicit coefficient
BDF2_NEW = 1.0 / (GAMMA * (2.0 - GAMMA))             # weight of the stage value
BDF2_OLD = (1.0 - GAMMA) ** 2 / (GAMMA * (2.0 - GAMMA))
_BDF2_RATIO = BDF2_NEW / BDF2_OLD


class SingularSystemError(np.linalg.LinAlgError):
    """A zero pivot, or a ghost row that cannot be eliminated: ``row`` is
    its row in the system that was factored (a stack's, not its block's)."""

    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"zero pivot at row {row}")

    def __reduce__(self):
        return type(self), (self.row, str(self)), self.__dict__


class NonFiniteValueError(FloatingPointError):
    """A TR-BDF2 step produced a NaN or an infinity."""

    def __init__(self, step: int, tau: float):
        self.step = step
        self.tau = tau
        super().__init__(f"fdm: non-finite value after TR-BDF2 step {step} "
                         f"(time to maturity {tau:g})")

    def __reduce__(self):
        return type(self), (self.step, self.tau), self.__dict__


@dataclass(frozen=True)
class MarketParams:
    rate: float = 0.0
    dividend: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        for name in ("rate", "dividend", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")
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
# Constraints: plain data that ``Stack`` applies


class GhostSide(enum.Enum):
    UP = "up"
    DOWN = "down"


class DirichletRegion:
    """Pin the index range [start, stop) to a fixed value: the knock-out region
    beyond a barrier, whether the barrier sits on a node or has a ghost row.
    ``TrBdf2Stepper`` adds these rows to the rows it pins."""

    def __init__(self, start: int, stop: int, value: float):
        self.start = start
        self.stop = stop
        self.value = value


class GhostBarrier:
    """Ghost-point row for an off-grid barrier.

    The ghost node is the first node at or beyond the barrier: at or above
    it for an up barrier, at or below it for a down one; the inner node is
    its neighbour on the other side.  A barrier on the ghost node reduces the
    row exactly to a Dirichlet row.  The ghost row holds the Lagrange weights
    that interpolate the solution at the barrier from the ghost node and one
    (GHOST_LINEAR) or two (GHOST_LAGRANGE3) interior nodes, with the rebate
    on the right.  ``stamp`` writes the row into its block's bands; the
    explicit half-steps set the ghost value from the same weights, which
    ``Stack`` applies as data.  Rows beyond the ghost node are pinned by a
    separate DirichletRegion (see ``instruments.constraint_hooks``).
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

    def stamp(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
              start: int = 0) -> float:
        """Write the ghost row into the bands of a system whose rows from
        ``start`` on are its block's, a 3-point row's entry two columns off
        the diagonal eliminated in place by ``factor`` times the inner row,
        and return the factor (0 for a linear row): the ghost row's rhs is
        then ``rebate - factor * rhs[inner]``.  A ``SingularSystemError``
        names the system's rows."""
        g, a, *far = (start + node for node in self.nodes)
        wg, wa, *w_far = self.weights
        # the band toward the interior, and the one away from it
        inward, outward = (lower, upper) if self.side is GhostSide.UP else (upper, lower)
        diag[g] = wg
        inward[g] = wa
        outward[g] = 0.0
        if not far:
            return 0.0
        pivot = inward[a]
        if pivot == 0.0:
            raise SingularSystemError(
                a, f"fdm: cannot eliminate the 3-point ghost row {g} of barrier "
                f"{self.barrier}: inner row {a} has no coupling to node {far[0]}")
        factor = w_far[0] / pivot
        inward[g] -= factor * diag[a]
        diag[g] -= factor * outward[a]
        return factor


class AmericanProjection:
    """Keep the solution above the exercise payoff after every substage solve."""

    def __init__(self, obstacle: np.ndarray):
        self.obstacle = np.asarray(obstacle, dtype=float)


class DiscreteKnockout:
    """Set the knocked-out region to the rebate at each observation step."""

    def __init__(self, mask: np.ndarray, steps: set[int], rebate: float):
        self.mask = np.asarray(mask, dtype=bool)
        self.steps = steps
        self.rebate = rebate


# The kinds a block's hooks may be: plain data that ``Stack`` applies
Constraint = DirichletRegion | GhostBarrier | AmericanProjection | DiscreteKnockout


# ---------------------------------------------------------------------------
# TR-BDF2 stepping


_TINY = np.finfo(float).tiny             # the smallest normal float64


class _LdlBlock(NamedTuple):
    """One block's system A, made R A symmetric and factored by ``_ldl``.  A
    step (targets, sources, coefficients) subtracts c * v[s] from v[t]; no
    target repeats or is a source of its step.  The ``pre`` steps act on the
    scaled rhs R b, their coefficients times R of the target row; every
    source row has R = 1, so a source reads its unscaled rhs."""

    d: np.ndarray          # dpttrf's D
    e: np.ndarray          # dpttrf's L subdiagonal
    scale: np.ndarray      # the row scaling R
    pre: tuple             # steps on the scaled rhs before the solve, in order
    post: tuple            # the step on the solution after it


def _ldl(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
         quiet: np.ndarray) -> _LdlBlock | None:
    """One block's stamped system, made symmetric positive definite and
    factored by dpttrf, or None where the block does not qualify.

    ``quiet`` marks the rows whose rhs is zero at every solve.  The block
    qualifies when:

    1. every row with no off-diagonal (a pinned row, the S = 0 row) has a
       nonzero diagonal: it is solved first, x = rhs / d, and folded into
       its neighbours' rhs (no work where its rhs is quiet);
    2. every row left coupling to one neighbour only, whose pair of entries
       does not share a sign (a zero-gamma edge, a ghost row; of two such
       rows coupled to each other, the upper), has a nonzero diagonal and a
       partner that is not such a row too: one Schur step folds it into its
       partner before the solve, and it is recovered after;
    3. every other pair of entries shares its sign, or both are zero;
    4. the row scaling R that makes R A symmetric, which restarts at 1 on each
       chain of coupled rows (and so is 1 on every folded or Schur row, which
       couples to nothing once folded), stays finite and at least the
       smallest normal float;
    5. dpttrf factors R A, so it is positive definite.

    On the bundled tables' grids, I - wL is an M-matrix whose rows are
    diagonally dominant, and all five hold.  A block that fails takes LU: a
    cell Peclet number above 1 on a coupled row (sigma = 0 included) fails 3,
    and a zero-gamma edge row whose diagonal turns negative at a large dt
    fails 5.
    """
    lo, d, up = lower.copy(), diag.copy(), upper.copy()
    free = (lo == 0.0) & (up == 0.0)
    ends = np.zeros(d.size, dtype=bool)
    pre, post = [], []
    # Overflow and division by zero leave non-finite values, which disqualify
    # the block below; they are no error of the caller's.
    with np.errstate(all="ignore"):
        below = np.flatnonzero(free[:-1]) + 1     # rows whose lower neighbour is free
        above = np.flatnonzero(free[1:])          # rows whose upper neighbour is free
        for t, side, band in ((below, -1, lo), (above, 1, up)):
            c = band[t] / d[t + side]
            keep = (c != 0.0) & ~quiet[t + side]
            pre.append((t[keep], t[keep] + side, c[keep]))
        lo[below] = up[above] = 0.0

        has_lo, has_up = lo != 0.0, up != 0.0
        end_lo = np.flatnonzero(has_lo & ~has_up)    # coupled to the row below only
        end_lo = end_lo[~(lo[end_lo] * up[end_lo - 1] > 0.0)]
        ends[end_lo] = True
        end_up = np.flatnonzero(has_up & ~has_lo)    # coupled to the row above only
        end_up = end_up[~(up[end_up] * lo[end_up + 1] > 0.0) & ~ends[end_up + 1]]
        ends[end_up] = True
        clash = False
        for e, side, own, partner in ((end_up, 1, up, lo), (end_lo, -1, lo, up)):
            k = e + side
            clash |= ends[k].any()
            a_ek, a_ke, d_e = own[e], partner[k], d[e]
            pre.append((k, e, a_ke / d_e))
            post.append((e, k, a_ek / d_e))
            d[k] -= a_ke * a_ek / d_e
            own[e] = partner[k] = 0.0

        signed = ((up[:-1] * lo[1:] > 0.0) | ((up[:-1] == 0.0) & (lo[1:] == 0.0))).all()
        # each chain of coupled pairs (i, i + 1), i in [a, b), scaled from 1
        coupled = np.concatenate(([False], up[:-1] != 0.0, [False]))
        chains = np.flatnonzero(coupled[1:] != coupled[:-1])
        scale = np.ones(d.size)
        for a, b in chains.reshape(-1, 2):
            scale[a + 1:b + 1] = np.multiply.accumulate(up[a:b] / lo[a + 1:b + 1])
        d *= scale
        up[:-1] *= scale[:-1]                     # R A's off-diagonal
        pre = tuple((t, s, c * scale[t]) for t, s, c in pre)
    post = tuple(np.concatenate(a) for a in zip(*post))
    if clash or not (
            signed and (scale >= _TINY).all()
            and all(np.isfinite(a).all() for a in (d, up, scale, post[2], *(c for *_, c in pre)))):
        return None
    e = up[:-1]
    if _lapack.pttrf(d, e) != 0:
        return None
    return _LdlBlock(d, e, scale, pre, post)


def _joined(steps, starts) -> tuple:
    """One step of ``steps``, each on rows offset by its start."""
    return tuple(np.concatenate(a) for a in zip(*(
        (t + start, s + start, c) for (t, s, c), start in zip(steps, starts))))


def _merged(steps) -> list:
    """``steps``, applied in order, as the fewest runs of consecutive steps
    that one fancy-index step each applies: a step joins the run before it
    when none of its targets or sources is a target there.  Numpy reads
    every source and target of a step before it writes any target, so a
    later step may still target an earlier one's source."""
    runs = []
    for step in steps:
        if not step[0].size:
            continue
        if runs and set(runs[-1][0].tolist()).isdisjoint([*step[0].tolist(), *step[1].tolist()]):
            step = tuple(np.concatenate(pair) for pair in zip(runs.pop(), step))
        runs.append(step)
    return runs


def _ghost_rules(ghosts) -> list:
    """The explicit-half rule v[g] = (rebate - sum of w v[k]) / w_g of each
    (block rows, GhostBarrier) of ``ghosts``, applied in order, as the runs
    ``_merged`` makes of them (a rule targets g and reads its inner nodes k):
    (ghost rows, rebates, w_g, terms), 3-point rows first, so that the j-th
    term (count, inner rows, weights) acts on the run's first ``count``."""
    steps = [(np.array([rows.start + hook.ghost]), rows.start + np.array(hook.nodes[1:]),
              np.array([k])) for k, (rows, hook) in enumerate(ghosts)]
    rules = []
    for *_, members in _merged(steps):
        run = sorted((ghosts[k] for k in members), key=lambda pair: -len(pair[1].nodes))
        nodes = [rows.start + np.array(hook.nodes) for rows, hook in run]
        weights = [hook.weights for _, hook in run]
        counts = [sum(n.size > j for n in nodes) for j in range(nodes[0].size)]
        terms = [(counts[j], np.array([n[j] for n in nodes[:counts[j]]]),
                  np.array([w[j] for w in weights[:counts[j]]])) for j in range(1, len(counts))]
        rules.append((np.array([n[0] for n in nodes]),
                      np.array([hook.rebate for _, hook in run], dtype=float),
                      np.array([w[0] for w in weights]), terms))
    return rules


def _knockouts(knockouts, n: int) -> list:
    """(block rows, DiscreteKnockout) pairs, applied in order, as one (steps,
    mask, rebate) assignment on an n-row stack per observation set and
    rebate (a signed zero its own): each joins the last one of its set and
    rebate unless a later one writes one of its rows."""
    joined = []
    for rows, hook in knockouts:
        key = (hook.steps, hook.rebate, math.copysign(1.0, hook.rebate))
        k = next((k for k in reversed(range(len(joined)))
                  if joined[k][0] == key or (joined[k][1][rows] & hook.mask).any()), None)
        if k is None or joined[k][0] != key:
            joined.append((key, np.zeros(n, dtype=bool)))
            k = -1
        joined[k][1][rows] |= hook.mask
    return [(steps, mask, rebate) for (steps, rebate, _), mask in joined]


def _concat(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _Factored(NamedTuple):
    """A stack's stamped system A, factored by ``_factor``: the row scaling R
    (1 on LU rows), the ``pre`` steps on the scaled rhs R b, the in-place
    ``solve`` of R A x = R b, and the ``post`` steps on its solution."""

    kind: str              # the runs' kinds, joined by "+"
    scale: np.ndarray
    pre: list
    solve: Callable[[np.ndarray], np.ndarray]
    post: list


def _factor(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, dt: float,
            blocks: list[slice], quiet: np.ndarray) -> _Factored:
    """A stack's stamped system, whose ``blocks`` are these row ranges,
    factored: each block by LDL^T where ``_ldl`` qualifies it and by LU with
    partial pivoting (gttrf) otherwise.  The solve makes one dpttrs or gttrs
    call per maximal run of blocks of one kind, in place where it can."""
    parts = [_ldl(lower[rows], diag[rows], upper[rows], quiet[rows]) for rows in blocks]
    kinds, solves, ldl, scale = [], [], [], []
    for by_lu, run in itertools.groupby(zip(blocks, parts), key=lambda pair: pair[1] is None):
        run = list(run)
        rows = slice(run[0][0].start, run[-1][0].stop)
        kinds.append("lu" if by_lu else "ldl")
        if by_lu:
            info, solve = _lapack.lu(lower[rows][1:], diag[rows], upper[rows][:-1])
            if info > 0:
                row = rows.start + info - 1
                raise SingularSystemError(
                    row, f"fdm: TR-BDF2 matrix is singular (n = {diag.size}, dt = {dt:g}): "
                    f"zero U pivot at index {row} after partial pivoting; the faulty "
                    f"equation may be an earlier row")
            solves.append((rows, solve))
            scale.append(np.ones(rows.stop - rows.start))
            continue
        scale += [part.scale for _, part in run]
        ldl += run
        solves.append((rows, _lapack.ldl_solver(
            _concat([part.d for _, part in run]),
            _concat([a for _, part in run for a in (part.e, np.zeros(1))][:-1]))))
    starts = [block.start for block, _ in ldl]
    pre = [_joined(step, starts) for step in zip(*(part.pre for _, part in ldl))]
    post = [_joined([part.post for _, part in ldl], starts)] if ldl else []
    if len(solves) == 1:
        solve = solves[0][1]
    else:
        def solve(b):
            for rows, run in solves:
                b[rows] = run(b[rows])
            return b
    return _Factored("+".join(kinds), _concat(scale), pre, solve, post)


class TrBdf2Stepper:
    """One pricing's block of the TR-BDF2 system, built unfactored: its grid,
    operator with boundary rows, dt, N, hooks (each of a ``Constraint``
    kind) and pinned rows.

    ``Stack`` stamps and factors blocks that share dt and N, ``march``
    deals blocks to parts that stack and march them, and ``run`` marches
    this block alone.
    """

    def __init__(self, grid: Grid, mkt: MarketParams, config: PdeConfig,
                 horizon: float, hooks: tuple[Constraint, ...] = ()):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.grid = grid
        self.hooks = tuple(hooks)
        self.dt = horizon / config.time_steps
        self.n_steps = config.time_steps
        self.op = attach_boundary_rows(discretize_operator(grid, mkt), grid, mkt, config)
        n = self.op.n
        # Pinned rows: the Dirichlet boundary rows that are no ghost row, then
        # the rows of each DirichletRegion; a later pin of the same row wins.
        ghost_rows = {hook.ghost for hook in self.hooks if isinstance(hook, GhostBarrier)}
        self.pins = {row: bc.value
                     for row, bc in ((0, config.boundary_lower), (n - 1, config.boundary_upper))
                     if bc.kind is BoundaryKind.DIRICHLET_VALUE and row not in ghost_rows}
        for hook in self.hooks:
            if isinstance(hook, DirichletRegion):
                self.pins.update(dict.fromkeys(range(n)[hook.start:hook.stop], hook.value))
            elif isinstance(hook, DiscreteKnockout) and hook.mask.shape != (n,):
                raise ValueError(f"fdm: a knock-out mask has shape {hook.mask.shape}; "
                                 f"the grid has {n} nodes")
            elif not isinstance(hook, Constraint):
                raise TypeError(f"fdm: a hook is a {type(hook).__name__}; TrBdf2Stepper takes "
                                f"{', '.join(kind.__name__ for kind in Constraint.__args__)}")

    def run(self, terminal: np.ndarray) -> np.ndarray:
        """Values at time to maturity ``N * dt`` from the ``terminal`` payoff,
        which is not written: ``march`` with this block alone, raising the
        exception that failed it.

        ``terminal`` may instead be the (block, terminal) pairs ``march``
        takes, and ``run`` then returns what ``march`` does.  A table marches
        all its queued pricings through one ``run`` of the first, so a
        subclass that wraps ``run`` wraps every march.
        """
        if not isinstance(terminal, np.ndarray):
            return march(terminal)
        values, = march([(self, terminal)])
        if isinstance(values, Exception):
            raise values
        return values


class Stack:
    """Blocks that share dt and N as one block-diagonal system: stamped and
    factored once, then marched in lockstep, one product per step and one
    solve per substage over the stacked vector.

    Each block is factored by LDL^T where its matrix qualifies (dpttrf; see
    ``_ldl``) and by LU with partial pivoting otherwise (gttrf), and each
    maximal run of blocks of one kind is solved by one dpttrs or gttrs call;
    ``solve_kind`` names the runs' kinds (``ldl``, ``lu``, ``ldl+lu``, ...).
    LDL^T solves the row-scaled system R A x = R b, and every substage builds
    its rhs in that system directly, R = 1 on LU rows: the stack keeps
    R (I + wL) as three bands (pinned and ghost rows zeroed) and R BDF2_OLD,
    so the first rhs is one banded product (``_product``) and the second
    R BDF2_OLD (BDF2_NEW / BDF2_OLD stage - v), three passes in place.
    Pinned rows then take their values, each ghost row its rebate less its
    inner row's rhs times its ``stamp``'s factor, and the folds of ``_ldl``
    follow, all times R of their row.  The other constraints are stacked
    arrays, applied in block and hook order: the explicit half's ghost values
    (``_ghost_rules``), after every solve the pins and one obstacle (-inf
    where no ``AmericanProjection`` is), and after each step the knock-outs
    (``_knockouts``).  No block couples across its edge (lower[0] =
    upper[-1] = 0 in every block), so neither factorization couples or
    pivots there and the product adds exact zeros: each block's values equal
    those of its own march exactly.  A zero pivot, or a ghost row that cannot
    be eliminated, raises ``SingularSystemError`` here.
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
        w = OMEGA * self.dt
        self._blocks, pins, hooks, offset = [], {}, [], 0
        for block in blocks:
            rows = slice(offset, offset + block.op.n)
            self._blocks.append(rows)
            pins.update((offset + row, value) for row, value in block.pins.items())
            hooks += [(rows, hook) for hook in block.hooks]
            offset += block.op.n
        self._pin_rows = np.fromiter(pins, dtype=np.intp, count=len(pins))
        self._pin_values = np.fromiter(pins.values(), dtype=float, count=len(pins))
        ghosts = [(rows, hook) for rows, hook in hooks if isinstance(hook, GhostBarrier)]
        self._ghosts = _ghost_rules(ghosts)
        self._knockouts = _knockouts([(rows, hook) for rows, hook in hooks
                                      if isinstance(hook, DiscreteKnockout)], offset)
        projections = [(rows, hook.obstacle) for rows, hook in hooks
                       if isinstance(hook, AmericanProjection)]
        self._obstacle = np.full(offset, -np.inf) if projections else None
        for rows, obstacle in projections:
            np.maximum(self._obstacle[rows], obstacle, out=self._obstacle[rows])

        def stacked(band: str) -> np.ndarray:
            """w times the blocks' operator ``band``, stacked."""
            out = np.concatenate([getattr(block.op, band) for block in blocks])
            out *= w
            return out

        # The matrix I - w L: pinned rows become identity rows, then each
        # ghost row is stamped into its own block's rows.
        a_lower, a_diag, a_upper = -stacked("lower"), 1.0 - stacked("diag"), -stacked("upper")
        a_lower[self._pin_rows] = 0.0
        a_upper[self._pin_rows] = 0.0
        a_diag[self._pin_rows] = 1.0
        # the unscaled rhs of the rows a rule fixes: pins, then ghost rows
        fixed, folds = dict(pins), []
        for rows, hook in ghosts:
            factor = hook.stamp(a_lower, a_diag, a_upper, rows.start)
            fixed[rows.start + hook.ghost] = hook.rebate
            if factor != 0.0:
                folds.append((rows.start + hook.ghost, rows.start + hook.inner, factor))
        # Rows whose rhs is zero at every solve: those fixed at 0 that no
        # ghost row's rule adds to.
        self._fixed_rows = np.fromiter(fixed, dtype=np.intp, count=len(fixed))
        values = np.fromiter(fixed.values(), dtype=float, count=len(fixed))
        quiet = np.zeros(a_diag.size, dtype=bool)
        quiet[self._fixed_rows[values == 0.0]] = True
        quiet[[g for g, *_ in folds]] = False
        factored = _factor(a_lower, a_diag, a_upper, self.dt, self._blocks, quiet)
        del a_lower, a_diag, a_upper    # freed before the band set: the factors hold them
        self.solve_kind, self._solve = factored.kind, factored.solve
        r = factored.scale
        self._fixed_values = values * r[self._fixed_rows]
        # each ghost row's rule, one step per hook in hook order, before the folds
        ghost_steps = [(np.array([g]), np.array([inner]), np.array([factor * r[g] / r[inner]]))
                       for g, inner, factor in folds]
        self._pre = _merged([*ghost_steps, *factored.pre])
        self._post = _merged(factored.post)
        # R (I + w L), its pinned and ghost rows zeroed
        lower, diag, upper = stacked("lower"), stacked("diag"), stacked("upper")
        diag += 1.0
        for band in (lower, diag, upper):
            band *= r
            band[self._fixed_rows] = 0.0
        self._product = _lapack.product(lower[1:], diag, upper[:-1])
        self._old = BDF2_OLD * r

    def split(self, v: np.ndarray) -> list[np.ndarray]:
        """Each block's rows of a stacked vector, in stacking order."""
        return [v[rows] for rows in self._blocks]

    def _substage(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the substage whose scaled rhs ``rhs`` holds, in place where
        the solve is, and return the solution."""
        rhs[self._fixed_rows] = self._fixed_values
        for t, s, c in self._pre:
            rhs[t] -= c * rhs[s]
        v = self._solve(rhs)
        for t, s, c in self._post:
            v[t] -= c * v[s]
        # LU with partial pivoting solves pinned rows only to round-off;
        # constraints are exact, so re-stamp them.
        v[self._pin_rows] = self._pin_values
        if self._obstacle is not None:
            np.maximum(v, self._obstacle, out=v)
        return v

    def step(self, v: np.ndarray, step_index: int, tau: float) -> np.ndarray:
        """One composite step from tau to tau + dt (tau is time to maturity).

        ``v``, a writable C-contiguous float64 vector (``march`` makes it
        one), is not written: the ghost rows' explicit-half values go into
        one copy of it.  The values returned are a new vector.
        """
        v_eff = v.copy() if self._ghosts else v
        for rows, rebate, weight, terms in self._ghosts:
            value = rebate.copy()
            for count, sources, w in terms:
                value[:count] -= w * v_eff[sources]
            v_eff[rows] = value / weight

        stage = self._product(v_eff, np.empty_like(self._old))
        stage = self._substage(stage)
        # R (BDF2_NEW stage - BDF2_OLD v_eff), in place in the stage values
        stage *= _BDF2_RATIO
        stage -= v_eff
        stage *= self._old
        v_new = self._substage(stage)
        for steps, mask, rebate in self._knockouts:
            if step_index in steps:
                v_new[mask] = rebate
        if not np.isfinite(v_new).all():
            raise NonFiniteValueError(step_index, tau + self.dt)
        return v_new

    def march(self, v: np.ndarray) -> np.ndarray:
        """Values after all N steps from ``v``, which is not written: a copy
        where it is not a writable C-contiguous float64 array."""
        v = np.require(v, float, "CW")
        for j in range(self.n_steps):
            v = self.step(v, j + 1, j * self.dt)
        return v


def _stacks(pairs: list) -> list[list[int]]:
    """The indices of ``pairs`` grouped per (dt, N) of their blocks: the
    stacks a march marches, each in the order its blocks were given, and
    in the order each stack's first block was given."""
    by_time: dict[tuple[float, int], list[int]] = {}
    for k, (block, _) in enumerate(pairs):
        by_time.setdefault((block.dt, block.n_steps), []).append(k)
    return list(by_time.values())


def _march_stacks(pairs: list, stacks: list, stop=None) -> tuple[list, dict, float]:
    """March ``stacks`` of ``pairs``, stopping before the next stack once
    ``stop`` (a ``threading.Event``, if given) is set: the (block index,
    values or exception) pairs, each stack's solve kind and the CPU seconds
    of the thread that marched them."""
    began = time.thread_time()
    todo = stacks[::-1]
    slots, kinds = [], {}
    while todo and not (stop is not None and stop.is_set()):
        stack = todo.pop()
        try:
            system = Stack(pairs[k][0] for k in stack)
            kinds[tuple(stack)] = system.solve_kind
            if len(stack) == 1:
                terminal = pairs[stack[0]][1]
            else:
                terminal = np.concatenate([pairs[k][1] for k in stack], dtype=float)
            marched = system.split(system.march(terminal))
        except Exception as exc:  # noqa: BLE001 - returned in its block's slot
            if len(stack) > 1:   # its halves march next, the first half first
                half = len(stack) // 2
                todo += [stack[half:], stack[:half]]
                continue
            marched = [exc]
        slots += zip(stack, marched)
    return slots, kinds, time.thread_time() - began


def _shapes(pairs: list, stacks: list) -> list[tuple]:
    """Each stack as (block indices, nodes, N), for the record."""
    return [(tuple(stack), sum(pairs[k][0].op.n for k in stack), pairs[stack[0]][0].n_steps)
            for stack in stacks]


def _gather(done: tuple, shapes: list, heading: str) -> list:
    """The blocks' values or exceptions, in their given order, from the
    ``_march_stacks`` outcome ``done``.  Logs the march's record at DEBUG
    level: ``heading`` (which says where it marched), its CPU seconds, the
    LAPACK library bound and each stack's blocks, nodes, N and solve."""
    slots, kinds, cpu_s = done
    results: list = [None] * sum(len(stack) for stack, _, _ in shapes)
    for k, values in slots:
        results[k] = values
    if log.isEnabledFor(logging.DEBUG):
        described = ", ".join(f"stack(blocks={len(stack)}, nodes={nodes}, N={n_steps}, "
                              f"solve={kinds.get(stack, 'none')})"
                              for stack, nodes, n_steps in shapes)
        log.debug("%s, %.3f s CPU, LAPACK from %s: %s", heading, cpu_s, _lapack.PATH, described)
    return results


def march(pairs) -> list:
    """March (block, terminal payoff) ``pairs`` in the calling thread, and
    return, in the given order, each block's values or the exception that
    failed it.

    The blocks are stacked per (dt, N) (see ``_stacks``), one factorization
    per stack, and the stacks marched one after another; ``march`` starts
    no thread or process, so a caller that wants a march beside its own
    work calls ``start``.  No stack calls ``run``.  A one-block stack
    marches its block's terminal as it is (see ``Stack.march``).  A stack
    that raises an ``Exception`` marches again as two halves, each its own
    stack, until each failing block stands alone with the exception of its
    own march; every other stack carries on.  Each march logs its wall and
    CPU seconds, the LAPACK library bound and each of its stacks' solve
    (``Stack.solve_kind``) at DEBUG level on the ``stretchgrid.fdm`` logger.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    stacks = _stacks(pairs)
    began = time.perf_counter()
    done = _march_stacks(pairs, stacks)
    return _gather(done, _shapes(pairs, stacks), f"march of {len(pairs)} blocks in the "
                   f"calling thread, {time.perf_counter() - began:.3f} s wall")


class _Started:
    """A march started by ``start``, marching while the caller goes on.

    ``result()`` waits for it and returns what ``march`` would return (and
    logs ``march``'s record, saying where it was started, in this process);
    a forked march that ends without a result raises ``LostPartError``, and
    one whose result does not pickle raises pickle's error.  ``cancel()``
    ends it: the child is killed and reaped, or the thread stopped after its
    stack and joined (see ``_threads.Part``).  A forked march keeps here
    only what its record needs, so the caller may drop the blocks and
    terminals it started.
    """

    def __init__(self, pairs):
        pairs = list(pairs)
        stacks = _stacks(pairs)
        self._count, self._shapes = len(pairs), _shapes(pairs, stacks)
        self._place = "a forked process" if _threads.FORK else "a thread"
        self._began = time.perf_counter()
        self._part = _threads.Part(lambda part, stop: _march_stacks(pairs, stacks, stop),
                                   0, "fdm-start", fork=_threads.FORK)

    def result(self) -> list:
        done = self._part.result()
        return _gather(done, self._shapes,
                       f"march of {self._count} blocks started in {self._place}, joined after "
                       f"{time.perf_counter() - self._began:.3f} s wall")

    def cancel(self):
        self._part.cancel()


def start(pairs) -> _Started:
    """Start ``march(pairs)`` beside the caller and return at once: in a
    process forked for it on Linux, elsewhere on a thread of its own (see
    ``_threads.Part``).  It marches under the caller's numpy error state,
    and its values, or the exceptions that fail its blocks, are the bits
    ``march`` gives.  The caller must end it, by its ``result()`` or its
    ``cancel()``; until then a forked march's child is left unreaped."""
    return _Started(pairs)
