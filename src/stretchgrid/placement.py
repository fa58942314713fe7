"""Critical-point placement on an existing grid.

Two strategies: insert one extra node per target so the target becomes the
exact midpoint of a cell, or deform the whole grid with a monotone C1 map so
targets land (approximately) mid-cell or (exactly) on a node without changing
the point count.  (A third option - translating the entire grid - only works
for one target and fixed-width domains, so it is not offered.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .gridgen import Grid
from .spline import MonotoneCubic

PIN_TOL = 1e-9           # index-space residual below which a target is "placed"
ONGRID_RTOL = 1e-9       # node-coincidence tolerance relative to the range
DEFORM_PASSES = 40       # deformation passes before giving up


class PlacementError(ValueError):
    """Targets cannot be placed on the given grid."""


class PlacementMode(enum.Enum):
    NONE = "none"
    INSERT = "insert"
    DEFORM = "deform"


class PlacementGoal(enum.Enum):
    MID_CELL = "midcell"
    ON_GRID = "ongrid"


@dataclass(frozen=True)
class Target:
    value: float
    goal: PlacementGoal = PlacementGoal.MID_CELL


@dataclass(frozen=True)
class PlacementSpec:
    mode: PlacementMode
    targets: tuple[Target, ...] = ()

    def __post_init__(self):
        targets = tuple(self.targets)
        values = [t.value for t in targets]
        if any(v2 <= v1 for v1, v2 in zip(values, values[1:])):
            raise PlacementError("targets must be sorted by value and distinct")
        object.__setattr__(self, "targets", targets)


def apply_placement(grid: Grid, spec: PlacementSpec) -> Grid:
    if spec.mode is PlacementMode.NONE or not spec.targets:
        return grid
    if spec.mode is PlacementMode.INSERT:
        return insert_points(grid, spec)
    return deform_smooth(grid, spec)


# ---------------------------------------------------------------------------
# Insertion


def insert_points(grid: Grid, spec: PlacementSpec) -> Grid:
    """Add at most one node per target so each target is exactly mid-cell.

    The inserted node is the mirror of whichever bracketing node keeps the
    new point strictly inside the cell.  Targets already mid-cell are left
    alone, so the operation is idempotent.
    """
    pts = grid.points.copy()
    rng = pts[-1] - pts[0]
    tol = 1e-12 * rng
    inserted_for: dict[float, float] = {}  # inserted node value -> owner target

    for t in spec.targets:
        if t.goal is not PlacementGoal.MID_CELL:
            raise PlacementError("insertion only supports mid-cell targets")
        b = float(t.value)
        if not pts[0] < b < pts[-1]:
            raise PlacementError(f"target {b} outside the grid")
        k = int(np.searchsorted(pts, b, side="right") - 1)
        near = pts[k] if b - pts[k] <= pts[k + 1] - b else pts[k + 1]
        if abs(b - near) <= tol:
            owner = inserted_for.get(near)
            if owner is not None:
                raise PlacementError(
                    f"targets {owner} and {b} collide in one cell: "
                    f"placing {owner} put a node on {b}")
            raise PlacementError(f"target {b} coincides with a grid node")
        if abs(b - 0.5 * (pts[k] + pts[k + 1])) <= tol:
            continue
        s_new = 2.0 * b - pts[k]
        if not pts[k] < s_new < pts[k + 1]:
            s_new = 2.0 * b - pts[k + 1]
        pts = np.insert(pts, k + 1, s_new)
        inserted_for[s_new] = b

    return Grid(pts)


# ---------------------------------------------------------------------------
# Smooth deformation


def deform_smooth(grid: Grid, spec: PlacementSpec) -> Grid:
    """Monotone C1 deformation moving targets mid-cell / onto nodes.

    Each pass works in fractional-index space: a shape-preserving cubic
    through (0, 0), (index of target, wanted index), (I, I) re-indexes the
    grid, and the original index -> price map (also a shape-preserving cubic
    through the nodes) is evaluated at the new fractional indices.  Size,
    endpoints and monotonicity are preserved by construction.  One pass
    leaves a curvature-sized residual, so passes repeat until the targets
    sit at their wanted indices to ~1e-9; converged targets turn into
    identity pins (and the whole call into a no-op), which makes the
    operation idempotent to machine precision.  A deformation that has not
    converged after ``DEFORM_PASSES`` raises ``PlacementError`` naming each
    target and its index residual |wanted - reached| after the last pass.
    """
    out = grid
    for _ in range(DEFORM_PASSES):
        out, residuals = _deform_pass(out, spec)
        if all(r <= PIN_TOL for r in residuals):
            return _snap_on_grid_targets(out, spec)
    _, residuals = _deform_pass(out, spec)
    raise PlacementError(
        f"deformation did not converge in {DEFORM_PASSES} passes: " + ", ".join(
            f"target {t.goal.value}:{t.value!r} index residual {r:.3g}"
            for t, r in zip(spec.targets, residuals)))


def _snap_on_grid_targets(grid: Grid, spec: PlacementSpec) -> Grid:
    """Set each on-grid target's node to exactly the target value.

    The deformation leaves the node within ~1e-9 of the level; downstream
    consumers compare barrier levels against nodes exactly (knock-out masks,
    Dirichlet rows), so the last ulps matter.
    """
    targets = [t for t in spec.targets if t.goal is PlacementGoal.ON_GRID]
    if not targets:
        return grid
    pts = grid.points.copy()
    for t in targets:
        idx = int(np.argmin(np.abs(pts - t.value)))
        pts[idx] = t.value
    if np.any(np.diff(pts) <= 0.0):
        raise PlacementError("deformation lost monotonicity")
    return Grid(pts)


def _deform_pass(grid: Grid, spec: PlacementSpec) -> tuple[Grid, list[float]]:
    """One deformation pass, and each target's index residual |wanted -
    reached| on the grid it was given; a grid whose residuals are all within
    ``PIN_TOL`` comes back unchanged."""
    pts = grid.points
    n_steps = pts.size - 1
    rng = pts[-1] - pts[0]
    index_to_price = MonotoneCubic(np.arange(pts.size, dtype=float), pts)

    knot_x: list[float] = []
    knot_h: list[float] = []
    residuals: list[float] = []
    values = [float(t.value) for t in spec.targets]
    for b in values:
        if not pts[0] < b < pts[-1]:
            raise PlacementError(f"target {b} outside the grid")
    for t, b, x_t in zip(spec.targets, values, index_to_price.inverse(values).tolist()):
        if t.goal is PlacementGoal.ON_GRID:
            if np.min(np.abs(pts - b)) <= ONGRID_RTOL * rng:
                want = x_t
            else:
                want = float(np.clip(round(x_t), 1, n_steps - 1))
        else:
            want = np.floor(x_t) + 0.5
            if x_t - np.floor(x_t) == 0.0:
                # Target sits exactly on a node: shift toward the wider
                # neighboring cell to minimize spacing distortion.
                j = int(x_t)
                left = pts[j] - pts[j - 1] if j > 0 else -np.inf
                right = pts[j + 1] - pts[j] if j < n_steps else -np.inf
                want = j + 0.5 if right >= left else j - 0.5
            want = float(np.clip(want, 0.5, n_steps - 0.5))
        residuals.append(abs(want - x_t))
        pinned = residuals[-1] <= PIN_TOL
        if pinned:
            # Converged: pin the index map here so deformation pulled in by
            # the other targets cannot drag this one away.
            want = x_t
        else:
            while knot_h and want <= knot_h[-1] + 0.25:
                want += 1.0
        if (knot_h and want <= knot_h[-1]) or (knot_x and x_t <= knot_x[-1]) \
                or (not pinned and want > n_steps - 0.5):
            raise PlacementError(f"cannot separate deformation targets near {b}")
        knot_x.append(x_t)
        knot_h.append(want)

    if all(r <= PIN_TOL for r in residuals):
        # All targets converged: leave the grid bit-for-bit unchanged.
        return grid, residuals

    zeta = MonotoneCubic(np.array([0.0] + knot_x + [float(n_steps)]),
                         np.array([0.0] + knot_h + [float(n_steps)]))
    eta = zeta.inverse(np.arange(pts.size, dtype=float))
    eta[0] = 0.0
    eta[-1] = float(n_steps)
    new_pts = np.asarray(index_to_price(eta), dtype=float)
    new_pts[0] = pts[0]
    new_pts[-1] = pts[-1]
    if np.any(np.diff(new_pts) <= 0.0):
        raise PlacementError("deformation lost monotonicity")
    return Grid(new_pts), residuals
