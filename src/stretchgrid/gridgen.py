"""Stretched coordinate maps S(u) on [0, 1] and grid sampling.

Every map concentrates grid points near one or more critical price levels
while keeping dS/du finite and strictly positive.  Available families:

* ``Sinh``            -- hyperbolic-sine stretch around one point.
* ``Cubic``           -- cubic surrogate of the sinh stretch (no transcendental
                         calls in the hot path; how much faster it evaluates
                         depends on the host's sinh: ~1.2-1.4x against a
                         SIMD-vectorised numpy sinh, more against scalar libm).
* ``PiecewiseCubicC1``-- one cubic piece per critical point, C1 at the joins.
* ``PiecewiseC2``     -- the C1 map with quintic patches bridging the
                         second-derivative jumps at the interior joins.
* ``TavellaRandall``  -- Jacobian-defined stretch dS/du = A / sqrt(sum_k
                         1/(alpha_k^2 + (S - B_k)^2)), solved by shooting
                         from a quadrature-predicted bracket.
* ``Uniform``         -- identity stretch.

A product-form Jacobian dS/du = alpha*A*prod_i (u - b_i)^2 + alpha would
extend the single cubic to many points directly, but pinning (A, b_1..b_n)
to the critical points is an n-dimensional nonlinear solve that scales
poorly; the piecewise representations below exist to avoid it.

Every map evaluates through one path, ``StretchMap.__call__``: a family
writes only its elementwise kernel ``_eval(u, out)``, and a scalar or an
array of any shape is flattened, evaluated in 65,536-sample chunks
(``_chunked_eval``) and reshaped back.  So a scalar gets the bits of the
same sample inside an array.  A batch of ``_THREADED_CHUNKS`` (80) full
chunks or more is split into ``workers()`` runs of chunks, one thread each
(``_threads.run_parts``, shared with ``fdm.march``, every thread under the
caller's ``np.geterr()``; threads on every platform, since each chunk
releases the GIL once and writes into one shared output); each value is bit
for bit that of one thread.  Every grid of the bundled tables is far below
that size.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._threads import run_parts, workers
from .spline import MonotoneCubic

log = logging.getLogger(__name__)

ENDPOINT_RTOL = 1e-10


class GridConstructionError(ValueError):
    """A stretch map or grid could not be built from the given spec."""


class StretchKind(enum.Enum):
    UNIFORM = "uniform"
    SINH = "sinh"
    CUBIC = "cubic"
    PIECEWISE_CUBIC_C1 = "piecewise_cubic_c1"
    PIECEWISE_C2 = "piecewise_c2"
    TAVELLA_RANDALL = "tavella_randall"


class KnotRule(enum.Enum):
    DIRECT = "direct"
    INVERSE = "inverse"


@dataclass(frozen=True)
class StretchSpec:
    """Declarative description of a stretching.

    ``alphas`` may hold one shared value or one value per critical point;
    ``None`` defaults to 0.005 * (s_max - s_min).  ``chi`` controls how far
    the cubic family deviates from linear (6 matches the sinh Taylor
    expansion); ``lam`` in (0, 1/2] sizes the quintic patches of the C2 kind.
    """

    kind: StretchKind
    s_min: float
    s_max: float
    critical_points: tuple[float, ...] = ()
    alphas: tuple[float, ...] | None = None
    chi: float = 6.0
    lam: float = 0.25
    knot_rule: KnotRule = KnotRule.INVERSE

    def __post_init__(self):
        if not (math.isfinite(self.s_min) and math.isfinite(self.s_max)):
            raise GridConstructionError("bounds must be finite")
        if not self.s_min < self.s_max:
            raise GridConstructionError("need s_min < s_max")
        pts = tuple(float(b) for b in self.critical_points)
        object.__setattr__(self, "critical_points", pts)
        if any(not self.s_min < b < self.s_max for b in pts):
            raise GridConstructionError("critical points must lie strictly inside the bounds")
        if any(b2 <= b1 for b1, b2 in zip(pts, pts[1:])):
            raise GridConstructionError("critical points must be strictly increasing")
        if self.alphas is not None:
            alphas = tuple(float(a) for a in (
                self.alphas if np.iterable(self.alphas) else (self.alphas,)))
            if any(not (a > 0.0 and math.isfinite(a)) for a in alphas):
                raise GridConstructionError(f"alphas must be positive and finite, got {alphas}")
            if len(alphas) not in (1, max(len(pts), 1)):
                raise GridConstructionError("need one alpha, or one per critical point")
            object.__setattr__(self, "alphas", alphas)
        if not (self.chi > 0.0 and math.isfinite(self.chi)):
            raise GridConstructionError(f"chi must be positive and finite, got {self.chi}")
        if not 0.0 < self.lam <= 0.5:
            raise GridConstructionError("lam must be in (0, 1/2]")
        if self.kind in (StretchKind.SINH, StretchKind.CUBIC) and len(pts) != 1:
            if len(pts) != 0:  # m = 0 is coerced to uniform by build_map
                raise GridConstructionError(f"{self.kind.value} stretch needs exactly one critical point")

    @property
    def range(self) -> float:
        return self.s_max - self.s_min

    def alpha_per_point(self) -> np.ndarray:
        m = len(self.critical_points)
        if self.alphas is None:
            return np.full(m, 0.005 * self.range)
        if len(self.alphas) == 1:
            return np.full(m, self.alphas[0])
        return np.asarray(self.alphas)


def solve_depressed_cubic(chi: float, d: float) -> float:
    """Unique real root of t^3/chi + t + d = 0 for chi > 0.

    Closed form via the hyperbolic substitution (the map is strictly
    increasing, so there is exactly one real root), then one Newton step to
    push the residual to ~1e-15 * max(1, |d|).
    """
    if not (math.isfinite(chi) and math.isfinite(d)):
        raise GridConstructionError("non-finite input to cubic solve")
    if chi <= 0.0:
        raise GridConstructionError("chi must be positive")
    if d == 0.0:
        return 0.0
    # In t^3 + chi*t + chi*d = 0 form this is a depressed cubic with positive
    # linear coefficient, so the hyperbolic substitution gives the single
    # real root without cancellation even for large |d|.
    s = math.sqrt(chi / 3.0)
    t = -2.0 * s * math.sinh(math.asinh(1.5 * d / s) / 3.0)
    for _ in range(2):
        f = t * t * t / chi + t + d
        fp = 3.0 * t * t / chi + 1.0
        t -= f / fp
    return t


# ---------------------------------------------------------------------------
# Map types


class StretchMap:
    """Monotone map S(u), u in [0, 1], onto [s_min, s_max].  A family writes
    only its elementwise kernel ``_eval(u, out)``: S(u) of 1-d ``u`` into ``out``."""

    spec: StretchSpec

    def __call__(self, u):
        """S(u) for a scalar or any array; a 0-d input gives a numpy scalar."""
        u = np.asarray(u, dtype=float)
        return _chunked_eval(self._eval, u.ravel()).reshape(u.shape)[()]

    def _eval(self, u: np.ndarray, out: np.ndarray) -> None:
        raise NotImplementedError

    def derivative(self, u):
        raise NotImplementedError

    def critical_preimages(self) -> np.ndarray:
        """u-locations mapping onto the critical points."""
        raise NotImplementedError


@dataclass
class UniformMap(StretchMap):
    spec: StretchSpec

    def _eval(self, u, out):
        np.multiply(u, self.spec.range, out=out)
        out += self.spec.s_min

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        return np.full_like(u, self.spec.range)

    def critical_preimages(self):
        b = np.asarray(self.spec.critical_points)
        return (b - self.spec.s_min) / self.spec.range


_EVAL_CHUNK = 65536  # keep hot-loop buffers cache-resident for big batches
_THREADED_CHUNKS = 80  # from this many chunks up, two threads beat one (2-CPU host)


def _chunked_eval(kernel, u: np.ndarray) -> np.ndarray:
    """``kernel(src, dst)`` over a 1-d ``u`` chunk by chunk into a new array.

    A batch of ``_THREADED_CHUNKS`` full chunks or more is split into
    ``workers()`` contiguous runs of chunks, one per thread, the calling
    thread's first; each chunk goes through the same kernel into its own
    slice of the output, so the values are bit for bit those of one thread.
    """
    out = np.empty_like(u)
    starts = range(0, u.size, _EVAL_CHUNK)
    if u.size < _THREADED_CHUNKS * _EVAL_CHUNK:
        for i in starts:
            kernel(u[i:i + _EVAL_CHUNK], out[i:i + _EVAL_CHUNK])
        return out
    width = min(workers(), len(starts))

    def part(k: int, stop):
        for i in starts[k * len(starts) // width:(k + 1) * len(starts) // width]:
            if stop.is_set():
                return
            kernel(u[i:i + _EVAL_CHUNK], out[i:i + _EVAL_CHUNK])

    run_parts(part, width, "gridgen-eval")
    return out


@dataclass
class SinhMap(StretchMap):
    spec: StretchSpec
    c1: float
    c2: float

    @cached_property
    def _consts(self) -> tuple[float, float, float, float]:
        return (self.spec.critical_points[0], self.spec.alpha_per_point()[0],
                self.c1, self.c2 - self.c1)

    def _eval(self, u, out):
        b, alpha, c1, dc = self._consts
        np.multiply(u, dc, out=out)
        out += c1
        np.sinh(out, out=out)
        out *= alpha
        out += b

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        alpha = self.spec.alpha_per_point()[0]
        t = self.c1 + (self.c2 - self.c1) * u
        return alpha * (self.c2 - self.c1) * np.cosh(t)

    def critical_preimages(self):
        return np.array([self.c1 / (self.c1 - self.c2)])


@dataclass
class CubicMap(StretchMap):
    spec: StretchSpec
    c1: float
    c2: float

    @cached_property
    def _poly_coeffs(self) -> tuple[float, float, float, float]:
        # Expand B + alpha*((c1 + dc u)^3/chi + c1 + dc u) in powers of u;
        # Horner evaluation then needs no transcendental work at all.
        b = self.spec.critical_points[0]
        alpha = self.spec.alpha_per_point()[0]
        dc = self.c2 - self.c1
        a3 = alpha / self.spec.chi
        return (b + a3 * self.c1 ** 3 + alpha * self.c1,
                3.0 * a3 * self.c1 * self.c1 * dc + alpha * dc,
                3.0 * a3 * self.c1 * dc * dc,
                a3 * dc ** 3)

    def _eval(self, u, out):
        p0, p1, p2, p3 = self._poly_coeffs
        np.multiply(u, p3, out=out)
        out += p2
        out *= u
        out += p1
        out *= u
        out += p0

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        alpha = self.spec.alpha_per_point()[0]
        dc = self.c2 - self.c1
        t = self.c1 + dc * u
        return alpha * dc * (3.0 * t * t / self.spec.chi + 1.0)

    def critical_preimages(self):
        return np.array([self.c1 / (self.c1 - self.c2)])


@dataclass
class QuinticPatch:
    """C2 bridge over [u_lo, u_hi] across one interior join."""

    junction: int
    u_lo: float
    u_hi: float
    coeff: np.ndarray  # a0..a5 in powers of (u - u_lo)

    def value(self, u):
        t = np.asarray(u, dtype=float) - self.u_lo
        a = self.coeff
        return a[0] + t * (a[1] + t * (a[2] + t * (a[3] + t * (a[4] + t * a[5]))))

    def deriv(self, u):
        t = np.asarray(u, dtype=float) - self.u_lo
        a = self.coeff
        return a[1] + t * (2 * a[2] + t * (3 * a[3] + t * (4 * a[4] + t * 5 * a[5])))

    def deriv2(self, u):
        t = np.asarray(u, dtype=float) - self.u_lo
        a = self.coeff
        return 2 * a[2] + t * (6 * a[3] + t * (12 * a[4] + t * 20 * a[5]))


@dataclass
class PiecewiseMap(StretchMap):
    """Piecewise-cubic stretch; optionally C2 via quintic patches."""

    spec: StretchSpec
    knots: np.ndarray        # d_0..d_m (d_0 = 0, d_m = 1)
    c_left: np.ndarray       # scaled left coefficient per piece (negative)
    c_right: np.ndarray      # scaled right coefficient per piece (positive)
    alphas: np.ndarray
    mids: np.ndarray         # D_0..D_m with D_0 = s_min, D_m = s_max
    patches: list[QuinticPatch] = field(default_factory=list)
    rejected_junctions: tuple[int, ...] = ()

    # -- cubic pieces -------------------------------------------------
    def _piece_index(self, u):
        i = np.searchsorted(self.knots, u, side="right") - 1
        return np.clip(i, 0, len(self.knots) - 2)

    def _arg(self, u, i):
        d_lo = self.knots[i]
        d_hi = self.knots[i + 1]
        h = d_hi - d_lo
        return (self.c_right[i] * (u - d_lo) + self.c_left[i] * (d_hi - u)) / h

    def piece_value(self, u, i=None):
        u = np.asarray(u, dtype=float)
        if i is None:
            i = self._piece_index(u)
        b = np.asarray(self.spec.critical_points)[i]
        t = self._arg(u, i)
        return b + self.alphas[i] * (t * t * t / self.spec.chi + t)

    def piece_deriv(self, u, i=None):
        u = np.asarray(u, dtype=float)
        if i is None:
            i = self._piece_index(u)
        h = self.knots[i + 1] - self.knots[i]
        t = self._arg(u, i)
        return self.alphas[i] * (self.c_right[i] - self.c_left[i]) / h * (
            3.0 * t * t / self.spec.chi + 1.0)

    def piece_deriv2(self, u, i=None):
        u = np.asarray(u, dtype=float)
        if i is None:
            i = self._piece_index(u)
        h = self.knots[i + 1] - self.knots[i]
        slope = (self.c_right[i] - self.c_left[i]) / h
        t = self._arg(u, i)
        return self.alphas[i] * slope * slope * 6.0 * t / self.spec.chi

    def piece_inverse(self, price: float, i: int) -> float:
        """Exact u with p_i(u) = price, via the scaled cubic root."""
        b = self.spec.critical_points[i]
        t = solve_depressed_cubic(self.spec.chi, (b - price) / self.alphas[i])
        d_lo, d_hi = self.knots[i], self.knots[i + 1]
        h = d_hi - d_lo
        return (t * h + self.c_right[i] * d_lo - self.c_left[i] * d_hi) / (
            self.c_right[i] - self.c_left[i])

    # -- public surface ------------------------------------------------
    def _eval(self, u, out):
        out[:] = self._blend(u, self.piece_value, QuinticPatch.value)

    def derivative(self, u):
        return self._blend(u, self.piece_deriv, QuinticPatch.deriv)

    def _blend(self, u, piece, patch):
        """``piece`` on the cubic pieces, ``patch`` inside each quintic patch."""
        u = np.asarray(u, dtype=float)
        out = piece(u)
        for p in self.patches:
            mask = (u >= p.u_lo) & (u <= p.u_hi)
            if np.any(mask):
                out = np.where(mask, patch(p, u), out)
        return out

    def critical_preimages(self):
        m = len(self.spec.critical_points)
        out = np.empty(m)
        for i in range(m):
            cr, cl = self.c_right[i], self.c_left[i]
            out[i] = (cr * self.knots[i] - cl * self.knots[i + 1]) / (cr - cl)
        return out


@dataclass
class TavellaRandallMap(StretchMap):
    spec: StretchSpec
    normalizer: float          # the shooting constant A
    trajectory_u: np.ndarray   # dense RK4 path nodes
    trajectory_s: np.ndarray
    _interp: MonotoneCubic = field(repr=False, default=None)

    def __post_init__(self):
        if self._interp is None:
            self._interp = MonotoneCubic(self.trajectory_u, self.trajectory_s)

    def _eval(self, u, out):
        # Trajectory nodes are exact; interpolate only strictly between them.
        out[:] = self._interp(np.clip(u, 0.0, 1.0))

    def derivative(self, u):
        s = self(u)
        return self.normalizer * _tr_speed(
            np.asarray(s, dtype=float),
            np.asarray(self.spec.critical_points),
            self.spec.alpha_per_point())

    def critical_preimages(self):
        b = np.asarray(self.spec.critical_points)
        return self._interp.inverse(b)


# ---------------------------------------------------------------------------
# Builders


def build_sinh(spec: StretchSpec) -> SinhMap:
    """Sinh stretch around a single point: S(u) = B + alpha*sinh(c2 u + c1 (1-u))."""
    _require_kind(spec, StretchKind.SINH)
    b = spec.critical_points[0]
    alpha = spec.alpha_per_point()[0]
    c1 = math.asinh((spec.s_min - b) / alpha)
    c2 = math.asinh((spec.s_max - b) / alpha)
    return SinhMap(spec, c1, c2)


def build_cubic(spec: StretchSpec) -> CubicMap:
    """Cubic surrogate of the sinh stretch, coefficients from the depressed cubic."""
    _require_kind(spec, StretchKind.CUBIC)
    b = spec.critical_points[0]
    alpha = spec.alpha_per_point()[0]
    c1 = solve_depressed_cubic(spec.chi, (b - spec.s_min) / alpha)
    c2 = solve_depressed_cubic(spec.chi, (b - spec.s_max) / alpha)
    return CubicMap(spec, c1, c2)


def build_piecewise_c1(spec: StretchSpec) -> PiecewiseMap:
    """One cubic piece per critical point, joined with a continuous derivative.

    The scaled per-piece coefficients depend only on price-space data, so the
    C1 condition reduces to a two-term recurrence for the knot gaps h_i
    (normalized to sum to one); this is algebraically the tridiagonal system
    one gets by clearing denominators, with fewer failure modes.
    """
    if spec.kind not in (StretchKind.PIECEWISE_CUBIC_C1, StretchKind.PIECEWISE_C2):
        raise GridConstructionError(f"wrong kind {spec.kind} for piecewise build")
    points = np.asarray(spec.critical_points)
    m = len(points)
    if m < 1:
        raise GridConstructionError("piecewise stretch needs at least one critical point")
    alphas = spec.alpha_per_point()
    mids = np.empty(m + 1)
    mids[0] = spec.s_min
    mids[m] = spec.s_max
    mids[1:m] = 0.5 * (points[:-1] + points[1:])

    c_left = np.empty(m)
    c_right = np.empty(m)
    for i in range(m):
        c_left[i] = solve_depressed_cubic(spec.chi, (points[i] - mids[i]) / alphas[i])
        c_right[i] = solve_depressed_cubic(spec.chi, (points[i] - mids[i + 1]) / alphas[i])

    # End-slope factors of each piece: alpha_i * q / h_i.
    chi = spec.chi
    q_left = (c_right - c_left) * (3.0 * c_left ** 2 / chi + 1.0)
    q_right = (c_right - c_left) * (3.0 * c_right ** 2 / chi + 1.0)

    h = np.empty(m)
    h[0] = 1.0
    for i in range(m - 1):
        h[i + 1] = h[i] * (alphas[i + 1] * q_left[i + 1]) / (alphas[i] * q_right[i])
        if not math.isfinite(h[i + 1]) or h[i + 1] <= 0.0:
            raise GridConstructionError(f"knot collapse between pieces {i} and {i + 1}")
    h /= h.sum()
    knots = np.concatenate(([0.0], np.cumsum(h)))
    knots[-1] = 1.0
    return PiecewiseMap(spec, knots, c_left, c_right, alphas, mids)


def build_piecewise_c2(spec: StretchSpec) -> PiecewiseMap:
    """C1 piecewise-cubic stretch with quintic C2 patches at the interior joins.

    Patch knots follow ``spec.knot_rule``: the direct rule places them at
    fixed fractions lam of the neighboring knot gaps, the inverse rule at the
    preimages of price levels a fraction (1/2 - lam) away from the adjacent
    critical points.  A patch is kept only if it passes the monotonicity
    guard (leading-coefficient sign and an explicit derivative check at the
    inflection candidates); a rejected junction stays C1.
    """
    _require_kind(spec, StretchKind.PIECEWISE_C2)
    base = build_piecewise_c1(spec)
    m = len(spec.critical_points)
    patches: list[QuinticPatch] = []
    rejected: list[int] = []
    solver_matrix = np.array([[1.0, 1.0, 1.0],
                              [3.0, 4.0, 5.0],
                              [6.0, 12.0, 20.0]])
    for j in range(1, m):
        d_j = base.knots[j]
        if spec.knot_rule is KnotRule.DIRECT:
            u_lo = d_j - spec.lam * (d_j - base.knots[j - 1])
            u_hi = d_j + spec.lam * (base.knots[j + 1] - d_j)
        else:
            b_lo, b_hi = spec.critical_points[j - 1], spec.critical_points[j]
            gap = (b_hi - b_lo) * (0.5 - spec.lam)
            u_lo = base.piece_inverse(b_lo + gap, j - 1)
            u_hi = base.piece_inverse(b_hi - gap, j)
        width = u_hi - u_lo
        if width <= 0.0:
            raise GridConstructionError(f"degenerate quintic span at junction {j}")

        a0 = float(base.piece_value(u_lo, j - 1))
        a1 = float(base.piece_deriv(u_lo, j - 1))
        a2 = 0.5 * float(base.piece_deriv2(u_lo, j - 1))
        rhs = np.array([
            float(base.piece_value(u_hi, j)) - (a0 + a1 * width + a2 * width ** 2),
            width * (float(base.piece_deriv(u_hi, j)) - (a1 + 2.0 * a2 * width)),
            width ** 2 * (float(base.piece_deriv2(u_hi, j)) - 2.0 * a2),
        ])
        scaled = np.linalg.solve(solver_matrix, rhs)
        coeff = np.array([a0, a1, a2,
                          scaled[0] / width ** 3,
                          scaled[1] / width ** 4,
                          scaled[2] / width ** 5])
        patch = QuinticPatch(j, u_lo, u_hi, coeff)

        sign_ok = coeff[3] > 0.0
        deriv_ok = _patch_strictly_increasing(patch, width)
        if sign_ok != deriv_ok:
            log.info("quintic monotonicity checks disagree at junction %d "
                     "(a3 > 0: %s, derivative check: %s)", j, sign_ok, deriv_ok)
        if sign_ok and deriv_ok:
            patches.append(patch)
        else:
            rejected.append(j)
    base.patches = patches
    base.rejected_junctions = tuple(rejected)
    return base


def _patch_strictly_increasing(patch: QuinticPatch, width: float) -> bool:
    """True when the patch derivative is positive at every interior inflection."""
    a = patch.coeff
    # Roots of the second derivative, solved in the scaled variable t/width.
    cubic = np.array([20.0 * a[5] * width ** 3,
                      12.0 * a[4] * width ** 2,
                      6.0 * a[3] * width,
                      2.0 * a[2]])
    if np.allclose(cubic, 0.0):
        return patch.deriv(patch.u_lo + 0.5 * width) > 0.0
    roots = np.roots(cubic)
    for r in roots:
        if abs(r.imag) > 1e-9:
            continue
        tau = r.real
        if 0.0 < tau < 1.0:
            if patch.deriv(patch.u_lo + tau * width) <= 0.0:
                return False
    return True


def second_derivative_jump(mapping: PiecewiseMap, i: int) -> tuple[float, float]:
    """One-sided second derivatives of the cubic pieces at interior knot d_i.

    For a shared alpha these are exact negatives of each other.  Returns an
    empty tuple when the map has no interior knots.
    """
    m = len(mapping.spec.critical_points)
    if m <= 1:
        return ()
    if not 1 <= i <= m - 1:
        raise IndexError(f"junction index {i} out of range 1..{m - 1}")
    d = mapping.knots[i]
    left = float(mapping.piece_deriv2(d, i - 1))
    right = float(mapping.piece_deriv2(d, i))
    return left, right


def build_tavella_randall(spec: StretchSpec, ode_steps: int = 1024) -> TavellaRandallMap:
    """Stretch defined through its Jacobian, solved as a two-point boundary problem.

    Fourth-order Runge-Kutta integrates dS/du = A / sqrt(sum_k 1/(alpha_k^2 +
    (S - B_k)^2)) from S(0) = s_min; the normalizing constant A is found by
    bisection on the terminal value (strictly increasing in A), starting from
    analytic bracket bounds and widening geometrically if integration error
    pushes the root outside them.

    Most of that bisection's integrations are spent far from the root, so
    the build runs in three steps:

    1. predict: the ODE is separable, so A is close to the quadrature
       integral of ds / g(s) over the domain (``_tr_quadrature``);
    2. verify: shoot a bracket p < A < q around the prediction whose
       terminal residuals lie below -4 tol and above +4 tol, where tol is
       the bisection's stop tolerance (``_verified_bracket``);
    3. replay: run the bisection from the analytic bounds, with the same
       midpoints, stop tests and errors.  A constant at or below p is
       answered "short by more than tol" and one at or above q "past by
       more than tol" without integrating; only constants strictly inside
       (p, q) are shot, each once.

    The terminal value increases with A up to rounding noise far below
    3 tol, so every skipped answer is the one the integration would give,
    and A and the trajectory are those of the plain bisection bit for bit.
    An unverified side of the bracket stays infinite, and the replay then
    shoots there as the plain bisection does.
    """
    _require_kind(spec, StretchKind.TAVELLA_RANDALL)
    if ode_steps < 16:
        raise GridConstructionError("ode_steps must be at least 16")
    if not spec.critical_points:
        raise GridConstructionError("ODE stretch needs at least one critical point")
    points = [float(b) for b in spec.critical_points]
    alphas = [float(a) for a in spec.alpha_per_point()]
    s_min, s_max = spec.s_min, spec.s_max
    rng = spec.range

    overshoot_cap = s_max + 10.0 * rng
    tol = ENDPOINT_RTOL * rng * 0.5
    paths: dict[float, np.ndarray] = {}

    def terminal(a_const: float) -> float:
        path = paths.get(a_const)
        if path is None:
            path = paths[a_const] = _tr_integrate(a_const, s_min, points, alphas,
                                                  ode_steps, cap=overshoot_cap)
        # a float, so the secant probes built from it stay plain floats too
        return float(path[-1])

    p, q = _verified_bracket(lambda a: terminal(a) - s_max,
                             _tr_quadrature(points, alphas, s_min, s_max), 4.0 * tol)

    def residual(a_const: float) -> float:
        if a_const <= p:
            return -math.inf
        if a_const >= q:
            return math.inf
        return terminal(a_const) - s_max

    # J >= A / sqrt(sum 1/alpha^2) and J <= A * min_k sqrt(alpha_k^2 + R_k^2)
    # bound the shooting constant from both sides.
    a_hi = rng * math.sqrt(sum(1.0 / (a * a) for a in alphas))
    reach = min(math.sqrt(a * a + max(abs(s_min - b), abs(s_max - b)) ** 2)
                for a, b in zip(alphas, points))
    a_lo = rng / reach
    f_lo = residual(a_lo)
    f_hi = residual(a_hi)
    widenings = 0
    while f_lo > 0.0 or f_hi < 0.0:
        widenings += 1
        if widenings > 60:
            raise GridConstructionError(
                f"shooting bracket failure: A in [{a_lo:.6g}, {a_hi:.6g}], "
                f"residuals ({terminal(a_lo) - s_max:.3g}, {terminal(a_hi) - s_max:.3g})")
        if f_lo > 0.0:
            a_lo *= 0.5
            f_lo = residual(a_lo)
        if f_hi < 0.0:
            a_hi *= 2.0
            f_hi = residual(a_hi)

    a_mid = 0.5 * (a_lo + a_hi)
    for _ in range(200):
        a_mid = 0.5 * (a_lo + a_hi)
        f_mid = residual(a_mid)
        if abs(f_mid) <= tol:
            break
        if f_mid < 0.0:
            a_lo = a_mid
        else:
            a_hi = a_mid
        if a_hi - a_lo <= 1e-16 * a_hi:
            break
    else:
        raise GridConstructionError("shooting bisection did not converge")

    # An accepted midpoint ends within tol of s_max, far below the cap, so
    # its memoized path is the uncapped one.
    path = paths[a_mid] if abs(f_mid) <= tol else \
        _tr_integrate(a_mid, s_min, points, alphas, ode_steps)
    if abs(path[-1] - s_max) > ENDPOINT_RTOL * rng:
        raise GridConstructionError(
            f"terminal residual {abs(path[-1] - s_max):.3g} exceeds tolerance")
    path[-1] = s_max
    path[0] = s_min
    u = np.linspace(0.0, 1.0, ode_steps + 1)
    return TavellaRandallMap(spec, a_mid, u, path)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], by Newton on P_n.

    Elementwise recurrences only, so no eigen-solver (and no LAPACK
    workspace) is touched the first time a map is built.
    """
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(50):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(24)


def _tr_quadrature(points, alphas, s_min, s_max) -> float:
    """The constant A of the exact map: the integral of ds / g(s) over the domain.

    Composite Gauss-Legendre with the critical points and the midpoints
    between neighbours as breakpoints.  On each panel, s = B + alpha
    sinh(t) about the panel's critical point B flattens the
    1 / sqrt(alpha^2 + (s - B)^2) peak, so with one critical point the
    integrand is exactly 1 and A = asinh((s_max - B)/alpha) -
    asinh((s_min - B)/alpha).
    """
    b = np.asarray(points, dtype=float)
    edges = np.concatenate(([s_min], 0.5 * (b[:-1] + b[1:]), [s_max]))
    # Two panels per point k: [edges_k, B_k] and [B_k, edges_k+1].
    centre = np.repeat(b, 2)
    alpha = np.repeat(np.asarray(alphas, dtype=float), 2)
    t_lo = np.arcsinh((np.column_stack((edges[:-1], b)).ravel() - centre) / alpha)
    t_hi = np.arcsinh((np.column_stack((b, edges[1:])).ravel() - centre) / alpha)
    half = 0.5 * (t_hi - t_lo)
    t = (0.5 * (t_hi + t_lo))[:, None] + half[:, None] * _GL_NODES
    s = centre[:, None] + alpha[:, None] * np.sinh(t)
    integrand = alpha[:, None] * np.cosh(t) / _tr_speed(s, points, alphas)
    return float(np.sum(half * (integrand @ _GL_WEIGHTS)))


def _verified_bracket(residual, a_pred: float, margin: float) -> tuple[float, float]:
    """Shooting constants p < q whose residuals lie below -margin and above +margin.

    Probes a_pred (1 -/+ 1e-7), widening the offset x16 while a side is
    unverified, then tightens the bracket to about +/- 2 margin around the
    root with up to three secant steps through the two probes of smallest
    residual (at coarse ode_steps the terminal value bends sharply in A, so
    the bracket ends make a poor secant).  Any probe counts toward the side its
    residual verifies; a side left unverified is infinite.
    """
    shots: dict[float, float] = {}

    def bracket() -> tuple[float, float]:
        lo = max((a for a, r in shots.items() if r < -margin), default=-math.inf)
        hi = min((a for a, r in shots.items() if r > margin), default=math.inf)
        return lo, hi

    def probe(a_const: float) -> None:
        if a_const not in shots:
            shots[a_const] = residual(a_const)

    for k in range(6):
        offset = 1e-7 * 16.0 ** k
        if bracket()[0] == -math.inf:
            probe(a_pred * (1.0 - offset))
        if bracket()[1] == math.inf:
            probe(a_pred * (1.0 + offset))
        lo, hi = bracket()
        if math.isfinite(lo) and math.isfinite(hi):
            break
    else:
        return lo, hi

    for _ in range(3):
        (a0, r0), (a1, r1) = sorted(shots.items(), key=lambda shot: abs(shot[1]))[:2]
        slope = (r1 - r0) / (a1 - a0)
        if not slope > 0.0:
            break
        root = a0 - r0 / slope
        half = 2.0 * margin / slope
        if hi - lo <= 4.0 * half:
            break
        for a_const in (root - half, root + half):
            if lo < a_const < hi:
                probe(a_const)
        lo, hi = bracket()
    return lo, hi


def _tr_speed(s, points, alphas):
    acc = 0.0
    for b, a in zip(points, alphas):
        ds = s - b
        acc = acc + 1.0 / (a * a + ds * ds)
    return 1.0 / np.sqrt(acc)


def _tr_integrate(a_const, s0, points, alphas, steps, cap=None):
    """Scalar RK4 on the stretch ODE; plain floats keep the loop cheap.

    Bracket probes with an oversized constant grow exponentially far from
    the attractors, so integration stops once the path passes ``cap`` (the
    terminal comparison only needs its sign there; the accepted constant
    lands on the target and never trips it).
    """
    pa = list(zip(points, alphas))

    def f(s):
        acc = 0.0
        for b, a in pa:
            ds = s - b
            acc += 1.0 / (a * a + ds * ds)
        return a_const / math.sqrt(acc)

    h = 1.0 / steps
    out = np.empty(steps + 1)
    s = float(s0)
    out[0] = s
    for i in range(steps):
        k1 = f(s)
        k2 = f(s + 0.5 * h * k1)
        k3 = f(s + 0.5 * h * k2)
        k4 = f(s + h * k3)
        s += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = s
        if cap is not None and s > cap:
            out[i + 2:] = s
            break
    return out


def build_map(spec: StretchSpec, ode_steps: int | None = None) -> StretchMap:
    """Build the map for any kind; degenerate specs fall back to uniform."""
    if spec.kind is StretchKind.UNIFORM or not spec.critical_points:
        return UniformMap(spec)
    if spec.kind is StretchKind.SINH:
        return build_sinh(spec)
    if spec.kind is StretchKind.CUBIC:
        return build_cubic(spec)
    if spec.kind is StretchKind.PIECEWISE_CUBIC_C1:
        return build_piecewise_c1(spec)
    if spec.kind is StretchKind.PIECEWISE_C2:
        return build_piecewise_c2(spec)
    if spec.kind is StretchKind.TAVELLA_RANDALL:
        return build_tavella_randall(spec, ode_steps or 1024)
    raise GridConstructionError(f"unknown stretch kind {spec.kind}")


def _require_kind(spec: StretchSpec, kind: StretchKind):
    if spec.kind is not kind:
        raise GridConstructionError(f"spec kind {spec.kind} does not match builder {kind}")
    if len(spec.critical_points) == 0:
        raise GridConstructionError("builder needs at least one critical point")


# ---------------------------------------------------------------------------
# Grids


@dataclass
class Grid:
    """Strictly increasing price grid."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 1 or self.points.size < 2:
            raise GridConstructionError("grid needs at least two points")
        if not np.isfinite(self.points).all():
            k = int(np.argmin(np.isfinite(self.points)))
            raise GridConstructionError(f"grid point {k} is {self.points[k]}, not finite")
        if np.any(np.diff(self.points) <= 0.0):
            raise GridConstructionError("grid points must be strictly increasing")

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def steps(self) -> int:
        return self.points.size - 1

    def bracket(self, value: float) -> int:
        """Index k with points[k] <= value < points[k+1]."""
        k = int(np.searchsorted(self.points, value, side="right") - 1)
        return min(max(k, 0), self.n - 2)


def sample_grid(mapping: StretchMap, I: int) -> Grid:
    """Sample S(j/I) for j = 0..I; endpoints snapped exactly to the bounds."""
    if I < 2:
        raise GridConstructionError("need at least two intervals")
    spec = mapping.spec
    u = np.linspace(0.0, 1.0, I + 1)
    pts = mapping(u)
    if abs(pts[0] - spec.s_min) > ENDPOINT_RTOL * spec.range or \
            abs(pts[-1] - spec.s_max) > ENDPOINT_RTOL * spec.range:
        raise GridConstructionError("map endpoints violate the bounds tolerance")
    pts[0] = spec.s_min
    pts[-1] = spec.s_max
    if np.any(np.diff(pts) <= 0.0):
        raise GridConstructionError("sampled grid is not strictly increasing (construction bug)")
    return Grid(pts)
