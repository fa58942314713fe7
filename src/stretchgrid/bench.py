"""Configuration-driven convergence runner and micro-benchmarks.

A run prices one contract on a sweep of grid resolutions, compares against a
reference resolution of the same grid family (or a shared reference column
for continuously monitored tables), and reports absolute errors (x 1e5, the
usual benchmark convention) plus the measured convergence order.

Configs are flat ``key = value`` text files with dotted section names; a
``columns`` key plus ``column.<name>.<key>`` overrides describe several grid
regimes sharing one contract (see the bundled files under ``configs/``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._threads import workers
from .fdm import (BarrierMode, BoundaryCondition, BoundaryKind, MarketParams,
                  PdeConfig, TrBdf2Stepper, start)
from .gridgen import (Grid, StretchKind, StretchMap, StretchSpec, KnotRule,
                      build_map, sample_grid)
from .instruments import (ContractSpec, ExerciseStyle, OptionType,
                          constraint_hooks, payoff)
from .placement import (PlacementGoal, PlacementMode, PlacementSpec, Target,
                        apply_placement)
from .spline import MonotoneCubic


class ConfigError(ValueError):
    """Malformed run configuration."""


class DomainFit:
    EXPLICIT = "explicit"
    BARRIER_EXACT = "barrier_exact"                  # domain = [L, U]
    BARRIER_OFFSET_HALF_CELL = "barrier_offset_half_cell"  # barriers mid-cell
    BARRIER_NODE_PAD = "barrier_node_pad"            # [L - h, U + h], h = (U-L)/I


@dataclass(frozen=True)
class DomainSpec:
    s_min: float = 0.0
    s_max: float = 0.0
    fit: str = DomainFit.EXPLICIT


@dataclass(frozen=True)
class RunConfig:
    """One grid regime: contract + market + grid recipe + sweep settings."""

    contract: ContractSpec
    market: MarketParams
    stretch: StretchSpec
    placement: PlacementSpec
    pde: PdeConfig
    space_steps: tuple[int, ...]
    reference_steps: int
    report_spots: tuple[float, ...]
    domain: DomainSpec = DomainSpec()
    match_time_steps: bool = False   # N = I per row (continuous-barrier tables)
    label: str = "run"

    def __post_init__(self):
        if self.reference_steps <= max(self.space_steps, default=0):
            raise ConfigError("reference resolution must exceed the sweep")
        if not self.report_spots:
            raise ConfigError("need at least one report spot")


@dataclass
class ConvergenceRow:
    steps: int
    prices: dict[float, float]
    errors_1e5: dict[float, float]
    order: float = math.nan
    failed: str = ""


@dataclass
class ConvergenceReport:
    label: str
    spots: tuple[float, ...]
    rows: list[ConvergenceRow] = field(default_factory=list)
    reference: dict[float, float] = field(default_factory=dict)

    def errors(self, spot: float) -> list[float]:
        return [r.errors_1e5[spot] for r in self.rows if not r.failed]

    def orders(self, spot: float) -> list[float]:
        """The order between each two consecutive rows, neither failed."""
        return [_order(prev, row, spot) for prev, row in zip(self.rows, self.rows[1:])
                if not (prev.failed or row.failed)]


def _order(prev: ConvergenceRow, row: ConvergenceRow, spot: float) -> float:
    """Observed convergence order from ``prev`` to ``row`` at ``spot``; NaN
    when either error is zero."""
    e_prev, e_cur = prev.errors_1e5[spot], row.errors_1e5[spot]
    if e_prev > 0.0 and e_cur > 0.0:
        return math.log(e_prev / e_cur) / math.log(row.steps / prev.steps)
    return math.nan


# ---------------------------------------------------------------------------
# Grid construction per resolution


def resolve_domain(config: RunConfig, steps: int) -> tuple[float, float, int]:
    """Domain bounds and actual interval count for one sweep resolution.

    Raises ``ConfigError`` naming I when I < 1, or when the domain fit
    leaves fewer than two intervals.
    """
    if steps < 1:
        raise ConfigError(f"I = {steps}: need at least two intervals (I must be at least 1)")
    s_min, s_max, intervals = _fit_domain(config, steps)
    if intervals < 2:
        raise ConfigError(f"I = {steps}: need at least two intervals "
                          f"(domain.fit = {config.domain.fit} gives {intervals})")
    return s_min, s_max, intervals


def _fit_domain(config: RunConfig, steps: int) -> tuple[float, float, int]:
    c = config.contract
    fit = config.domain.fit
    if fit == DomainFit.EXPLICIT:
        return config.domain.s_min, config.domain.s_max, steps
    if c.barrier_lower is None or c.barrier_upper is None:
        raise ConfigError("barrier-fitted domains need both barriers")
    lo, hi = c.barrier_lower, c.barrier_upper
    if fit == DomainFit.BARRIER_EXACT:
        return lo, hi, steps
    if fit == DomainFit.BARRIER_OFFSET_HALF_CELL:
        h = (hi - lo) / steps
        return lo - 0.5 * h, hi + 0.5 * h, steps + 1
    if fit == DomainFit.BARRIER_NODE_PAD:
        # one extra cell beyond each barrier; on a uniform grid the barriers
        # are then nodes by construction
        h = (hi - lo) / steps
        return lo - h, hi + h, steps + 2
    raise ConfigError(f"unknown domain fit {fit!r}")


class PricingError(RuntimeError):
    """A reference pricing failed: the message starts with its column label
    and I, and the original exception is its ``__cause__``."""


class _Prices(dict):
    """Spot -> price of one pricing, filled when its block marches.  ``name``
    is its column label and I; ``error`` is the exception that failed it, if
    any."""

    error: Exception | None = None

    def __init__(self, config: RunConfig, steps: int):
        super().__init__()
        self.name = f"{config.label}, I = {steps}"

    def message(self) -> str:
        """The failure, named: ``"<label>, I = <steps>: <error>"``."""
        return f"{self.name}: {self.error}"


def _failure(prices: dict) -> Exception | None:
    return getattr(prices, "error", None)


@dataclass
class _Pricing:
    """A built pricing waiting to march: its unfactored block, its terminal
    values, and its prices, which carry its name."""

    stepper: TrBdf2Stepper
    terminal: np.ndarray
    spots: tuple[float, ...]
    prices: _Prices


def _fill(prices: _Prices, points: np.ndarray, spots: tuple[float, ...], values):
    """Interpolate a marched block's ``values`` on its grid ``points`` at
    each spot into ``prices``, or record the exception that failed it."""
    if isinstance(values, Exception):
        prices.error = values
    else:
        interp = MonotoneCubic(points, values)
        prices.update((s, float(interp(s))) for s in spots)


def _march(pricings: list[_Pricing]):
    """March the pricings at the same time through one ``run`` of the first
    pricing's block, which calls ``fdm.march``, and fill their prices.  A
    pricing whose block failed (``fdm.march`` splits a failed stack until the
    failing block stands alone) records its own exception as its error."""
    values = pricings[0].stepper.run(
        [(pricing.stepper, pricing.terminal) for pricing in pricings])
    for pricing, block in zip(pricings, values):
        _fill(pricing.prices, pricing.stepper.grid.points, pricing.spots, block)


class _Started(NamedTuple):
    """A pricing whose march was started (``fdm.start``): the started march,
    and only what interpolating its values needs."""

    march: object
    points: np.ndarray
    spots: tuple[float, ...]
    prices: _Prices


class _TableCache:
    """What the pricings of one table share: stretch maps; ``pending``, the
    pricings queued to march together, in the order they were queued; and
    ``started``, the pricings whose march was started and not yet joined,
    oldest first.

    ``_sweep`` keeps one cache for the references and every column, so
    columns with equal stretch specs share their maps.  A map is keyed on
    its spec and on ode_steps, which follows the resolution for
    Tavella-Randall maps and is ``None`` for every other kind.
    """

    def __init__(self):
        self._maps: dict[tuple, StretchMap] = {}
        self.pending: list[_Pricing] = []
        self.started: list[_Started] = []

    def get(self, spec: StretchSpec, steps: int) -> StretchMap:
        ode_steps = (max(16, 8 * steps) if spec.kind is StretchKind.TAVELLA_RANDALL
                     else None)
        key = (spec, ode_steps)
        if key not in self._maps:
            self._maps[key] = build_map(spec, ode_steps=ode_steps)
        return self._maps[key]

    def march(self):
        """March every pending pricing through one ``fdm.march`` (see
        ``_march``), and empty the queue."""
        pricings, self.pending = self.pending, []
        if pricings:
            _march(pricings)

    def start(self):
        """Start each pending pricing's march on its own (``fdm.start``), and
        empty the queue.  While ``workers()`` started marches are not yet
        joined, the oldest is joined first, so no more march at once.  Only
        the block's grid points stay here, not its block or terminal."""
        while self.pending:
            pricing = self.pending.pop(0)
            if len(self.started) >= workers():
                self.join(1)
            self.started.append(_Started(start([(pricing.stepper, pricing.terminal)]),
                                         pricing.stepper.grid.points, pricing.spots,
                                         pricing.prices))

    def join(self, count: int | None = None):
        """Join the ``count`` oldest started marches (every one by default)
        and fill their prices.  A march that ends without a result (its
        process killed, say) records that error as its pricing's."""
        for _ in range(len(self.started) if count is None else count):
            started = self.started[0]
            try:
                values, = started.march.result()
            except Exception as exc:  # noqa: BLE001 - the pricing's own error
                values = exc
            _fill(started.prices, started.points, started.spots, values)
            self.started.pop(0)

    def cancel(self):
        """Cancel every started march not yet joined (see ``fdm.start``):
        each child is killed and reaped, each thread stopped and joined."""
        while self.started:
            self.started.pop().march.cancel()


def build_run_grid(config: RunConfig, steps: int, cache: _TableCache | None = None) -> Grid:
    s_min, s_max, intervals = resolve_domain(config, steps)
    stretch = config.stretch
    if (stretch.s_min, stretch.s_max) != (s_min, s_max):
        stretch = replace(stretch, s_min=s_min, s_max=s_max)
    cache = cache or _TableCache()
    grid = sample_grid(cache.get(stretch, intervals), intervals)
    if config.placement.mode is not PlacementMode.NONE and config.placement.targets:
        grid = apply_placement(grid, config.placement)
    return grid


def price_run(config: RunConfig, steps: int,
              cache: _TableCache | None = None) -> dict[float, float]:
    """Price the contract on the grid for one resolution; spot -> price.

    Builds the row's grid, hooks and unfactored block.  With a table's
    ``cache`` the pricing joins ``cache.pending`` and the returned dict stays
    empty until ``cache.march()`` fills it (or sets its ``error`` when the
    march fails).  Without a cache it marches at once and raises on failure.
    """
    grid = build_run_grid(config, steps, cache)
    lo, hi = grid.points[0], grid.points[-1]
    for s in config.report_spots:
        if not lo <= s <= hi:
            raise ConfigError(f"report spot {s} outside the grid [{lo}, {hi}]")
    pde = config.pde
    if config.match_time_steps:
        pde = replace(pde, time_steps=steps)
    hooks = tuple(constraint_hooks(config.contract, grid, pde))
    stepper = TrBdf2Stepper(grid, config.market, pde, config.contract.maturity, hooks)
    pricing = _Pricing(stepper, payoff(config.contract, grid), config.report_spots,
                       _Prices(config, steps))
    if cache is not None:
        cache.pending.append(pricing)
    else:
        _march([pricing])
        if pricing.prices.error is not None:
            raise pricing.prices.error
    return pricing.prices


def _reference(config: RunConfig, cache: _TableCache) -> dict[float, float]:
    """Build ``config``'s reference pricing and march it.  With one worker
    it marches at once, in the calling process.  With more, its march starts
    the moment its block is built (see ``_TableCache.start``: in a forked
    process on Linux, on a thread elsewhere), while the caller builds the
    next grids; ``_sweep`` joins it last.  A reference that fails to build
    raises ``PricingError`` naming it."""
    try:
        prices = price_run(config, config.reference_steps, cache)
    except Exception as exc:
        failed = _Prices(config, config.reference_steps)
        failed.error = exc
        raise PricingError(failed.message()) from exc
    if workers() == 1:
        cache.march()
    else:
        cache.start()
    return prices


def _sweep(configs: list[RunConfig],
           reference: RunConfig | dict[float, float] | None = None) -> list[ConvergenceReport]:
    """One report per config, each against ``reference``: prices given for
    every config, a ``RunConfig`` whose reference every config shares, or,
    with ``None``, each config's own reference.

    One ``_TableCache`` serves the whole sweep.  Each missing reference is
    built and marched (see ``_reference``); then every sweep row of every
    config is built and queued, and the rows march together through one
    ``fdm.march`` in the calling thread, beside the references still
    marching; the started references are joined last.  A row that fails to
    build or to march is marked failed instead of aborting; a failed
    reference raises ``PricingError``.  Either names its column and
    I.  When the sweep exits by an exception (a reference that fails to
    build, an interrupt), every started march is cancelled, its process
    killed and reaped, before the exception leaves.
    """
    cache = _TableCache()
    try:
        if isinstance(reference, RunConfig):
            reference = _reference(reference, cache)
        references = [_reference(config, cache) if reference is None else reference
                      for config in configs]
        queued = []
        for config in configs:
            rows = []
            for steps in config.space_steps:
                try:
                    prices = price_run(config, steps, cache)
                except Exception as exc:  # noqa: BLE001 - cell-level fault isolation
                    prices = _Prices(config, steps)
                    prices.error = exc
                rows.append((steps, prices))
            queued.append(rows)
        cache.march()
        cache.join()
    except BaseException:
        cache.cancel()
        raise
    for prices in references:
        error = _failure(prices)
        if error is not None:
            raise PricingError(prices.message()) from error
    return [_report(config, prices, rows)
            for config, prices, rows in zip(configs, references, queued)]


def _report(config: RunConfig, reference_prices: dict[float, float],
            rows: list[tuple[int, dict[float, float]]]) -> ConvergenceReport:
    report = ConvergenceReport(config.label, config.report_spots,
                               reference=dict(reference_prices))
    for steps, prices in rows:
        if _failure(prices) is not None:
            report.rows.append(ConvergenceRow(steps, {}, {}, failed=prices.message()))
            continue
        errors = {s: abs(prices[s] - reference_prices[s]) * 1e5
                  for s in config.report_spots}
        row = ConvergenceRow(steps, dict(prices), errors)
        if report.rows and not report.rows[-1].failed:
            row.order = _order(report.rows[-1], row, config.report_spots[0])
        report.rows.append(row)
    return report


def run_convergence(config: RunConfig,
                    reference_prices: dict[float, float] | None = None) -> ConvergenceReport:
    """Sweep the space resolutions against a same-regime reference.

    The reference is priced with the same stretch/placement recipe at
    ``reference_steps`` unless explicit reference prices are passed in (used
    by table runs whose published reference is shared across columns).
    ``_sweep`` builds it and starts its march (with one worker, marches it)
    before it builds the rows, which then march together in the calling
    thread, blocks that share (dt, N) as one stacked system; the reference
    is joined last.
    Failed resolutions are marked in the report instead of aborting the
    sweep; a failed reference raises ``PricingError``.
    """
    return _sweep([config], reference_prices)[0]


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return f"{x:.10g}"
    return str(x)


def _csv_field(s: str) -> str:
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv_line(fields) -> str:
    return ",".join(_csv_field(_fmt(f)) for f in fields) + "\r\n"


def report_csv_lines(report: ConvergenceReport, prefix: tuple[str, ...] = ()) -> list[list]:
    """Rows as field lists: I, then price/err per spot, then order."""
    out = []
    for row in report.rows:
        fields: list = list(prefix) + [row.steps]
        for s in report.spots:
            if row.failed:
                fields += ["failed", "failed"]
            else:
                fields += [row.prices[s], row.errors_1e5[s]]
        fields.append(row.order if not row.failed else "")
        out.append(fields)
    return out


def _spot_columns(spots) -> list[str]:
    """The price and error column names of each spot."""
    return [f"{name}_S{_fmt(float(s))}" for s in spots for name in ("price", "err1e5")]


def write_csv(header: list[str], rows, destination) -> int:
    """Write the header, then each row's fields, as CSV to a path or a binary
    stream; returns bytes written.

    Numbers carry 10 significant digits, fields are RFC-4180 quoted when
    needed and every line ends in CRLF, so identical runs are byte-identical.
    """
    data = "".join(_csv_line(fields) for fields in [header, *rows]).encode("utf-8")
    if hasattr(destination, "write"):
        destination.write(data)
    else:
        Path(destination).write_bytes(data)
    return len(data)


def emit_csv(report: ConvergenceReport, destination) -> int:
    """Write one report as CSV (see ``write_csv``); returns bytes written.
    The columns are I, then per-spot price/error, then order."""
    header = ["I", *_spot_columns(report.spots), "order"]
    return write_csv(header, report_csv_lines(report), destination)


def emit_table_csv(results: list[tuple[str, ConvergenceReport]], destination) -> int:
    """Concatenate per-column reports into one long-format CSV, under one
    header; reports whose spots differ raise ``ConfigError``."""
    if not results:
        raise ConfigError("no reports to emit")
    first, spots = results[0][0], results[0][1].spots
    for name, report in results:
        if report.spots != spots:
            raise ConfigError(f"column {name!r} reports spots {report.spots} and column "
                              f"{first!r} {spots}: a table CSV needs the same spots "
                              "in every column")
    rows = [fields for name, report in results
            for fields in report_csv_lines(report, prefix=(name,))]
    header = ["column", "I", *_spot_columns(spots), "order"]
    return write_csv(header, rows, destination)


# ---------------------------------------------------------------------------
# Transform micro-benchmark


@dataclass
class TimingReport:
    samples: int
    seconds_baseline: float
    seconds_candidate: float

    @property
    def ratio(self) -> float:
        return self.seconds_baseline / self.seconds_candidate


def bench_transforms(samples: int = 10_000_000,
                     baseline: StretchSpec | None = None,
                     candidate: StretchSpec | None = None,
                     repetitions: int = 5) -> TimingReport:
    """Wall-clock of candidate (default cubic) vs baseline (default sinh)
    map evaluation over identical uniform samples; best-of-n timing.

    From 80 chunks of 65,536 samples up (the default 1e7 samples among
    them) both maps evaluate on ``workers()`` threads (see
    ``gridgen._chunked_eval``), so the times come from every CPU the process
    may use, not from one.
    """
    if samples < 1_000_000:
        raise ConfigError("need at least 1e6 samples for a stable timing")
    if baseline is None:
        baseline = StretchSpec(StretchKind.SINH, 0.0, 150.0, (125.0,), (1.5,))
    if candidate is None:
        candidate = StretchSpec(StretchKind.CUBIC, 0.0, 150.0, (125.0,), (1.5,))
    map_a = build_map(baseline)
    map_b = build_map(candidate)
    u = np.random.default_rng(20240917).random(samples)
    warm = u[: min(samples, 1_000_000)]
    map_a(warm)
    map_b(warm)

    def best(mapping) -> float:
        t_best = math.inf
        for _ in range(repetitions):
            t0 = time.perf_counter()
            mapping(u)
            t_best = min(t_best, time.perf_counter() - t0)
        return t_best

    return TimingReport(samples, best(map_a), best(map_b))


# ---------------------------------------------------------------------------
# Config parsing


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _finite(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _finite_floats(s: str) -> tuple[float, ...]:
    return tuple(_finite(tok) for tok in s.split(",") if tok.strip())


def _domain_fit(s: str) -> str:
    fits = sorted(v for k, v in vars(DomainFit).items() if k.isupper())
    if s not in fits:
        raise ValueError(f"choose one of {', '.join(fits)}")
    return s


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


def _parse_targets(s: str) -> tuple[Target, ...]:
    targets = []
    for tok in s.split(","):
        tok = tok.strip()
        if not tok:
            continue
        goal, _, value = tok.partition(":")
        if not value:
            raise ConfigError(f"target {tok!r} must look like midcell:100")
        goal = goal.strip().lower()
        if goal == "midcell":
            targets.append(Target(_finite(value), PlacementGoal.MID_CELL))
        elif goal == "ongrid":
            targets.append(Target(_finite(value), PlacementGoal.ON_GRID))
        else:
            raise ConfigError(f"unknown placement goal {goal!r}")
    return tuple(targets)


def _parse_boundary(s: str) -> BoundaryCondition:
    kind, _, value = s.partition(":")
    kind = kind.strip().lower()
    table = {"zero_gamma": BoundaryKind.ZERO_GAMMA,
             "degenerate_exact": BoundaryKind.DEGENERATE_EXACT,
             "dirichlet": BoundaryKind.DIRICHLET_VALUE}
    if kind not in table:
        raise ConfigError(f"unknown boundary kind {kind!r}")
    if table[kind] is not BoundaryKind.DIRICHLET_VALUE and value:
        raise ConfigError(f"{kind} takes no value")
    return BoundaryCondition(table[kind], _finite(value) if value else 0.0)


_REQUIRED = object()

# Keys only the table reads; ``_build_run`` reads every other known key.
_TABLE_KEYS = ("columns", "sweep.reference_mode", "sweep.reference_column")


def _build_run(kv: dict[str, str], label: str,
               origin: dict[str, str] | None = None) -> RunConfig:
    """One column's ``RunConfig``; any bad value raises ``ConfigError``
    naming its key (or, for a check across keys, the section's keys), and so
    does a key nothing reads, named as ``origin`` maps it (its name in the
    file, for a column's own keys)."""
    origin = origin or {}
    read: set[str] = set()

    def get(key: str, convert, default=_REQUIRED):
        read.add(key)
        if key not in kv:
            if default is _REQUIRED:
                raise ConfigError(f"missing config key {key!r}")
            return default
        try:
            return convert(kv[key])
        except ValueError as exc:
            raise ConfigError(f"{key} = {kv[key]!r}: {exc}") from exc

    def build(section: str, make):
        try:
            return make()
        except ValueError as exc:
            keys = ", ".join(k for k in kv if k.startswith(section)) or section + "*"
            raise ConfigError(f"{keys}: {exc}") from exc

    style = get("contract.style", ExerciseStyle)
    put_call = get("contract.put_call", OptionType)
    strike = get("contract.strike", _finite)
    maturity = get("contract.maturity", _finite)
    barrier_lower = get("contract.barrier_lower", _finite, None)
    barrier_upper = get("contract.barrier_upper", _finite, None)
    rebate = get("contract.rebate", _finite, 0.0)
    observations = get("contract.observations_per_year", int, None)
    dates = get("contract.observation_dates", _finite_floats, None)
    contract = build("contract.", lambda: ContractSpec(
        style=style, put_call=put_call, strike=strike, maturity=maturity,
        barrier_lower=barrier_lower, barrier_upper=barrier_upper, rebate=rebate,
        observations_per_year=observations, observation_dates=dates))
    rate = get("market.rate", _finite, 0.0)
    dividend = get("market.dividend", _finite, 0.0)
    sigma = get("market.sigma", _finite, 0.0)
    market = build("market.", lambda: MarketParams(rate=rate, dividend=dividend,
                                                   sigma=sigma))
    fit = get("domain.fit", _domain_fit, DomainFit.EXPLICIT)
    domain = DomainSpec(
        s_min=get("domain.s_min", _finite, 0.0),
        s_max=get("domain.s_max", _finite, 0.0),
        fit=fit,
    )
    if fit == DomainFit.EXPLICIT and not domain.s_min < domain.s_max:
        raise ConfigError("explicit domains need domain.s_min < domain.s_max")

    kind = get("stretch.kind", StretchKind, StretchKind.UNIFORM)
    points = get("stretch.points", _finite_floats, ())
    alphas = get("stretch.alpha", _finite_floats, None)
    chi = get("stretch.chi", _finite, 6.0)
    lam = get("stretch.lambda", _finite, 0.25)
    knot_rule = get("stretch.knot_rule", KnotRule, KnotRule.INVERSE)
    # Bounds are provisional; build_run_grid rebinds them per resolved domain.
    s_min = domain.s_min if fit == DomainFit.EXPLICIT else (contract.barrier_lower or 0.0) - 1.0
    s_max = domain.s_max if fit == DomainFit.EXPLICIT else (contract.barrier_upper or 1.0) + 1.0
    stretch = build("stretch.", lambda: StretchSpec(
        kind, s_min, s_max, points, alphas, chi=chi, lam=lam, knot_rule=knot_rule))

    mode = get("placement.mode", PlacementMode, PlacementMode.NONE)
    targets = get("placement.targets", _parse_targets, ())
    placement = build("placement.", lambda: PlacementSpec(mode, targets))

    match_time = get("pde.time_steps", str.strip, "match_space") == "match_space"
    time_steps = 1 if match_time else get("pde.time_steps", int)
    lower = get("pde.boundary_lower", _parse_boundary, BoundaryCondition())
    upper = get("pde.boundary_upper", _parse_boundary, BoundaryCondition())
    barrier_mode = get("pde.barrier_mode", BarrierMode, BarrierMode.ON_GRID_DIRICHLET)
    pde = build("pde.", lambda: PdeConfig(time_steps=time_steps, boundary_lower=lower,
                                          boundary_upper=upper, barrier_mode=barrier_mode))

    config = RunConfig(
        contract=contract, market=market, stretch=stretch, placement=placement,
        pde=pde,
        space_steps=get("sweep.space_steps", _ints),
        reference_steps=get("sweep.reference_steps", int),
        report_spots=get("sweep.report_spots", _finite_floats),
        domain=domain, match_time_steps=match_time, label=label,
    )
    for key, bc, side in (("pde.boundary_lower", lower, 0), ("pde.boundary_upper", upper, 1)):
        if bc.kind is not BoundaryKind.DEGENERATE_EXACT:
            continue
        for steps in (*config.space_steps, config.reference_steps):
            edges = resolve_domain(config, steps)[:2]
            if abs(edges[side]) > 1e-12 * (edges[1] - edges[0]):
                setter = (("domain.s_min", "domain.s_max")[side]
                          if fit == DomainFit.EXPLICIT else "domain.fit")
                raise ConfigError(
                    f"{origin.get(key, key)} = degenerate_exact needs the grid edge at "
                    f"S = 0, but {origin.get(setter, setter)} puts it at {edges[side]:g} "
                    f"(I = {steps})")
    for key in kv:
        if key not in read and (key not in _TABLE_KEYS or key in origin):
            raise ConfigError(f"unknown config key {origin.get(key, key)!r}")
    return config


@dataclass(frozen=True)
class TableConfig:
    """A set of grid regimes (columns) sharing one contract and sweep."""

    columns: tuple[tuple[str, RunConfig], ...]
    reference_mode: str = "per_column"       # or "shared"
    reference_column: str = ""

    def run(self) -> list[tuple[str, ConvergenceReport]]:
        """Price every column's sweep with one ``_sweep``: each reference
        (the shared one, or one per column) is built and its march started
        at once (see ``_reference``); every sweep row of every column is then
        built and queued, and the rows march together through one
        ``fdm.march`` in the calling thread, beside the references still
        marching; the references are joined last.  So at most ``workers()``
        references and the rows march at once."""
        configs = [cfg for _, cfg in self.columns]
        shared = None
        if self.reference_mode == "shared":
            by_name = dict(self.columns)
            if self.reference_column not in by_name:
                raise ConfigError(f"reference column {self.reference_column!r} not defined")
            shared = by_name[self.reference_column]
        reports = _sweep(configs, shared)
        return [(name, report) for (name, _), report in zip(self.columns, reports)]


def parse_table_config(kv: dict[str, str]) -> TableConfig:
    names = [tok.strip() for tok in kv.get("columns", "").split(",") if tok.strip()]
    for key in kv:
        if key.startswith("column.") and not any(
                key.startswith(f"column.{name}.") for name in names):
            raise ConfigError(f"{key}: no such column in columns = "
                              f"{kv.get('columns', '')!r}")
    if not names:
        return TableConfig(columns=(("run", _build_run(kv, "run")),))
    columns = []
    for name in names:
        merged = {k: v for k, v in kv.items() if not k.startswith("column.")}
        prefix = f"column.{name}."
        scoped = {k[len(prefix):]: v for k, v in kv.items() if k.startswith(prefix)}
        # a column stretch/placement block replaces the base one wholesale
        for section in ("stretch.", "placement."):
            if any(k.startswith(section) for k in scoped):
                merged = {k: v for k, v in merged.items() if not k.startswith(section)}
        merged.update(scoped)
        origin = {k: prefix + k for k in scoped}
        columns.append((name, _build_run(merged, name, origin)))
        spots = columns[0][1].report_spots
        if columns[-1][1].report_spots != spots:
            # one of the two columns overrides the spots, or both would match
            key = next(key for key in (prefix + "sweep.report_spots",
                                       f"column.{names[0]}.sweep.report_spots") if key in kv)
            raise ConfigError(f"{key} = {kv[key]!r}: column {name!r} reports spots "
                              f"{columns[-1][1].report_spots} and column {names[0]!r} "
                              f"{spots}, but a table's columns share one set of spots")
    reference_mode = kv.get("sweep.reference_mode", "per_column")
    if reference_mode not in ("per_column", "shared"):
        raise ConfigError(f"sweep.reference_mode = {reference_mode!r}: "
                          "expected per_column or shared")
    return TableConfig(
        columns=tuple(columns),
        reference_mode=reference_mode,
        reference_column=kv.get("sweep.reference_column", names[0]),
    )


def load_config(path: str | Path) -> TableConfig:
    """The table config in the file at ``path``.  For config text, call
    ``parse_table_config(parse_config_text(text))``."""
    return parse_table_config(parse_config_text(Path(path).read_text()))


BUNDLED_TABLES = {
    1: "discrete_ko_stretch.cfg",
    2: "discrete_ko_uniform_placed.cfg",
    3: "discrete_ko_stretch_placed.cfg",
    4: "double_ko_discrete_stretch.cfg",
    5: "double_ko_continuous_ghost.cfg",
    6: "double_ko_continuous_stretch.cfg",
}


def load_bundled(name_or_number: str | int) -> TableConfig:
    if isinstance(name_or_number, int) or str(name_or_number).isdigit():
        number = int(name_or_number)
        if number not in BUNDLED_TABLES:
            raise ConfigError(f"no bundled table {number}; choose 1..6")
        name = BUNDLED_TABLES[number]
    else:
        name = str(name_or_number)
        if not name.endswith(".cfg"):
            name += ".cfg"
    text = resources.files("stretchgrid").joinpath("configs").joinpath(name).read_text()
    return parse_table_config(parse_config_text(text))
