"""Nonuniform grid generation and TR-BDF2 Black-Scholes finite differences.

The package builds monotone coordinate stretchings that concentrate grid
nodes near critical price levels (strikes, barriers), adjusts grids so those
levels sit mid-cell or on a node, prices contracts on the result with a
TR-BDF2 marcher, and ships a benchmark harness that measures convergence
against closed-form and fine-grid references.
"""

from .analytics import black_scholes_vanilla, double_barrier_ko_analytic
from .bench import (ConvergenceReport, RunConfig, TableConfig, bench_transforms,
                    emit_csv, emit_table_csv, load_bundled, load_config,
                    price_run, run_convergence)
from .fdm import (BarrierMode, BoundaryCondition, BoundaryKind, GhostSide,
                  MarketParams, NonFiniteValueError, PdeConfig,
                  SingularSystemError, SpatialOperator, TrBdf2Stepper,
                  discretize_operator)
from .gridgen import (Grid, GridConstructionError, KnotRule, StretchKind,
                      StretchMap, StretchSpec, build_cubic, build_map,
                      build_piecewise_c1, build_piecewise_c2, build_sinh,
                      build_tavella_randall, sample_grid,
                      second_derivative_jump, solve_depressed_cubic)
from .instruments import (ContractSpec, ExerciseStyle, OptionType,
                          constraint_hooks, payoff)
from .placement import (PlacementError, PlacementGoal, PlacementMode,
                        PlacementSpec, Target, apply_placement, deform_smooth,
                        insert_points)
from .spline import MonotoneCubic

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
