"""Cooperative distributed MPC for block-structured linear plants.

The toolkit assembles networked plants from pairwise state blocks, maps
them through an orthogonal input-major regrouping into decoupled per-agent
dynamics, synthesizes certified terminal ingredients, and solves the
horizon problem with a centralized, a no-iteration distributed, or an
iterated cooperative strategy.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CoopMpcError,
    DimensionMismatch,
    NotPD,
    NotPSD,
    NotSchur,
    NotStabilized,
    RiccatiDiverged,
    SelectionFailed,
    SingularSystem,
    SolverFailure,
    StructureViolation,
)
from .plant import (
    CompositePlant,
    CostSpec,
    PermutationMap,
    SubsystemBlocks,
    TransformedCost,
    TransformedPlant,
    build_composite,
    build_permutation,
    subsystem_partition,
    transform_cost,
    transform_plant,
)
from .synthesis import (
    BallCertificate,
    CertCheck,
    TerminalIngredients,
    check_corollary_dd,
    check_prop1,
    check_prop2_blocks,
    lqr_gain,
    lqr_gains,
    select_terminal_weights,
    solve_discrete_lyapunov,
    synthesize,
    verify_ball_terminal,
)
from .qp import (
    CondensedQp,
    HorizonOperators,
    QpSolution,
    SolverOptions,
    TerminalBall,
    build_condensed,
    solve_qp,
)
from .problem import Problem
from .controllers import (
    InputSequenceSet,
    SolveInfo,
    StrategyConfig,
    shift_sequences,
    solve_centralized,
    solve_cooperative,
    solve_local_noiter,
    solve_noiter_all,
    solve_strategy,
)
from .harness import (
    ClosedLoopTrace,
    ComparisonRow,
    MonteCarloReport,
    StepRecord,
    compare_strategies,
    comparison_to_csv,
    config_digest,
    evaluate_cost,
    global_cost,
    monte_carlo,
    replay_states,
    run_closed_loop,
    timing_summary,
    timing_summary_csv,
    trace_to_csv,
)
from .config import (
    ProblemConfig,
    build_problem,
    config_from_dict,
    initial_state,
    load_config,
    parse_config,
)


def example_config_path(name="academic3.cfg"):
    """Path of a configuration file shipped with the package."""
    import importlib.resources as resources

    return str(resources.files(__name__).joinpath("data", name))
