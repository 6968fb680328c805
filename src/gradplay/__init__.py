"""Distributed Nash-equilibrium seeking via gradient play over a communication graph.

Players jointly minimize coupled quadratic costs while each sees only her
own gradient and her graph neighbors' estimates.  The package provides the
game and network constructions, the distributed iteration with full trace
recording, closed-form step-size ceilings and contraction-rate
certificates, a reproducible experiment runner and a batch auditor.
"""

from .auditing import AuditReport, audit
from .bounds import (
    RateComparison,
    StepSizePlan,
    alpha_max,
    grane_rate_comparison,
    quadratic_form_alpha_bound,
    rate_bound,
    step_size_plan,
    step_size_terms,
)
from .dynamics import (
    IterationTrace,
    initial_estimates,
    run,
    step,
    trace_to_csv,
)
from .errors import (
    DisconnectedGraphError,
    DivergenceError,
    GradplayError,
    InadmissibleStepSizeError,
    NotStronglyMonotoneError,
    PerfectMixingError,
)
from .game import (
    GameConstants,
    QuadraticGame,
    estimate_constants,
    game_mapping,
    random_game,
    solve_nash_equilibrium,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    build_graph,
    paper_sim_config,
    run_experiment,
)
from .network import (
    Graph,
    MixingMatrix,
    average_property_check,
    complete,
    graph_to_edgelist,
    metropolis_weights,
    random_tree,
    ring,
    save_mixing_matrix,
    second_largest_singular_value,
    star,
)

__version__ = "0.1.0"
