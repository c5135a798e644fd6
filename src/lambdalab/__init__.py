"""lambdalab: a lambda-calculus reduction-strategy laboratory.

Deterministic leftmost-outermost and rightmost-innermost reduction, the
randomized mixture of the two, exact expected-derivation-length analysis
via absorbing chains over rationals, seeded Monte Carlo estimation, and an
executable law suite.
"""

from .montecarlo import Estimate, RunResult, estimate, sample_run
from .pars import (
    ChainAnalysis,
    EvolutionTrace,
    SingularSystem,
    StateCapExceeded,
    TRM,
    analyze,
    derivation_length_dist,
    evolve_trace,
    expected_length_truncated,
    explore_states,
    grid_expected_lengths,
    solve_expected_length,
)
from .strategies import (
    Distribution,
    InvalidEpsilon,
    StepCount,
    Strategy,
    foster_bound,
    n_steps,
    p_eps,
    parse_probability,
)
from .terms import (
    Abs,
    App,
    GenerationExhausted,
    InvalidArity,
    InvalidPath,
    ParseError,
    SubCalculus,
    Term,
    Var,
    canonicalize,
    classify,
    ensure_recursion_headroom,
    free_vars,
    is_normal_form,
    mk_Cn,
    mk_I,
    mk_Mn,
    mk_Omega,
    mk_example1,
    mk_example2,
    mk_omega,
    parse,
    random_term,
    redexes,
    reduce_at,
    render,
    substitute,
    term_size,
)

__version__ = "0.1.0"
