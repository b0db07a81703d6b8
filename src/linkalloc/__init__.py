"""Multi-link AP-STA pairing and channel allocation for 802.11be networks.

The pipeline: a PHY abstraction maps each link's SNR (one SINR sample per
link) through the PER curve of its MCS to a sustainable data rate; a
saturated-contention MAC model discounts the rates for medium sharing; an
exact assignment (the optimum of the paper's pairing LP, found by successive
shortest paths) pairs stations to APs on channel-averaged rates; and a
proportional-fair allocator spreads each pairing's radios over the channels.
Oracles in `repro` (slot-level MAC simulation, exhaustive joint search,
determinant enumeration) ship beside the production path for validating
every analytical shortcut.
"""

__version__ = "0.1.0"

from .allocation import (
    LinkSelection,
    RadioBudget,
    allocate_pf,
    allocate_rr,
    fairness_spread,
)
from .dcf import (
    AirtimeDurations,
    ContentionState,
    DcfParams,
    airtime_durations,
    normalized_throughput,
    solve_bianchi_fixed_point,
)
from .errors import (
    ConfigurationError,
    InfeasibleError,
    InvalidInputError,
    LinkAllocError,
    SizeLimitError,
    SolverError,
    ValidationError,
)
from .harness import (
    IterationReport,
    LoopCarry,
    Recommendation,
    RunResult,
    SweepStat,
    emit_results,
    emit_sweep_stats,
    run_apc_loop,
    run_monte_carlo,
    run_slo_baseline,
    write_table,
)
from .pairing import (
    PairingInstance,
    PairingMatrix,
    objective_value,
    pair_greedy,
    pair_optimal_lp,
)
from .phy import (
    LogisticPer,
    TablePer,
    eesm_effective_snr,
    mcs_data_rate,
    per_lookup,
)
from .rates import (
    RateTensor,
    bootstrap_contenders,
    build_rate_tensor,
)
from .repro import (
    JointSolution,
    TuCheckResult,
    build_incidence,
    check_total_unimodularity,
    compare_joint_vs_two_stage,
    simulate_dcf_slots,
    solve_joint_mmkp_bruteforce,
    validate_dcf,
)
from .scenario import (
    Scenario,
    bundled_scenario_path,
    list_bundled_scenarios,
    load_scenario,
)
