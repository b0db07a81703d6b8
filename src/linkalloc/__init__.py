"""Multi-link AP-STA pairing and channel allocation for 802.11be networks.

The pipeline: a PHY abstraction maps per-link SNR through an effective-SNR
compression and PER curves to sustainable data rates; a saturated-contention
MAC model discounts them for medium sharing; an exact assignment (the optimum
of the paper's pairing LP, found by successive shortest paths) pairs stations
to APs on channel-averaged rates; and a proportional-fair allocator spreads each
pairing's radios over the channels. Oracles (slot-level MAC simulation,
exhaustive joint search, determinant enumeration) ship alongside for
validating every analytical shortcut.
"""

__version__ = "0.1.0"

from .allocation import (
    LinkSelection,
    RadioBudget,
    ThroughputState,
    allocate_pf,
    allocate_rr,
    ewma_update,
    fairness_spread,
)
from .dcf import (
    AirtimeDurations,
    ContentionState,
    DcfParams,
    airtime_durations,
    normalized_throughput,
    simulate_dcf_slots,
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
    compare_joint_vs_two_stage,
    emit_results,
    emit_sweep_stats,
    run_apc_loop,
    run_monte_carlo,
    run_slo_baseline,
    validate_dcf,
    write_table,
)
from .pairing import (
    JointSolution,
    PairingInstance,
    PairingMatrix,
    TuCheckResult,
    build_incidence,
    check_total_unimodularity,
    objective_value,
    pair_greedy,
    pair_optimal_lp,
    solve_joint_mmkp_bruteforce,
)
from .phy import (
    EesmParams,
    PerCurve,
    SubcarrierSinrGrid,
    eesm_effective_snr,
    mcs_data_rate,
    per_lookup,
)
from .rates import (
    RateTensor,
    bootstrap_contenders,
    build_rate_tensor,
)
from .scenario import (
    ApConfig,
    ChannelSpec,
    PerModel,
    Scenario,
    StaConfig,
    bundled_scenario_path,
    list_bundled_scenarios,
    load_scenario,
)
