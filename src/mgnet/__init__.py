"""Attack-resilient distributed interconnection decisions for networked microgrids."""

from .errors import (
    ConfigError,
    DecodeError,
    DecodeFailureError,
    DecodeInconsistencyError,
    InfeasibleTopologyError,
    InternalInvariantError,
    MgnetError,
    SynthesisError,
)
from .graph import (
    ConnectivityCertificate,
    Graph,
    extend_graph,
    generate_preventive,
    generate_responsive,
    vertex_connectivity,
)
from .consensus import (
    DecodeResult,
    InjectionSchedule,
    ObservabilityStack,
    ObservationRecord,
    WeightMatrix,
    build_observability_stack,
    decode_known_faults,
    decode_unknown_faults,
    metropolis_weights,
    run_updates,
    synthesize_weights,
    verify_candidate_uniqueness,
    verify_rank_condition,
)
from .scenario import (
    INTERCONNECT,
    STAND_ALONE,
    UNDECIDED,
    AttackSpec,
    ConsensusConfig,
    DecisionPeriod,
    DecisionRecord,
    InjectionPlan,
    MicrogridProfile,
    Scenario,
    evaluate_criterion,
    golden_scenario_path,
    load_golden_scenario,
    load_scenario,
    sample_injections,
    save_scenario,
)
from .simulator import (
    CommunicationAgent,
    RoundEngine,
    run_campaign,
    run_period,
    write_run_artifacts,
)

__version__ = "0.1.0"
