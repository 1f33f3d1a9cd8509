"""Two-qubit entanglement dynamics under local classical noise.

Simulates the spectator configuration (qubit A isolated, qubit B driven by
classical noise) for four noise channels, together with the correlation
analytics used to interpret entanglement revivals: concurrence, entanglement
of formation, mutual information, genuine tripartite correlations, the
total-information decomposition and average/hidden entanglement of ensembles.
"""

__version__ = "0.1.0"

from .linalg import (
    DensityOperator,
    PositivityError,
    hermitian_eigenvalues,
    partial_trace,
    tensor_product,
    von_neumann_entropy,
)
from .measures import (
    InformationDecomposition,
    WeightedPureEnsemble,
    average_entanglement,
    concurrence,
    eof_from_concurrence,
    hidden_entanglement,
    information_decomposition,
    mutual_information,
    tripartite_correlations,
)
from .noise import (
    RTNParams,
    RandomFieldParams,
    RandomUnitaryChannel,
    StaticNoiseParams,
    StroboscopicParams,
    field_unitary,
    gaussian_averaged_map,
    ou_noise_state,
    random_field_map,
    rtn_coherence,
    rtn_concurrence,
    rtn_mc_coherence,
    static_noise_state,
    stroboscopic_state,
)
from .scenarios import ConfigError, ScenarioConfig, parse_config, parse_config_text, run_scenario, sweep
from .states import BELL_LABELS, EWLParams, XYZParams, bell_state, ewl_state, xyz_state
from .tripartite import (
    FlowRecord,
    HybridTripartiteState,
    embed_initial,
    evolve_abe,
    flow_timeseries,
    ube_unitary,
)

__all__ = [
    "BELL_LABELS",
    "ConfigError",
    "DensityOperator",
    "EWLParams",
    "FlowRecord",
    "HybridTripartiteState",
    "InformationDecomposition",
    "PositivityError",
    "RTNParams",
    "RandomFieldParams",
    "RandomUnitaryChannel",
    "ScenarioConfig",
    "StaticNoiseParams",
    "StroboscopicParams",
    "WeightedPureEnsemble",
    "XYZParams",
    "average_entanglement",
    "bell_state",
    "concurrence",
    "embed_initial",
    "eof_from_concurrence",
    "evolve_abe",
    "ewl_state",
    "field_unitary",
    "flow_timeseries",
    "gaussian_averaged_map",
    "hermitian_eigenvalues",
    "hidden_entanglement",
    "information_decomposition",
    "mutual_information",
    "ou_noise_state",
    "parse_config",
    "parse_config_text",
    "partial_trace",
    "random_field_map",
    "rtn_coherence",
    "rtn_concurrence",
    "rtn_mc_coherence",
    "run_scenario",
    "static_noise_state",
    "stroboscopic_state",
    "sweep",
    "tensor_product",
    "tripartite_correlations",
    "ube_unitary",
    "von_neumann_entropy",
    "xyz_state",
]
