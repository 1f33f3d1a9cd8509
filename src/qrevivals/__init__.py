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
    dephased_state,
    field_channel,
    field_unitary,
    ou_mc_dephasing_factors,
    ou_phase_variance,
    rtn_coherence,
    rtn_concurrence,
    rtn_mc_coherence_grid,
    static_noise_ensemble,
    stroboscopic_mc_dephasing_factors,
    stroboscopic_phase_variance,
)
from .scenarios import ConfigError, ScenarioConfig, parse_config, parse_config_text, run_scenario, sweep
from .states import BELL_LABELS, EWLParams, XYZParams, bell_state, ewl_state, xyz_state
from .tripartite import (
    HybridTripartiteState,
    embed_initial,
    evolve_abe_grid,
    flow_measures,
    ube_unitary,
)

__all__ = [
    "BELL_LABELS",
    "ConfigError",
    "DensityOperator",
    "EWLParams",
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
    "dephased_state",
    "embed_initial",
    "eof_from_concurrence",
    "evolve_abe_grid",
    "ewl_state",
    "field_channel",
    "field_unitary",
    "flow_measures",
    "hermitian_eigenvalues",
    "hidden_entanglement",
    "information_decomposition",
    "mutual_information",
    "ou_mc_dephasing_factors",
    "ou_phase_variance",
    "parse_config",
    "parse_config_text",
    "partial_trace",
    "rtn_coherence",
    "rtn_concurrence",
    "rtn_mc_coherence_grid",
    "run_scenario",
    "static_noise_ensemble",
    "stroboscopic_mc_dephasing_factors",
    "stroboscopic_phase_variance",
    "sweep",
    "tensor_product",
    "tripartite_correlations",
    "ube_unitary",
    "von_neumann_entropy",
    "xyz_state",
]
