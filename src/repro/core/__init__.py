"""The reg-cluster model and mining algorithm (the paper's contribution)."""

from repro.core.chain import (
    canonical_orientation,
    gene_matches_chain,
    invert_chain,
    is_representative,
    match_chain_members,
)
from repro.core.cluster import RegCluster, cell_set
from repro.core.coherence import (
    AffineFit,
    chain_h_profile,
    coherence_score,
    fit_affine,
    is_shifting_and_scaling,
)
from repro.core.kernels import RegulationKernel
from repro.core.miner import (
    MiningCancelled,
    MiningResult,
    PhaseTimers,
    ProgressCallback,
    PruningConfig,
    RegClusterMiner,
    SearchStatistics,
    mine_reg_clusters,
)
from repro.core.numeric import ZERO_TOL, near_equal, near_zero
from repro.core.params import MiningParameters
from repro.core.postprocess import drop_contained, merge_overlapping, top_k
from repro.core.reference import reference_mine, reference_mine_list
from repro.core.serialize import (
    cluster_from_dict,
    cluster_to_dict,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.core.trace import SearchTrace
from repro.core.thresholds import (
    closest_pair_average,
    constant,
    mean_fraction,
    normalized_std,
    range_fraction,
    resolve_strategy,
)
from repro.core.regulation import (
    Regulation,
    gene_thresholds,
    regulation,
    regulation_matrix,
)
from repro.core.rwave import RegulationPointer, RWaveIndex, RWaveModel, build_rwave
from repro.core.validate import check_chain, is_valid_reg_cluster, validation_errors
from repro.core.window import coherent_gene_windows, maximal_coherent_windows

__all__ = [
    # model
    "MiningParameters",
    "Regulation",
    "gene_thresholds",
    "regulation",
    "regulation_matrix",
    "RegulationPointer",
    "RWaveModel",
    "RWaveIndex",
    "build_rwave",
    "coherence_score",
    "chain_h_profile",
    "is_shifting_and_scaling",
    "AffineFit",
    "fit_affine",
    # numeric tolerance helpers
    "ZERO_TOL",
    "near_zero",
    "near_equal",
    # chains and clusters
    "invert_chain",
    "is_representative",
    "canonical_orientation",
    "gene_matches_chain",
    "match_chain_members",
    "RegCluster",
    "cell_set",
    # mining
    "RegClusterMiner",
    "MiningCancelled",
    "ProgressCallback",
    "MiningResult",
    "PruningConfig",
    "SearchStatistics",
    "PhaseTimers",
    "RegulationKernel",
    "mine_reg_clusters",
    "maximal_coherent_windows",
    "coherent_gene_windows",
    # verification
    "validation_errors",
    "is_valid_reg_cluster",
    "check_chain",
    "reference_mine",
    "reference_mine_list",
    # post-processing
    "drop_contained",
    "merge_overlapping",
    "top_k",
    # serialization
    "cluster_to_dict",
    "cluster_from_dict",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    # threshold strategies
    "range_fraction",
    "closest_pair_average",
    "normalized_std",
    "mean_fraction",
    "constant",
    "resolve_strategy",
    "SearchTrace",
]
