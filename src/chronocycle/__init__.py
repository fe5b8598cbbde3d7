"""Time-optimal persistent homology cycle representatives for time series.

Pipeline: sliding-window embedding -> Vietoris-Rips filtration -> F2
persistence reduction -> weighted l1 cycle optimization via LP.
"""

from .complexes import (
    F2,
    REAL,
    BoundaryMatrix,
    Chain,
    Filtration,
    boundary,
    boundary_matrix,
)
from .embedding import (
    EmbeddingParams,
    LabeledPointCloud,
    SpectrumSupport,
    TimeSeries,
    default_tau_grid,
    embedding_dimension,
    optimal_delay,
    orthogonality_score,
    read_series_csv,
    sliding_window,
    spectrum,
    subsample,
    write_series_csv,
)
from .lp import (
    CycleLP,
    CycleSolution,
    build_lp,
    oracle_optimal,
    restrict_sets,
    solve,
    support_cost,
)
from .lpsolver import SolverStalled, revised_simplex
from .optimize import (
    OptimizedRepresentative,
    RelaxationPolicy,
    optimize_all,
    optimize_class,
    significance_threshold,
    significant_pairs,
)
from .reduction import (
    PersistencePair,
    ReducedDecomposition,
    diagram_to_json,
    full_diagram,
    reduce,
)
from .rips import ENCLOSING, RipsConfig, build_rips, count_rips_simplices
from .signals import double_sine, noisy_sine
from .weights import (
    LENGTH,
    SIMPLEX,
    VERTEX,
    WeightMatrix,
    length_weights,
    simplex_weights,
    support_dispersion,
    vertex_weights,
    weights_for,
)

__version__ = "0.1.0"
