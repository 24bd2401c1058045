"""Wavelet analysis on finite higher-rank graphs.

Three wavelet families over one combinatorial core: rectangular path-space
wavelets on the infinite path space with its Perron-Frobenius measure,
preferred-path vertex wavelets for traffic analysis, and spectral wavelets
from the k-graph Laplacian, plus the semibranching operators and measures
they are built from.
"""

from .errors import (
    AsymmetricInput,
    BadShape,
    BadWeights,
    CompositionError,
    ConvergenceFailure,
    DegenerateVertexCount,
    DegreeRangeError,
    DimensionMismatch,
    DivergentIntegral,
    EmptyDv,
    GridTooCoarse,
    HasSources,
    KGraphWaveError,
    LevelTooSmall,
    NegativeArgument,
    NonConstantDerivative,
    NonFiniteResult,
    NoWaveletDegree,
    NotStronglyConnected,
    NotZeroOne,
    ParseError,
    ResidualTooLarge,
    ShapeMismatch,
    TooLarge,
    ValidationError,
)
from .kgraph import (
    Edge,
    FactorizationSquare,
    KGraph,
    Path,
    bouquet_graph,
    compose,
    enumerate_paths,
    fixture_path,
    load_kgraph,
    load_kgraph_file,
    normal_form,
    path_counts,
    segment,
    vertex_matrices,
    vertex_path,
)
from .measure import (
    CylinderFn,
    MeasureSpec,
    cylinder_fns_equal,
    cylinder_measure,
    embed_to_interval,
    extensions,
    inner_product,
    integral,
    mce,
    norm,
    refine,
)
from .perron import (
    PFData,
    hausdorff_dimension,
    is_strongly_connected,
    pf_data,
    rational_pf_data,
)
from .sbfs import (
    CK_ENTRY_LIMIT,
    CKReport,
    LevelSpace,
    OperatorMatrix,
    check_ck_relations,
    ck_table_entries,
    level_space,
    s_apply,
    s_matrix,
    s_star_matrix,
)
from .spectral import (
    LAPLACIAN_ENTRY_LIMIT,
    IncidenceSet,
    KernelPiece,
    KernelSpec,
    SpectralData,
    cg_constant,
    cg_constant_numeric,
    check_laplacian_listing,
    default_kernel,
    default_tgrid,
    eig_sym,
    gft,
    igft,
    incidence_entries,
    incidence_matrices,
    kernel_eval,
    kgraph_laplacian,
    localization_probe,
    probe_kernel,
    reconstruct,
    spectral_wavelet,
    wavelet_operator,
)
from .traffic import (
    PreferredPaths,
    TrafficWaveletFamily,
    default_preferred_paths,
    traffic_measure,
    traffic_wavelet_family,
)
from .wavelets import (
    MARKOV_MEMBER_LIMIT,
    MarkovWaveletSystem,
    SubspaceComparison,
    WaveletBasis,
    WaveletFamily,
    analyze,
    build_wavelet_family,
    markov_wavelets,
    subspace_compare,
    synthesize,
    synthesize_vector,
    wavelet_basis,
)

__version__ = "0.1.0"
