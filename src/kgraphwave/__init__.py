"""Wavelet analysis on finite higher-rank graphs.

Three wavelet families over one combinatorial core: rectangular path-space
wavelets on the infinite path space with its Perron-Frobenius measure,
preferred-path vertex wavelets for traffic analysis, and spectral wavelets
from the k-graph Laplacian, plus the semibranching operators and measures
they are built from.

The package imports a layer when one of its names is first used (PEP 562):
``import kgraphwave`` loads no layer, and loading a graph loads the core
alone (``errors``, ``jsonl`` and ``kgraph``).  Each name is read from its
defining module on every access, so a name patched there is the name the
package gives.
"""

import importlib

_EXPORTS = {
    "errors": (
        "AsymmetricInput", "BadShape", "BadWeights", "CompositionError", "ConvergenceFailure",
        "DegenerateVertexCount", "DegreeRangeError", "DimensionMismatch", "DivergentIntegral", "EmptyDv",
        "GridTooCoarse", "HasSources", "KGraphWaveError", "LevelTooSmall", "NegativeArgument",
        "NonConstantDerivative", "NonFiniteResult", "NoWaveletDegree", "NotStronglyConnected", "NotZeroOne",
        "ParseError", "ResidualTooLarge", "ShapeMismatch", "TooLarge", "ValidationError",
    ),
    "kgraph": (
        "Edge", "FactorizationSquare", "KGraph", "Path", "bouquet_graph", "compose", "enumerate_paths",
        "fixture_path", "load_kgraph", "load_kgraph_file", "normal_form", "path_counts", "segment",
        "vertex_matrices", "vertex_path",
    ),
    "measure": (
        "CylinderFn", "MeasureSpec", "cylinder_measure", "embed_to_interval", "extensions", "inner_product",
        "integral", "mce", "norm", "refine",
    ),
    "perron": (
        "RATIONAL_PF_CELL_LIMIT", "PFData", "hausdorff_dimension", "is_strongly_connected", "pf_data",
        "rational_pf_data",
    ),
    "sbfs": (
        "CK_ENTRY_LIMIT", "CK_TABLE_LIMIT", "CKReport", "LevelSpace", "OperatorMatrix", "check_ck_relations",
        "ck_table_count", "ck_table_entries", "level_space", "s_apply", "s_matrix", "s_star_matrix",
    ),
    "spectral": (
        "EIGEN_ENTRY_LIMIT", "LAPLACIAN_ENTRY_LIMIT", "KernelPiece", "KernelSpec", "SpectralData", "cg_constant",
        "check_eigendata", "check_laplacian_listing", "default_kernel", "default_tgrid", "eig_sym", "gft",
        "incidence_entries", "kernel_eval", "kgraph_laplacian", "laplacian_entries", "localization_probe",
        "reconstruct", "spectral_wavelet",
    ),
    "traffic": (
        "PreferredPaths", "TrafficWaveletFamily", "least_degrees", "traffic_wavelet_family",
    ),
    "wavelets": (
        "MARKOV_MEMBER_LIMIT", "WAVELET_ENTRY_LIMIT", "MarkovWaveletSystem", "SubspaceComparison",
        "WaveletBasis", "WaveletFamily", "analyze", "build_wavelet_family", "check_wavelet_level",
        "markov_wavelets", "subspace_compare", "synthesize", "synthesize_vector", "wavelet_basis",
    ),
}
_SUBMODULES = (*_EXPORTS, "jsonl", "orthobasis")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
