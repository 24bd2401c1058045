"""Exception hierarchy shared by all kgraphwave modules.

Errors fall into three families, mirrored by the CLI exit codes: parse
errors (malformed input documents), validation errors (structurally bad
graphs, incompatible shapes or arguments), and numeric errors (iteration
caps, divergent integrals, too-coarse grids, non-constant Radon-Nikodym
derivatives, eigen residuals over their bound, transform values past the
float range).
"""


class KGraphWaveError(Exception):
    """Base class for all library errors."""


class ParseError(KGraphWaveError):
    """Input document is syntactically malformed or carries unknown fields."""


class ValidationError(KGraphWaveError):
    """Structural invariant violated.  ``reason`` is a machine-readable code."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class CompositionError(KGraphWaveError):
    """Adjacent edges of a word are not composable."""


class DegreeRangeError(KGraphWaveError):
    """A degree argument falls outside the componentwise range it must lie in."""


class NotStronglyConnected(KGraphWaveError):
    """Operation requires a strongly connected graph."""


class HasSources(KGraphWaveError):
    """Operation requires every vertex to receive an edge of every color."""


class ConvergenceFailure(KGraphWaveError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class ResidualTooLarge(KGraphWaveError):
    """A computed eigenvector or eigenbasis misses its residual bound."""


class DegenerateVertexCount(KGraphWaveError):
    """Dimension formula needs more than one vertex."""


class NotZeroOne(KGraphWaveError):
    """Embedding requires all vertex matrices to be 0/1-valued."""


class NonConstantDerivative(KGraphWaveError):
    """Prefixing Radon-Nikodym derivative is not constant on a cylinder."""


class LevelTooSmall(KGraphWaveError):
    """Relation check level cannot accommodate the requested compositions."""


class BadShape(KGraphWaveError):
    """Wavelet shape must have strictly positive entries of length k."""


class EmptyDv(KGraphWaveError):
    """No paths of the requested shape reach some vertex."""


class BadWeights(KGraphWaveError):
    """Probability weights must lie in (0,1) and sum to 1."""


class ShapeMismatch(KGraphWaveError):
    """Second wavelet shape is not an integer multiple of the first."""


class NoWaveletDegree(KGraphWaveError):
    """Every preferred-path degree class is a singleton; no wavelets exist."""


class AsymmetricInput(KGraphWaveError):
    """Symmetric eigensolver received a non-symmetric matrix."""


class DimensionMismatch(KGraphWaveError):
    """Vector length does not match the vertex count of the spectral data,
    or PF data does not fit the graph's colors and vertices."""


class NegativeArgument(KGraphWaveError):
    """Kernel evaluated at a negative argument."""


class DivergentIntegral(KGraphWaveError):
    """Kernel energy integral does not converge."""


class NonFiniteResult(KGraphWaveError):
    """A transform's result holds a value past the float range (an
    infinity or NaN), which no JSON number can carry."""


class GridTooCoarse(KGraphWaveError):
    """Reconstruction grid misses the kernel energy by more than the bound."""


class TooLarge(KGraphWaveError):
    """The requested output has more members than a documented size limit."""
