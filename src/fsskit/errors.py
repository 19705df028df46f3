"""Exception types shared across the package.

Every exception carries a short machine-readable ``category`` slug; the
command-line front end prints it as a single parsable error line.
"""


class FssError(Exception):
    category = "error"


class InvalidParameterError(FssError):
    category = "invalid-parameter"


class SingularNetworkError(FssError):
    category = "singular-network"


class DegenerateTransformError(FssError):
    category = "degenerate-transform"


class InvalidGeometryError(FssError):
    category = "invalid-geometry"


class NoRealPolesError(FssError):
    category = "no-real-poles"


class BandStructureError(FssError):
    """Swept response does not contain exactly two passbands."""

    category = "band-structure"

    def __init__(self, message, band_count=None):
        super().__init__(message)
        self.band_count = band_count


class TruncatedBandError(FssError):
    """A 3 dB crossing falls outside the swept frequency range."""

    category = "truncated-band"

    def __init__(self, message, side=None):
        super().__init__(message)
        self.side = side


class EmptySweepError(FssError):
    category = "empty-sweep"


class InfeasibleTargetsError(FssError):
    category = "infeasible-targets"

    def __init__(self, message, attainable=None):
        super().__init__(message)
        self.attainable = attainable


class UnattainableDimensionError(FssError):
    category = "unattainable-dimension"

    def __init__(self, message, parameter=None, attainable=None):
        super().__init__(message)
        self.parameter = parameter
        self.attainable = attainable


class DivergedFitError(FssError):
    """Fit hit the iteration cap before converging."""

    category = "diverged-fit"

    def __init__(self, message, best=None, trace=None):
        super().__init__(message)
        self.best = best
        self.trace = trace


class ConfigError(FssError):
    category = "invalid-config"
