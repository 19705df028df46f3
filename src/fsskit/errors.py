"""Exception types shared across the package.

Every exception carries a short machine-readable ``category`` slug; the
command-line front end prints it as a single parsable error line.  A class
that carries diagnostic details names them in ``payload``; each becomes an
attribute, ``None`` unless passed as a keyword.
"""


class FssError(Exception):
    category = "error"
    payload: tuple = ()

    def __init__(self, message, **details):
        unknown = sorted(set(details) - set(self.payload))
        if unknown:
            raise TypeError(f"{type(self).__name__} got unexpected payload {unknown}")
        super().__init__(message)
        for name in self.payload:
            setattr(self, name, details.get(name))


class InvalidParameterError(FssError):
    category = "invalid-parameter"


class SingularNetworkError(FssError):
    category = "singular-network"


class DegenerateTransformError(FssError):
    category = "degenerate-transform"


class InvalidGeometryError(FssError):
    category = "invalid-geometry"


class BandStructureError(FssError):
    """Swept response does not contain exactly two passbands."""

    category = "band-structure"
    payload = ("band_count",)


class TruncatedBandError(FssError):
    """A 3 dB crossing falls outside the swept frequency range."""

    category = "truncated-band"
    payload = ("side",)


class EmptySweepError(FssError):
    category = "empty-sweep"


class InfeasibleTargetsError(FssError):
    category = "infeasible-targets"
    payload = ("attainable",)


class UnattainableDimensionError(FssError):
    category = "unattainable-dimension"
    payload = ("parameter", "attainable")


class DivergedFitError(FssError):
    """Fit hit the iteration cap before converging."""

    category = "diverged-fit"
    payload = ("best", "trace")


class ConfigError(FssError):
    category = "invalid-config"
