"""Exception types raised by the simulator."""


class OtfsIsacError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(OtfsIsacError):
    """Operands have incompatible shapes or set sizes."""


class SingularReducedMatrix(OtfsIsacError):
    """The reduced transform matrix is rank deficient for the chosen bins."""


class DuplicatePrivateBin(OtfsIsacError):
    """The same TF bin was assigned as private more than once."""


class AntennaOutOfRange(OtfsIsacError):
    """Antenna index exceeds the configured array size."""


class TooManyTargets(OtfsIsacError):
    """More targets requested than the receive array can resolve."""


class PeakSeparationFailure(OtfsIsacError):
    """Fewer distinct spectrum peaks than requested targets."""


class IllConditionedSteering(OtfsIsacError):
    """Steering matrix too ill conditioned for least-squares separation."""


class ZeroPrivateSymbol(OtfsIsacError):
    """A private TF bin carries a (near) zero transmit symbol."""


class DictionaryTooLarge(OtfsIsacError):
    """Requested dictionary exceeds the configured column cap."""


class BitCountMismatch(OtfsIsacError):
    """Bit payload does not match the allocation's symbol capacity."""


class ConfigValidationError(OtfsIsacError):
    """Scenario configuration failed validation.

    ``errors`` holds field-level messages.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
