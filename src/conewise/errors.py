"""Exception types shared across the package."""


class ConewiseError(Exception):
    """Base class for every error raised by this library."""


class NotASublattice(ConewiseError):
    pass


class NotFullRank(ConewiseError):
    pass


class InvalidFan(ConewiseError):
    pass


class NotComplete(ConewiseError):
    pass


class WrongDimension(ConewiseError):
    pass


class OriginNotInterior(ConewiseError):
    pass


class HypothesisFailed(ConewiseError):
    pass


class NotFullDimensional(ConewiseError):
    pass


class NotPointed(ConewiseError):
    pass


class NoFullDimensionalCone(ConewiseError):
    pass


class Inconsistent(ConewiseError):
    pass


class DegreeOutOfRange(ConewiseError):
    pass


class DegreeNotInLattice(ConewiseError):
    pass


class DegreeNotInCone(ConewiseError):
    pass


class NotAWall(ConewiseError):
    pass


class SearchExhausted(ConewiseError):
    """A bounded enumeration found no admissible element.

    The ``diagnostics`` attribute carries the search context (for example the
    dual cones that were intersected) so callers can report it.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class LNotInRelativeInterior(ConewiseError):
    pass


class CertificateInvalid(ConewiseError):
    pass


class ParseError(ConewiseError):
    pass
