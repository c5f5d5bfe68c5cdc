"""Exception types raised across the retvol pipeline."""


class RetvolError(Exception):
    """Base class for all retvol errors."""


class MalformedLine(RetvolError):
    """A CSV line could not be parsed (strict mode only)."""

    def __init__(self, line_no, detail=""):
        self.line_no = line_no
        msg = f"malformed line {line_no}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NonPositivePrice(RetvolError):
    """A tick carried a price <= 0 (strict mode only)."""

    def __init__(self, line_no):
        self.line_no = line_no
        super().__init__(f"non-positive price at line {line_no}")


class EmptyInput(RetvolError):
    """Parsing produced zero valid records."""


class InsufficientData(RetvolError):
    """Not enough data to build the requested series."""


class DegenerateVariance(RetvolError):
    """A series is constant; its standard deviation is zero."""


class LagOutOfRange(RetvolError):
    """Requested lag leaves too few overlapping pairs."""


class ConfigInvalid(RetvolError):
    """A configuration object violates its invariants."""


class NonPositiveSigma(RetvolError, ValueError):
    """A fit point carries sigma <= 0, e.g. an exactly zero jackknife sigma."""


class InsufficientPoints(RetvolError):
    """Too few points inside the fit range."""


class NonPositiveData(RetvolError):
    """Too few positive y-values remain for a log-initialized fit.

    Carries the x positions of the excluded (non-positive) points.
    """

    def __init__(self, excluded_x):
        self.excluded_x = list(excluded_x)
        super().__init__(
            f"{len(self.excluded_x)} non-positive points excluded, "
            f"too few remain: x={self.excluded_x}"
        )


class NoConvergence(RetvolError):
    """The optimizer could not make progress; last iterate attached."""

    def __init__(self, message, last_result=None):
        self.last_result = last_result
        super().__init__(message)


class RangeMismatch(RetvolError):
    """Two fits being compared do not cover the same points."""


class WrongModel(RetvolError):
    """Operation applies to a different fit model."""


class MissingSigmas(RetvolError):
    """Profile export requires jackknife sigmas which are absent."""


class MissingValues(RetvolError):
    """A profile from `sweep_grid` holds no CC values until a sweep fills it."""


class NonStationarySpec(RetvolError):
    """GARCH parameters violate covariance stationarity."""


class SingularNormalMatrix(RetvolError):
    """Weighted normal equations are singular."""
