"""Exception types shared across the package."""


class ConewolffError(Exception):
    """Base class for all package-specific errors."""


class DegenerateCurvature(ConewolffError):
    """Curvature (or torsion where required) is below the configured floor."""


class B3TooSmall(ConewolffError):
    """Third binormal component dropped to 1/2 or below on the interval."""


class OutsideCone(ConewolffError):
    """Frequency point is not inside the valid chart tube around the cone."""


class NotConverged(ConewolffError):
    """Iterative solver exhausted its iteration budget."""


class SingularJacobian(ConewolffError):
    """Chart Jacobian is singular at the requested point."""


class TypeExceedsNMax(ConewolffError):
    """No derivative order up to n_max gives a nonzero pairing."""


class NotCircular(ConewolffError):
    """Operation requires the circular generator curve."""


class EmptyFamily(ConewolffError):
    """Requested plate family admits no anchor points."""


class QuadratureFailure(ConewolffError):
    """Oscillatory quadrature error estimate exceeds the tolerance."""


class GridTooLarge(ConewolffError):
    """Requested grid does not fit the configured memory budget."""


class PlateUnresolved(ConewolffError):
    """Frequency lattice too coarse to resolve a plate."""


class WraparoundRisk(ConewolffError):
    """Kernel support would wrap around the periodic box."""


class DivByZeroGamma2(ConewolffError):
    """Second-derivative pairing vanishes where a division requires it."""


class ScheduleEmpty(ConewolffError):
    """Scale schedule has no admissible steps."""


class DegenerateExpansion(ConewolffError):
    """Leading expansion coefficient below floor."""


class ConfigError(ConewolffError):
    """Invalid or unparsable run configuration."""
