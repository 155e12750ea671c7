"""Exception taxonomy shared across the package."""


class HydrostateError(Exception):
    """Base class for every error raised by this package."""


class FormatError(HydrostateError):
    """A JSON document does not match the expected schema."""


class NetworkValidationError(HydrostateError):
    """A network definition violates a structural requirement."""


class DuplicateIdError(NetworkValidationError):
    pass


class UnknownNodeError(NetworkValidationError):
    pass


class SelfLoopError(NetworkValidationError):
    pass


class NoReservoirError(NetworkValidationError):
    pass


class NoConsumerError(NetworkValidationError):
    pass


class DisconnectedNetworkError(NetworkValidationError):
    pass


class NonpositiveParameterError(NetworkValidationError):
    pass


class EmptySubsetError(HydrostateError):
    """Rank queries need a nonempty node subset."""


class InvalidObservationError(HydrostateError):
    """Observation keys do not resolve against the network, or values are not finite."""


class MissingObservationError(InvalidObservationError):
    """The requested completion route needs an observation that is missing."""


class ObservationOverflowError(InvalidObservationError):
    """A finite observed flow overflows the energy law: its head loss is not finite."""


class DecompositionMismatchError(HydrostateError):
    """Supplied flows do not match the decomposition's independent edges, or these are no forest."""


class NotCoveredError(HydrostateError):
    """No completion route applies; ``detail`` is a JSON object saying why."""

    def __init__(self, message: str, detail: dict):
        super().__init__(message)
        self.detail = detail


class InconsistentObservationsError(HydrostateError):
    """The observations admit no physically correct completion; ``residual`` is the largest miss."""

    def __init__(self, residual: float, observed: str = "flows"):
        super().__init__(
            f"observed flows are inconsistent around a cycle (energy-law residual {residual:.6e})"
            if observed == "flows"
            else f"observed {observed} contradict the completed state (off by {residual:.6e})"
        )
        self.residual = residual


class NonConvergenceError(HydrostateError):
    """The iterative solver failed to reach the requested tolerance."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.6e})"
        )
        self.iterations = iterations
        self.residual = residual


class InfeasibleConfigError(HydrostateError):
    """A generator configuration cannot be realized."""
