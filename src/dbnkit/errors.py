"""Exception types shared across the package."""


class DbnError(Exception):
    """Base class for model and data errors raised by this package."""


class ModelValidationError(DbnError, ValueError):
    """A model violates a structural, stochasticity, or topology invariant."""


class ModelFormatError(DbnError, ValueError):
    """A model or observation file could not be parsed."""


class ObservationError(DbnError, ValueError):
    """An observation sequence is malformed or out of range for its model."""


class SizeCapError(DbnError, ValueError):
    """An array would exceed ``models.MAX_ARRAY_BYTES``, or an enumeration its path cap."""


class ImpossibleObservationError(DbnError, ValueError):
    """An observation has probability zero under the model.

    ``t`` is the 0-based time step at which the total probability vanished,
    or None when no single step can be blamed.
    """

    def __init__(self, t, message=None):
        self.t = t
        if message is None:
            if t is None:
                message = "observation sequence is impossible under the model"
            else:
                message = f"observation at time step {t} is impossible under the model"
        super().__init__(message)


class DegenerateWeightsError(DbnError, ValueError):
    """Every particle weight collapsed to zero at time step ``t``."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"all particle weights are zero at time step {t}")
