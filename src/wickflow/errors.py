"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent objects or parameters: grid mismatches, missing tower
    orders, insufficient dealiasing padding, invalid run configs."""


class WarmupError(ConfigurationError):
    """The sampler warm-up failed: pCN acceptance fell below 1%."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation
    (negative time, negative counterterm, Hermite order out of range...)."""


class BlowUpError(RuntimeError):
    """Raised when a trajectory leaves the sanity envelope (NaN or
    sup-norm above the blow-up threshold).  Carries the time stamp and the
    last valid state so callers can report diagnostics; a suite that runs
    trajectory i from the noise stream (master_seed, i, 1) sets `trajectory`
    and `stream`, and the message names them."""

    def __init__(self, t: float, last_state=None):
        super().__init__(t, last_state)  # the arguments that rebuild it, so it pickles
        self.t = t
        self.last_state = last_state
        self.trajectory = self.stream = None

    def __str__(self):
        where = f" in trajectory {self.trajectory}, stream {self.stream}" if self.stream else ""
        return f"solution blew up at t={self.t:.6g}{where}"


class NonContractionError(RuntimeError):
    """Picard iteration residual grew: the requested horizon is too large
    for the fixed-point map to contract."""
