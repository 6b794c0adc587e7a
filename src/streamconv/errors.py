"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A caller-supplied configuration is invalid (unknown engine kind,
    inconsistent dimensions, capability cap exceeded, ...)."""


class HorizonError(RuntimeError):
    """An engine received more samples than its declared horizon."""


class SequenceFormatError(ValueError):
    """A sequence or bank file failed to parse."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        self.path = path
        self.line = line
        where = f"{path}:{line}: " if path else ""
        super().__init__(f"{where}{message}")
