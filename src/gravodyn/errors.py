"""Exception types shared across the package."""


class ContractViolationError(RuntimeError):
    """A numerical invariant (Hermiticity, normalization, stability bound) was violated."""


DEFAULT_CONFIG_CAP = 200_000  # a parsed count (linspace, n_times, n_points, grid_cap), a fock basis
DEFAULT_MEMORY_CAP = 2**30  # estimated bytes solving one model part may need


class SizeLimitError(RuntimeError):
    """A resource cap (a parsed count, a model part's memory, the sweep grid) was exceeded."""


class ModeOverflowError(Exception):
    """Raising a mode occupation past n_max would leave the truncated space.

    This is a signal, not silent truncation: the caller decides whether
    projecting the result away is acceptable.
    """


class ConfigError(ValueError):
    """Scenario configuration is malformed; carries file/line/key context."""

    def __init__(self, message, line=None, key=None):
        self.line = line
        self.key = key
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key '{key}'")
        prefix = f"[{', '.join(where)}] " if where else ""
        super().__init__(prefix + message)
