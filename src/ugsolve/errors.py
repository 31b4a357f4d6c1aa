"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage errors exit 2 (argparse),
ParseError and ValueError exit 3, ResourceLimitError and MemoryError exit 4.
"""


class UgsolveError(Exception):
    """Base class for package-specific errors."""


class ResourceLimitError(UgsolveError):
    """Search space or work bound exceeds the configured limit."""


class OutOfRegimeError(UgsolveError):
    """A guarantee bound was requested outside its validity regime."""


class GadgetGenerationError(UgsolveError):
    """Bipartite gadget sampling exhausted its retries without meeting the band."""

    def __init__(self, msg, best=None):
        super().__init__(msg)
        self.best = best


class MissingEdgeError(UgsolveError, LookupError):
    """A query referenced an edge absent from a non-complete instance."""


class ParseError(UgsolveError, ValueError):
    """Malformed instance or assignment file."""

    def __init__(self, msg, lineno=None):
        self.lineno = lineno
        super().__init__(msg if lineno is None else f"line {lineno}: {msg}")
