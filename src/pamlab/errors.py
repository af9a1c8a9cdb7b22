"""Exception types shared across the package.

The CLI maps these onto exit codes: config errors -> 2, resource-cap
violations -> 3, numerical failures -> 4.
"""


class PamlabError(Exception):
    """Base class for package errors."""


class ConfigError(PamlabError):
    """Malformed or out-of-domain configuration input."""


class ResourceCapError(PamlabError):
    """A configured resource cap (memory, record count) would be exceeded."""


class LatticeSizeError(ResourceCapError):
    """Lattice ball too large for exact 64-bit indexing."""


class SparseValidityError(PamlabError):
    """A sparse-field result cannot be certified against unseen sites."""


class NumericalError(PamlabError):
    """Non-finite state or an uncontrollable numerical failure."""
