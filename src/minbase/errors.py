"""Exceptions shared across modules."""


class CertificationError(RuntimeError):
    """A computed stabilizer or witness failed its own consistency check."""
