"""Single-linkage clustering toolkit on a simulated massively-parallel runtime."""

__version__ = "0.1.0"
