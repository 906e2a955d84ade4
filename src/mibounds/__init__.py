"""Bounds on the mutual information of phase-estimation strategies."""

__version__ = "0.1.0"
