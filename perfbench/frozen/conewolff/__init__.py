"""Numerical testbed for curve averages, cone plates and decoupling experiments."""

__version__ = "0.1.0"
