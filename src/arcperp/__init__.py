"""Exact-arithmetic inverse systems of arc ideals of double points.

The package computes graded pieces of the Macaulay inverse system of the arc
ideal of a double point by exact rational kernel extraction, builds the
Wronskian / Hankel / triangular minor spans that describe the same spaces,
and cross-checks the two descriptions together with the truncated dimension
series (n+1)^(h+1).

The package exports only ``__version__``, so importing it loads no
submodule; import the one you need, e.g. ``arcperp.perp``.
"""

__version__ = "0.1.0"
