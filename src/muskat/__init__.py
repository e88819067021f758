"""Interface evolution in a horizontally periodic porous strip with a
permeability jump across a fixed internal curve.

The moving fluid/vacuum interface is the graph of h(x1, t) over the circle
[-pi, pi); the permeability of the matrix jumps from beta_plus to beta_minus
across the fixed curve x2 = -1 + f(x1); the floor x2 = -2 is impermeable.
Everything is computed on the two fixed reference strips S^1 x (-1, 0) and
S^1 x (-2, -1) after pulling the moving domain back with a harmonic strip map.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
