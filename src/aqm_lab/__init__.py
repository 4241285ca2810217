"""Numerical laboratory for the conformal relativistic top.

The package verifies, as floating-point identities, the chain that starts
from a ten-dimensional configuration space (spacetime times the proper
Lorentz group), equips it with an invariant metric and a scale gauge,
linearizes the resulting Hamilton-Jacobi pair into a single wave equation,
and reduces that equation on the smallest spinor representations to the
squared Dirac operator with its anomalous-coupling counterterm.
"""

__version__ = "0.1.0"
