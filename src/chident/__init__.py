"""Parameter identification for a degenerate Cahn-Hilliard model in 1D.

Subpackages cover the periodic spatial discretizations (``meshbasis``),
the model data and parameter representations (``model``), the implicit
time stepper (``forward``), the observation pipeline and identifiability
diagnostics (``data``), the regularized least-squares inversion
(``inverse``), the structural checks and their bounds (``checks``), and
the command-line front end (``config``, ``io``, ``cli``).
"""

__version__ = "0.1.0"
