"""Toolkit for counting small values of shifted isotropic ternary quadratic forms.

The package provides certified fixed-point arithmetic, exact integer
isometries of the form ``v2^2 - 4*v1*v3``, continued-fraction machinery for
Diophantine quality estimates, quadratic exponential sums with explicit upper
bounds, torus-orbit hit counting, and a constructive solver with a brute-force
lattice oracle.  The ``qdensity`` command line drives reproducible CSV
experiments over all of it.
"""

from .diophantine import (
    CFExpansion,
    Convergent,
    DiophantineEstimate,
    DirectionChoice,
    continued_fraction,
    convergents,
    diophantine_direction,
    dirichlet_approx,
    estimate_kappa,
)
from .errors import (
    PrecisionExhausted,
    QDensityError,
    SoundnessError,
    ValidationError,
)
from .fixed import DEFAULT_PRECISION, FixedReal, as_fixed, parse_real
from .forms import (
    ShiftVector,
    TernaryForm,
    evaluate_shifted,
    find_isotropic_vector,
    standard_form,
    verify_equivalence,
)
from .isometries import SL2Matrix, SOQMatrix, apply, iota, unipotent
from .solver import (
    ExponentRow,
    OracleCount,
    Solution,
    SolveReport,
    count_values_grid,
    estimate_critical_exponent,
    find_solutions,
    lifted_shift,
)
from .weyl_sums import (
    TorusPoint2,
    WeylSumResult,
    count_orbit_hits,
    phi,
    sum_min,
    sum_min_explicit_bound,
    weyl_differencing_bound,
    weyl_sum_lanes,
)

__version__ = "0.1.0"
