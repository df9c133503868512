"""Bivariate tail dependence beyond the diagonal.

The classical tail dependence coefficient looks at C(u,u)/u only. This
package works with the full tail copula Lambda(x,y) = lim C(tx,ty)/t, its
profile over unit-area rectangles b -> Lambda(b, 1/b), the maximal tail
concordance (the profile maximum lambda* and its attainer b*), and the
finite-level paths of maximal dependence whose limits recover the same
quantities. Closed forms are implemented for survival Marshall-Olkin,
survival extreme-value (via Pickands functions), and Student-t models; a
numeric-limit fallback covers everything else, with honest error reporting.
"""

from .copulas import (
    AsymGumbel,
    Comonotone,
    Copula,
    FGM,
    Independence,
    MarshallOlkin,
    PickandsFn,
    StudentT,
    Survival,
    rectangle_volume,
    survival,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DegenerateTailError,
    DomainError,
    ScheduleError,
    TailPathError,
)
from .maxpath import (
    EquivalenceReport,
    PathPoint,
    PathResult,
    default_u_schedule,
    equivalence_report,
    maximize_slice,
    trace_path,
)
from .singular import (
    SingularCurvePoint,
    asymptotic_report,
    cardano_roots,
    cubic_value,
    curve_residual,
    log_gap,
    singular_root,
)
from .spectral import (
    SpectralModel,
    endpoint_mass,
    h_density,
    interior_mass,
    interior_mass_weighted,
    profile_kernel,
    profile_kernel_log_slope,
    smoothed_profile,
    spectral_tail_copula,
)
from .tailcopula import (
    MtcmResult,
    NumericTailCopula,
    NumericTailValue,
    analytic_tail_copula,
    default_t_sequence,
    mtcm,
    tail_copula_from_pickands,
    tail_copula_numeric,
    tail_copula_sag,
    tail_copula_smo,
    tail_copula_tev,
    tail_copula_zero,
)

__version__ = "0.1.0"

__all__ = [
    "AsymGumbel",
    "BracketError",
    "Comonotone",
    "ConvergenceError",
    "Copula",
    "DegenerateTailError",
    "DomainError",
    "EquivalenceReport",
    "FGM",
    "Independence",
    "MarshallOlkin",
    "MtcmResult",
    "NumericTailCopula",
    "NumericTailValue",
    "PathPoint",
    "PathResult",
    "PickandsFn",
    "ScheduleError",
    "SingularCurvePoint",
    "SpectralModel",
    "StudentT",
    "Survival",
    "TailPathError",
    "analytic_tail_copula",
    "asymptotic_report",
    "cardano_roots",
    "cubic_value",
    "curve_residual",
    "default_t_sequence",
    "default_u_schedule",
    "endpoint_mass",
    "equivalence_report",
    "h_density",
    "interior_mass",
    "interior_mass_weighted",
    "log_gap",
    "maximize_slice",
    "mtcm",
    "profile_kernel",
    "profile_kernel_log_slope",
    "rectangle_volume",
    "singular_root",
    "smoothed_profile",
    "spectral_tail_copula",
    "survival",
    "tail_copula_from_pickands",
    "tail_copula_numeric",
    "tail_copula_sag",
    "tail_copula_smo",
    "tail_copula_tev",
    "tail_copula_zero",
    "trace_path",
    "__version__",
]
