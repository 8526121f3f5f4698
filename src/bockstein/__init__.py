"""Bockstein spectral-sequence engine with closed-form torsion oracles.

The package has three layers: exact graded-commutative algebra over F_p
on exterior and polynomial generators (`algebra`), closed-form
integer formulas and torsion-module constructors (`formulas`,
`closedform`), and a windowed multiplicative spectral-sequence engine
(`engine`) whose E_infinity tower profiles are certified against the
closed forms (`towers.compare`).
"""

from .algebra import (
    Algebra,
    AlgebraError,
    Element,
    GeneratorSpec,
    Monomial,
    basis_in_degree,
    graded_dims,
    multiply,
)
from .closedform import (
    TorsionGenerator,
    TorsionPresentation,
    localized_expected,
    localized_expected_profile,
    rational_thh_dims,
    t0n_profile,
    t12_profile,
    t22_profile,
    thh_mod_p_algebra,
    tmn_profile,
)
from .engine import (
    AmbiguousPatternError,
    DeadSourceError,
    DifferentialSchedule,
    EngineAssertionError,
    MalformedRuleError,
    PageData,
    Rule,
    RulePage,
    Window,
    run,
    schedule_conj,
    schedule_v0,
    schedule_v1,
    schedule_v2,
)
from .formulas import (
    LambdaFamily,
    d_deg,
    deg_lambda,
    deg_mu,
    nu_p,
    r_conj,
    r_len,
)
from .towers import INF, DiffReport, TowerProfile, Unknown, compare

__version__ = "0.1.0"
