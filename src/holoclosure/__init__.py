"""Exact symbolic toolkit for real algebraic subsets of C^n.

Computes holomorphic closure dimension, CR dimension and strata, and
Gabrielov ranks from polynomial defining equations, on top of an exact
Groebner-basis engine over the Gaussian rationals Q(i).
"""

from holoclosure.arith import GaussianRational
from holoclosure.closure import (
    HCReport,
    RankReport,
    gabrielov_r1,
    gabrielov_r3,
    hc_dimension_parametrized,
    holomorphic_closure,
    pullback_kernel,
)
from holoclosure.complexify import (
    System,
    complexify_complex_set,
    complexify_ideal,
    conjugation_closure,
    real_dimension,
    real_to_zeta,
    zeta_to_real,
)
from holoclosure.crgeom import (
    CRReport,
    cr_dimension_at,
    cr_strata_ideal,
    tangent_space,
    verify_d_minus_m,
)
from holoclosure.groebner import (
    GroebnerBasis,
    GroebnerConfig,
    Ideal,
    buchberger,
    eliminate,
    ideal_dimension,
    ideal_membership,
    normal_form,
)
from holoclosure.jets import Jet, ProbeResult, jet_compose, jet_exp, osgood_probe, relation_probe
from holoclosure.poly import (
    Block,
    MonomialOrder,
    Polynomial,
    VariableContext,
    polynomial_to_text,
)
from holoclosure.syntax import InputDocument, ParseError, parse, parse_point, print_document

__version__ = "0.1.0"

__all__ = [
    "Block",
    "CRReport",
    "GaussianRational",
    "GroebnerBasis",
    "GroebnerConfig",
    "HCReport",
    "Ideal",
    "InputDocument",
    "Jet",
    "MonomialOrder",
    "ParseError",
    "Polynomial",
    "ProbeResult",
    "RankReport",
    "System",
    "VariableContext",
    "buchberger",
    "complexify_complex_set",
    "complexify_ideal",
    "conjugation_closure",
    "cr_dimension_at",
    "cr_strata_ideal",
    "eliminate",
    "gabrielov_r1",
    "gabrielov_r3",
    "hc_dimension_parametrized",
    "holomorphic_closure",
    "ideal_dimension",
    "ideal_membership",
    "jet_compose",
    "jet_exp",
    "normal_form",
    "osgood_probe",
    "parse",
    "parse_point",
    "polynomial_to_text",
    "print_document",
    "pullback_kernel",
    "real_dimension",
    "real_to_zeta",
    "relation_probe",
    "tangent_space",
    "verify_d_minus_m",
    "zeta_to_real",
    "__version__",
]
