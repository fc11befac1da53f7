"""robyclif: exact graded Clifford-style module calculus over polynomial rings.

The package computes characteristic polynomials of finite free algebras by
division-free exact linear algebra, builds graded modules whose generic
actions power to a prescribed form (Roby modules), extracts and verifies
characteristic morphisms, restricts them to a line, and reads off splitting
types and related bundle numerology.  Every computation is exact; every
claimed identity is verified symbolically, never assumed.
"""

from .errors import InputError, RobyclifError, VerificationError
from .scalars import CycScalar, is_primitive_root, make_root
from .poly import HomForm, Poly, parse_poly
from .matrix import PolyMatrix
from .freealg import (
    CharPoly,
    FreeAlgebra,
    cayley_hamilton_check,
    char_poly,
    char_poly_of_matrix,
    monogenic_algebra,
    split_algebra,
)
from .roby import (
    CharMorphism,
    Filtration,
    GradedRobyModule,
    MonomialSpec,
    char_morphism,
    monomial_charpoly_roby,
    monomial_roby,
    split_roby,
    twisted_tensor,
    verify_char_morphism,
    verify_filtered_pseudo,
    verify_roby,
    zero_roby,
)
from .seeds import (
    companion_matrix,
    cyclic_cover_seed,
    mf_seed,
    perturbed_split_algebra,
)
from .linegeom import (
    GradedModuleP1,
    SplittingType,
    hilbert_function,
    is_ulrich_on_embedded_curve,
    restrict_to_line,
    splitting_type,
    underlying_line_module,
)
from .surfnum import (
    BundleNumerics,
    MonadShape,
    UlrichClass,
    beta_sequence,
    ec_tensor,
    monad_shape,
    p1xp1_cohomology,
    quadric_delta_ulrich_test,
    quadric_h1_table,
    quadric_twist_h1,
    wlp_check,
)
from .pipeline import PipelineResult, PipelineSpec, deviation_monomials, run_pipeline
from .specfile import (
    Config,
    parse_algebra,
    parse_bindings,
    parse_config,
    parse_line_module,
    parse_pipeline,
    parse_roby_module,
    render_algebra,
    render_line_module,
    render_roby_module,
    spec_kind,
)
from .report import Report, comparable_dict

__version__ = "0.1.0"

__all__ = [
    "beta_sequence",
    "BundleNumerics",
    "cayley_hamilton_check",
    "char_morphism",
    "char_poly",
    "char_poly_of_matrix",
    "CharMorphism",
    "CharPoly",
    "companion_matrix",
    "comparable_dict",
    "Config",
    "cyclic_cover_seed",
    "CycScalar",
    "deviation_monomials",
    "ec_tensor",
    "Filtration",
    "FreeAlgebra",
    "GradedModuleP1",
    "GradedRobyModule",
    "hilbert_function",
    "HomForm",
    "InputError",
    "is_primitive_root",
    "is_ulrich_on_embedded_curve",
    "make_root",
    "mf_seed",
    "monad_shape",
    "MonadShape",
    "monogenic_algebra",
    "monomial_charpoly_roby",
    "monomial_roby",
    "MonomialSpec",
    "p1xp1_cohomology",
    "parse_algebra",
    "parse_bindings",
    "parse_config",
    "parse_line_module",
    "parse_pipeline",
    "parse_poly",
    "parse_roby_module",
    "perturbed_split_algebra",
    "PipelineResult",
    "PipelineSpec",
    "Poly",
    "PolyMatrix",
    "quadric_delta_ulrich_test",
    "quadric_h1_table",
    "quadric_twist_h1",
    "render_algebra",
    "render_line_module",
    "render_roby_module",
    "Report",
    "restrict_to_line",
    "RobyclifError",
    "run_pipeline",
    "spec_kind",
    "split_algebra",
    "split_roby",
    "splitting_type",
    "SplittingType",
    "twisted_tensor",
    "UlrichClass",
    "underlying_line_module",
    "VerificationError",
    "verify_char_morphism",
    "verify_filtered_pseudo",
    "verify_roby",
    "wlp_check",
    "zero_roby",
    "__version__",
]
