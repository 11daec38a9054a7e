"""Analysis of substitution tilings without finite local complexity.

The package covers the full pipeline from 1-dimensional substitutions to the
Cech cohomology of direct-product-variation (DPV) tiling spaces:

* exact arithmetic in the expansion field Q(lambda)           (`algebra`)
* substitutions, Perron data, spectral classes, legal words   (`substitution`)
* Anderson-Putnam complexes of collared letters               (`ap_complex`)
* Smith normal form, direct limits of Z^n, group expressions  (`abelian`)
* fault-line boundary traces and classification               (`fault`)
* DPV validation, essential vertices, H^0..H^3                (`dpv`)
* exact-coordinate patches and SVG output                     (`render`)
* input documents and the command line                        (`documents`, `cli`)
"""

from .errors import (
    FaultlineError,
    HypothesisError,
    NoPerronRootError,
    ResourceCapError,
    ValidationError,
)
from .algebra import AlgebraicNumber, NumberField
from .substitution import (
    Letter,
    PerronData,
    SpectralClass,
    SpectralKind,
    Substitution,
    TileLengths,
    shift_conjugacy,
    spectral_classify,
)
from .abelian import (
    DirectLimitGroup,
    GroupExpr,
    direct_limit,
    invariants,
    recognize,
    smith_normal_form,
)
from .ap_complex import APComplex, CollaredLetter, GradedGroupData, border_forcing, collar, graph_h1
from .fault import (
    BoundaryKind,
    BoundaryTrace,
    OverlapGraph,
    boundary_trace,
    classify_boundary,
    discrepancy_growth,
    offset_statistics,
)
from .dpv import (
    CohomologyReport,
    DPVSubstitution,
    EssentialVertexReport,
    cochain_limits,
    cohomology,
    compute_mu,
    compute_nu,
    essential_vertices,
    h1_limit,
    validate_dpv,
)
from .render import Patch, emit_svg, generate_patch
from .documents import Document, bundled_document, bundled_names, load_document

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
