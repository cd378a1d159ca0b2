"""Exact computations on rational polyhedral fans.

The package computes, in exact arithmetic throughout: spaces of conewise
linear functions on fans, nontrivial multivalued conewise linear functions,
graded ranks of the cokernel of ordinary inside Danilov differential forms
on affine toric pieces, wall certificates for nonvanishing first cohomology
of that cokernel, and the complete-3-fold dichotomy between a line-bundle
witness and a sublattice refinement with a K-group witness.
"""

__version__ = "0.1.0"

from .cones import Cone, dual_cone, intersect
from .cpl import CPLFunction, CPLSpace, CountReport, cpl_space, counting_certificate, nontrivial_cpl
from .danilov import (
    GradedPieceReport,
    H1Certificate,
    f_dim,
    find_h1_witness,
    h1_wall_certificate,
    image_lattice,
    tilde_omega_dim,
)
from .dichotomy import (
    DichotomyResult,
    KGroupWitness,
    SublatticeRefinement,
    build_sublattice,
    choose_l,
    classify_rays,
    run_dichotomy,
)
from .fans import (
    Fan,
    FanStats,
    ReindexedFan,
    ValidationReport,
    build_cube_fan,
    build_face_fan,
    build_octahedron_fan,
    build_payne_fan,
    euler_check,
    is_complete,
    reindex_lattice,
    stats,
    validate,
)
from .linalg import (
    Sublattice,
    dual_lattice,
    hermite_normal_form,
    membership,
    quotient_rank,
    saturation,
    smith_normal_form,
    span_lattice,
)
from .multival import (
    FunctionalMultiset,
    MultivaluedCPL,
    check_consistency,
    construct_nontrivial,
    elementary_symmetric,
    facet_functionals,
    is_trivial,
    triviality,
)

__all__ = [name for name in dir() if not name.startswith("_")]
