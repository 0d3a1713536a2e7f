"""Exact-arithmetic computer algebra for quiver Euler forms, symmetric
functions, descendent algebras, lattice vertex algebras and the
Grassmannian Virasoro calculus."""

from .symfunc import (
    SymFunc,
    annihilate,
    complete,
    elementary,
    hall,
    hall_deformed,
    involution,
    jack,
    monomial,
    monomial_expand,
    schur,
    schur_expand,
    skew_by,
)
from .quiver import (
    DgQuiver,
    DimVector,
    FramingVector,
    QuiverError,
    builtin,
    euler_form,
    euler_matrix,
    euler_sym,
    framed_euler,
    framed_quiver,
    virtual_dim,
)
from .descendent import (
    DescendentPoly,
    framed_t_element,
    l_op,
    l_op_framed,
    l_wt0,
    r_op,
    t_element,
    to_symfunc,
)
from .latticeva import (
    Lattice,
    VAElem,
    annihilate_mode,
    create,
    field_mode,
    grassmannian_lattice,
    primary_check,
    translate,
    virasoro,
)
from .grasscalc import (
    FockParams,
    GrElem,
    calogero_sutherland,
    constraint_check,
    fock_virasoro,
    framed_class,
    framed_lattice,
    geometricity_check,
    gr_class_schur,
    gr_class_wallcross,
    gr_integral,
    gr_virasoro,
    gr_virasoro_dual,
    hecke,
    hecke_sym,
    integrals_by_recursion,
    reduce_cohomology,
    singular_check,
    singular_vector,
)

__version__ = "0.1.0"
