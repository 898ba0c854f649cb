"""Sheaves of finite-dimensional vector spaces on finite posets.

Exact sheaf cohomology through three interchangeable cochain constructions
(Roos, cellular, minimal), sheaf Laplacians with heat diffusion, and a toy
neural-sheaf-diffusion layer, plus a JSON document format and a CLI.
"""

from .errors import PosheafError
from .linalg import QQ, RR, FieldTag, Matrix, prime_field
from .poset import (
    Poset,
    build_poset,
    classify,
    down_set,
    hypergraph_to_poset,
    order_complex,
    simplicial_complex_poset,
    topological_sort,
    transitive_reduction,
)
from .sheaf import (
    Sheaf,
    build_sheaf,
    check_compositionality,
    constant_sheaf,
    cycle_poset,
    dirac_sheaf,
    global_sections_bruteforce,
    mobius_sheaf,
    monodromy,
    parallel_transport,
    path_poset,
    pullback,
    skyscraper_cone_sheaf,
)
from .cochain import (
    betti,
    cellular_complex,
    cohomology,
    minimal_complex,
    minimal_incidence,
    multiplicities,
    roos_complex,
)
from .spectral import (
    convergence_rate,
    dirichlet_energy,
    eigendecompose,
    harmonic_dim,
    heat_diffusion,
    hypergraph_energy_forms,
    laplacian,
)
from .nsd import (
    NsdLayer,
    learn_sheaf,
    nsd_forward,
    nsd_stack,
    sheaf_diffusion_op,
)
from .io import parse_sheaf, serialize_sheaf

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
