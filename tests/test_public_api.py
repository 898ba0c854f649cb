import importlib
import sys

import pytest

import posheaf

# The package's public names, submodules included.  A name added to or
# removed from posheaf/__init__.py must be added to or removed from this list.
PUBLIC = [
    "FieldTag", "Matrix", "NsdLayer", "Poset", "PosheafError", "QQ", "RR", "Sheaf",
    "betti", "build_poset", "build_sheaf", "cellular_complex", "check_compositionality",
    "classify", "cochain", "cohomology", "constant_sheaf", "convergence_rate", "cycle_poset",
    "dirac_sheaf", "dirichlet_energy", "down_set", "eigendecompose", "errors",
    "global_sections_bruteforce", "harmonic_dim", "heat_diffusion", "hypergraph_energy_forms",
    "hypergraph_to_poset", "io", "laplacian", "learn_sheaf", "linalg", "minimal_complex",
    "minimal_incidence", "mobius_sheaf", "monodromy", "multiplicities", "nsd", "nsd_forward",
    "nsd_stack", "order_complex", "parallel_transport", "parse_sheaf", "path_poset", "poset",
    "prime_field", "pullback", "roos_complex", "serialize_sheaf", "sheaf",
    "sheaf_diffusion_op", "simplicial_complex_poset", "skyscraper_cone_sheaf", "spectral",
    "topological_sort", "transitive_reduction",
]


def test_public_names_are_pinned():
    assert sorted(posheaf.__all__) == PUBLIC


# names that load on first access, with the submodule that defines them
LAZY = {
    "spectral": ["convergence_rate", "dirichlet_energy", "eigendecompose", "harmonic_dim",
                 "heat_diffusion", "hypergraph_energy_forms", "laplacian"],
    "nsd": ["NsdLayer", "learn_sheaf", "nsd_forward", "nsd_stack", "sheaf_diffusion_op"],
}


def test_every_public_name_resolves():
    for name in posheaf.__all__:
        assert getattr(posheaf, name) is not None
    for module, names in LAZY.items():
        assert getattr(posheaf, module) is importlib.import_module(f"posheaf.{module}")
        for name in names:
            assert getattr(posheaf, name) is getattr(sys.modules[f"posheaf.{module}"], name)
    assert posheaf.laplacian is posheaf.spectral.laplacian


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from posheaf import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert set(PUBLIC) <= set(dir(posheaf))
    assert namespace["NsdLayer"] is posheaf.nsd.NsdLayer


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        posheaf.no_such_name  # noqa: B018
