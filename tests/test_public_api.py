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
