"""The records the library returns, and the reprs of its main objects.

``FieldTag`` is an immutable value: equal and hashed by (kind, p), with a
repr that names both, and it survives copy and pickle.  The other records are
named tuples whose fields keep their names and positional order, every field
required.
"""

import copy
import pickle

import numpy as np
import pytest

from posheaf.cochain import IncidenceData, minimal_complex, minimal_incidence, roos_complex
from posheaf.linalg import QQ, RR, FieldTag, Matrix, prime_field
from posheaf.nsd import LearnResult, learn_sheaf
from posheaf.poset import PosetClassification
from posheaf.sheaf import (
    CompositionalityViolation,
    SectionSpace,
    TransportResult,
    constant_sheaf,
    cycle_poset,
)
from posheaf.spectral import DiffusionTrace, SpectralBundle


def test_field_tags_are_equal_and_hashed_by_kind_and_modulus():
    assert prime_field(7) == FieldTag("Fp", 7) and FieldTag("Q") == QQ
    assert {prime_field(7): "seven"}[FieldTag("Fp", 7)] == "seven"
    assert len({QQ, FieldTag("Q", None), RR, prime_field(7), prime_field(7)}) == 3
    assert QQ != RR and prime_field(7) != prime_field(5) and prime_field(7) != RR
    assert QQ != "Q" and QQ != ("Q", None)


def test_field_tags_are_immutable():
    f = prime_field(7)
    with pytest.raises(AttributeError):
        f.p = 5
    with pytest.raises(AttributeError):
        f.kind = "Q"
    with pytest.raises(AttributeError):
        del f.p
    with pytest.raises(AttributeError):
        f.extra = 1
    assert f == FieldTag("Fp", 7)


def test_field_tag_repr_names_kind_and_modulus():
    assert repr(QQ) == "FieldTag(kind='Q', p=None)"
    assert repr(prime_field(7)) == "FieldTag(kind='Fp', p=7)"
    assert str(prime_field(7)) == "Fp:7" and str(RR) == "R"


@pytest.mark.parametrize("field", [QQ, RR, prime_field(2), prime_field(2**31 - 1)], ids=str)
def test_field_tags_survive_copy_and_pickle(field):
    for twin in (copy.copy(field), copy.deepcopy(field), pickle.loads(pickle.dumps(field))):
        assert twin == field and hash(twin) == hash(field) and repr(twin) == repr(field)
        assert twin.coerce(-3) == field.coerce(-3)


RECORDS = [
    (PosetClassification, "graded rank homology_cell morse_cell cell_dims"),
    (CompositionalityViolation, "source target path_a path_b deviation_sq"),
    (SectionSpace, "layout basis"),
    (TransportResult, "path matrix"),
    (IncidenceData, "poset field generators columns"),
    (SpectralBundle, "eigenvalues eigenvectors lam_min lam_max harmonic_dim"),
    (DiffusionTrace, "states energies distances eta mode limit"),
    (LearnResult, "sheaf loss_history"),
]


@pytest.mark.parametrize("record, names", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_records_read_their_positional_fields_by_name(record, names):
    names = names.split()
    values = [object() for _ in names]
    r = record(*values)
    assert [getattr(r, name) for name in names] == values
    with pytest.raises(AttributeError):
        setattr(r, names[0], None)
    with pytest.raises(AttributeError):
        r.extra = 1
    with pytest.raises(TypeError):  # no field has a default
        record(*values[:-1])


def test_record_properties_and_methods():
    assert SectionSpace(("a", "b"), [{0: 1}, {1: 1}]).dim == 2
    bundle = SpectralBundle(np.array([0.0, 2.0]), np.eye(2), 2.0, 2.0, 1)
    assert bundle.harmonic_projector().tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_learn_result_holds_its_loss_history_as_a_list():
    signals = [np.arange(4.0), np.cos(np.arange(4.0))]
    res = learn_sheaf(cycle_poset(4), signals, iters=5, seed=1)
    assert type(res) is LearnResult and type(res.loss_history) is list
    assert len(res.loss_history) >= 2


def test_reprs_name_the_shape_of_a_small_complex():
    s = constant_sheaf(cycle_poset(4), 2, prime_field(3))
    assert repr(s.poset) == "Poset(8 elements, 8 covers)"
    assert repr(s) == "Sheaf(on Poset(8 elements, 8 covers), field Fp:3)"
    assert repr(Matrix.from_rows([[1, 2, 3], [4, 5, 6]], QQ)) == "Matrix(2x3 over Q)"
    assert repr(roos_complex(s)) == "CochainComplexInstance(roos, dims 16+16)"
    minimal = minimal_complex(s, minimal_incidence(s.poset, s.field))
    assert repr(minimal) == "CochainComplexInstance(minimal, dims 8+8)"
