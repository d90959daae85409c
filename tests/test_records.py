"""Semantics of the small record types: validation, immutability, hashing, repr."""

from fractions import Fraction

import pytest

from qzeta.density import trigamma
from qzeta.dyadic import Enclosure
from qzeta.groups import Perm
from qzeta.linforms import BV
from qzeta.measures import MFit
from qzeta.params import LABELS_Z1, CVector, ParamsZ1, ParamsZ2
from qzeta.parith import FactoredPPoly
from qzeta.store import Store


@pytest.mark.parametrize(
    "make",
    [
        lambda: ParamsZ1(0, 1, 1, 2),
        lambda: ParamsZ1(1, 1, 1, -2),
        lambda: ParamsZ2(1, 1, 0, 2, 2),
        lambda: Perm(("a", "b"), ("a", "a")),
        lambda: trigamma(Fraction(1, 32)),
        lambda: Enclosure(Fraction(1), Fraction(0)),
    ],
    ids=["z1-zero", "z1-neg", "z2-zero", "perm-not-bijective", "trigamma-err", "enclosure-empty"],
)
def test_validation_raises_value_error(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "record, field",
    [
        (ParamsZ1(8, 7, 9, 16), "a0"),
        (ParamsZ2(1, 1, 1, 2, 2), "b3"),
        (CVector("zeta1", (0, 0, 0, 0, 0, 0)), "values"),
        (Perm(LABELS_Z1, LABELS_Z1), "images"),
        (BV, "rates"),
        (MFit(Fraction(3, 2), (5,), (), True), "stable"),
        (Enclosure(0, 1), "hi"),
    ],
    ids=["ParamsZ1", "ParamsZ2", "CVector", "Perm", "Family", "MFit", "Enclosure"],
)
def test_frozen_fields_reject_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_equal_params_hash_equal_and_share_a_store_key():
    a, b = ParamsZ1(2, 2, 2, 4), ParamsZ1(*[2, 2, 2, 4])
    assert a == b and hash(a) == hash(b) and a is not b
    store = Store()
    assert store.form(a) is store.form(b)


def test_repr_names_every_field():
    assert repr(ParamsZ1(8, 7, 9, 16)) == "ParamsZ1(a0=8, a1=7, a2=9, b=16)"


def test_factored_ppoly_drops_zero_exponents_before_comparing():
    def fields(u):  # FactoredPPoly has no __eq__: no library code compares two
        return u.exponents, u.p_power, u.unit

    assert fields(FactoredPPoly({2: 0, 3: 1})) == fields(FactoredPPoly({3: 1}))
    assert fields(FactoredPPoly({3: 1})) != fields(FactoredPPoly({3: 1}, 0, -1))
