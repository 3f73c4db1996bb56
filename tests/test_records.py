"""Value semantics of the library's record types: immutable values with
equality, hash and repr read from their fields."""

import copy
import pickle
from math import comb

import pytest

from charsum.charsums import sum_A, verify_theorem
from charsum.discovery import fit_closed_form, search_pairs
from charsum.oeis import OeisMatch
from charsum.partition import Partition, theorem_form_of
from charsum.polyring import horner

# type name -> (a function building one value, the name of one of its fields)
RECORDS = {
    "Partition": (lambda: Partition((3, 2)), "parts"),
    "TheoremForm": (lambda: theorem_form_of(Partition((5, 3, 2))), "t"),
    "VerificationReport": (lambda: verify_theorem(Partition((3,)), 3, 5), "rows"),
    "TheoremPair": (lambda: search_pairs(2)[0], "ratio"),
    "OeisMatch": (lambda: OeisMatch("A000984", "Central binomial coefficients", 0, 6), "name"),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    make, field = RECORDS[request.param]
    return request.param, make, field


def test_equal_fields_give_equal_values_with_equal_hashes(record):
    name, make, _ = record
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b)


def test_fields_cannot_be_assigned_or_deleted(record):
    _, make, field = record
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_clone_is_equal_with_equal_hash(record, clone):
    _, make, _ = record
    value = make()
    assert clone(value) == value and hash(clone(value)) == hash(value)


def test_repr_names_the_field():
    assert repr(Partition((3, 2))) == "Partition(parts=(3, 2))"
    assert repr(theorem_form_of(Partition((5, 3, 2)))) == "TheoremForm(odd_parts=(5, 3), t=2)"


def test_values_of_two_types_are_never_equal():
    assert Partition((3,)) != (3,)


def test_rational_function_evaluates():
    # a closed form is a plain pair of integer tuples, evaluated by cross-multiplying
    fit = fit_closed_form(Partition((3,)), "A")
    assert fit == ((48, -11, 1), (12, -20, -16, 16))
    num, den = fit
    assert type(fit) is tuple and all(type(c) is int for c in num + den)
    for n in range(3, 12):
        assert horner(num, n) * comb(2 * n, n) == sum_A(Partition((3,)), n) * horner(den, n)
