"""The public value types: construction, equality, hash, repr, immutability.

``Term``, ``ForcingTerm`` and ``RecurrenceSpec`` are compared,
hashed, printed and used as dict keys across the package and by callers,
so their observable behaviour is pinned here field by field.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from dlaplace import (MAX_N_POWER, ForcingTerm, QuadExt, RecurrenceSpec,
                      Term, UnsupportedForcing)

HALF = Fraction(1, 2)


def _examples():
    """(value, an equal value built differently, an unequal value)."""
    return [
        (Term(QuadExt(1, 2, 5), QuadExt(HALF), 2),
         Term(coefficient=QuadExt(1, 1, 20), root=QuadExt(HALF),
              multiplicity=2),
         Term(QuadExt(1, 2, 5), QuadExt(HALF), 1)),
        (ForcingTerm(HALF, 3, -2),
         ForcingTerm(base=-2, exponent=3, coefficient=Fraction(2, 4)),
         ForcingTerm(HALF, 3, 2)),
        (RecurrenceSpec(1, (2,), (Fraction(1, 3),), (ForcingTerm(1, 1, 2),)),
         RecurrenceSpec(initials=[Fraction(2, 6)], coefficients=[2], order=1,
                        forcing=[ForcingTerm(1, exponent=1, base=2)]),
         RecurrenceSpec(1, (2,), (Fraction(1, 3),))),
    ]


def test_equal_values_are_equal_and_hash_alike():
    for value, same, other in _examples():
        assert value == same and not value != same
        assert hash(value) == hash(same)
        assert value != other and not value == other
        assert len({value, same, other}) == 2
        assert {value: 1}[same] == 1


def test_values_equal_no_other_type():
    for value, _, _ in _examples():
        fields = tuple(getattr(value, name) for name in (
            "coefficient", "root", "multiplicity", "exponent", "base",
            "order", "coefficients", "initials", "forcing")
            if hasattr(value, name))
        assert value != fields
        assert value.__eq__(fields) is NotImplemented
        assert value != object()


def test_repr_text():
    assert repr(Term(QuadExt(1, 2, 5), QuadExt(HALF), 2)) == (
        "Term(coefficient=QuadExt(Fraction(1, 1), Fraction(2, 1), 5), "
        "root=QuadExt(Fraction(1, 2), Fraction(0, 1), 0), multiplicity=2)")
    assert repr(ForcingTerm(2)) == (
        "ForcingTerm(coefficient=Fraction(2, 1), exponent=0, "
        "base=Fraction(1, 1))")
    assert repr(RecurrenceSpec(2, (1, 1), (1, 1))) == (
        "RecurrenceSpec(order=2, coefficients=(Fraction(1, 1), "
        "Fraction(1, 1)), initials=(Fraction(1, 1), Fraction(1, 1)), "
        "forcing=())")
    assert repr(RecurrenceSpec(1, [2], [Fraction(1, 3)],
                               [ForcingTerm(1, 1, 2)])) == (
        "RecurrenceSpec(order=1, coefficients=(Fraction(2, 1),), "
        "initials=(Fraction(1, 3),), forcing=(ForcingTerm("
        "coefficient=Fraction(1, 1), exponent=1, base=Fraction(2, 1)),))")


def test_keyword_construction_defaults_and_coercion():
    term = ForcingTerm(coefficient=3)
    assert (term.coefficient, term.exponent, term.base) == (3, 0, 1)
    assert type(term.coefficient) is Fraction and type(term.base) is Fraction
    assert ForcingTerm(3, base=Fraction(2)) == ForcingTerm(3, 0, 2)
    spec = RecurrenceSpec(order=2, coefficients=[1, HALF], initials=(0, 1))
    assert spec.forcing == () and spec.is_homogeneous
    assert spec.coefficients == (1, HALF) and spec.initials == (0, 1)
    assert all(type(x) is Fraction
               for x in spec.coefficients + spec.initials)
    forced = RecurrenceSpec(1, (2,), (1,), [ForcingTerm(1)])
    assert forced.forcing == (ForcingTerm(1),)
    assert type(forced.forcing) is tuple
    # Term stores its arguments as given
    assert Term(1, 2, 3).coefficient == 1


def test_assignment_and_deletion_raise_attribute_error():
    for value, _, _ in _examples():
        name = "order" if isinstance(value, RecurrenceSpec) \
            else "coefficient"
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, name, 7)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.unrelated = 1
        assert repr(value) == before


def test_copies_and_pickles_are_equal():
    for value, _, _ in _examples():
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert clone == value and hash(clone) == hash(value)
            assert repr(clone) == repr(value)


def test_forcing_term_errors():
    with pytest.raises(UnsupportedForcing,
                       match="negative powers of n are not supported"):
        ForcingTerm(1, -1)
    with pytest.raises(UnsupportedForcing,
                       match=f"n\\^{MAX_N_POWER + 1} exceeds the degree "
                             f"limit {MAX_N_POWER}"):
        ForcingTerm(1, MAX_N_POWER + 1)
    assert ForcingTerm(1, MAX_N_POWER).exponent == MAX_N_POWER
    with pytest.raises(UnsupportedForcing,
                       match="a forcing base must be nonzero"):
        ForcingTerm(1, 2, 0)


def test_recurrence_spec_errors():
    with pytest.raises(ValueError, match="order must be at least 1"):
        RecurrenceSpec(0, (), ())
    with pytest.raises(ValueError, match="order 2 needs 2 coefficients"):
        RecurrenceSpec(2, (1,), (1, 1))
    with pytest.raises(ValueError, match="order 2 needs 2 coefficients"):
        RecurrenceSpec(2, (1, 1, 1), (1, 1))
    with pytest.raises(ValueError, match="order 2 needs 2 initial values"):
        RecurrenceSpec(2, (1, 1), (1,))
    with pytest.raises(ValueError, match="order 1 needs 1 initial values"):
        RecurrenceSpec(1, (1,), (1, 2))
