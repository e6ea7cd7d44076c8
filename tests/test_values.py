"""The value rule: every library value is immutable, and copy, deepcopy and
pickle rebuild it, alone or inside the dataclasses that hold it."""

import copy
import dataclasses
import pickle

import pytest

from stationarylab.algebra import AlgebraElement, norm_lower_bound, norm_upper_bound
from stationarylab.boundary import solve_stationary, translate, uniform_boundary_measure
from stationarylab.freegroup import FiniteQuotient, FreeGroupContext, _Frozen
from stationarylab.states import powers_search
from stationarylab.subgroups import CyclicSubgroup, pdf_from_subgroup_sample
from stationarylab.walks import GroupMeasure, sample_path, uniform_generator_measure

F2 = FreeGroupContext(2)
X = AlgebraElement({F2.word("a"): 1, F2.word("b"): 0.5j, F2.word("ab"): "1/3"}, 2)
NU = uniform_boundary_measure(F2, 2)
MU = GroupMeasure({F2.word("a"): "1/2", F2.word("B"): "1/4", F2.word("ab"): "1/4"}, 2)

# one value of each type, built by the public entry points
VALUES = {
    "Word": F2.word("abA"),
    "AlgebraElement": X,
    "GroupMeasure": MU,
    "uniform CylinderMeasure": NU,
    "translated CylinderMeasure": translate(F2.word("a"), NU),
    "CyclicSubgroup": CyclicSubgroup(F2.word("abab")),
    "PositiveDefiniteFn": pdf_from_subgroup_sample(
        [CyclicSubgroup(F2.word("a")), CyclicSubgroup(F2.word("ab"))], ["1/3", "2/3"], 4),
    "FiniteQuotient": FiniteQuotient(2, [(1, 0, 2), (1, 2, 0)]),
    "MomentBound": norm_lower_bound(X, 4),
    "UpperBound": norm_upper_bound(X),
    "PathSample": sample_path(MU, 12, 7),
    "PowersCertificate": powers_search(F2.word("a"), 0.75),
    "StationarySolution": solve_stationary(uniform_generator_measure(2), 2),
}


def _fields(value):
    """The value as plain data, field by field, down to the tables: frozen
    values compare by their fields, as some define no __eq__."""
    if isinstance(value, _Frozen):
        head = float(value) if isinstance(value, float) else None
        return type(value), head, [_fields(getattr(value, name)) for name in value._fields]
    if dataclasses.is_dataclass(value):
        return type(value), [_fields(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return type(value), [_fields(v) for v in value]
    return value


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES)
def test_values_survive_copy_deepcopy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert _fields(twin) == _fields(value)


FROZEN = {name: value for name, value in VALUES.items() if isinstance(value, _Frozen)}


@pytest.mark.parametrize("value", FROZEN.values(), ids=FROZEN)
def test_every_field_refuses_assignment(value):
    message = f"^{type(value).__name__} is immutable$"
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, getattr(value, name, None))

