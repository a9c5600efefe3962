"""The package's records: plain classes whose fields are their constructor's
parameters.  The read-only ones refuse assignment and deletion; the ones
whose fields are values compare and hash by value, the others by identity;
none is a dataclass."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import cauchy_observer
from cauchy_observer import (CauchyData, FunctionPair, GainVector, ModeSet,
                             ObserverConfig, ObserverProblem, PoleSpec,
                             RectGrid, ReferenceSolution, SweepReport,
                             SystemMatrices, TrigTerm, ackermann_gain,
                             assemble, build_grid, make_cauchy_data,
                             neumann_example, ring_poles)

READ_ONLY = (RectGrid, SystemMatrices, PoleSpec, GainVector, ObserverProblem,
             TrigTerm, ReferenceSolution, CauchyData, ModeSet, FunctionPair)
VALUES = (RectGrid, TrigTerm, ReferenceSolution, ModeSet)
ARRAY_HOLDING = (GainVector, ObserverProblem, CauchyData)


def by_name(classes):
    return pytest.mark.parametrize("cls", classes,
                                   ids=[c.__name__ for c in classes])


@pytest.fixture(scope="module")
def records():
    """One instance of each record class, by class."""
    grid = build_grid(2 * np.pi, 0.5, 129, 5)
    mats = assemble(grid)
    poles = ring_poles(10)
    gain = ackermann_gain(mats.F, mats.C_row, poles)
    sol = neumann_example(grid.a, grid.b)
    data = make_cauchy_data(sol, grid)
    nodes = np.linspace(0.0, 1.0, 5)
    made = [grid, mats, poles, gain, ObserverProblem(grid, data, mats, gain),
            sol.terms[0], sol, data, ModeSet((0, 1), 5),
            FunctionPair(nodes, 2.0 * nodes, np.ones(5)),
            ObserverConfig(np.zeros(10)), SweepReport(96, 1e-16)]
    return {type(r): r for r in made}


def fields(record):
    """The record's fields, by name: its constructor's parameters."""
    return {name: getattr(record, name)
            for name in inspect.signature(type(record)).parameters}


def same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a is b or a == b


def copied(record):
    """A distinct record of the same class built from equal values, its
    arrays copied."""
    values = {name: value.copy() if isinstance(value, np.ndarray) else value
              for name, value in fields(record).items()}
    return type(record)(**values)


@by_name(READ_ONLY)
def test_read_only_record_refuses_assignment_and_deletion(records, cls):
    record = records[cls]
    before = fields(record)
    for field in before:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1
    after = fields(record)
    assert all(after[field] is before[field] for field in before)


@by_name(READ_ONLY + (ObserverConfig, SweepReport))
def test_positional_and_keyword_construction_agree(records, cls):
    given = fields(records[cls])
    by_position = fields(cls(*given.values()))
    by_keyword = fields(cls(**given))
    assert list(by_position) == list(by_keyword) == list(given)
    for field, value in by_position.items():
        assert same(value, by_keyword[field]) and same(value, given[field])


@by_name(ARRAY_HOLDING)
def test_array_holding_record_compares_by_identity(records, cls):
    record = records[cls]
    twin = copied(record)
    assert record == record and record in [record]
    assert record != twin and not record == twin
    assert twin not in [record]
    assert hash(record) == hash(record)
    assert len({record, twin, record}) == 2


@by_name(VALUES)
def test_value_record_compares_by_value(records, cls):
    record = records[cls]
    twin = copied(record)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert len({record, twin}) == 1


def test_no_class_in_the_package_is_a_dataclass():
    modules = [cauchy_observer] + [
        importlib.import_module(f"cauchy_observer.{info.name}")
        for info in pkgutil.iter_modules(cauchy_observer.__path__)]
    assert len(modules) > 8
    for module in modules:
        for name, value in vars(module).items():
            assert not dataclasses.is_dataclass(value), (module, name)


def test_records_repr_by_field(records):
    assert repr(records[TrigTerm]) == "TrigTerm(k=1, coeff=1.0, parity='cos')"
    assert repr(records[SweepReport]) == (
        "SweepReport(warmup_steps=96, periodicity_defect=1e-16)")
    assert repr(records[RectGrid]).startswith("RectGrid(a=6.28")
