"""The package surface, resolved on first access, and the record base that
the result records share."""

import copy
import pickle
import sys
import types
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

import anticonc
from anticonc.errors import Record
from anticonc.frontier import AuditReport, FrontierPoint, SweepConfig
from anticonc.lemmas import (
    BlockTheory,
    MomentRecord,
    SecondMomentRecord,
    SupRatioBoundReport,
    SupRatioEstimate,
    TheoremCheck,
    Verdict,
)
from anticonc.numerics import PI, Add, Exp, Mul, Rat, _Pi
from anticonc.subsetsum import ConcentrationReport, CubeSet
from anticonc.sumsets import InjectivityResult, MultiSumset

PUBLIC = [
    "Add", "AuditReport", "BadParams", "BlockTheory", "BudgetExceeded",
    "CapacityExceeded", "ConcentrationReport", "CubeSet", "Exp", "FrontierPoint",
    "InjectivityResult", "InvariantViolated", "MomentRecord", "Mul", "MultiSumset",
    "Ordering", "PI", "Rat", "SecondMomentRecord", "SumProfile", "SupRatioBoundReport",
    "SupRatioEstimate", "SweepConfig", "TheoremCheck", "TooLarge", "Undecidable",
    "Verdict", "as_weights", "audit", "binomial_row", "block_construction",
    "block_theory", "check_initial_bound", "check_injectivity", "check_sup_ratio_bound",
    "cmp_bound", "concentration", "density_ratio_max", "errors", "fiber", "frontier",
    "iterated_sumset", "lemmas", "levy", "max_ratio_bound", "numerics", "pareto_subset",
    "partition_total", "profile", "profile_dp", "profile_mitm", "profile_naive",
    "ratio_moment", "second_moment_identity", "subsetsum", "sumsets", "sup_ratio_exact",
    "sup_ratio_mc", "sweep_points", "tail_check", "theorem_check", "unique_preimages",
]


def test_package_surface():
    assert anticonc.__all__ == PUBLIC
    star: dict = {}
    exec("from anticonc import *", star)
    assert set(PUBLIC) <= star.keys()
    assert set(PUBLIC) <= set(dir(anticonc))
    for name in PUBLIC:
        value = getattr(anticonc, name)
        assert star[name] is value
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"anticonc.{name}"]
        else:  # the defining layer's own object
            assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        anticonc.no_such_name


X = Rat(Fraction(1, 3))
POINT = ((1, 1), Fraction(1, 2), 3, 0.5, 0.79)

# (record class, field values); every class of the base on the shipped paths
RECORDS = [
    (ConcentrationReport, (3, Fraction(1, 4), 2, 5, 0.46, 0.53)),
    (CubeSet, (2, (0, 3))),
    (Rat, (Fraction(2, 7),)),
    (_Pi, ()),
    (Exp, (X,)),
    (Add, (X, PI)),
    (Mul, (PI, X)),
    (MomentRecord, (Fraction(1, 2), Exp(X), Verdict.HOLDS, None)),
    (SecondMomentRecord, (Fraction(3, 2), Fraction(5, 4), Verdict.FAILS)),
    (SupRatioEstimate, (1.5, 0.25)),
    (SupRatioBoundReport, (0.3, "exact", 2.0, 0.0, 9.5, 7.5, True, Fraction(2))),
    (BlockTheory, (Fraction(1, 4), 9, 1.7)),
    (TheoremCheck, (0.1, 6.3, True)),
    (MultiSumset, (2, 3, {5: 1, 7: 2})),
    (InjectivityResult, (False, ((0, 1), (1, 0)))),
    (FrontierPoint, POINT),
    (SweepConfig, (3, 4, 2)),
    (AuditReport, (23, 1.58, (0, 1, 1), 0.95, (1, 2, 3), (), True)),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_records_keep_frozen_dataclass_semantics(cls, values):
    names = cls._fields
    assert issubclass(cls, Record) and len(names) == len(values)
    rec = cls(*values)
    assert rec == cls(**dict(zip(names, values)))
    assert rec == cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert tuple(getattr(rec, n) for n in names) == values
    # the dataclass with these fields is the oracle of repr and hash
    oracle = make_dataclass(cls.__name__, names, frozen=True)(*values)
    assert repr(rec) == repr(oracle)
    if cls is MultiSumset:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(oracle) == hash(cls(*values))
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(rec, proto)) == rec
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    # equal fields in another class, or a tuple, are not equal
    assert rec != values and rec != oracle
    bad = [((*values, 0), {}), (values, {"extra": 1})]
    if values:
        bad.append((values, {names[0]: values[0]}))  # a field given twice
        if names[-1] not in cls._defaults:
            bad.append((values[:-1], {}))  # a field missing
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_record_defaults_and_class_equality():
    assert InjectivityResult(True) == InjectivityResult(holds=True, witness=None)
    assert SupRatioBoundReport(*RECORDS[10][1][:7]).exact is None
    assert Add(X, PI) != Mul(X, PI) and Add(X, PI) != Add(PI, X)
    assert _Pi() == PI and hash(_Pi()) == hash(PI) and str(X + PI) == "1/3 + pi"
    assert SweepConfig(3, 4) == SweepConfig(n=3, max_weight=4, workers=1)


def test_slotted_record_has_no_dict_and_no_defaults():
    # a slotted record's class holds its slots' descriptors, none a default
    rec = FrontierPoint(*POINT)
    assert not hasattr(rec, "__dict__") and FrontierPoint._defaults == {}
    with pytest.raises(TypeError):
        FrontierPoint(*POINT[:-1])
    assert hasattr(SweepConfig(3, 4), "__dict__")
