"""The package surface, resolved on first access, and the record base that
the result records share."""

import copy
import math
import pickle
import re
import sys
import types
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

import anticonc
from anticonc import lemmas
from anticonc.errors import BadParams, Record
from anticonc.frontier import AuditReport, FrontierPoint, SweepConfig, audit, sweep_points
from anticonc.lemmas import (
    BlockTheory,
    MomentRecord,
    SecondMomentRecord,
    SupRatioBoundReport,
    SupRatioEstimate,
    TheoremCheck,
    Verdict,
)
from anticonc.numerics import PI, Add, Exp, Mul, Rat, _Pi, binomial_row
from anticonc.subsetsum import (
    ConcentrationReport,
    CubeSet,
    SumProfile,
    concentration,
    fiber,
    levy,
    profile,
)
from anticonc.sumsets import InjectivityResult, MultiSumset, density_ratio_max, iterated_sumset

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
    (SumProfile, (2, (0, 1, 2), (1, 2, 1))),
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
    assert SupRatioBoundReport(*dict(RECORDS)[SupRatioBoundReport][:7]).exact is None
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


A = CubeSet.from_vectors(2, [(0, 1), (1, 0)])
B = CubeSet.from_vectors(2, [(0, 1), (1, 1)])

# (entry point, parameter, its floor, the refusal below it, the call with the
# parameter set to a value); every count parameter the library checks
COUNTS = [
    ("ratio_moment", "k", 1, "k and s must be >= 1", lambda v: lemmas.ratio_moment(v, 2)),
    ("ratio_moment", "s", 1, "k and s must be >= 1", lambda v: lemmas.ratio_moment(2, v)),
    ("check_initial_bound", "k", 1, "k and s must be >= 1",
     lambda v: lemmas.check_initial_bound(v, 1)),
    ("second_moment_identity", "k", 3, "k must be >= 3", lemmas.second_moment_identity),
    ("tail_check", "k", 1, "k must be >= 1", lemmas.tail_check),
    ("max_ratio_bound", "k", 2, "k must be >= 2", lemmas.max_ratio_bound),
    ("sup_ratio_exact", "k", 1, "k must be >= 1", lambda v: lemmas.sup_ratio_exact(A, v)),
    ("sup_ratio_mc", "k", 1, "k must be >= 1", lambda v: lemmas.sup_ratio_mc(A, v, 3, 0)),
    ("sup_ratio_mc", "samples", 1, "samples must be >= 1",
     lambda v: lemmas.sup_ratio_mc(A, 2, v, 0)),
    ("check_sup_ratio_bound", "k", 1, "k must be >= 1",
     lambda v: lemmas.check_sup_ratio_bound(A, v)),
    ("block_construction", "n", 1, "n and k must be >= 1",
     lambda v: lemmas.block_construction(v, 1)),
    ("block_theory", "k", 1, "n and k must be >= 1", lambda v: lemmas.block_theory(4, v)),
    ("binomial_row", "k", 0, "k must be >= 0", binomial_row),
    ("iterated_sumset", "k", 1, "k must be >= 1", lambda v: iterated_sumset(B, v)),
    ("density_ratio_max", "k", 1, "k must be >= 1", lambda v: density_ratio_max(B, v)),
    ("SweepConfig", "n", 1, "n must be >= 1", lambda v: sweep_points(SweepConfig(v, 3))),
    ("SweepConfig", "max_weight", 0, "max_weight must be >= 0",
     lambda v: sweep_points(SweepConfig(2, v))),
    ("SweepConfig", "workers", 1, "workers must be >= 1", lambda v: SweepConfig(2, 3, v)),
]


def _outcome(call, value):
    try:
        return call(value)
    except BadParams as exc:
        return str(exc)


@pytest.mark.parametrize("where, name, least, message, call", COUNTS,
                         ids=[f"{where}-{name}" for where, name, *_ in COUNTS])
def test_count_parameters_refuse_non_integers(where, name, least, message, call):
    # a count is refused unless it is an integer, naming the parameter; the
    # floor and a bool answer or refuse as the equal int does
    for bad in (2.5, Fraction(5, 2), "3", None):
        refusal = f"{name} must be an integer, not {bad!r}"
        with pytest.raises(BadParams, match=f"^{re.escape(refusal)}$"):
            call(bad)
    with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
        call(least - 1)
    assert not isinstance(_outcome(call, least), str)
    assert _outcome(call, True) == _outcome(call, 1) and _outcome(call, False) == _outcome(call, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "3", None, 1j])
def test_constant_c_refused_unless_a_finite_number(bad):
    rep = concentration(profile((1, 2, 4)))
    for call in (lambda C: audit(sweep_points(SweepConfig(2, 1)), C),
                 lambda C: lemmas.check_sup_ratio_bound(A, 2, C),
                 lambda C: lemmas.theorem_check(rep, C)):
        with pytest.raises(BadParams, match=f"^C must be finite, not {re.escape(str(bad))}$"):
            call(bad)
        assert call(Fraction(20)) == call(20) == call(20.0)


REP = concentration(profile((1, 2, 4)))
# inputs each refused with an untyped TypeError, ValueError or OverflowError
# before: a profile's n that is not a count, a constant C too large for a
# float, which is named by its bit length, a Levy radius that is no number,
# and weights that are not iterable; and a fiber's tau that is no number,
# which answered an empty fiber
UNTYPED = [
    ("SumProfile-n-2.5", lambda: SumProfile(2.5, (0,), (1,)), "n must be an integer, not 2.5"),
    ("SumProfile-n-1", lambda: SumProfile(-1, (0,), (1,)), "n must be >= 0"),
    ("theorem_check-C", lambda: lemmas.theorem_check(REP, 10**400),
     "C must be finite, not a 1329-bit number"),
    ("audit-C", lambda: audit(sweep_points(SweepConfig(2, 1)), 10**400),
     "C must be finite, not a 1329-bit number"),
    ("check_sup_ratio_bound-C", lambda: lemmas.check_sup_ratio_bound(A, 2, 10**400),
     "C must be finite, not a 1329-bit number"),
    ("levy-None", lambda: levy(profile((1, 2)), None), "bad radius None"),
    ("levy-text", lambda: levy(profile((1, 2)), "x"), "bad radius 'x'"),
    ("levy-inf", lambda: levy(profile((1, 2)), math.inf), "bad radius inf"),
    ("profile-None", lambda: profile(None), "weights must be an iterable of integers, not None"),
    ("profile-int", lambda: profile(5), "weights must be an iterable of integers, not 5"),
    ("profile-huge-int", lambda: profile(10**5000),
     "weights must be an iterable of integers, not a 16610-bit number"),
    ("fiber-text", lambda: fiber((1, 2), "x"), "tau must be a number, not 'x'"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in UNTYPED],
                         ids=[case[0] for case in UNTYPED])
def test_untyped_errors_become_bad_params(call, message):
    with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
        call()


# a Fraction C too large for a float is named by the bit lengths of its
# numerator and denominator: Fraction(10**5000) broke the refusal itself
# (CPython's limit on formatting an int of over 4300 digits), and
# Fraction(10**400) was refused with a 423-character message
FRACTION_CS = {
    "10^5000": (Fraction(10**5000), "a 16610-bit number"),
    "10^400": (Fraction(10**400), "a 1329-bit number"),
    "10^400/3": (Fraction(10**400, 3), "a 1329-bit over a 2-bit number"),
}


@pytest.mark.parametrize("C, shown", FRACTION_CS.values(), ids=FRACTION_CS)
def test_fraction_c_past_a_float_named_by_bit_lengths(C, shown):
    for call in (lambda: lemmas.theorem_check(REP, C),
                 lambda: audit(sweep_points(SweepConfig(2, 1)), C),
                 lambda: lemmas.check_sup_ratio_bound(A, 2, C)):
        with pytest.raises(BadParams, match=f"^C must be finite, not {shown}$"):
            call()
