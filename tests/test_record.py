"""Every record class of the package: positional construction, equality,
hashing, immutability, validation and repr."""

import pytest

from mlunif import decision, encoding, eqtheory, kripke, minsky, propsat, workbench
from mlunif.errors import DeterminismError, UnknownPoint
from mlunif.formula import Nominal, Substitution, Var
from mlunif.record import FrozenRecord, Record

CONFIG = minsky.Config(1, 0, 0)
INC = minsky.Inc(1, 1, 2)
TRACE = minsky.Trace((CONFIG, minsky.Config(2, 1, 0)), (INC,), minsky.REACHED)
FRAME = kripke.Frame(("a", "b"), (2, 0), (3, 3))
VALUATION = {Var(1): 0b01, Nominal(1): 0b10}
MODEL = kripke.Model(FRAME, VALUATION)
LABELED = encoding.LabeledFrame(FRAME, {"a": "m"}, 2, (2, 0))

# one instance's field values for each record class, in field order
EXAMPLES = {
    minsky.Config: (1, 0, 0),
    minsky.Inc: (1, 1, 2),
    minsky.Dec: (2, 1, 2, 3),
    minsky.MinskyProgram: ((INC,),),
    minsky.Trace: ((CONFIG, minsky.Config(2, 1, 0)), (INC,), minsky.REACHED),
    minsky.Yes: (TRACE,),
    minsky.No: (),
    minsky.Unknown: ("no verdict",),
    kripke.Frame: (("a", "b"), (2, 0), (3, 3)),
    kripke.Model: (FRAME, VALUATION),
    kripke.Valid: (),
    kripke.CounterModel: (MODEL, "a"),
    propsat.CNF: (2, [[1, -2]]),
    propsat.SatResult: (),
    propsat.Sat: ([False, True, False],),
    propsat.Unsat: (),
    decision.Sat: (MODEL, "b"),
    encoding.LabeledFrame: (FRAME, {"a": "m"}, 2, (2, 0)),
    workbench.Unifiable: (Substitution({1: Var(2)}), {"method": "tableau"}, 1, 5),
    workbench.NotUnifiable: (LABELED,),
    eqtheory.Equation: (Var(1), Var(2)),
}
CLASSES = sorted(EXAMPLES, key=lambda cls: cls.__module__ + "." + cls.__qualname__)
FROZEN = [cls for cls in CLASSES if issubclass(cls, FrozenRecord)]
# the classes built by the record base's constructor, not one of their own
BASE_BUILT = [cls for cls in CLASSES if cls.__init__ is Record.__init__]


def record_classes(base=Record):
    for sub in base.__subclasses__():
        if sub is not FrozenRecord:
            yield sub
        yield from record_classes(sub)


def too_many(cls, given):
    """The record base's message for a call with `given` arguments; a class
    with its own constructor gets Python's."""
    if cls not in BASE_BUILT:
        return None
    return r"^%s\(\) takes %d arguments but %d were given$" % (
        cls.__name__, len(cls._fields), given)


def test_every_record_class_has_an_example():
    assert set(record_classes()) == set(EXAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_positional_and_keyword_construction(cls):
    values = EXAMPLES[cls]
    record = cls(*values)
    assert cls._fields == tuple(cls.__annotations__)
    assert tuple(getattr(record, f) for f in cls._fields) == values
    with pytest.raises(TypeError, match=too_many(cls, len(values) + 1)):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    if cls in BASE_BUILT and values:
        # the fields are positional only
        with pytest.raises(TypeError):
            cls(**dict(zip(cls._fields, values)))
        with pytest.raises(TypeError):
            cls(*values[:-1], **{cls._fields[-1]: values[-1]})


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if EXAMPLES[cls]],
                         ids=lambda cls: cls.__qualname__)
def test_missing_argument(cls):
    values = EXAMPLES[cls]
    with pytest.raises(TypeError):
        cls()
    if cls in BASE_BUILT:  # Frame's own constructor has a default for s
        with pytest.raises(TypeError, match=too_many(cls, len(values) - 1)):
            cls(*values[:-1])


def test_defaults():
    # only a class with its own constructor has a default; no class body does
    assert kripke.Frame(("a",), (0,)).s is None
    assert [(cls, f) for cls in CLASSES for f in cls._fields if f in vars(cls)] == []


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_equality_by_class_and_fields(cls):
    record = cls(*EXAMPLES[cls])
    assert record == cls(*EXAMPLES[cls])
    assert not record != cls(*EXAMPLES[cls])
    assert record != object()
    others = [other(*EXAMPLES[other]) for other in CLASSES if other is not cls]
    assert all(record != other for other in others)


def test_equality_examples():
    assert propsat.Unsat() == propsat.Unsat()
    assert kripke.Valid() != propsat.Unsat()
    assert minsky.No() != kripke.Valid()
    assert minsky.Config(1, 0, 0) != minsky.Config(1, 0, 1)
    assert propsat.Sat([True]) != decision.Sat(MODEL, "a")
    assert kripke.Frame(("a",), (0,)) != kripke.Frame(("a",), (0,), (0,))


def test_config_compares_and_hashes_its_own_fields():
    config = minsky.Config(1, 2, 3)
    assert "__eq__" in vars(minsky.Config) and "__hash__" in vars(minsky.Config)
    assert config == minsky.Config(1, 2, 3) and not config != minsky.Config(1, 2, 3)
    assert all(config != minsky.Config(*fields)
               for fields in ((0, 2, 3), (1, 0, 3), (1, 2, 0)))
    # another record class with the same field values, and a plain tuple
    assert config != minsky.Inc(1, 2, 3) and not config == minsky.Inc(1, 2, 3)
    assert config != (1, 2, 3)
    assert hash(config) == hash((1, 2, 3))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
def test_hashing(cls):
    record, twin = cls(*EXAMPLES[cls]), cls(*EXAMPLES[cls])
    if cls not in FROZEN:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__qualname__)
def test_frozen_fields_cannot_change(cls):
    record = cls(*EXAMPLES[cls])
    name = cls._fields[0] if cls._fields else "anything"
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    if cls._fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == EXAMPLES[cls][0]


def test_records_that_are_not_frozen_can_change():
    cnf = propsat.CNF(2, [])
    cnf.num_atoms = 3
    assert cnf == propsat.CNF(3, [])


def test_validation_on_construction():
    with pytest.raises(ValueError, match="nonnegative"):
        minsky.Config(-1, 0, 0)
    with pytest.raises(DeterminismError):
        minsky.MinskyProgram((minsky.Inc(1, 1, 2), minsky.Dec(1, 1, 3, 4)))
    assert minsky.MinskyProgram((INC,)).instruction_for(1) == INC
    with pytest.raises(ValueError, match="duplicate point names"):
        kripke.Frame(("a", "a"), (0, 0))
    with pytest.raises(ValueError, match="at least one point"):
        kripke.Frame((), ())
    with pytest.raises(ValueError, match="R has 1 rows for 2 points"):
        kripke.Frame(("a", "b"), (0,))
    with pytest.raises(ValueError, match="S has 3 rows for 2 points"):
        kripke.Frame(("a", "b"), (0, 0), (0, 0, 0))
    with pytest.raises(UnknownPoint, match="an R edge leaves"):
        kripke.Frame(("a", "b"), (4, 0))
    with pytest.raises(UnknownPoint, match="an S edge leaves"):
        kripke.Frame(("a", "b"), (0, 0), (0, -1))
    for mask in (0b100, -1):
        with pytest.raises(UnknownPoint, match="valuation of p1"):
            kripke.Model(FRAME, {Var(1): mask})
    with pytest.raises(UnknownPoint, match="valuation of n1"):
        kripke.Model(FRAME, {Nominal(1): 0b100})
    for mask in (0, 0b11):
        with pytest.raises(ValueError, match="nominal n1 holds at other than one point"):
            kripke.Model(FRAME, {Nominal(1): mask})


def test_repr():
    assert repr(minsky.Config(1, 0, 0)) == "Config(state=1, c1=0, c2=0)"
    assert repr(minsky.No()) == "No()"
    assert repr(minsky.Unknown("x")) == "Unknown(reason='x')"
    assert repr(FRAME) == "Frame(points=('a', 'b'), r=(2, 0), s=(3, 3))"
    assert repr(propsat.Sat([True])) == "Sat(assignment=[True])"
    assert repr(propsat.CNF(2, [])) == "CNF(num_atoms=2, clauses=[])"
    assert repr(minsky.Yes(TRACE)) == (
        "Yes(trace=Trace(configs=(Config(state=1, c1=0, c2=0), Config(state=2, c1=1, c2=0)),"
        " instrs=(Inc(counter=1, src=1, dst=2),), stopped='reached'))")
