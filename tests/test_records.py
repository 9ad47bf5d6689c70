"""The value types are immutable records: they are built by position or
by keyword, compare, hash and print by their fields in order, refuse
assignment and deletion, and survive copy and pickle."""

import copy
import pickle
from fractions import Fraction

import pytest

from blowupgate import (PSL2, AbelianGroup, BraidWord, BrieskornClass,
                        BrieskornData, Crossing, Flow, FlowGraph,
                        HomologyElement, IntMatrix, LaurentPoly,
                        LinkDiagram, LinkInvariants, Presentation,
                        RealizableK, RepAssignment, Verdict, from_braid)

IDENTITY = PSL2((1, 0, 0, 1))
REP = RepAssignment({"a": IDENTITY}, 0.5, (4.0,))
INVARIANTS = LinkInvariants(1, LaurentPoly({0: 1, 1: -1}), Fraction(1), 1,
                            AbelianGroup(0), False, "seifert")

# class: (field names, field values, exact repr)
RECORDS = {
    IntMatrix: (("rows", "cols", "entries"), (2, 1, (3, 4)),
                "IntMatrix(rows=2, cols=1, entries=(3, 4))"),
    AbelianGroup: (("rank", "torsion"), (0, (3,)),
                   "AbelianGroup(rank=0, torsion=(3,))"),
    Verdict: (("status", "reasons", "invariants"),
              ("obstructed", ("ConnectedZ",), None),
              "Verdict(status='obstructed', reasons=('ConnectedZ',), "
              "invariants=None)"),
    HomologyElement: (("free", "torsion"), ((1,), (2,)),
                      "HomologyElement(free=(1,), torsion=(2,))"),
    FlowGraph: (("vertices", "edges", "labels"),
                (2, ((0, 1),), (HomologyElement((1,)),)),
                "FlowGraph(vertices=2, edges=((0, 1),), "
                "labels=(HomologyElement(free=(1,), torsion=()),))"),
    Flow: (("signed",), ((Fraction(1), Fraction(-1, 2)),),
           "Flow(signed=(Fraction(1, 1), Fraction(-1, 2)))"),
    RealizableK: (("finite", "values", "residues", "modulus"),
                  (False, (), (1, 3), 4),
                  "RealizableK(finite=False, values=(), residues=(1, 3), "
                  "modulus=4)"),
    LinkInvariants: (("components", "alexander", "det_signed", "det",
                      "h1_branched", "b1_positive", "h1_method"),
                     tuple(vars(INVARIANTS).values()),
                     "LinkInvariants(components=1, "
                     "alexander=LaurentPoly(1 + -1*t), "
                     "det_signed=Fraction(1, 1), det=1, "
                     "h1_branched=AbelianGroup(rank=0, torsion=()), "
                     "b1_positive=False, h1_method='seifert')"),
    BraidWord: (("strands", "word"), (2, (1, -1)),
                "BraidWord(strands=2, word=(1, -1))"),
    Crossing: (("arcs", "sign"), ((1, 2, 3, 4), -1),
               "Crossing(arcs=(1, 2, 3, 4), sign=-1)"),
    LinkDiagram: (("crossings", "components", "braid"),
                  ((), ((1,),), None),
                  "LinkDiagram(crossings=(), components=((1,),), "
                  "braid=None)"),
    Presentation: (("generators", "relators", "meridian_markers"),
                   (("a", "b"), ((1, 2, -1),), (1,)),
                   "Presentation(generators=('a', 'b'), "
                   "relators=((1, 2, -1),), meridian_markers=(1,))"),
    PSL2: (("m",), ((2.0, 0.0, 0.0, 0.5),),
           "PSL2(_t=(2.0, 0.0, 0.0, 0.5))"),
    RepAssignment: (("matrices", "residual", "traces"),
                    ({"a": IDENTITY}, 0.5, (4.0,)),
                    "RepAssignment(matrices={'a': PSL2(_t=(1, 0, 0, 1))}, "
                    "residual=0.5, traces=(4.0,))"),
    BrieskornData: (("p", "q", "r"), (2, 3, 5),
                    "BrieskornData(p=2, q=3, r=5, "
                    "cone=((2, 1), (3, 1), (5, -4)))"),
    BrieskornClass: (("angles", "assignment", "irreducible"),
                     ((1, 1, 1), REP, True),
                     "BrieskornClass(angles=(1, 1, 1), "
                     "assignment=RepAssignment(matrices={'a': "
                     "PSL2(_t=(1, 0, 0, 1))}, residual=0.5, "
                     "traces=(4.0,)), irreducible=True)"),
}

# the constructor's parameters are its fields, except for these
FIELDS = {PSL2: ("_t",), BrieskornData: ("p", "q", "r", "cone")}

# (short call, the defaults it stands for)
DEFAULTS = [
    (lambda: AbelianGroup(2), AbelianGroup(2, ())),
    (lambda: HomologyElement((1,)), HomologyElement((1,), ())),
    (lambda: FlowGraph(1, ()), FlowGraph(1, (), None)),
    (lambda: RealizableK(True), RealizableK(True, (), (), 0)),
    (lambda: BraidWord(3), BraidWord(3, ())),
    (lambda: LinkDiagram((), ()), LinkDiagram((), (), None)),
    (lambda: Presentation(("a",), ()), Presentation(("a",), (), None)),
    (lambda: RepAssignment({}), RepAssignment({}, None, None)),
]

CLASSES = sorted(RECORDS, key=lambda cls: cls.__name__)


def build(cls):
    names, values, _ = RECORDS[cls]
    return cls(*values)


def field_values(x):
    cls = next(c for c in type(x).__mro__ if c in RECORDS)
    return tuple(getattr(x, name)
                 for name in FIELDS.get(cls, RECORDS[cls][0]))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_construct_by_position_and_keyword(cls):
    names, values, _ = RECORDS[cls]
    x = cls(*values)
    assert x == cls(**dict(zip(names, values)))
    if cls not in FIELDS:
        assert field_values(x) == values


@pytest.mark.parametrize("short, full", DEFAULTS)
def test_omitted_arguments_take_their_defaults(short, full):
    assert short() == full
    assert field_values(short()) == field_values(full)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_is_by_class_and_fields(cls):
    x, y = build(cls), build(cls)
    assert x == y and not x != y
    other = type(f"Other{cls.__name__}", (cls,), {})
    z = other(*RECORDS[cls][1])
    assert field_values(z) == field_values(x)
    assert x != z and z != x
    assert x != field_values(x)
    assert x.__eq__(field_values(x)) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_hash_is_the_hash_of_the_fields(cls):
    x = build(cls)
    if cls in (RepAssignment, BrieskornClass):   # they hold a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(field_values(x))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_lists_the_fields_in_order(cls):
    assert repr(build(cls)) == RECORDS[cls][2]


def test_b0_is_a_class_constant():
    data = build(BrieskornData)
    assert BrieskornData.b0 == data.b0 == 0
    assert "b0" not in vars(data)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise(cls):
    x = build(cls)
    name = FIELDS.get(cls, RECORDS[cls][0])[0]
    before = field_values(x)
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert field_values(x) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_round_trips(cls):
    x = build(cls)
    for y in (copy.copy(x), copy.deepcopy(x),
              pickle.loads(pickle.dumps(x))):
        assert type(y) is cls
        assert y == x
        assert repr(y) == repr(x)


def test_copies_of_a_closure_stay_unassembled():
    d = from_braid(BraidWord(3, (1, -2, 1, -2)))
    copies = [copy.copy(d), pickle.loads(pickle.dumps(d))]
    for c in copies:
        assert set(vars(c)) == {"braid"}
    assert set(vars(d)) == {"braid"}
    for c in copies:
        assert c.component_count == 1
        assert c == d
        assert set(vars(c)) == set(vars(d)) == {"braid", "crossings",
                                                "components"}
        assert c.crossings == d.crossings and c.components == d.components


# calls that bind no argument list: each names the values of RECORDS
BAD_CALLS = {
    "too-many-positional": lambda cls, names, values: cls(*values, None),
    "unknown-keyword": lambda cls, names, values: cls(*values, unknown=None),
    "position-and-keyword":
        lambda cls, names, values: cls(*values, **{names[0]: values[0]}),
    "missing-first-field":
        lambda cls, names, values: cls(**dict(zip(names[1:], values[1:]))),
}


@pytest.mark.parametrize("call", sorted(BAD_CALLS))
@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_bad_argument_lists_raise_type_error(cls, call):
    names, values, _ = RECORDS[cls]
    with pytest.raises(TypeError):
        BAD_CALLS[call](cls, names, values)
