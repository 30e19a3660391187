"""The value records of pcc (permutations, family specs, ear
decompositions, rooted trees, certificates, budgets, search outcomes,
construction reports and anchor sets) keep one contract: construction by
position and by keyword with the same defaults, field-wise equality within
one class only, a hash over the field tuple, a repr in the dataclass
format, no assignment or deletion, and their validation errors, checked in
the same order with the same messages."""

import copy
import math
import pickle

import pytest

from pcc.construct import AnchorSet, ConstructionReport
from pcc.exact import ExactResult, Inconclusive, SearchBudget
from pcc.graphs import EdgeColoring, FamilySpec, InvariantViolation, Permutation
from pcc.structure import EarDecomposition, RootedTree
from pcc.verify import VerificationCertificate

_C = EdgeColoring({(0, 1): 1, (1, 2): 2})

# (class, every field in declaration order, the keywords of an equal
# record built from its defaults, its repr)
_RECORDS = [
    (Permutation, {"image": (2, 3, 1)}, {"image": (2, 3, 1)},
     "Permutation(image=(2, 3, 1))"),
    (FamilySpec, {"family": "wheel", "n": 5, "m": None, "t": None, "parts": None, "seed": 0},
     {"n": 5, "family": "wheel"},
     "FamilySpec(family='wheel', n=5, m=None, t=None, parts=None, seed=0)"),
    (FamilySpec,
     {"family": "complete_multipartite", "n": None, "m": None, "t": None, "parts": (1, 2),
      "seed": 3},
     {"seed": 3, "parts": (1, 2), "family": "complete_multipartite"},
     "FamilySpec(family='complete_multipartite', n=None, m=None, t=None, parts=(1, 2), seed=3)"),
    (EarDecomposition, {"base_cycle": (0, 1, 2), "ears": ((0, 3, 1),)},
     {"ears": ((0, 3, 1),), "base_cycle": (0, 1, 2)},
     "EarDecomposition(base_cycle=(0, 1, 2), ears=((0, 3, 1),))"),
    (RootedTree, {"root": 1, "parent": (1, None, 1), "depth": (1, 0, 1)},
     {"depth": (1, 0, 1), "parent": (1, None, 1), "root": 1},
     "RootedTree(root=1, parent=(1, None, 1), depth=(1, 0, 1))"),
    (VerificationCertificate, {"ok": False, "witnesses": {(0, 1): ((0, 1),)}, "failing_pair": (0, 2)},
     {"failing_pair": (0, 2), "witnesses": {(0, 1): ((0, 1),)}, "ok": False},
     "VerificationCertificate(ok=False, witnesses={(0, 1): ((0, 1),)}, failing_pair=(0, 2))"),
    (SearchBudget, {"max_colors": None, "time_limit": None, "max_edges": 18}, {},
     "SearchBudget(max_colors=None, time_limit=None, max_edges=18)"),
    (SearchBudget, {"max_colors": 3, "time_limit": 0.5, "max_edges": 20},
     {"max_edges": 20, "time_limit": 0.5, "max_colors": 3},
     "SearchBudget(max_colors=3, time_limit=0.5, max_edges=20)"),
    (ExactResult, {"min_colors": 2, "witness": _C, "colorings_examined": 7, "exhausted_levels": (1,)},
     {"exhausted_levels": (1,), "colorings_examined": 7, "witness": _C, "min_colors": 2},
     "ExactResult(min_colors=2, witness=EdgeColoring(m=2, t=2), colorings_examined=7, "
     "exhausted_levels=(1,))"),
    (Inconclusive, {"exhausted_levels": (1, 2), "colorings_examined": 40, "reason": "time limit"},
     {"reason": "time limit", "colorings_examined": 40, "exhausted_levels": (1, 2)},
     "Inconclusive(exhausted_levels=(1, 2), colorings_examined=40, reason='time limit')"),
    (ConstructionReport,
     {"coloring": _C, "claimed_colors": 2, "theorem": "path", "notes": "", "verified": False},
     {"theorem": "path", "claimed_colors": 2, "coloring": _C},
     "ConstructionReport(coloring=EdgeColoring(m=2, t=2), claimed_colors=2, theorem='path', "
     "notes='', verified=False)"),
    (ConstructionReport,
     {"coloring": _C, "claimed_colors": 3, "theorem": "path", "notes": "n", "verified": True},
     {"verified": True, "notes": "n", "theorem": "path", "claimed_colors": 3, "coloring": _C},
     "ConstructionReport(coloring=EdgeColoring(m=2, t=2), claimed_colors=3, theorem='path', "
     "notes='n', verified=True)"),
    (AnchorSet, {"vertex": 0, "paths": ((0, 1, 2), (0, 3, 4))},
     {"paths": ((0, 1, 2), (0, 3, 4)), "vertex": 0},
     "AnchorSet(vertex=0, paths=((0, 1, 2), (0, 3, 4)))"),
]

_IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(_RECORDS)]


def _built(cls, fields, kwargs):
    return cls(*fields.values()), cls(**kwargs)


@pytest.mark.parametrize("cls, fields, kwargs, text", _RECORDS, ids=_IDS)
def test_records_build_by_position_and_keyword_with_defaults(cls, fields, kwargs, text):
    for rec in _built(cls, fields, kwargs):
        assert type(rec) is cls
        for name, value in fields.items():
            assert getattr(rec, name) is value or getattr(rec, name) == value
        assert repr(rec) == text
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**kwargs, no_such_field=1)


@pytest.mark.parametrize("cls, fields, kwargs, text", _RECORDS, ids=_IDS)
def test_records_compare_field_wise_within_one_class(cls, fields, kwargs, text):
    by_position, by_keyword = _built(cls, fields, kwargs)
    assert by_position == by_keyword and not by_position != by_keyword
    twin = type(cls.__name__, (cls,), {})(*fields.values())
    assert by_position != twin and twin != by_position and not by_position == twin
    assert by_position != tuple(fields.values())
    for other_cls, other_fields, other_kwargs, _ in _RECORDS:
        other = other_cls(**other_kwargs)
        assert (other == by_position) is (other_fields is fields)
        assert (other != by_position) is (other_fields is not fields)


def test_records_differ_in_any_one_field():
    assert Permutation((1, 2)) != Permutation((2, 1))
    assert RootedTree(0, (None, 0), (0, 1)) != RootedTree(1, (1, None), (1, 0))
    assert Inconclusive((1,), 4, "x") != Inconclusive((1,), 5, "x")
    assert Inconclusive((1,), 4, "x") != Inconclusive((1,), 4, "y")
    assert ExactResult(2, _C, 7, (1,)) != ExactResult(2, EdgeColoring({(0, 1): 2, (1, 2): 1}), 7, (1,))
    assert ConstructionReport(_C, 2, "path") != ConstructionReport(_C, 2, "path", verified=True)
    assert AnchorSet(0, ((0, 1, 2), (0, 3, 4))) != AnchorSet(0, ((0, 1, 2), (0, 3, 5)))
    assert VerificationCertificate(True, {}, None) != VerificationCertificate(False, {}, None)


@pytest.mark.parametrize("cls, fields, kwargs, text", _RECORDS, ids=_IDS)
def test_records_hash_their_field_tuple(cls, fields, kwargs, text):
    values = tuple(fields.values())
    try:
        expected = hash(values)
    except TypeError:
        expected = None
    for rec in _built(cls, fields, kwargs):
        if expected is None:
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(rec) == expected


def test_records_with_unhashable_fields_raise_type_error_on_hash():
    with pytest.raises(TypeError):
        hash(VerificationCertificate(True, {}, None))
    with pytest.raises(TypeError):
        hash(FamilySpec("complete_multipartite", parts=[1, 2]))
    assert len({Permutation((1, 2)), Permutation((1, 2)), Permutation((2, 1))}) == 2


@pytest.mark.parametrize("cls, fields, kwargs, text", _RECORDS, ids=_IDS)
def test_records_refuse_assignment_and_deletion(cls, fields, kwargs, text):
    rec = cls(*fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.no_such_field = 1
    assert rec == cls(*fields.values()) and repr(rec) == text


@pytest.mark.parametrize("cls, fields, kwargs, text", _RECORDS, ids=_IDS)
def test_records_copy_and_pickle(cls, fields, kwargs, text):
    rec = cls(*fields.values())
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec
    again = pickle.loads(pickle.dumps(rec))
    assert type(again) is cls and again == rec and repr(again) == text


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Permutation((1, 1)), ValueError, "image (1, 1) is not a permutation of [2]"),
        (lambda: Permutation(()), ValueError, "image () is not a permutation of [0]"),
        (lambda: Permutation((0, 1)), ValueError, "image (0, 1) is not a permutation of [2]"),
        (lambda: RootedTree(0, (1, None), (0, 1)), ValueError,
         "root must have no parent and depth 0"),
        (lambda: RootedTree(1, (1, None), (1, 1)), ValueError,
         "root must have no parent and depth 0"),
        (lambda: SearchBudget(max_colors=0), ValueError, "max_colors must be an int >= 1, got 0"),
        (lambda: SearchBudget(max_colors=True), ValueError,
         "max_colors must be an int >= 1, got True"),
        (lambda: SearchBudget(max_colors=2.5), ValueError,
         "max_colors must be an int >= 1, got 2.5"),
        (lambda: SearchBudget(time_limit=0), ValueError, "time_limit must be positive, got 0"),
        (lambda: SearchBudget(time_limit=-1.5), ValueError,
         "time_limit must be positive, got -1.5"),
        (lambda: SearchBudget(time_limit=math.nan), ValueError,
         "time_limit must be positive, got nan"),
        (lambda: SearchBudget(max_edges=0), ValueError, "max_edges must be an int >= 1, got 0"),
        (lambda: SearchBudget(max_edges=None), ValueError,
         "max_edges must be an int >= 1, got None"),
        (lambda: SearchBudget(0, -1, 0), ValueError, "max_colors must be an int >= 1, got 0"),
        (lambda: SearchBudget(None, -1, 0), ValueError, "time_limit must be positive, got -1"),
        (lambda: SearchBudget(4, 1.0, -2), ValueError, "max_edges must be an int >= 1, got -2"),
        (lambda: ConstructionReport(_C, 1, "path"), InvariantViolation,
         "path: coloring uses 2 colors, more than the claimed 1"),
        (lambda: ConstructionReport(EdgeColoring({(0, 1): 3}), 0, "tree", "n", True),
         InvariantViolation, "tree: coloring uses 1 colors, more than the claimed 0"),
        (lambda: AnchorSet(0, ((0, 1, 2),)), InvariantViolation,
         "anchor set at 0 needs 2 or 3 paths"),
        (lambda: AnchorSet(5, ((1, 2, 3),) * 4), InvariantViolation,
         "anchor set at 5 needs 2 or 3 paths"),
        (lambda: AnchorSet(0, ((0, 1, 2), (1, 0, 2))), InvariantViolation,
         "bad anchor path (1, 0, 2) at vertex 0"),
        (lambda: AnchorSet(0, ((0, 1, 1), (0, 1, 2))), InvariantViolation,
         "bad anchor path (0, 1, 1) at vertex 0"),
        (lambda: AnchorSet(0, ((0, 1, 2), (0, 1, 3), (5, 1, 2))), InvariantViolation,
         "bad anchor path (5, 1, 2) at vertex 0"),
        (lambda: AnchorSet(0, ((0, 1, 2), (0, 1, 3))), InvariantViolation,
         "anchor set at 0 must touch exactly two incident edges"),
        (lambda: AnchorSet(0, ((0, 1, 2), (0, 3, 4), (0, 5, 6))), InvariantViolation,
         "anchor set at 0 must touch exactly two incident edges"),
    ],
)
def test_records_validate_with_the_same_messages_in_the_same_order(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def test_record_methods():
    alpha = Permutation((2, 3, 1))
    assert len(alpha) == 3 and [alpha(i) for i in (1, 2, 3)] == [2, 3, 1]
    assert RootedTree(1, (1, None, 1), (1, 0, 1)).n == 3
    anchors = AnchorSet(0, ((0, 1, 2), (0, 3, 4), (0, 3, 5)))
    assert anchors.incident_neighbors() == (1, 3)
    cmat = [[0] * 6 for _ in range(6)]
    for (a, b), c in {(0, 1): 1, (1, 2): 2, (0, 3): 3, (3, 4): 4, (3, 5): 1}.items():
        cmat[a][b] = cmat[b][a] = c
    assert anchors.edge_colors(cmat) == {1, 2, 3, 4}
