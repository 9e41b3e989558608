"""Value semantics of the record types: a `Name(field=value, ...)` repr,
== only within one class, hashing only for the frozen TopcodeMatrix and
Star, keyword construction, and copies that compare equal."""
import copy
import pickle

import pytest

from iceflower.cli import CommandResult
from iceflower.coloring import ChiFdtResult, FdtReport, TotalColoring
from iceflower.graph import Graph
from iceflower.lattice import ClosureResult, CoincideScript, HairedCycle
from iceflower.leafops import AcrossResult, CoincideResult, SplitResult
from iceflower.system import ColoredIceFlowerSystem, IceFlowerSystem, SaturateResult, Star
from iceflower.topcode import TopcodeMatrix

_TC = TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(2, 1): 4, (1, 3): 5})  # both weights 1
_STARS = [Star(2)]
_TC_REPR = "TotalColoring(palette=5, vertex_colors={1: 1, 2: 2, 3: 3}, edge_colors={(1, 2): 4, (1, 3): 5})"


def _colored():
    return ColoredIceFlowerSystem(_STARS, [_TC], fdt_constant=1)


def test_repr_names_every_field_in_order():
    g = Graph(2, [(1, 2)])
    expected = [
        (_TC, _TC_REPR),
        (TopcodeMatrix((1,), (2,), (3,)), "TopcodeMatrix(X=(1,), E=(2,), Y=(3,))"),
        (Star(3), "Star(m=3)"),
        (IceFlowerSystem(_STARS), "IceFlowerSystem(stars=[Star(m=2)])"),
        (
            _colored(),
            "ColoredIceFlowerSystem(stars=[Star(m=2)], colorings=[%s], fdt_constant=1)" % _TC_REPR,
        ),
        (
            CoincideScript(IceFlowerSystem(_STARS), (2,), ((1, 2, 2, 1),)),
            "CoincideScript(base=IceFlowerSystem(stars=[Star(m=2)]), coefficients=(2,), "
            "steps=((1, 2, 2, 1),))",
        ),
        (FdtReport({(1, 2): 1}, 1, 1, 0, 1), "FdtReport(weights={(1, 2): 1}, wmin=1, wmax=1, bfdt=0, k=1)"),
        (ChiFdtResult(None, None, 5), "ChiFdtResult(m=None, coloring=None, searched_up_to=5)"),
        (SplitResult(g, 3, 4), "SplitResult(graph=Graph(p=2, q=1), leaf_at_u=3, leaf_at_v=4)"),
        (CoincideResult(g, {1: 1}), "CoincideResult(graph=Graph(p=2, q=1), vertex_map={1: 1})"),
        (AcrossResult(g, {1: 1}, {1: 2}), "AcrossResult(graph=Graph(p=2, q=1), map1={1: 1}, map2={1: 2})"),
        (HairedCycle(g, [1], {1: []}), "HairedCycle(graph=Graph(p=2, q=1), spine=[1], pendants={1: []})"),
        (ClosureResult([g], False), "ClosureResult(graphs=[Graph(p=2, q=1)], partial=False)"),
        (SaturateResult(g, _TC, True), "SaturateResult(graph=Graph(p=2, q=1), coloring=%s, saturated=True)" % _TC_REPR),
        (CommandResult(2, note="x"), "CommandResult(exit_code=2, payload='', note='x')"),
    ]
    for record, text in expected:
        assert repr(record) == text


def test_equality_holds_only_within_one_class():
    assert Star(2) == Star(2) and Star(2) != Star(3)
    assert _colored() == _colored()
    assert _colored() != ColoredIceFlowerSystem(_STARS, [_TC])
    backbone = IceFlowerSystem(_STARS)
    assert _colored().backbone() == backbone
    assert backbone != _colored() and _colored() != backbone
    assert TopcodeMatrix((1,), (2,), (3,)) != ((1,), (2,), (3,))


def test_only_the_frozen_types_hash():
    m = TopcodeMatrix((1, 2), (3, 4), (5, 6))
    assert hash(m) == hash(((1, 2), (3, 4), (5, 6)))
    assert hash(Star(4)) == hash(Star(4)) and len({Star(4), Star(4), Star(5)}) == 2
    script = CoincideScript(IceFlowerSystem(_STARS), (1,), ())
    for record in (_TC, script, IceFlowerSystem(_STARS), _colored()):
        with pytest.raises(TypeError):
            hash(record)


def test_frozen_fields_refuse_assignment():
    m, s = TopcodeMatrix((1,), (2,), (3,)), Star(2)
    for record, field in ((m, "X"), (m, "E"), (s, "m")):
        with pytest.raises(AttributeError):
            setattr(record, field, (0,))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        m.extra = 1
    assert m == TopcodeMatrix((1,), (2,), (3,)) and s.m == 2


def test_keyword_construction_and_validation():
    s = ColoredIceFlowerSystem(stars=_STARS, colorings=[_TC], fdt_constant=1)
    assert s == ColoredIceFlowerSystem(_STARS, [_TC], 1) and s.n == 1
    assert TotalColoring(palette=4, vertex_colors={}, edge_colors={(3, 1): 2}).edge_colors == {(1, 3): 2}
    assert TopcodeMatrix(X=(1,), E=(2,), Y=(3,)).q == 1
    assert Star(m=2).leaves == range(2, 4)
    assert CoincideScript(base=IceFlowerSystem(stars=_STARS), coefficients=(1,), steps=()).steps == ()
    with pytest.raises(ValueError, match="declared constant"):
        ColoredIceFlowerSystem(_STARS, [_TC], fdt_constant=2)
    with pytest.raises(ValueError, match="m >= 2"):
        Star(1)
    with pytest.raises(ValueError, match="equal length"):
        TopcodeMatrix((1,), (2, 3), (4,))


def test_copy_and_pickle_rebuild_equal_records():
    records = [_TC, TopcodeMatrix((1,), (2,), (3,)), Star(2), IceFlowerSystem(_STARS), _colored()]
    for record in records:
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
