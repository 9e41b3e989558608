import ast
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iceflower.graph import Graph, are_isomorphic, is_tree
from iceflower.families import (
    complete_graph,
    connected_classes,
    free_trees,
    path_graph,
    star_graph,
)
from iceflower import cli, topcode
from iceflower.coloring import TotalColoring
from iceflower.topcode import (
    TopcodeMatrix,
    _assemble,
    _check_number_string,
    _color,
    _digit_reads,
    _readings,
    _row_steps,
    _tree_rows,
    cuttings,
    realize_topcode,
    solve_dnsp,
    string_from_topcode,
    topcode_from_graph,
    topological_vector,
    vector_lattice_member,
)
from tests.conftest import place_calls, random_distinct_label_tree
from tests.test_acceptance import DIGIT_STRING_60
from tests.test_star_lattice import _outcome


def test_matrix_validation():
    m = TopcodeMatrix((1,), (2,), (3,))
    assert m.q == 1 and m.columns() == [(1, 2, 3)]
    with pytest.raises(ValueError):
        TopcodeMatrix((), (), ())
    with pytest.raises(ValueError):
        TopcodeMatrix((1, 2), (3,), (4, 5))
    with pytest.raises(ValueError):
        TopcodeMatrix((-1,), (2,), (3,))


def test_encode_k2_and_p3():
    g = Graph(2, [(1, 2)])
    f = TotalColoring(3, {1: 1, 2: 2}, {(1, 2): 3})
    t = topcode_from_graph(g, f)
    assert (t.X, t.E, t.Y) == ((1,), (3,), (2,))

    p3 = path_graph(3)
    f3 = TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 4, (2, 3): 5})
    assert topcode_from_graph(p3, f3).columns() == [(1, 4, 2), (2, 5, 3)]

    with pytest.raises(ValueError):
        topcode_from_graph(Graph(1, []), TotalColoring(1, {1: 1}, {}))


def test_encode_orders_endpoints_and_columns():
    # vertex colors out of order and edges shuffled still canonicalize
    g = path_graph(3)
    f = TotalColoring(9, {1: 7, 2: 2, 3: 5}, {(1, 2): 9, (2, 3): 1})
    t = topcode_from_graph(g, f)
    assert t.columns() == [(2, 1, 5), (2, 9, 7)]


def test_string_round_trip_simple():
    t = TopcodeMatrix((1,), (3,), (2,))
    assert string_from_topcode(t) == "132"
    t2 = TopcodeMatrix((12,), (3,), (7,))
    assert string_from_topcode(t2) == "1237"
    with pytest.raises(ValueError):
        string_from_topcode(TopcodeMatrix((100,), (1,), (2,)))


def test_cuttings_enumeration():
    assert [m.columns() for m in cuttings("132", 1)] == [[(1, 3, 2)]]
    got = [(m.X[0], m.E[0], m.Y[0]) for m in cuttings("1234", 1)]
    assert got == [(12, 3, 4), (1, 23, 4), (1, 2, 34)]
    with pytest.raises(ValueError):
        list(cuttings("12", 1))
    with pytest.raises(ValueError):
        list(cuttings("1234567", 1))  # too long for q=1


def test_cuttings_reassemble_bit_exactly():
    rng = random.Random(2)
    for _ in range(20):
        q = rng.randrange(1, 4)
        length = rng.randrange(3 * q, 6 * q + 1)
        d = "".join(rng.choice("0123456789") for _ in range(length))
        for m in cuttings(d, q):
            assert string_from_topcode(m) == d


def test_cuttings_exclude_leading_zero_two_digit_segments():
    # "05" as a two-digit segment would reassemble as "5"
    mats = [(m.X[0], m.E[0], m.Y[0]) for m in cuttings("1005", 1)]
    assert mats == [(10, 0, 5)]
    # a lone 0 segment is fine
    assert [m.columns() for m in cuttings("102", 1)] == [[(1, 0, 2)]]


def test_realize_distinct_labels():
    ok = realize_topcode(TopcodeMatrix((1,), (3,), (2,)))
    assert ok is not None
    g, f = ok
    assert g.p == 2 and f.vertex(1) == 1 and f.vertex(2) == 2 and f.edge(1, 2) == 3
    assert realize_topcode(TopcodeMatrix((1, 1), (3, 3), (2, 2))) is None
    assert realize_topcode(TopcodeMatrix((1, 3), (5, 6), (2, 4))) is None
    assert realize_topcode(TopcodeMatrix((2,), (5,), (2,))) is None  # loop


def test_realize_matches_encode():
    rng = random.Random(6)
    for _ in range(50):
        t, f = random_distinct_label_tree(rng, rng.randrange(1, 7))
        m = topcode_from_graph(t, f)
        realized = realize_topcode(m)
        assert realized is not None
        g2, f2 = realized
        assert are_isomorphic(t, g2)
        m2 = topcode_from_graph(g2, f2)
        assert (m2.X, m2.E, m2.Y) == (m.X, m.E, m.Y)


def test_identify_mode():
    # duplicate columns split apart once equal labels may separate
    m = TopcodeMatrix((1, 1), (4, 5), (2, 2))
    assert realize_topcode(m) is None
    r = realize_topcode(m, identify=True)
    assert r is not None
    g, f = r
    assert g.p == 3 and is_tree(g)
    # distinct-labels reading wins when it works
    m2 = TopcodeMatrix((1, 1), (4, 5), (2, 3))
    a = realize_topcode(m2)
    b = realize_topcode(m2, identify=True)
    assert a is not None and b is not None
    assert are_isomorphic(a[0], b[0])
    with pytest.raises(ValueError):
        realize_topcode(
            TopcodeMatrix(tuple(range(1, 8)), tuple(range(1, 8)), tuple(range(11, 18))),
            identify=True,
        )


def _reference_identify(t):
    """realize_topcode(t, identify=True) with its own nested enumeration:
    each label's slots split into set partitions in restricted-growth
    order, labels taken in ascending order, the first label outermost."""
    xy = list(zip(t.X, t.Y))
    labels = sorted({*t.X, *t.Y})
    slots = {l: [] for l in labels}
    for i, (x, y) in enumerate(xy):
        slots[x].append(2 * i)
        slots[y].append(2 * i + 1)

    def partitions(items):
        n = len(items)
        rgs = [0] * n

        def rec(i, maxb):
            if i == n:
                blocks = {}
                for j, b in enumerate(rgs):
                    blocks.setdefault(b, []).append(items[j])
                yield [blocks[b] for b in sorted(blocks)]
                return
            for b in range(maxb + 2):
                rgs[i] = b
                yield from rec(i + 1, max(maxb, b))

        return rec(1, 0)

    def product(idx, slot_vertex, next_id):
        if idx == len(labels):
            yield slot_vertex
            return
        for part in partitions(slots[labels[idx]]):
            for vid, block in enumerate(part, next_id):
                for s in block:
                    slot_vertex[s] = vid
            yield from product(idx + 1, slot_vertex, next_id + len(part))

    for slot_vertex in product(0, {}, 1):
        ends = [(slot_vertex[2 * i], slot_vertex[2 * i + 1]) for i in range(t.q)]
        frame = _assemble(xy, ends, max(slot_vertex.values()))
        if frame is not None:
            return frame[0], _color(frame, t.E, max(t.E))
    return None


def test_identify_mode_equals_the_nested_partition_sweep():
    rng = random.Random(16)
    outcomes = set()
    for _ in range(400):
        q = rng.randrange(1, 5)
        labels = rng.randrange(1, 4)
        m = TopcodeMatrix(
            tuple(rng.randrange(1, labels + 1) for _ in range(q)),
            tuple(rng.randrange(1, 6) for _ in range(q)),
            tuple(rng.randrange(1, labels + 1) for _ in range(q)),
        )
        got = realize_topcode(m, identify=True)
        assert got == _reference_identify(m), m
        outcomes.add(None if got is None else got[0].p)
    assert outcomes == {None, 2, 3, 4, 5}


def test_solve_dnsp_trivial_and_empty():
    sols = solve_dnsp("132", [1])
    assert len(sols) == 1
    m, g, f = sols[0]
    assert (m.X, m.E, m.Y) == ((1,), (3,), (2,)) and g.p == 2
    with pytest.raises(ValueError):
        solve_dnsp("12", [1, 2, 3])


def test_a_number_string_is_ascii_digits_only():
    # both pass str.isdigit(), but int() reads the Arabic-Indic digits as
    # "132" and refuses the superscript 2: no cutting spells either back
    for d in ("\u0661\u0663\u0662", "1\u00b22"):
        with pytest.raises(ValueError, match="digits 0-9"):
            solve_dnsp(d, [1])
        with pytest.raises(ValueError, match="digits 0-9"):
            next(cuttings(d, 1))


def test_solve_dnsp_looks_up_only_the_q_that_fit_in_a_vast_range():
    assert solve_dnsp("132", range(1, 10**12)) == solve_dnsp("132", [1])
    with pytest.raises(ValueError, match="q values must be positive"):
        solve_dnsp("132", range(0, 10**12))
    with pytest.raises(ValueError, match="fits no requested q"):
        solve_dnsp("132", range(2, 10**12))


def test_solve_dnsp_without_q_values_says_so():
    for empty in ([], (), set(), range(5, 5), range(3, 1)):
        with pytest.raises(ValueError, match="no q value was given"):
            solve_dnsp("132", empty)


def test_solve_dnsp_142536_has_no_tree():
    # length 6 forces the single all-1-digit cutting; its two columns
    # (1,2,3) and (4,5,6) are vertex-disjoint, so nothing connected
    assert solve_dnsp("142536", [2]) == []
    only = list(cuttings("142536", 2))
    assert len(only) == 1
    assert realize_topcode(only[0]) is None


def test_solve_dnsp_agrees_with_cutting_filter():
    rng = random.Random(8)
    for _ in range(10):
        q = rng.randrange(1, 3)
        length = rng.randrange(3 * q, 6 * q + 1)
        d = "".join(rng.choice("123456789") for _ in range(length))
        by_filter = [
            m
            for m in cuttings(d, q)
            if (r := realize_topcode(m)) is not None and is_tree(r[0])
        ]
        by_solver = [m for m, _, _ in solve_dnsp(d, [q])] if 3 * q <= length <= 6 * q else []
        assert [(m.X, m.E, m.Y) for m in by_filter] == [
            (m.X, m.E, m.Y) for m in by_solver
        ]


def test_solve_dnsp_round_trip_random_trees(rng):
    for _ in range(30):
        q = rng.randrange(1, 8)
        t, f = random_distinct_label_tree(rng, q)
        m = topcode_from_graph(t, f)
        d = string_from_topcode(m)
        sols = solve_dnsp(d, [q])
        keys = [(s.X, s.E, s.Y) for s, _, _ in sols]
        assert (m.X, m.E, m.Y) in keys
        idx = keys.index((m.X, m.E, m.Y))
        assert are_isomorphic(sols[idx][1], t)


def test_solve_dnsp_matches_cutting_filter_with_zeros_and_several_q():
    rng = random.Random(31)
    hits = 0
    for case in range(40):
        qs = rng.sample(range(1, 6), rng.randrange(1, 4))
        length = rng.randrange(3 * min(qs), 6 * max(qs) + 1)
        alphabet = "0123456789" if case % 2 else "0112"
        d = "".join(rng.choice(alphabet) for _ in range(length))
        viable = [q for q in sorted(qs) if 3 * q <= length <= 6 * q]
        if not viable:
            with pytest.raises(ValueError):
                solve_dnsp(d, qs)
            continue
        expected = []
        for q in viable:
            for m in cuttings(d, q):
                r = realize_topcode(m)
                if r is not None and is_tree(r[0]):
                    expected.append((m,) + r)
        assert solve_dnsp(d, qs) == expected, (d, qs)
        hits += len(expected)
    assert hits > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_dnsp_recovers_every_encoded_tree(data):
    q = data.draw(st.integers(1, 6))
    edges = [(data.draw(st.integers(1, v - 1)), v) for v in range(2, q + 2)]
    labels = data.draw(st.lists(st.integers(0, 99), min_size=q + 1, max_size=q + 1, unique=True))
    colors = data.draw(st.lists(st.integers(0, 99), min_size=q, max_size=q))
    t = Graph(q + 1, edges)
    f = TotalColoring(
        max([1] + labels + colors),
        {v: labels[v - 1] for v in t.vertices()},
        dict(zip(edges, colors)),
    )
    m = topcode_from_graph(t, f)
    sols = solve_dnsp(string_from_topcode(m), [q])
    keys = [(s.X, s.E, s.Y) for s, _, _ in sols]
    assert (m.X, m.E, m.Y) in keys
    assert are_isomorphic(sols[keys.index((m.X, m.E, m.Y))][1], t)


def test_c12_solution_count_and_order_are_pinned():
    sols = solve_dnsp(DIGIT_STRING_60.replace("o", "0"), [12])
    keys = [(m.X, m.E, m.Y) for m, _, _ in sols]
    assert len(keys) == 111
    assert keys[0] == (
        (21, 26, 24, 3, 2, 2, 5, 2, 2, 2, 2, 74),
        (69, 22, 22, 11, 88, 13, 20, 20, 15, 10, 12, 17),
        (20, 20, 1, 91, 4, 16, 21, 20, 1, 82, 3, 16),
    )
    assert keys[-1] == (
        (2, 1, 2, 6, 2, 4, 3, 22, 5, 22, 22, 74),
        (69, 22, 22, 11, 88, 13, 20, 20, 15, 10, 12, 17),
        (20, 20, 19, 1, 4, 16, 2, 1, 20, 18, 23, 16),
    )


def _reference_row_steps(row, q):
    """The former step table of one row read alone, row = d[:o1] or d[o2:]."""
    return [
        {
            p: [
                (p + w, int(row[p : p + w]))
                for w in (2, 1)
                if left <= len(row) - p - w <= 2 * left and (w == 1 or row[p] != "0")
            ]
            for p in range(i, min(2 * i, len(row)) + 1)
        }
        for i, left in enumerate(range(q - 1, -1, -1))
    ]


def _reference_tree_rows(x_steps, y_steps):
    """The former search of one split: every tree (X, Y) along the steps."""
    q = len(x_steps)
    parent = list(range(100))
    xs, ys = [0] * q, [0] * q
    found = []

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def place(i, px, py, seen):
        if i == q:
            found.append((tuple(xs), tuple(ys)))
            return
        fewest = q + 1 - 2 * (q - i - 1)
        for ex, x in x_steps[i][px]:
            rx = find(x)
            xs[i] = x
            for ey, y in y_steps[i][py]:
                ry = find(y)
                if rx == ry:
                    continue
                grown = seen | 1 << x | 1 << y
                if not fewest <= grown.bit_count() <= q + 1:
                    continue
                parent[rx] = ry
                ys[i] = y
                place(i + 1, ex, ey, grown)
                parent[rx] = rx

    place(0, 0, 0, 0)
    return found


def _former_readings(d, start, stop, count):
    """The former middle-row reader, which read each value with int() on
    its slice of d and, on backtrack, took a segment's width from its
    value: below 10 one digit, else two (no leading zero)."""
    vals = []
    pos, w = start, 2  # w: the next width to try at pos, 0 to backtrack
    while True:
        left = count - len(vals)
        if left and w and left - 1 <= stop - pos - w <= 2 * (left - 1) and (w == 1 or d[pos] != "0"):
            vals.append(int(d[pos : pos + w]))
            pos, w = pos + w, 2
        elif left and w == 2:
            w = 1
        else:
            if not left:
                yield tuple(vals)
            if not vals:
                return
            width = 1 + (vals.pop() >= 10)
            pos, w = pos - width, width - 1


def reference_solve_dnsp(d, q_values):
    """The former solver: one search for each split of d into X | E | Y."""
    _check_number_string(d)
    qs = sorted(set(q_values))
    if not qs or any(q < 1 for q in qs):
        raise ValueError("q values must be positive")
    n = len(d)
    viable = [q for q in qs if 3 * q <= n <= 6 * q]
    if not viable:
        raise ValueError(
            "string of length %d fits no requested q (needs 3q <= %d <= 6q)"
            % (n, n)
        )
    out = []
    for q in viable:
        if q >= 100:
            continue
        found = []
        x_steps = {o1: _reference_row_steps(d[:o1], q) for o1 in range(q, 2 * q + 1)}
        y_steps = {o2: _reference_row_steps(d[o2:], q) for o2 in range(n - 2 * q, n - q + 1)}
        for o1 in range(q, 2 * q + 1):
            for o2 in range(max(o1 + q, n - 2 * q), min(o1 + 2 * q, n - q) + 1):
                pairs = _reference_tree_rows(x_steps[o1], y_steps[o2])
                if pairs:
                    for es in _former_readings(d, o1, o2, q):
                        found.extend(TopcodeMatrix(xs, es, ys) for xs, ys in pairs)
        found.sort(key=lambda m: [v < 10 for v in m.X + m.E + m.Y])
        out.extend((m,) + realize_topcode(m) for m in found)
    return out


def _seeded_digit_strings(seed, count):
    """(d, q_values): up to 40 digits, with and without zeros.  Small q
    come several to a call over their whole length range; q = 7..12 come
    one or two to a call, 0-4 digits above 3q, where the solution count
    stays small enough for a quick test."""
    rng = random.Random(seed)
    for case in range(count):
        alphabet = "0123456789" if case % 2 else "123456789"
        if case % 3:
            qs = rng.sample(range(1, 7), rng.randrange(1, 4))
            length = rng.randrange(3 * min(qs), min(6 * max(qs), 40) + 1)
        else:
            q = rng.randrange(7, 12)
            qs = [q, q + 1][: rng.randrange(1, 3)]
            length = 3 * q + rng.randrange(0, 5)
        yield "".join(rng.choice(alphabet) for _ in range(length)), qs


def test_solve_dnsp_equals_the_former_per_split_search():
    inputs = [(DIGIT_STRING_60.replace("o", "0"), [12])]
    inputs.extend(_seeded_digit_strings(37, 100))
    hits, q_seen = 0, set()
    for d, qs in inputs:
        got = _outcome(solve_dnsp, d, qs)
        assert got == _outcome(reference_solve_dnsp, d, qs), (d, qs)
        if not isinstance(got, str):
            hits += len(got)
            q_seen.update(m.q for m, _, _ in got)
    assert hits > 3000 and q_seen == set(range(1, 13))


def test_one_search_per_y_start_is_the_union_of_the_per_split_searches():
    # one generator serves every o2 of a string, so any state one Y-row
    # start leaves behind (a union not undone, a pair not cleared) shows
    # up under a later o2
    checked = 0
    for d, qs in _seeded_digit_strings(41, 120):
        n = len(d)
        reads = _digit_reads(d)
        for q in qs:
            merged = {}
            for o1, o2, pairs in _tree_rows(reads, n, q):
                assert pairs and o2 >= max(merged, default=o2)
                merged.setdefault(o2, []).extend((o1,) + pair for pair in pairs)
            for o2 in range(max(2 * q, n - 2 * q), min(4 * q, n - q) + 1):
                lo, hi = max(q, o2 - 2 * q), min(2 * q, o2 - q)
                per_split = [
                    (o1,) + pair
                    for o1 in range(lo, hi + 1)
                    for pair in _reference_tree_rows(
                        _reference_row_steps(d[:o1], q), _reference_row_steps(d[o2:], q)
                    )
                ]
                assert sorted(merged.pop(o2, [])) == sorted(per_split), (d, q, o2)
                checked += len(per_split)
            assert not merged, (d, q)
    assert checked > 0


def test_c12_solve_makes_109609_place_calls():
    # the pair search's work: the same as when each Y-row start made its
    # own search
    res = []
    d = DIGIT_STRING_60.replace("o", "0")
    assert place_calls(lambda: res.extend(solve_dnsp(d, [12])), "topcode.py") == 109609
    assert len(res) == 111


def test_seeded_round_trips_make_15215_place_calls():
    # 250 encode -> string -> solve round trips, q cycling through 2..6
    rng = random.Random(71)
    strings = []
    for i in range(250):
        q = 2 + i % 5
        t, f = random_distinct_label_tree(rng, q)
        strings.append((string_from_topcode(topcode_from_graph(t, f)), q))
    res = []
    calls = place_calls(lambda: res.extend(len(solve_dnsp(d, [q])) for d, q in strings), "topcode.py")
    assert calls == 15215
    assert sum(res) == 3648


def test_rows_that_pass_the_search_but_do_not_realize_are_an_internal_error(tmp_path, monkeypatch):
    monkeypatch.setattr(topcode, "_distinct_labels", lambda X, Y: None)
    with pytest.raises(RuntimeError) as err:
        solve_dnsp("132", [1])
    assert str(err.value) == "rows X=(1,) Y=(2,) passed the tree search but do not realize as a tree"
    path = tmp_path / "s.txt"
    path.write_text("132\n")
    r = cli.run(["topcode", "solve", str(path), "--q", "1"])
    assert (r.exit_code, r.payload) == (3, "")
    assert r.note.startswith("internal error: RuntimeError: rows X=(1,) Y=(2,)")


def _value_mask(values):
    mask = 0
    for v in values:
        mask |= 1 << v
    return mask


def _check_forced(d, steps, ends):
    """Every reading of the table against brute force: it has a completion
    to one of `ends`, and its forced mask is its value plus the values
    that all of its completions read."""
    q = len(steps)
    checked = 0
    for i, table in enumerate(steps):
        left = q - 1 - i
        for p, readings in table.items():
            alive = []
            for end, value in ((p + w, int(d[p : p + w])) for w in (2, 1) if p + w <= len(d)):
                if left:
                    rest = [r for o in ends for r in _former_readings(d, end, o, left)]
                else:
                    rest = [()] if end in ends else []
                if rest and (end - p == 1 or d[p] != "0"):
                    common = _value_mask(rest[0])
                    for r in rest:
                        common &= _value_mask(r)
                    alive.append((end, value, 1 << value | common))
            assert readings == alive, (d, i, p)
            checked += len(alive)
    return checked


def test_forced_masks_equal_the_values_every_completion_reads():
    checked = 0
    for d, qs in _seeded_digit_strings(43, 60):
        n = len(d)
        for q in qs:
            first, last = max(2 * q, n - 2 * q), min(4 * q, n - q)
            checked += _check_forced(d, _row_steps(_digit_reads(d), first, q, n, n, last), [n])
            for o2 in range(first, last + 1):
                lo, hi = max(q, o2 - 2 * q), min(2 * q, o2 - q)
                checked += _check_forced(d, _row_steps(_digit_reads(d), 0, q, lo, hi), range(lo, hi + 1))
    assert checked > 5000


def test_the_shared_y_table_equals_the_table_of_each_start():
    checked = 0
    for d, qs in _seeded_digit_strings(47, 120):
        n = len(d)
        reads = _digit_reads(d)
        for q in qs:
            first, last = max(2 * q, n - 2 * q), min(4 * q, n - q)
            shared = _row_steps(reads, first, q, n, n, last)
            for o2 in range(first, last + 1):
                alone = _row_steps(reads, o2, q, n, n)
                assert [{p: shared[i][p] for p in table} for i, table in enumerate(alone)] == alone
                checked += 1
    assert checked > 400


def _former_row_steps(d, start, q, lo, hi, last_start=None):
    """The former step-table builder, which read each value with int() on
    its slice of d, once for each table."""
    last = start if last_start is None else last_start
    steps = [{} for _ in range(q)]
    after = {}
    for i in range(q - 1, -1, -1):
        left = q - 1 - i
        for p in range(start + i, last + 2 * i + 1):
            readings = []
            for w in (2, 1):
                end = p + w
                if end + left <= hi and end + 2 * left >= lo and (w == 1 or d[p] != "0"):
                    v = int(d[p:end])
                    forced = 1 << v
                    if left:
                        nxt = after[end]
                        if not nxt:
                            continue
                        forced |= nxt[0][2] & nxt[-1][2]
                    readings.append((end, v, forced))
            steps[i][p] = readings
        after = steps[i]
    return steps


def test_tables_from_the_shared_digit_values_equal_the_former_int_slice_tables():
    checked = 0
    inputs = [(DIGIT_STRING_60.replace("o", "0"), [12]), ("100200300", [2, 3])]
    inputs.extend(_seeded_digit_strings(53, 120))
    for d, qs in inputs:
        n = len(d)
        reads = _digit_reads(d)
        assert len(reads) == 2 * n and not any(reads[n:])
        for q in qs:
            if not 3 * q <= n <= 6 * q:
                continue
            first, last = max(2 * q, n - 2 * q), min(4 * q, n - q)
            y_steps = _row_steps(reads, first, q, n, n, last)
            assert y_steps == _former_row_steps(d, first, q, n, n, last), (d, q)
            for o2 in range(first, last + 1):
                lo, hi = max(q, o2 - 2 * q), min(2 * q, o2 - q)
                x_steps = _row_steps(reads, 0, q, lo, hi)
                assert x_steps == _former_row_steps(d, 0, q, lo, hi), (d, q, o2)
                checked += sum(len(r) for table in x_steps for r in table.values())
    assert checked > 5000


def test_readings_from_the_shared_digit_values_equal_the_former_int_slice_reader():
    """Every window solve_dnsp reads a middle row from (each X-row end o1
    its Y-row start o2 allows), and the full cutting of each string of up
    to 20 digits, on the c12 string, a zero-heavy string and the seeded
    strings."""
    checked = 0
    inputs = [(DIGIT_STRING_60.replace("o", "0"), [12]), ("100200300", [2, 3])]
    inputs.extend(_seeded_digit_strings(67, 120))
    for d, qs in inputs:
        n = len(d)
        reads = _digit_reads(d)
        for q in qs:
            if not 3 * q <= n <= 6 * q:
                continue
            windows = [(0, n, 3 * q)] if n <= 20 else []
            for o2 in range(max(2 * q, n - 2 * q), min(4 * q, n - q) + 1):
                lo, hi = max(q, o2 - 2 * q), min(2 * q, o2 - q)
                windows.extend((o1, o2, q) for o1 in range(lo, hi + 1))
            for start, stop, count in windows:
                got = list(_readings(reads, start, stop, count))
                assert got == list(_former_readings(d, start, stop, count)), (d, start, stop, count)
                checked += len(got)
    assert checked > 10000


def test_digit_values_are_read_only_in_digit_reads():
    """The segment grammar lives in _digit_reads alone: no other code in
    topcode.py calls int(), so no second reading of digits can appear."""
    def int_calls(node):
        return sum(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "int"
            for n in ast.walk(node)
        )

    tree = ast.parse(Path(topcode.__file__).read_text())
    (reader,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_digit_reads"]
    assert int_calls(reader) > 0 and int_calls(reader) == int_calls(tree)


def _defined_reads(d):
    """_digit_reads by its definition, each value int() of its slice."""
    n = len(d)
    return [
        tuple((p + w, int(d[p : p + w])) for w in (2, 1) if p + w <= n and (w == 1 or d[p] != "0"))
        for p in range(n)
    ] + [()] * n


def test_digit_reads_equal_the_int_slice_definition():
    strings = ["".join(s) for n in range(1, 8) for s in itertools.product("019", repeat=n)]
    rng = random.Random(73)
    strings += ["".join(rng.choice("0123456789") for _ in range(rng.randrange(1, 70))) for _ in range(300)]
    strings.append(DIGIT_STRING_60.replace("o", "0"))
    for d in strings:
        assert _digit_reads(d) == _defined_reads(d), d


def test_encodings_equal_the_matrices_of_the_checked_constructor():
    # topcode_from_graph and canonical() build without the checks; the
    # public constructor must accept each result and rebuild it equal
    rng = random.Random(79)
    for case in range(300):
        q = rng.randrange(1, 13)
        if case % 2:
            t, f = random_distinct_label_tree(rng, q)
        else:  # colors 0..9: equal ends, equal columns and one-digit values
            t, _ = random_distinct_label_tree(rng, q)
            f = TotalColoring(
                9,
                {v: rng.randrange(0, 10) for v in t.vertices()},
                {e: rng.randrange(0, 10) for e in t.edges()},
            )
        cols = sorted((f.edge(u, v),) + tuple(sorted((f.vertex(u), f.vertex(v)))) for u, v in t.edges())
        want = TopcodeMatrix(*(tuple(c[i] for c in cols) for i in (1, 0, 2)))
        shuffled = list(zip(want.X, want.E, want.Y))
        rng.shuffle(shuffled)
        flipped = [(y, e, x) if rng.random() < 0.5 else (x, e, y) for x, e, y in shuffled]
        for m in (topcode_from_graph(t, f), TopcodeMatrix(*map(tuple, zip(*flipped))).canonical()):
            assert all(type(row) is tuple for row in (m.X, m.E, m.Y))
            for other in (want, TopcodeMatrix(m.X, m.E, m.Y)):
                assert m == other and hash(m) == hash(other) and repr(m) == repr(other)


def _differential_inputs():
    """(d, q): the c12 string, c11-style encoded random trees, and the
    seeded strings with and without zeros."""
    yield DIGIT_STRING_60.replace("o", "0"), [12]
    rng = random.Random(59)
    for _ in range(40):
        q = rng.randrange(1, 9)
        t, f = random_distinct_label_tree(rng, q)
        yield string_from_topcode(topcode_from_graph(t, f)), [q]
    yield from _seeded_digit_strings(61, 100)


def test_solver_output_equals_the_checked_constructors():
    # the solver builds its matrices and colorings without their checks;
    # the public constructors must accept each one and rebuild it equal
    hits = 0
    for d, qs in _differential_inputs():
        sols = _outcome(solve_dnsp, d, qs)
        if isinstance(sols, str):
            continue
        for m, g, f in sols:
            checked_m = TopcodeMatrix(m.X, m.E, m.Y)
            assert checked_m == m and hash(checked_m) == hash(m)
            assert repr(checked_m) == repr(m)
            checked_f = TotalColoring(f.palette, dict(f.vertex_colors), dict(f.edge_colors))
            assert checked_f == f and repr(checked_f) == repr(f)
            assert realize_topcode(m) == (g, f)
            hits += 1
    assert hits > 3000


def test_cuttings_of_a_long_string_start_at_once():
    d = "1" * 3300
    m = next(cuttings(d, 1000))
    # wider first: the first 300 segments take two digits, the rest one
    assert m.X == (11,) * 300 + (1,) * 700
    assert m.E == m.Y == (1,) * 1000
    assert string_from_topcode(m) == d


def test_solve_dnsp_skips_q_of_100_and_more():
    # values are at most 99, so at most 100 distinct labels: a tree with
    # 100 edges needs 101
    t0 = time.time()
    assert solve_dnsp("1" * 600, [100]) == []
    assert time.time() - t0 < 1.0


def test_topological_vectors():
    assert topological_vector(star_graph(4)) == (4,)
    assert topological_vector(path_graph(5)) == (1, 0, 1)
    assert topological_vector(Graph(1, [])) == (0,)
    assert topological_vector(path_graph(3)) == (2,)
    # the 7-vertex tree that strips to a path: counts read canonically
    cat = Graph(7, [(1, 2), (2, 3), (1, 4), (1, 5), (3, 6), (2, 7)])
    assert topological_vector(cat) == (1, 1, 2)
    # height-two complete binary tree strips to P3: it IS a caterpillar
    bt = Graph(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
    assert topological_vector(bt) == (2, 0, 2)


def test_topological_vector_rejections():
    with pytest.raises(ValueError):
        topological_vector(path_graph(2))  # spine vanishes
    with pytest.raises(ValueError):
        topological_vector(Graph(3, [(1, 2)]))  # not a tree (disconnected)
    # three-legged spider of leg length 2: strips to a 3-star, not a path
    spider = Graph(7, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7)])
    with pytest.raises(ValueError):
        topological_vector(spider)


def _reference_topological_vector(t):
    """The former spine walk, with its checks that the tree test makes
    unreachable kept in."""
    if not is_tree(t):
        raise ValueError("topological vectors are defined for trees")
    leaves = {v for v in t.vertices() if t.degree(v) == 1}
    spine = [v for v in t.vertices() if v not in leaves]
    if not spine:
        if t.p == 1:
            return (0,)
        raise ValueError("not a caterpillar: no spine after leaf removal")
    spine_set = set(spine)
    spine_deg = {v: sum(1 for u in t.neighbors(v) if u in spine_set) for v in spine}
    if any(dv > 2 for dv in spine_deg.values()):
        raise ValueError("not a caterpillar: spine is not a path")
    if len(spine) == 1:
        order = spine
    else:
        ends = [v for v in spine if spine_deg[v] == 1]
        if len(ends) != 2:
            raise ValueError("not a caterpillar: spine is not a path")
        order = [ends[0]]
        prev = None
        while len(order) < len(spine):
            nxt = [u for u in t.neighbors(order[-1]) if u in spine_set and u != prev]
            if len(nxt) != 1:
                raise ValueError("not a caterpillar: spine is not a path")
            prev = order[-1]
            order.append(nxt[0])
    counts = tuple(sum(1 for u in t.neighbors(v) if u in leaves) for v in order)
    return min(counts, counts[::-1])


def test_topological_vector_equals_the_former_spine_walk():
    # every free tree with p <= 10
    trees = [t for p in range(1, 11) for t in free_trees(p)]
    rng = random.Random(29)
    inputs = []
    for t in trees:
        inputs.append(t)
        for _ in range(3):
            perm = list(t.vertices())
            rng.shuffle(perm)
            inputs.append(t.relabel({v: perm[v - 1] for v in t.vertices()}))
    inputs.extend(g for p in range(1, 7) for g in connected_classes(p))
    outcomes = set()
    for g in inputs:
        got = _outcome(topological_vector, g)
        assert got == _outcome(_reference_topological_vector, g)
        outcomes.add(got if isinstance(got, str) else "vector")
    assert len(inputs) == 947 and len(outcomes) == 4  # a vector and all three refusals


def test_vector_mirror_invariance(rng):
    # attaching pendants asymmetrically and mirroring gives equal vectors
    for _ in range(20):
        n = rng.randrange(2, 6)
        counts = [rng.randrange(0, 3) for _ in range(n)]
        counts[0] += 1  # spine ends must hold a pendant to stay spine ends
        counts[-1] += 1

        def build(cs):
            edges = [(i, i + 1) for i in range(1, len(cs))]
            nxt = len(cs) + 1
            for i, c in enumerate(cs, start=1):
                for _ in range(c):
                    edges.append((i, nxt))
                    nxt += 1
            return Graph(nxt - 1, edges)

        v1 = topological_vector(build(counts))
        v2 = topological_vector(build(list(reversed(counts))))
        assert v1 == v2 == min(tuple(counts), tuple(reversed(counts)))


def test_vector_lattice_member_examples():
    assert vector_lattice_member((2, 0, 2), [(1, 0, 1)]) == [(2,)]
    assert vector_lattice_member((1, 0, 1), [(2, 0, 2)]) is None
    assert vector_lattice_member((3, 1), [(1, 0), (0, 1), (1, 1)]) == [(2, 0, 1)]
    allsol = vector_lattice_member(
        (3, 1), [(1, 0), (0, 1), (1, 1)], all_solutions=True
    )
    assert allsol == [(2, 0, 1), (3, 1, 0)]
    with pytest.raises(ValueError):
        vector_lattice_member((1,), [])


def test_vector_lattice_member_against_brute_force(rng):
    for _ in range(15):
        width = rng.randrange(1, 4)
        bases = [
            tuple(rng.randrange(0, 3) for _ in range(width))
            for _ in range(rng.randrange(1, 4))
        ]
        target = tuple(rng.randrange(0, 7) for _ in range(width))
        got = vector_lattice_member(target, bases, all_solutions=True)
        bound = max(max(target, default=0), 1)
        expected = []
        for combo in itertools.product(range(bound + 1), repeat=len(bases)):
            if sum(combo) < 1:
                continue
            s = tuple(
                sum(c * b[j] for c, b in zip(combo, bases))
                for j in range(width)
            )
            if s == target:
                expected.append(combo)
        assert (got or []) == expected
        assert vector_lattice_member(target, bases) == (expected[:1] or None)


def test_vector_lattice_member_takes_more_bases_than_the_recursion_limit():
    assert vector_lattice_member((1200,), [(1,)] * 1200) == [(0,) * 1199 + (1200,)]


def test_vector_padding():
    assert vector_lattice_member((2, 0), [(1,)]) == [(2,)]
    assert vector_lattice_member((2,), [(1, 0, 0)]) == [(2,)]
