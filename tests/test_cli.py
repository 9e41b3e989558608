import os
import subprocess
import sys

import pytest

import iceflower
from iceflower.cli import main, run
from iceflower.coloring import TotalColoring, is_proper_total
from iceflower.families import complete_graph, cycle_graph, path_graph
from iceflower.formats import (
    read_colored,
    read_graph,
    read_script,
    read_system,
    read_topcode,
    write_colored,
    write_graph,
    write_script,
    write_system,
)
from iceflower.graph import Graph, are_isomorphic, degree_sequence
from iceflower.lattice import CoincideScript, decompose_to_stars, recompose, recompose_colored
from iceflower.system import ColoredIceFlowerSystem, build_uniform_fdt_system


def _file(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_decompose_then_recompose_round_trip(tmp_path):
    k3 = _file(tmp_path, "k3.graph", write_graph(complete_graph(3)))
    r = run(["decompose", k3])
    assert r.exit_code == 0 and r.note == ""
    script = read_script(r.payload)
    assert [s.m for s in script.base.stars] == [2]
    assert sum(script.coefficients) == 3 and len(script.steps) == 3

    sf = _file(tmp_path, "k3.script", r.payload)
    r2 = run(["recompose", sf])
    assert r2.exit_code == 0
    assert are_isomorphic(read_graph(r2.payload), complete_graph(3))


def test_decompose_rejects_disconnected(tmp_path):
    bad = _file(tmp_path, "two.graph", write_graph(Graph(4, [(1, 2), (3, 4)])))
    r = run(["decompose", bad])
    assert r.exit_code == 2 and r.payload == "" and r.note != ""


def test_missing_file_and_bad_usage(tmp_path):
    assert run(["decompose", "/does/not/exist"]).exit_code == 2
    assert run(["no-such-command"]).exit_code == 2
    missing = run(["lattice", "check", "uncolored", "/does/not/exist", "--base", "2"])
    assert missing.exit_code == 2 and missing.note.startswith("error: cannot read ")
    # a readable graph, so only the missing --base is wrong
    g = _file(tmp_path, "p3.graph", write_graph(path_graph(3)))
    for kind, wants in (("uncolored", "m1,m2,..."), ("colored", "SYSTEMFILE")):
        r = run(["lattice", "check", kind, g])
        assert (r.exit_code, r.payload) == (2, "")
        assert r.note == "error: lattice check %s needs --base %s" % (kind, wants)


def test_malformed_document_is_exit_2(tmp_path):
    junk = _file(tmp_path, "junk.graph", "3 9\n1 2\n")
    r = run(["decompose", junk])
    assert r.exit_code == 2 and "error" in r.note


def test_lattice_planar(tmp_path):
    k5 = _file(tmp_path, "k5.graph", write_graph(complete_graph(5)))
    r = run(["lattice", "check", "planar", k5])
    assert r.exit_code == 1 and "not planar" in r.note

    k4 = _file(tmp_path, "k4.graph", write_graph(complete_graph(4)))
    r2 = run(["lattice", "check", "planar", k4])
    assert r2.exit_code == 0
    colors = [int(t) for t in r2.payload.split()[1:]]
    assert len(colors) == 4 and len(set(colors)) == 4  # K4 forces all four


def test_lattice_planar_on_a_1500_cycle_is_a_yes_not_a_crash(tmp_path):
    c = _file(tmp_path, "c1500.graph", write_graph(cycle_graph(1500)))
    r = run(["lattice", "check", "planar", c])
    assert r.exit_code == 0, r.note
    assert sorted(set(r.payload.split()[1:])) == ["1", "2"]


def test_lattice_hamiltonian(tmp_path):
    c4 = _file(tmp_path, "c4.graph", write_graph(cycle_graph(4)))
    r = run(["lattice", "check", "hamiltonian", c4])
    assert r.exit_code == 0 and r.payload.startswith("cycle ")
    assert sorted(int(t) for t in r.payload.split()[1:]) == [1, 2, 3, 4]

    p4 = _file(tmp_path, "p4.graph", write_graph(path_graph(4)))
    r2 = run(["lattice", "check", "hamiltonian", p4])
    assert r2.exit_code == 1 and "not a member" in r2.note


_TWO_TRIANGLES = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])


def test_lattice_hamiltonian_no_answers(tmp_path):
    two_triangles = _file(tmp_path, "2c3.graph", write_graph(_TWO_TRIANGLES))
    r = run(["lattice", "check", "hamiltonian", two_triangles])
    assert (r.exit_code, r.payload, r.note) == (1, "", "not a member: disconnected")

    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    petersen = _file(tmp_path, "petersen.graph", write_graph(Graph(10, outer + spokes + inner)))
    r2 = run(["lattice", "check", "hamiltonian", petersen])
    assert (r2.exit_code, r2.payload, r2.note) == (1, "", "not a member: no spanning cycle")


def test_lattice_planar_no_answers(tmp_path):
    two_triangles = _file(tmp_path, "2c3.graph", write_graph(_TWO_TRIANGLES))
    r = run(["lattice", "check", "planar", two_triangles])
    assert (r.exit_code, r.payload, r.note) == (1, "", "not a member: disconnected")

    leafy = _file(tmp_path, "leaf.graph", write_graph(Graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])))
    r2 = run(["lattice", "check", "planar", leafy])
    assert (r2.exit_code, r2.payload, r2.note) == (1, "", "not a member: has a leaf")


def test_lattice_uncolored(tmp_path):
    k4 = _file(tmp_path, "k4.graph", write_graph(complete_graph(4)))
    r = run(["lattice", "check", "uncolored", k4, "--base", "2,3"])
    assert r.exit_code == 0
    script = read_script(r.payload)
    assert script.coefficients == (0, 4)
    assert are_isomorphic(recompose(script), complete_graph(4))

    r2 = run(["lattice", "check", "uncolored", k4, "--base", "2"])
    assert r2.exit_code == 1 and "not a member" in r2.note


def test_lattice_spanning(tmp_path):
    p4 = _file(tmp_path, "p4.graph", write_graph(path_graph(4)))
    r = run(["lattice", "check", "spanning", p4])
    assert r.exit_code == 0 and r.payload.startswith("rainbow ")

    k4 = _file(tmp_path, "k4.graph", write_graph(complete_graph(4)))
    r2 = run(["lattice", "check", "spanning", k4])
    assert r2.exit_code == 1 and "not a tree" in r2.note


def test_lattice_colored(tmp_path):
    sysdoc = write_system(build_uniform_fdt_system(4, 0))
    sysfile = _file(tmp_path, "s4.system", sysdoc)
    # a single star of the system, recolored exactly as star 2, is a member
    s = read_system(sysdoc)
    member = _file(
        tmp_path,
        "member.colored",
        write_colored(s.stars[1].graph, s.colorings[1]),
    )
    r = run(["lattice", "check", "colored", member, "--base", sysfile])
    assert r.exit_code == 0
    # same backbone under a coloring the system never produces: rejected
    alien = _file(
        tmp_path,
        "alien.colored",
        write_colored(
            s.stars[1].graph,
            TotalColoring(9, {1: 9, 2: 1, 3: 2, 4: 3}, {(1, 2): 4, (1, 3): 5, (1, 4): 6}),
        ),
    )
    r2 = run(["lattice", "check", "colored", alien, "--base", sysfile])
    assert r2.exit_code == 1


def test_seq_check():
    ok = run(["seq", "check", "3,3,3,3"])
    assert ok.exit_code == 0
    g = read_graph(ok.payload)
    assert degree_sequence(g) == (3, 3, 3, 3)
    bad = run(["seq", "check", "3,1"])
    assert bad.exit_code == 1 and "not graphical" in bad.note


def test_main_writes_payload_and_note_and_exits_with_the_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["iceflower", "seq", "check", "3,3"])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 1
    assert capsys.readouterr() == ("", "not graphical\n")

    monkeypatch.setattr(sys, "argv", ["iceflower", "seq", "check", "2,2,2"])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out == write_graph(Graph(3, [(1, 2), (1, 3), (2, 3)])) and err == ""


def test_hamiltonian_build(tmp_path):
    r = run(["hamiltonian", "build", "3,3,3,3"])
    assert r.exit_code == 0
    head, rest = r.payload.split("\n", 1)
    assert head == "closures 1 partial 0"
    g = read_graph(rest.strip() + "\n")
    assert are_isomorphic(g, complete_graph(4))

    r2 = run(["hamiltonian", "build", "4,4,4,4"])
    assert r2.exit_code == 1

    r3 = run(["hamiltonian", "build", "3,3"])
    assert r3.exit_code == 2  # spine needs at least three vertices


def test_hamiltonian_build_with_a_zero_budget_samples():
    r = run(["hamiltonian", "build", "3,3,3,3", "--budget", "0"])
    assert r.exit_code == 0, r.note
    head, rest = r.payload.split("\n", 1)
    assert head == "closures 1 partial 1"
    assert are_isomorphic(read_graph(rest.strip() + "\n"), complete_graph(4))


def test_hamiltonian_build_on_a_60_vertex_spine():
    r = run(["hamiltonian", "build", ",".join(["2"] * 57 + ["3", "2", "3"])])
    assert r.exit_code == 0, r.note
    assert r.payload.split("\n", 1)[0] == "closures 1 partial 0"


def test_hamiltonian_build_with_no_sampled_pairing_still_finds_a_closure():
    r = run(["hamiltonian", "build", ",".join(["17", "2"] + ["3"] * 15 + ["2"])])
    assert r.exit_code == 0, r.note
    head, rest = r.payload.split("\n", 1)
    assert head == "closures 1 partial 1"
    assert degree_sequence(read_graph(rest.strip() + "\n")) == (17,) + (3,) * 15 + (2, 2)


def test_lattice_hamiltonian_on_a_1200_cycle_is_a_yes_not_a_crash(tmp_path):
    c = _file(tmp_path, "c1200.graph", write_graph(cycle_graph(1200)))
    r = run(["lattice", "check", "hamiltonian", c])
    assert r.exit_code == 0, r.note
    assert r.payload == "cycle " + " ".join(str(v) for v in range(1, 1201)) + "\n"


def test_coloring_verify(tmp_path):
    f = TotalColoring(3, {1: 1, 2: 2}, {(1, 2): 3})
    good = _file(tmp_path, "k2.colored", write_colored(Graph(2, [(1, 2)]), f))
    r = run(["coloring", "verify", good])
    assert r.exit_code == 0 and "proper total" in r.payload and "spread 0" in r.payload

    fbad = TotalColoring(3, {1: 1, 2: 1}, {(1, 2): 3})
    bad = _file(tmp_path, "bad.colored", write_colored(Graph(2, [(1, 2)]), fbad))
    r2 = run(["coloring", "verify", bad])
    assert r2.exit_code == 1 and "not a proper" in r2.note


def test_coloring_verify_on_an_edgeless_graph(tmp_path):
    f = TotalColoring(2, {1: 1, 2: 2, 3: 1}, {})
    edgeless = _file(tmp_path, "e3.colored", write_colored(Graph(3, []), f))
    r = run(["coloring", "verify", edgeless])
    assert (r.exit_code, r.payload, r.note) == (0, "proper total; palette 2; no edges\n", "")


def test_coloring_chi_fdt(tmp_path):
    from iceflower.families import complete_bipartite_graph

    k22 = _file(tmp_path, "k22.graph", write_graph(complete_bipartite_graph(2, 2)))
    r = run(["coloring", "chi-fdt", k22])
    assert r.exit_code == 0
    lines = r.payload.splitlines()
    assert lines[0] == "5"
    g, f = read_colored("\n".join(lines[1:]) + "\n")
    assert is_proper_total(g, f) and f.palette == 5

    r2 = run(["coloring", "chi-fdt", k22, "--max-colors", "4"])
    assert r2.exit_code == 1


def test_iceflower_build_and_strong_check(tmp_path):
    r = run(["iceflower", "build", "4", "0"])
    assert r.exit_code == 0
    s = read_system(r.payload)
    assert s.n == 4 and s.fdt_constant == 0
    sysfile = _file(tmp_path, "s.system", r.payload)
    r2 = run(["iceflower", "strong-check", sysfile])
    assert r2.exit_code == 0 and "strongly colored" in r2.payload

    # two identical stars can never merge with each other
    twin = ColoredIceFlowerSystem(
        (s.stars[0], s.stars[0]), (s.colorings[0], s.colorings[0])
    )
    twinfile = _file(tmp_path, "twin.system", write_system(twin))
    r3 = run(["iceflower", "strong-check", twinfile])
    assert r3.exit_code == 1

    assert run(["iceflower", "build", "2", "0"]).exit_code == 2
    assert run(["iceflower", "build", "4", "-1"]).exit_code == 2
    r4 = run(["iceflower", "build", "4", "9"])
    assert r4.exit_code == 0 and read_system(r4.payload).fdt_constant == 9
    r5 = run(["iceflower", "strong-check", _file(tmp_path, "s9.system", r4.payload)])
    assert r5.exit_code == 0 and "strongly colored" in r5.payload


def test_strong_check_rejects_a_single_leaf_star_as_format_error(tmp_path):
    edge = write_colored(Graph(2, [(1, 2)]), TotalColoring(3, {1: 1, 2: 2}, {(1, 2): 3}))
    sysfile = _file(tmp_path, "k2.system", "system 1 1 -\n" + edge)
    r = run(["iceflower", "strong-check", sysfile])
    assert r.exit_code == 2 and r.payload == ""
    assert r.note == "format error: system: stars in a system need m >= 2, got 1"


def test_saturate(tmp_path):
    sysfile = _file(
        tmp_path, "s3.system", write_system(build_uniform_fdt_system(3, 0))
    )
    r = run(["saturate", sysfile, "--copies", "1,1,0"])
    assert r.exit_code == 0 and r.note == "saturated"
    g, f = read_colored(r.payload)
    assert is_proper_total(g, f)

    r2 = run(["saturate", sysfile, "--copies", "1,0"])
    assert r2.exit_code == 2  # copy list must name every star


def test_saturate_with_mixed_star_sizes_is_a_no_with_the_document(tmp_path):
    s3, s4 = build_uniform_fdt_system(3, 0), build_uniform_fdt_system(4, 0)
    mixed = ColoredIceFlowerSystem((s3.stars[0], s4.stars[0]), (s3.colorings[0], s4.colorings[0]))
    sysfile = _file(tmp_path, "mixed.system", write_system(mixed))
    r = run(["saturate", sysfile, "--copies", "1,1"])
    assert (r.exit_code, r.note) == (1, "not saturated")
    g, f = read_colored(r.payload)
    assert g.p == 7 and is_proper_total(g, f)


def test_topcode_encode_decode(tmp_path):
    f = TotalColoring(3, {1: 1, 2: 2}, {(1, 2): 3})
    colored = _file(tmp_path, "k2.colored", write_colored(Graph(2, [(1, 2)]), f))
    r = run(["topcode", "encode", colored])
    assert r.exit_code == 0
    m = read_topcode(r.payload)
    assert (m.X, m.E, m.Y) == ((1,), (3,), (2,))

    rs = run(["topcode", "encode", colored, "--string"])
    assert rs.exit_code == 0 and rs.payload.strip() == "132"

    matfile = _file(tmp_path, "m.topcode", r.payload)
    rd = run(["topcode", "decode", matfile])
    assert rd.exit_code == 0
    g, f2 = read_colored(rd.payload)
    assert g.p == 2 and f2.edge(1, 2) == 3


def test_topcode_decode_identify(tmp_path):
    doc = "topcode row-major/1-2digit\n1,1\n4,5\n2,2\n"
    matfile = _file(tmp_path, "m.topcode", doc)
    r = run(["topcode", "decode", matfile])
    assert r.exit_code == 1
    r2 = run(["topcode", "decode", matfile, "--identify"])
    assert r2.exit_code == 0
    g, _ = read_colored(r2.payload)
    assert g.p == 3


def test_topcode_solve(tmp_path):
    s = _file(tmp_path, "s.txt", "132\n")
    r = run(["topcode", "solve", s, "--q", "1"])
    assert r.exit_code == 0 and r.payload.startswith("solutions 1")

    none = _file(tmp_path, "none.txt", "142536\n")
    r2 = run(["topcode", "solve", none, "--q", "2"])
    assert r2.exit_code == 1 and "solutions 0" in r2.note

    oh = _file(tmp_path, "oh.txt", "13o2\n")
    r3 = run(["topcode", "solve", oh, "--q", "1"])
    assert r3.exit_code == 2 and "flag" in r3.note
    r4 = run(["topcode", "solve", oh, "--q", "1", "--substitute-o"])
    assert r4.exit_code == 0 and "letter o read as 0" in r4.payload.splitlines()[0]

    r5 = run(["topcode", "solve", s, "--q", "1:3"])
    assert r5.exit_code == 0
    r6 = run(["topcode", "solve", s, "--q", "9"])
    assert r6.exit_code == 2  # no viable edge count for a 3-digit string


def test_topcode_solve_reports_the_solutions_past_the_limit(tmp_path):
    s = _file(tmp_path, "s.txt", "1342\n")
    full = run(["topcode", "solve", s, "--q", "1", "--limit", "0"])
    assert full.exit_code == 0 and full.payload.startswith("solutions 3\n")
    r = run(["topcode", "solve", s, "--q", "1", "--limit", "1"])
    assert (r.exit_code, r.note) == (0, "")
    blocks = r.payload.split("\n\n")
    assert blocks[0] == "solutions 3"
    assert blocks[1] == full.payload.split("\n\n")[1]
    assert blocks[2:] == ["... 2 more not shown (raise --limit)\n"]


def test_empty_q_range_and_empty_sequence_are_bad_input(tmp_path):
    s = _file(tmp_path, "s.txt", "132\n")
    r = run(["topcode", "solve", s, "--q", "5:3"])
    assert (r.exit_code, r.payload, r.note) == (2, "", "error: --q: empty range '5:3'")
    r2 = run(["seq", "check", ","])
    assert (r2.exit_code, r2.payload, r2.note) == (2, "", "error: sequence: empty list")


def test_topcode_solve_over_a_vast_q_range_answers_as_its_one_fitting_q(tmp_path):
    s = _file(tmp_path, "s.txt", "132\n")
    wide = run(["topcode", "solve", s, "--q", "1:100000000000"])
    assert wide.exit_code == 0 and wide == run(["topcode", "solve", s, "--q", "1"])


def test_export_dot(tmp_path):
    c4 = _file(tmp_path, "c4.graph", write_graph(cycle_graph(4)))
    r = run(["export", "dot", c4])
    assert r.exit_code == 0 and r.payload.startswith("graph") and "v1 -- v2" in r.payload


def test_reruns_are_byte_identical(tmp_path):
    k4 = _file(tmp_path, "k4.graph", write_graph(complete_graph(4)))
    for args in (
        ["decompose", k4],
        ["hamiltonian", "build", "3,3,2,3,3"],
        ["coloring", "chi-fdt", k4],
        ["iceflower", "build", "5", "1"],
    ):
        a, b = run(args), run(args)
        assert (a.exit_code, a.payload, a.note) == (b.exit_code, b.payload, b.note)


def test_threads_flag_never_changes_results(tmp_path):
    k4 = _file(tmp_path, "k4.graph", write_graph(complete_graph(4)))
    a = run(["decompose", k4])
    b = run(["decompose", k4, "--threads", "8"])
    assert (a.exit_code, a.payload) == (b.exit_code, b.payload)


def test_negative_degree_is_bad_input_not_a_no():
    r = run(["seq", "check", "3,-1"])
    assert (r.exit_code, r.payload) == (2, "")
    assert r.note == "error: degree sequence entries must be non-negative"


def test_unexpected_exception_exits_3_never_as_a_no(tmp_path, monkeypatch):
    def broken(g):
        raise RuntimeError("boom")

    monkeypatch.setattr("iceflower.cli.decompose_to_stars", broken)
    k3 = _file(tmp_path, "k3.graph", write_graph(complete_graph(3)))
    r = run(["decompose", k3])
    assert (r.exit_code, r.payload) == (3, "")
    assert r.note == "internal error: RuntimeError: boom"



def test_integer_arguments_are_read_as_percent_d_writes_them():
    ok = run(["hamiltonian", "build", "3, 3,3,3", "--budget", "4", "--seed", "-5"])
    assert ok.exit_code == 0 and ok.payload.startswith("closures 1 partial 0")
    assert run(["iceflower", "build", "3", "0", "--threads", "0"]).exit_code == 0
    # argparse still names the type of a rejected option value "int"
    bad = run(["iceflower", "build", "1_0", "0"])
    assert (bad.exit_code, bad.note) == (2, "error: argument n: invalid int value: '1_0'")
    bad = run(["seq", "check", "+2,2,2"])
    assert (bad.exit_code, bad.note) == (2, "error: sequence: expected integers, got '+2,2,2'")


_ROW7 = ",".join(["1"] * 7)
# two stars of the 4-star system laid side by side, with no merge step
_S4 = build_uniform_fdt_system(4, 0)
_TWO_STAR_REPLAY = recompose_colored(CoincideScript(_S4.backbone(), (1, 1, 0, 0), ()), _S4)


@pytest.mark.parametrize(
    "args, files",
    [
        pytest.param(
            ["recompose", "{a}"], {"a": "base 1\n2 2\nsteps 1\n1 1 3 1\n"},
            id="recompose-bad-step",
        ),
        pytest.param(
            ["recompose", "{a}"], {"a": "base -5\nsteps 0\n"},
            id="recompose-negative-base-count",
        ),
        pytest.param(
            ["topcode", "encode", "{a}"],
            {"a": write_colored(Graph(1, []), TotalColoring(1, {1: 1}, {}))},
            id="encode-no-edges",
        ),
        pytest.param(
            ["topcode", "encode", "{a}", "--string"],
            {"a": write_colored(Graph(2, [(1, 2)]), TotalColoring(100, {1: 1, 2: 2}, {(1, 2): 100}))},
            id="string-entry-above-99",
        ),
        pytest.param(
            ["topcode", "decode", "{a}", "--identify"],
            {"a": "topcode row-major/1-2digit\n%s\n%s\n%s\n" % (_ROW7, _ROW7, _ROW7)},
            id="identify-q-above-6",
        ),
        pytest.param(
            ["lattice", "check", "colored", "{a}", "--base", "{b}"],
            {
                "a": write_colored(Graph(2, [(1, 2)]), TotalColoring(3, {1: 1, 2: 1}, {(1, 2): 3})),
                "b": write_system(build_uniform_fdt_system(3, 0)),
            },
            id="colored-member-improper",
        ),
        pytest.param(
            ["lattice", "check", "colored", "{a}", "--base", "{b}"],
            {
                "a": write_colored(*_TWO_STAR_REPLAY),
                "b": write_system(_S4),
            },
            id="colored-member-disconnected",
        ),
        pytest.param(
            ["lattice", "check", "uncolored", "{a}", "--base", "2"],
            {"a": write_graph(Graph(4, [(1, 2), (3, 4)]))},
            id="uncolored-member-disconnected",
        ),
        pytest.param(
            ["topcode", "solve", "{a}", "--q", "1", "--limit", "-1"], {"a": "132\n"},
            id="solve-negative-limit",
        ),
        pytest.param(
            ["topcode", "solve", "{a}", "--q", "1"], {"a": "\u0661\u0663\u0662\n"},
            id="solve-arabic-indic-digits",
        ),
        pytest.param(
            ["topcode", "solve", "{a}", "--q", "1"], {"a": "1\u00b22\n"},
            id="solve-superscript-digit",
        ),
        pytest.param(
            ["hamiltonian", "build", "3,3,3,3", "--budget", "-1"], {},
            id="hamiltonian-negative-budget",
        ),
        pytest.param(
            ["hamiltonian", "build", ",".join(["2"] * 3000)], {},
            id="hamiltonian-spine-above-canonical-size-limit",
        ),
        pytest.param(
            ["coloring", "chi-fdt", "{a}", "--max-colors", "-1"], {"a": write_graph(path_graph(3))},
            id="chi-fdt-negative-max-colors",
        ),
        pytest.param(
            ["coloring", "chi-fdt", "{a}", "--max-colors", "0"], {"a": write_graph(path_graph(3))},
            id="chi-fdt-zero-max-colors",
        ),
        pytest.param(
            ["coloring", "chi-fdt", "{a}", "--max-colors", "6"], {"a": write_graph(path_graph(900))},
            id="chi-fdt-above-search-size-limit",
        ),
        pytest.param(
            ["coloring", "verify", "{a}"], {"a": "3 -1 5\n"},
            id="verify-negative-edge-count",
        ),
        pytest.param(
            ["iceflower", "strong-check", "{a}"], {"a": "system 1 1 -\n3 -1 5\n"},
            id="strong-check-star-negative-edge-count",
        ),
        # sizes above MAX_VERTICES are refused before anything is allocated
        pytest.param(
            ["export", "dot", "{a}"], {"a": "100000000 1\n1 2\n"},
            id="export-graph-above-vertex-limit",
        ),
        pytest.param(
            ["recompose", "{a}"], {"a": "base 1\n2 1000000000000\nsteps 0\n"},
            id="recompose-copies-above-vertex-limit",
        ),
        pytest.param(
            ["hamiltonian", "build", "1000000000000,2,2"], {},
            id="hamiltonian-spine-above-vertex-limit",
        ),
        pytest.param(
            ["iceflower", "build", "100000000", "0"], {},
            id="iceflower-build-above-vertex-limit",
        ),
        pytest.param(
            ["saturate", "{a}", "--copies", "1000000000000,0,0"],
            {"a": write_system(build_uniform_fdt_system(3, 0))},
            id="saturate-copies-above-vertex-limit",
        ),
        # integer arguments follow the documents' rule: what %d writes
        pytest.param(["seq", "check", "+2,2,2"], {}, id="seq-plus-sign"),
        pytest.param(["seq", "check", "٣,٣,٢"], {}, id="seq-arabic-indic-digits"),
        pytest.param(["seq", "check", "02,2,2"], {}, id="seq-leading-zero"),
        pytest.param(["iceflower", "build", "1_0", "0"], {}, id="iceflower-build-underscore"),
        pytest.param(
            ["hamiltonian", "build", "3,3,3,3", "--budget", "٤"], {},
            id="hamiltonian-budget-arabic-indic-digit",
        ),
        pytest.param(
            ["hamiltonian", "build", "3,3,3,3", "--seed", " 1"], {},
            id="hamiltonian-seed-leading-space",
        ),
        pytest.param(
            ["topcode", "solve", "{a}", "--q", "1:+3"], {"a": "132\n"},
            id="solve-q-range-plus-sign",
        ),
        pytest.param(
            ["topcode", "solve", "{a}", "--q", "１"], {"a": "132\n"},
            id="solve-q-fullwidth-digit",
        ),
    ],
)
def test_rejected_input_exits_2_with_one_line_note(tmp_path, args, files):
    paths = {name: _file(tmp_path, name, text) for name, text in files.items()}
    r = run([a.format(**paths) for a in args])
    assert (r.exit_code, r.payload) == (2, "")
    # run() words a bad value "error: " and a malformed document "format
    # error: "; an "internal error: " (exit 3) never passes
    assert r.note.startswith(("error: ", "format error: ")) and "\n" not in r.note


_STAR_DOC = "3 2 5\n1 2 3\n1 2 4\n1 3 5\n"  # K_{1,2}, edge weight 0


@pytest.mark.parametrize(
    "args, text, note",
    [
        pytest.param(["topcode", "encode", "{a}"], "", "empty colored document", id="colored-empty"),
        pytest.param(
            ["iceflower", "strong-check", "{a}"], "system 2 1 -\n" + _STAR_DOC,
            "system: fewer star documents than declared", id="system-too-few-stars",
        ),
        pytest.param(
            ["iceflower", "strong-check", "{a}"], "system 1 1 -\n3 2 5\n2 1 3\n1 2 4\n2 3 5\n",
            "system: star 1 is not a canonical star", id="system-center-not-vertex-1",
        ),
        pytest.param(
            ["saturate", "{a}", "--copies", "1"], "system 1 1 -\n" + _STAR_DOC + "1 2\n",
            "system: trailing lines after 1 stars", id="system-trailing-line",
        ),
        pytest.param(
            ["recompose", "{a}"], "base 2\n2 1\n", "script: truncated base table", id="script-truncated",
        ),
        pytest.param(
            ["recompose", "{a}"], "base 1\n2 1\nsteps -1\n",
            "steps header: negative step count -1", id="script-negative-step-count",
        ),
        pytest.param(
            ["decompose", "{a}"], "3 -1\n", "graph header: negative edge count -1", id="graph-negative-edge-count",
        ),
        pytest.param(
            ["recompose", "{a}"], "base 1\n1 1\nsteps 0\n",
            "script: stars in a system need m >= 2, got 1", id="script-one-leaf-star",
        ),
        pytest.param(
            ["topcode", "decode", "{a}"], "topcode row-major/1-2digit\n1,2\n3,4\n",
            "topcode: expected exactly three row lines", id="topcode-two-rows",
        ),
        pytest.param(
            ["topcode", "decode", "{a}"], "topcode row-major/1-2digit\n1,2\n3,4\n5\n",
            "topcode: rows must have equal length", id="topcode-ragged-rows",
        ),
        pytest.param(
            ["decompose", "{a}"], "system 1 1 -\n" + _STAR_DOC,
            "expected a graph or colored-graph document, found system", id="graph-given-a-system",
        ),
    ],
)
def test_format_errors_exit_2_with_their_note(tmp_path, args, text, note):
    path = _file(tmp_path, "doc", text)
    r = run([a.format(a=path) for a in args])
    assert (r.exit_code, r.payload, r.note) == (2, "", "format error: " + note)


def _fresh_process(argv):
    """(exit code, stdout, stderr) of one `iceflower` call in a new interpreter."""
    src = os.path.dirname(os.path.dirname(iceflower.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "from iceflower.cli import main; main()"] + argv,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_gives_the_results_of_a_fresh_process(tmp_path):
    s = _file(tmp_path, "s.txt", "132\n")
    rejected = ["topcode", "solve", s, "--q"]  # --q without its value
    good = ["topcode", "solve", s, "--q", "1"]
    codes = []
    for argv in (rejected, good, rejected):
        r = run(argv)
        codes.append(r.exit_code)
        assert (r.exit_code, r.payload, r.note + "\n" if r.note else "") == _fresh_process(argv)
    assert codes == [2, 0, 2]
