"""Command-line surface: output shapes, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticegenus
from latticegenus import (
    GenusEstimate,
    Graph,
    RotationSystem,
    VerifiedGenus,
    family_genus,
    parse_group_spec,
    trace_faces,
)
from latticegenus.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_census_json(capsys):
    code, out, _ = run(capsys, "group", "Z4xZ4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["subgroups"]) == 15
    assert doc["census"] == {"1": 1, "2": 3, "4": 7, "8": 3, "16": 1}
    assert len(doc["lattice"]["vertices"]) == 15


def test_group_census_text(capsys):
    code, out, _ = run(capsys, "group", "Z72")
    assert code == 0
    assert "12 subgroups" in out

    code, out, _ = run(capsys, "group", "Z8")
    assert code == 0
    assert "4 subgroups" in out
    assert "4 vertices, 3 edges" in out


def test_group_dot_output(capsys):
    code, out, _ = run(capsys, "group", "Z8", "--dot")
    assert code == 0
    assert out.startswith('graph "Z8" {')
    assert '"S1#0" -- "S2#0"' in out


def test_group_order_cap_is_an_input_error(capsys):
    code, _, err = run(capsys, "group", "Z30030")
    assert code == 2
    assert "error" in err

    # the flag moves the cap in both directions
    code, _, err = run(capsys, "group", "Z12", "--order-cap", "6")
    assert code == 2
    assert "exceeds cap 6" in err

    code, out, _ = run(capsys, "group", "Z12", "--order-cap", "12")
    assert code == 0
    assert "6 subgroups" in out


def test_group_order_cap_bounds_the_subgroup_count(capsys):
    code, out, _ = run(capsys, "group", "Z2xZ2xZ2xZ2xZ2xZ2", "--order-cap", "2825")
    assert code == 0
    assert "2825 subgroups" in out
    code, out, err = run(capsys, "group", "Z2xZ2xZ2xZ2xZ2xZ2", "--order-cap", "2824")
    assert code == 2
    assert out == ""
    assert err == "error: subgroup count exceeds cap 2824\n"


@pytest.mark.parametrize(
    "argv",
    [["group"], ["bounds"], ["search", "--genus", "1"], ["minor", "k33"]],
    ids=["group", "bounds", "search", "minor"],
)
def test_small_group_with_many_subgroups_is_refused_quickly(argv):
    # Z2^9 has order 512, under the default cap, but millions of
    # subgroups: building its lattice would take minutes and gigabytes
    cmd, *rest = argv
    argv = [cmd, "x".join(["Z2"] * 9), *rest]
    src = os.path.dirname(os.path.dirname(latticegenus.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "latticegenus.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: subgroup count exceeds cap 4096\n"


def test_grid_command(capsys):
    code, out, _ = run(capsys, "grid", "3", "2")
    assert code == 0
    assert "12 vertices, 17 edges" in out


def test_bounds_exact_grid(capsys):
    code, out, _ = run(capsys, "bounds", "3,3,3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == doc["upper"] == 5
    assert doc["exact"] is True


def test_bounds_euler_floor_for_two_prime_squares(capsys):
    code, out, _ = run(capsys, "bounds", "Z2xZ2xZ3xZ3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == 5
    assert "bound:euler" in doc["provenance"]


def test_bounds_open_interval(capsys):
    code, out, _ = run(capsys, "bounds", "2,2,1,1")
    assert code == 0
    assert "[4, 6]" in out


@pytest.mark.parametrize(
    "group, label",
    [
        ("Z25xZ25", "Genus1"),
        ("Z2xZ2xZ5", "Genus1"),
        ("Z8", "Genus0"),
        ("Z30030", "AtLeastTwo"),
    ],
)
def test_classify_labels(capsys, group, label):
    code, out, _ = run(capsys, "classify", group)
    assert code == 0
    assert label in out


def test_classify_ignores_the_order_cap(capsys):
    # classification is arithmetic on the factor pattern, so a group far
    # beyond the enumeration cap still classifies
    code, out, _ = run(capsys, "classify", "Z30030")
    assert code == 0
    assert "AtLeastTwo" in out


def test_verify_family_certificate(tmp_path, capsys):
    code, out, _ = run(capsys, "make-cert", "gn", "6")
    assert code == 0
    cert_path = tmp_path / "gn6.json"
    cert_path.write_text(out)

    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0
    assert "genus 1 (15 faces)" in out


def test_verify_reads_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, "make-cert", "zppq", "3")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    assert "genus 1 (10 faces)" in out


def test_verify_rejects_a_corrupted_certificate(tmp_path, capsys):
    code, out, _ = run(capsys, "make-cert", "gn", "6")
    doc = json.loads(out)
    del doc["faces"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))

    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1
    assert "violation edge-cover" in out


def test_verify_one_vertex_certificate_is_a_violation(tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text('{"graph":{"vertices":["a"],"edges":[]},"faces":[]}')
    code, out, err = run(capsys, "verify", str(one))
    assert code == 1
    assert out == "violation bad-genus: V-E+F = 1 gives no orientable genus\n"
    assert err == ""


def test_verify_refuses_strings_read_as_arrays(tmp_path, capsys):
    # a string is not a list of one-letter vertices, edges or faces
    bad = tmp_path / "strings.json"
    bad.write_text(
        '{"graph":{"vertices":"abc","edges":["ab","bc","ca"]},"faces":["abc","acb"]}'
    )
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: malformed graph JSON: vertices must be an array, not str\n"


def _triangle(vertices, edges, faces=(("0", "1", "2"), ("0", "2", "1"))):
    return {"graph": {"vertices": vertices, "edges": edges}, "faces": faces}


_TRIANGLE_EDGES = [["0", "1"], ["0", "2"], ["1", "2"]]

# each document once verified as a triangle by coercing or merging what it lists
_MISLABELLED = {
    "int-beside-string": _triangle(["0", "1", 1, "2"], _TRIANGLE_EDGES),
    "repeated-edge": _triangle(["0", "1", "2"], _TRIANGLE_EDGES + [["1", "0"]]),
    "list-labels": _triangle(
        [[0], [1], [2]],
        [[[0], [1]], [[0], [2]], [[1], [2]]],
        [[[0], [1], [2]], [[0], [2], [1]]],
    ),
    "list-face-entry": _triangle(
        ["0", "1", "2"], _TRIANGLE_EDGES, [[["0"], "1", "2"], ["0", "2", "1"]]
    ),
}


def _verify_stdin(doc):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "-"])
    return code, out.getvalue(), err.getvalue()


def _assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_reads_the_triangle_it_lists():
    assert _verify_stdin(_triangle(["0", "1", "2"], _TRIANGLE_EDGES)) == (
        0, "genus 0 (2 faces)\n", ""
    )


@pytest.mark.parametrize("name", sorted(_MISLABELLED))
def test_verify_refuses_labels_it_would_have_to_repair(name):
    _assert_input_error(*_verify_stdin(_MISLABELLED[name]))


def test_verify_refuses_mislabelled_documents_under_optimized_python():
    src = os.path.dirname(os.path.dirname(latticegenus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for name, doc in sorted(_MISLABELLED.items()):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "latticegenus.cli", "verify", "-"],
            input=json.dumps(doc),
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        _assert_input_error(proc.returncode, proc.stdout, proc.stderr)


@st.composite
def _traced_certificates(draw):
    n = draw(st.integers(3, 7))
    labels = [str(i) for i in range(n)]
    # a random spanning tree keeps the graph connected
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    g = Graph(labels, [(labels[i], labels[j]) for i, j in edges])
    order = {v: tuple(draw(st.permutations(g.neighbors(v)))) for v in g.vertices}
    return trace_faces(g, RotationSystem(order))


def _mislabel(doc, kind, data):
    """Apply one mutation of ``kind`` to the certificate document in place."""
    graph = doc["graph"]
    if kind == "int-label":
        # one occurrence anywhere: the vertex list, an edge end, a face
        spots = [(graph["vertices"], i) for i in range(len(graph["vertices"]))]
        spots += [(e, i) for e in graph["edges"] for i in (0, 1)]
        spots += [(f, i) for f in doc["faces"] for i in range(len(f))]
        seq, i = data.draw(st.sampled_from(spots))
        seq[i] = int(seq[i])
    elif kind == "repeated-label":
        v = data.draw(st.sampled_from(graph["vertices"]))
        graph["vertices"].append(data.draw(st.sampled_from([v, int(v)])))
    elif kind == "repeated-edge":
        u, v = data.draw(st.sampled_from(graph["edges"]))
        graph["edges"].append(data.draw(st.sampled_from([[u, v], [v, u]])))
    else:
        face = data.draw(st.sampled_from(doc["faces"]))
        i = data.draw(st.integers(0, len(face) - 1))
        face[i] = [face[i]]


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    cert=_traced_certificates(),
    kind=st.sampled_from(["int-label", "repeated-label", "repeated-edge", "list-face-entry"]),
    data=st.data(),
)
def test_verify_exit_codes_on_mislabelled_certificates(cert, kind, data):
    g = cert.graph
    genus = (2 - g.vertex_count + g.edge_count - len(cert.faces)) // 2
    doc = cert.to_json_dict()
    assert _verify_stdin(doc) == (0, f"genus {genus} ({len(cert.faces)} faces)\n", "")
    _mislabel(doc, kind, data)
    _assert_input_error(*_verify_stdin(doc))


def test_search_certificate_verifies_as_search_reported(tmp_path, capsys):
    # search prints the genus its own verification gave; verify must
    # agree with it and with the certificate's face count
    code, out, _ = run(capsys, "search", "Z4xZ4", "--genus", "1", "--json")
    assert code == 0
    found = json.loads(out)
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out, _ = run(capsys, "verify", str(cert), "--json")
    assert code == 0
    assert json.loads(out) == {"faces": len(found["faces"]), "genus": found["genus"]}


def test_verify_malformed_json_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2

    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize(
    "payload",
    [b"\xff\xfe", b"[" * 100000, b"1" * 5000],
    ids=["not-utf8", "nested-past-recursion-limit", "int-past-digit-limit"],
)
def test_verify_unreadable_input_is_an_input_error(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_make_cert_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "make-cert", "gn", "4")
    assert code == 2
    assert "bad-parameter" in err

    code, _, err = run(capsys, "make-cert", "fan-lift", "4")
    assert code == 2


def test_fan_lift_certificate_verifies(tmp_path, capsys):
    code, out, _ = run(capsys, "make-cert", "fan-lift", "5")
    assert code == 0
    cert_path = tmp_path / "lift.json"
    cert_path.write_text(out)
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0
    assert "genus 1 (39 faces)" in out


def test_fan_lift_at_thirteen_verifies(tmp_path, capsys):
    # lifts onto the Z169xZ169 lattice, 213 subgroups
    code, out, _ = run(capsys, "make-cert", "fan-lift", "13")
    assert code == 0
    cert_path = tmp_path / "lift.json"
    cert_path.write_text(out)
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0
    assert "genus 3 (203 faces)" in out


def test_fan_lift_at_seventeen_meets_the_family_formula(tmp_path, capsys):
    # lifts onto the Z289xZ289 lattice, 333 subgroups
    code, out, _ = run(capsys, "make-cert", "fan-lift", "17")
    assert code == 0
    cert_path = tmp_path / "lift.json"
    cert_path.write_text(out)
    code, out, _ = run(capsys, "verify", str(cert_path), "--json")
    assert code == 0
    assert json.loads(out) == {"faces": 333, "genus": 4}
    formula = family_genus(parse_group_spec("Z289xZ289", order_cap=None))
    assert formula.exact and formula.lower == 4


def test_search_finds_planar_grid(capsys):
    code, out, _ = run(capsys, "search", "2,2", "--genus", "0")
    assert code == 0
    assert "genus-0 embedding with 5 faces" in out


def test_search_emits_progress_lines_on_stderr(capsys):
    code, out, err = run(capsys, "search", "Z4xZ4", "--genus", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["genus"] == 1
    lines = [line for line in err.splitlines() if line.strip()]
    assert lines
    for line in lines:
        assert line.startswith('{"restart":')
        record = json.loads(line)
        assert set(record) == {"restart", "best_faces"}


def test_search_json_is_byte_identical_across_runs(capsys):
    first = run(capsys, "search", "Z4xZ4", "--genus", "1", "--json")
    second = run(capsys, "search", "Z4xZ4", "--genus", "1", "--json")
    assert first == second
    assert first[0] == 0


def test_search_unreachable_target_exhausts_budget(capsys):
    # Z9xZ2xZ2 has genus >= 2, which neither planarity nor the face
    # floor shows at genus 1
    code, out, _ = run(
        capsys, "search", "Z9xZ2xZ2", "--genus", "1", "--budget", "2000"
    )
    assert code == 3
    assert "inconclusive" in out
    # 3000 is no multiple of 16: the last restart gets what is left
    code, out, _ = run(
        capsys, "search", "Z9xZ2xZ2", "--genus", "1", "--budget", "3000", "--json"
    )
    assert code == 3
    assert json.loads(out) == {"evaluations": 3000, "status": "budget"}


def test_search_restarts_past_the_sixteenth(capsys):
    # seed 1 finds on its 26th restart: restarts that stall early leave
    # budget for more than sixteen
    code, out, err = run(
        capsys, "search", "Z1080", "--genus", "1", "--seed", "1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["status"], doc["genus"], doc["evaluations"]) == ("found", 1, 488061)
    assert [json.loads(line)["restart"] for line in err.splitlines()] == list(range(26))


def test_search_has_no_restarts_option(capsys):
    code, out, err = run(capsys, "search", "Z4xZ4", "--genus", "1", "--restarts", "3")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --restarts 3" in err


def test_search_exhaustive_refuses_threshold_violation(capsys):
    code, _, err = run(capsys, "search", "5,5", "--genus", "0", "--mode", "exhaustive")
    assert code == 2
    assert "exhaustive threshold" in err


def test_search_exhaustive_on_a_long_path_exits_zero(capsys):
    # 1201 vertices, each of degree <= 2: one rotation system and no DFS
    # level per vertex, so no RecursionError
    code, out, err = run(capsys, "search", "1200", "--genus", "0", "--mode", "exhaustive")
    assert (code, err) == (0, "")
    assert out == "grid 1200: genus-0 embedding with 1 faces (1 evaluations)\n"


def test_search_on_a_long_path_takes_no_girth_scan(capsys):
    # the face floor is O(V + E); a girth scan on this 4001-vertex path
    # runs a BFS from every vertex and takes seconds
    start = time.perf_counter()
    code, out, _ = run(capsys, "search", "4000", "--genus", "0")
    assert code == 0
    assert "genus-0 embedding with 1 faces" in out
    assert time.perf_counter() - start < 2.0


def test_search_exhaustive_proves_absence_on_small_graphs(capsys):
    code, out, _ = run(
        capsys, "search", "Z8", "--genus", "0", "--mode", "exhaustive"
    )
    # a chain lattice is a path: the only rotation is planar
    assert code == 0

    code, out, _ = run(
        capsys, "search", "2,1", "--genus", "0", "--mode", "exhaustive"
    )
    assert code == 0
    assert "genus-0 embedding" in out


def test_minor_witness_json(capsys):
    code, out, _ = run(capsys, "minor", "Z4xZ4", "k33", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["pattern"] == "k33"
    assert len(doc["branch_sets"]) == 6


def test_minor_absence_proof_exits_zero(capsys):
    code, out, _ = run(capsys, "minor", "3,3", "k5")
    assert code == 0
    assert "no k5 minor exists" in out


def test_minor_budget_exhaustion_is_inconclusive(capsys):
    code, out, _ = run(capsys, "minor", "Z16xZ4", "bowtie", "--budget", "10")
    assert code == 3
    assert out == "Z16xZ4: budget exhausted, inconclusive (10 nodes searched)\n"
    code, out, _ = run(capsys, "minor", "Z4xZ4", "k5", "--budget", "100")
    assert code == 3
    assert out == "Z4xZ4: budget exhausted, inconclusive (100 nodes searched)\n"


def test_input_errors_exit_two(capsys):
    assert run(capsys, "group", "Q8")[0] == 2
    assert run(capsys, "bounds", "2,-1")[0] == 2
    assert run(capsys, "classify", "Z0")[0] == 2
    assert run(capsys, "minor", "Z4xZ4", "k7")[0] == 2
    assert run(capsys, "search", "Z4xZ4")[0] == 2


def test_empty_grid_token_is_one_input_error(capsys):
    # bounds, search and minor share the exponent-list parser
    for argv in (
        ["bounds", ","],
        ["search", ",", "--genus", "1"],
        ["minor", ",", "k33"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: empty exponent list ','\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "Z\u00b2"),
        ("group", "Z\u00b9\u00b2"),
        ("bounds", "\u00b2"),
        ("search", "\u00b9,\u00b9", "--genus", "0"),
    ],
)
def test_superscript_digits_are_input_errors(capsys, argv):
    # str.isdigit accepts superscripts, which int() rejects
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "Z" + "1" * 5000),
        ("group", "Z4xZ" + "2" * 5000),
        ("search", "1" * 5000, "--genus", "0"),
        ("bounds", "2," + "1" * 5000),
        ("group", f"Z{2**13000}xZ{3**8300}"),
    ],
)
def test_factors_past_the_digit_limit_are_input_errors(capsys, argv):
    # int() and str() refuse more than 4300 digits, here in a factor or,
    # for the last case, in the product of two factors
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("grid", "5", "5", "5", "5", "5", "5", "5", "5"), 4096),
        (("search", "5,5,5,5,5,5,5", "--genus", "0"), 4096),
        (("minor", "5,5,5,5,5,5,5", "k5"), 4096),
        (("search", "2,2", "--genus", "0", "--order-cap", "8"), 8),
    ],
)
def test_grid_targets_over_the_cap_are_input_errors(capsys, argv, cap):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: grid vertex count exceeds cap {cap}\n")


# the smallest valid parameters over the cap: 4103, 4106, 4112 and 5553
# vertices, refused before anything is built
@pytest.mark.parametrize(
    "family, parameter", [("gn", 2050), ("hn", 1025), ("zppq", 2053), ("fan-lift", 73)]
)
def test_certificates_over_the_cap_are_input_errors(capsys, family, parameter):
    code, out, err = run(capsys, "make-cert", family, str(parameter))
    assert (code, out, err) == (
        2, "", f"error: {family} certificate vertex count exceeds cap 4096\n"
    )


@pytest.mark.parametrize(
    "family, parameter, vertices",
    [("gn", 2046, 4095), ("hn", 1021, 4090), ("zppq", 2039, 4084), ("fan-lift", 5, 45)],
)
def test_certificates_under_the_cap_are_built(capsys, family, parameter, vertices):
    code, out, _ = run(capsys, "make-cert", family, str(parameter))
    assert code == 0
    assert len(json.loads(out)["graph"]["vertices"]) == vertices


def test_grid_at_the_cap_is_built(capsys):
    code, out, _ = run(capsys, "grid", "3", "3", "3", "3", "3", "3")
    assert code == 0
    assert out.startswith("grid_3_3_3_3_3_3: 4096 vertices")


def test_verify_empty_graph_is_a_violation(capsys, monkeypatch):
    empty = '{"graph":{"vertices":[],"edges":[]},"faces":[]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(empty))
    code, out, err = run(capsys, "verify", "-")
    assert code == 1
    assert out.startswith("violation empty-graph: ")
    assert err == ""


def test_contradictory_bounds_are_a_disagreement(capsys, monkeypatch):
    # the table says genus 1 for Z25xZ25; a family formula claiming 5
    # contradicts it, which is a library fault (exit 1), not bad input
    monkeypatch.setattr(
        "latticegenus.evidence.family_genus",
        lambda spec: GenusEstimate.exactly(5, ["formula:wrong"]),
    )
    code, out, err = run(capsys, "bounds", "Z25xZ25")
    assert code == 1
    assert out == ""
    assert err.startswith("error: contradictory estimates") and err.count("\n") == 1


def test_search_certificate_above_target_is_a_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(
        "latticegenus.search.verify_certificate",
        lambda g, cert: VerifiedGenus(len(cert.faces), 99),
    )
    code, out, err = run(capsys, "search", "2,2", "--genus", "0", "--mode", "exhaustive")
    assert code == 1
    assert out == ""
    assert err == "error: search certificate has genus 99, above target 0\n"


def test_internal_checks_survive_optimized_python():
    # under -O every assert is stripped; the search's genus check must
    # still stop a wrong certificate and exit 1 with one error line
    script = textwrap.dedent(
        """
        import sys
        assert False, "stripped under -O, so this never fires"
        import latticegenus.search
        from latticegenus import GenusEstimate, VerifiedGenus
        from latticegenus.cli import build_parser, main
        latticegenus.search.verify_certificate = (
            lambda g, cert: VerifiedGenus(len(cert.faces), 99)
        )
        sys.exit(main(["search", "2,2", "--genus", "0", "--mode", "exhaustive"]))
        """
    )
    src = os.path.dirname(os.path.dirname(latticegenus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: search certificate has genus 99, above target 0\n"


def test_invariant_errors_survive_optimized_python():
    # each library self-check that used to be an assert must still raise
    # InvariantError under -O when its invariant is broken on purpose
    script = textwrap.dedent(
        """
        assert False, "stripped under -O, so this never fires"
        import latticegenus.evidence as evidence
        import latticegenus.search as search
        from latticegenus import (
            EmbeddingCertificate, Graph, InvariantError, SearchOutcome,
            complete_bipartite, verify_certificate,
        )

        def check(name, call):
            try:
                call()
            except InvariantError:
                print(name, "raised")
            else:
                print(name, "passed")

        search.search_embedding = lambda g, cfg: SearchOutcome("found", None, 1)
        evidence.search_embedding = search.search_embedding
        check("exhaustive", lambda: search.exact_genus_exhaustive(
            complete_bipartite(3, 3)))
        check("heuristic", lambda: evidence.exact_genus_small(
            complete_bipartite(4, 4)))

        # a has_edge that admits every pair lets a non-edge into the
        # traversal count, which the edge-cover pass then leaves behind
        Graph.has_edge = lambda self, u, v: True
        g = complete_bipartite(1, 2)
        faces = (("L1", "R1", "L1", "R2"), ("R1", "R2"))
        check("verifier", lambda: verify_certificate(
            g, EmbeddingCertificate(g, faces)))
        """
    )
    src = os.path.dirname(os.path.dirname(latticegenus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "exhaustive raised\nheuristic raised\nverifier raised\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "Z1000000000000000000000000000057"),
        ("make-cert", "zppq", "1000000000000000000000000000057"),
    ],
)
def test_orders_past_trial_division_are_input_errors(capsys, argv):
    # a 31-digit prime has no divisor below the trial-division bound and
    # is too large to be certified prime by it
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error") and err.count("\n") == 1
    assert "Traceback" not in err


def _stdout_under_hash_seeds(*argv):
    """The CLI's stdout for argv in fresh interpreters under
    PYTHONHASHSEED 1 and 2."""
    src = os.path.dirname(os.path.dirname(latticegenus.__file__))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "latticegenus.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


def test_fan_lift_bytes_do_not_depend_on_the_hash_seed(tmp_path, capsys):
    for p, verdict in (("5", "genus 1 (39 faces)"), ("13", "genus 3 (203 faces)")):
        outs = _stdout_under_hash_seeds("make-cert", "fan-lift", p)
        assert outs[0] == outs[1], p
        cert_path = tmp_path / f"lift{p}.json"
        cert_path.write_text(outs[0])
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert code == 0
        assert verdict in out


@pytest.mark.parametrize(
    "argv",
    [
        ("minor", "Z16xZ4", "bowtie", "--json"),
        ("search", "Z4xZ4", "--genus", "1", "--json"),
        ("search", "Z2xZ2xZ3", "--genus", "1", "--mode", "exhaustive", "--json"),
        ("group", "Z4xZ2", "--dot"),
    ],
)
def test_stdout_does_not_depend_on_the_hash_seed(argv):
    # every engine reads Graph's integer numbering, so no set of labels
    # can order a search, a matcher or a face walk
    outs = _stdout_under_hash_seeds(*argv)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [["crosscheck", "--budget", "0"],
                                  ["crosscheck", "--budget", "0", "--json"]])
def test_crosscheck_refuses_a_bad_budget_before_any_row(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: budget must be positive\n"


# the shared options each subcommand takes: exactly those its handler reads
SHARED_OPTIONS = {
    "group": {"--json", "--dot", "--order-cap"},
    "grid": {"--json", "--dot"},
    "bounds": {"--json", "--order-cap"},
    "classify": {"--json"},
    "verify": {"--json"},
    "make-cert": set(),
    "search": {"--json", "--seed", "--budget", "--order-cap"},
    "minor": {"--json", "--budget", "--order-cap"},
    "crosscheck": {"--json", "--seed", "--budget"},
}
OWN_OPTIONS = {"search": {"--genus", "--mode"}}


def test_each_subcommand_offers_only_the_options_it_reads():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    offered = {
        name: {
            flag
            for action in p._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, p in subparsers.choices.items()
    }
    assert offered == {
        name: opts | OWN_OPTIONS.get(name, set()) for name, opts in SHARED_OPTIONS.items()
    }
    assert sum(map(len, SHARED_OPTIONS.values())) == 19


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "Z8", "--seed", "1"],
        ["grid", "2", "2", "--order-cap", "5"],
        ["bounds", "Z8", "--dot"],
        ["classify", "Z8", "--order-cap", "6"],
        ["verify", "-", "--budget", "5"],
        ["make-cert", "gn", "4", "--json"],
        ["search", "Z4xZ4", "--genus", "1", "--dot"],
        ["minor", "Z4xZ4", "k33", "--seed", "1"],
        ["crosscheck", "--order-cap", "6"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_option_the_subcommand_ignores_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err
