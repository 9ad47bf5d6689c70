import importlib
import io
import json
import math
import pkgutil
import subprocess
import sys

import pytest

import blowupgate
from blowupgate.cli import (MAX_CROSSINGS, MAX_GENERATORS,
                            MAX_RELATOR_LETTERS, MAX_RELATORS, run)


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture()
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps({"braid": {"strands": 2, "word": [1, 1, 1]}}))
    return str(path)


@pytest.fixture()
def unknot_file(tmp_path):
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps({"braid": {"strands": 1, "word": []}}))
    return str(path)


GRAPH = {
    "vertices": 2,
    "edges": [{"from": 0, "to": 1, "label": {"free": [1], "torsion": []}},
              {"from": 0, "to": 1, "label": {"free": [0], "torsion": []}},
              {"from": 0, "to": 1, "label": {"free": [0], "torsion": []}}],
    "weights": [2, 1, 1],
    "orientations": [1, -1, -1],
    "model": {"rank": 1, "torsion": []},
    "admissible": [{"free": [0]}, {"free": [2]}, {"free": [4]}],
}


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GRAPH))
    return str(path)


def test_invariants_unknot(unknot_file):
    code, out = invoke(["invariants", unknot_file])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "1"
    assert data["alexander"] == {"coeffs": [1], "min_exp": 0}
    assert data["det"] == 1
    assert data["h1_branched"] == {"rank": 0, "torsion": []}


def test_invariants_trefoil(trefoil_file):
    code, out = invoke(["invariants", trefoil_file])
    assert code == 0
    data = json.loads(out)
    assert data["alexander"] == {"coeffs": [1, -1, 1], "min_exp": 0}
    assert data["det"] == 3
    assert data["components"] == 1


def test_invariants_pd_input(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(
        {"pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}))
    code, out = invoke(["invariants", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["alexander"] == {"coeffs": [1, -1, 1], "min_exp": 0}
    assert data["h1_method"] == "fox"
    assert data["h1_branched"] == {"rank": 0, "torsion": [3]}


@pytest.mark.parametrize("code", [[[1, 2, 1, 2]],
                                  [[1, 2, 3, 4], [3, 4, 1, 2]]])
def test_non_planar_pd_is_malformed(tmp_path, code):
    # both used to answer: a 2-component link with det 2, and Alexander
    # t^2 - 1 with det 0
    path = tmp_path / "pd.json"
    path.write_text(json.dumps({"pd": code}))
    code, out = invoke(["invariants", str(path)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "MalformedPD"


def test_invariants_thousand_strand_braid(tmp_path):
    # the most strands accepted: the split closure of four crossings has a
    # 995 x 995 zero Seifert matrix
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"braid": {"strands": 1000, "word": [1, 2, 3, 4]}}))
    code, out = invoke(["invariants", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["components"] == 996
    assert data["alexander"]["coeffs"] == []
    assert data["det"] == 0
    assert data["h1_branched"] == {"rank": 995, "torsion": []}


def test_gate_subcommand_matches_library(trefoil_file):
    code, out = invoke(["gate", trefoil_file, "--monodromy", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "obstructed"
    assert data["reasons"] == ["ConnectedZ", "DeterminantNonzero"]
    assert data["certificates"]["det"] == 3


def test_gate_monodromy_from_file(tmp_path):
    path = tmp_path / "hopf.json"
    path.write_text(json.dumps({"braid": {"strands": 2, "word": [1, 1]},
                                "monodromy": [0, 0]}))
    code, out = invoke(["gate", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "indeterminate"
    assert data["reasons"] == ["EmptyZ1"]


def test_gate_label_mismatch_is_input_error(trefoil_file):
    code, out = invoke(["gate", trefoil_file, "--monodromy", "1,0"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "LabelLengthMismatch"


def test_gate_monodromy_labels_are_strict(tmp_path):
    hopf = {"braid": {"strands": 2, "word": [1, 1]}}
    path = tmp_path / "hopf.json"
    path.write_text(json.dumps(hopf))
    code, out = invoke(["gate", str(path), "--monodromy", "no,no"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "InputError"
    outputs = []
    for labels in (["0", "0"], [False, False]):
        path.write_text(json.dumps(dict(hopf, monodromy=labels)))
        outputs.append(invoke(["gate", str(path)]))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["status"] == "indeterminate"


def test_flow_subcommand(graph_file):
    code, out = invoke(["flow", graph_file])
    assert code == 0
    data = json.loads(out)
    assert data["is_flow"] is True
    assert data["class"] == {"free": [2], "torsion": []}
    assert data["realizable_k"] == {"finite": True, "values": [0, 1, 2]}


def test_flow_reports_no_class_for_a_non_flow(tmp_path):
    # one edge 0 -> 1 is a chain but not a cycle, so it has no class
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "vertices": 2,
        "edges": [{"from": 0, "to": 1, "label": {"free": [1]}}],
        "weights": [3], "orientations": [1],
        "admissible": [{"free": [3]}]}))
    code, out = invoke(["flow", str(path)])
    assert code == 0
    assert json.loads(out) == {"schema": "1", "is_flow": False,
                               "class": None, "realizable_k": None}


def test_flow_large_torsion_modulus(tmp_path):
    modulus = 10 ** 18 + 9
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "vertices": 1,
        "edges": [{"from": 0, "to": 0,
                   "label": {"free": [0], "torsion": [1]}}],
        "weights": [1], "orientations": [1],
        "model": {"rank": 1, "torsion": [modulus]},
        "admissible": [{"free": [0], "torsion": [5]}]}))
    code, out = invoke(["flow", str(path)])
    assert code == 0
    assert json.loads(out)["realizable_k"] == {
        "finite": False, "residues": [5], "modulus": modulus}


def test_flow_model_is_an_h1_branched_as_printed(tmp_path):
    hopf = tmp_path / "hopf.json"
    hopf.write_text(json.dumps({"braid": {"strands": 2, "word": [1, 1]}}))
    code, out = invoke(["invariants", str(hopf)])
    assert code == 0
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "vertices": 1,
        "edges": [{"from": 0, "to": 0,
                   "label": {"free": [], "torsion": [1]}}],
        "weights": [3], "orientations": [1],
        "model": json.loads(out)["h1_branched"]}))
    code, out = invoke(["flow", str(graph)])
    assert code == 0
    assert json.loads(out)["class"] == {"free": [], "torsion": [1]}


def test_solve_subcommand(tmp_path):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"generators": ["x"], "relators": [[1]]}))
    code, out = invoke(["solve", str(path), "--restarts", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["solutions"][0]["abelian"] is True


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as RFC 8259 does."""
    def refuse(name):
        raise ValueError(f"non-finite number {name} in output")
    return json.loads(text, parse_constant=refuse)


def test_solve_drops_non_finite_restarts(tmp_path):
    # a long relator drives two of these three restarts to a NaN cost
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"generators": ["x", "y"],
                                "relators": [[1] * 2000 + [2]]}))
    code, out = invoke(["solve", str(path), "--restarts", "3"])
    assert code == 0
    data = strict_json(out)
    assert data["count"] == len(data["solutions"]) >= 1
    assert all(sol["residual"] < 1e-10 for sol in data["solutions"])


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_result_is_an_error(monkeypatch, fmt, value):
    import blowupgate.cli as cli
    monkeypatch.setattr(cli, "_cmd_mw", lambda args: {"bound": [1.0, value]})
    code, out = invoke(["--format", fmt, "mw-admissible", "--genera", "2"])
    assert code == 1
    if fmt == "json":
        assert strict_json(out)["error"]["code"] == "NonFiniteResult"
    else:
        assert "error.code = \"NonFiniteResult\"" in out
        assert "bound" not in out


def test_missing_file_is_input_error():
    code, out = invoke(["solve", "/nonexistent/file.json"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "InputError"


def test_usage_error_exit_code():
    code, _ = invoke(["not-a-command"])
    assert code == 2
    code, _ = invoke([])
    assert code == 2


def test_mw_admissible_subcommand():
    code, out = invoke(["mw-admissible", "--genera", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["n_vectors"] == [[-2], [-1], [0], [1], [2]]
    assert data["alpha_vectors"] == [[-4], [-2], [0], [2], [4]]


def test_count_fields_never_size_an_allocation(tmp_path, graph_file):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(dict(GRAPH, vertices=1e308)))
    assert invoke(["flow", str(path)]) == invoke(["flow", graph_file])
    path.write_text(json.dumps(dict(GRAPH, model={"rank": 1e308})))
    code, out = invoke(["flow", str(path)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "SizeMismatch"


def test_euler_subcommand(tmp_path):
    from blowupgate.psl2r import fuchsian_genus2
    rep = fuchsian_genus2()
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(
        {"matrices": {name: m.matrix_rows() for name, m in rep.items()}}))
    code, out = invoke(["euler", str(path), "--genus", "2"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["euler"]) == 2
    assert data["residual"] < 1e-12
    # genus inferred from generator names
    code2, out2 = invoke(["euler", str(path)])
    assert code2 == 0
    assert json.loads(out2)["genus"] == 2


def test_brieskorn_subcommand():
    code, out = invoke(["brieskorn", "2", "3", "5", "--restarts", "20"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["census"][0]["angles"] == [0, 0, 0]
    code, out = invoke(["brieskorn", "2", "3", "4"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "NotCoprime"


def test_brieskorn_traces_print_no_negative_zero():
    # tr x1 = 0 in class (1, 1, 1) of (2, 3, 7), so trace coordinates
    # that are products with it round to zero of either sign
    code, out = invoke(["brieskorn", "2", "3", "7"])
    assert code == 0
    traces = json.loads(out)["census"][1]["traces"]
    assert 0.0 in traces
    assert all(math.copysign(1.0, t) > 0 for t in traces if t == 0)
    assert "-0.0" not in out


@pytest.mark.parametrize("triple, tol", [
    # class (1, 1, 1) of (2, 3, 7) has residual 2.45e-30
    (("2", "3", "7"), "1e-30"), (("7", "9", "11"), "1e-31")])
def test_brieskorn_certificate_failure_is_an_error(triple, tol):
    code, out = invoke(["brieskorn", *triple, "--tol", tol])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "CertificateFailed"
    assert "(1, 1, 1)" in error["message"] and tol in error["message"]


def test_brieskorn_ignores_restarts_and_seed():
    code, base = invoke(["brieskorn", "2", "3", "7"])
    assert code == 0
    assert [c["angles"] for c in json.loads(base)["census"]] == [
        [0, 0, 0], [1, 1, 1]]
    for flags in (["--restarts", "0"], ["--restarts", "2"],
                  ["--restarts", "60"], ["--seed", "0"], ["--seed", "77"],
                  ["--restarts", "3", "--seed", "9"]):
        assert invoke(["brieskorn", "2", "3", "7", *flags]) == (0, base)


@pytest.mark.parametrize("argv, error", [
    (["solve", "PRES", "--restarts", "0"], "InvalidParameter"),
    (["solve", "PRES", "--tol", "0"], "InvalidParameter"),
    (["brieskorn", "2", "3", "7", "--tol", "0"], "InvalidParameter"),
    (["mw-admissible", "--genera", "2,x"], "InputError"),
    (["euler", "PRES", "--tol", "0"], "InvalidParameter"),
    (["euler", "PRES", "--tol", "nan"], "InvalidParameter"),
    # 3997 ** 3 vectors, refused before any is built
    (["mw-admissible", "--genera", "1000,1000,1000"], "InputError"),
    # about 1.0e9 angle triples, refused before any is tried; the
    # exponents are validated first
    (["brieskorn", "997", "1009", "1013"], "InputError"),
    (["brieskorn", "998", "1009", "1012"], "NotCoprime"),
])
def test_bad_option_values_are_input_errors(tmp_path, argv, error):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"generators": ["x"], "relators": [[1]]}))
    code, out = invoke([str(path) if a == "PRES" else a for a in argv])
    assert code == 1
    assert json.loads(out)["error"]["code"] == error


def test_text_format(trefoil_file):
    code, out = invoke(["--format", "text", "invariants", trefoil_file])
    assert code == 0
    assert "det = 3" in out
    assert "alexander.coeffs = [1, -1, 1]" in out


def test_repeated_runs_byte_identical(trefoil_file, graph_file):
    for argv in (["invariants", trefoil_file],
                 ["gate", trefoil_file],
                 ["flow", graph_file],
                 ["mw-admissible", "--genera", "2,3"]):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_parser_reuse_leaves_no_state(tmp_path):
    from blowupgate.psl2r import fuchsian_genus2
    hopf = tmp_path / "hopf.json"
    hopf.write_text(json.dumps({"braid": {"strands": 2, "word": [1, 1]}}))
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"matrices": {
        name: m.matrix_rows() for name, m in fuchsian_genus2().items()}}))
    # each option is followed by a call that omits it, in one process
    sequence = [["gate", str(hopf), "--monodromy", "1,0"],
                ["gate", str(hopf)],
                ["euler", str(rep), "--genus", "1"],
                ["euler", str(rep)],
                ["--format", "text", "brieskorn", "2", "3", "7"],
                ["brieskorn", "2", "3"],
                ["--format", "json", "mw-admissible", "--genera", "2,3"]]
    for argv in sequence:
        fresh = subprocess.run([sys.executable, "-m", "blowupgate.cli", *argv],
                               capture_output=True, text=True)
        assert invoke(argv) == (fresh.returncode, fresh.stdout), argv
    assert [invoke(argv)[0] for argv in sequence[-2:]] == [2, 0]


def test_run_never_rebuilds_the_parser(monkeypatch):
    import blowupgate.cli as cli

    def rebuilt():
        raise AssertionError("run rebuilt the parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    assert invoke(["mw-admissible", "--genera", "2"])[0] == 0
    assert invoke(["not-a-command"])[0] == 2


def test_console_entry_point(trefoil_file):
    proc = subprocess.run(
        [sys.executable, "-m", "blowupgate.cli", "invariants", trefoil_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["det"] == 3


def test_euler_error_paths(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrices": {
        "a1": [[2.0, 0.0], [0.0, 0.5]], "b1": [[1.0, 1.0], [0.0, 1.0]],
        "a2": [[1.0, 0.0], [0.0, 1.0]], "b2": [[1.0, 0.0], [2.0, 1.0]]}}))
    code, out = invoke(["euler", str(bad), "--genus", "2"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "ResidualTooLarge"
    missing = tmp_path / "missing_gen.json"
    missing.write_text(json.dumps({"matrices": {
        "a1": [[1.0, 0.0], [0.0, 1.0]]}}))
    code, out = invoke(["euler", str(missing), "--genus", "1"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "InputError"
    # the relator residual overflows to NaN, which must not pass as small
    overflow = tmp_path / "overflow.json"
    huge = [[1e200, 0.0], [0.0, 1e-200]]
    overflow.write_text(json.dumps({"matrices": {"a1": huge, "b1": huge}}))
    code, out = invoke(["euler", str(overflow)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "ResidualTooLarge"
    # a distance near 1e100 squares to inf, not to an OverflowError
    large = tmp_path / "large.json"
    large.write_text(json.dumps({"matrices": {
        "a1": [[1e100, 0], [0, 1e-100]], "b1": [[1, 1], [0, 1]]}}))
    code, out = invoke(["euler", str(large), "--genus", "1"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "ResidualTooLarge"


def test_euler_reports_a_missing_generator_in_bounded_memory(tmp_path):
    # a genus of 10^9 with four matrices: the missing a3 is reported
    # before anything of the size of the genus is built, so the run fits
    # in a 1 GiB address space
    pytest.importorskip("resource")
    from blowupgate.psl2r import fuchsian_genus2
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({
        name: m.matrix_rows() for name, m in fuchsian_genus2().items()}))
    limit = 2 ** 30
    code = (f"import resource; resource.setrlimit(resource.RLIMIT_AS, "
            f"({limit}, {limit})); from blowupgate.cli import main; main()")
    for argv in (["--genus", "1000000000"], ["--genus", str(10 ** 30)]):
        proc = subprocess.run([sys.executable, "-c", code, "euler", str(rep),
                               *argv], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["error"] == {
            "code": "InputError", "message": "missing generator a3"}


@pytest.mark.parametrize("command, payload", [
    ("invariants", {"braid": {"strands": 2, "word": ["a"]}}),
    ("euler", [1, 2]),
    # int() would truncate the next three to a trefoil
    ("invariants", {"braid": {"strands": 2, "word": [1.7, 1, 1]}}),
    ("invariants", {"braid": {"strands": 2.9, "word": [1, 1, 1]}}),
    ("invariants", {"pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3.5]]}),
    ("invariants", {"pd": [[1, 2, "x", 4]]}),
    ("invariants", {"pd": 5}),
    ("gate", {"braid": {"strands": 2, "word": [1, 1]}, "monodromy": 1}),
    ("flow", dict(GRAPH, model={"rank": "x"})),
    ("flow", dict(GRAPH, model=3)),
    ("flow", dict(GRAPH, weights=[-2, 1, 1])),
    ("flow", dict(GRAPH, orientations=[2, -1, -1])),
    ("flow", dict(GRAPH, model={"rank": 1, "torsion": [1]})),
    ("flow", dict(GRAPH, admissible=[{"free": 5}])),
    ("solve", {"generators": ["a", "a"], "relators": [[1, 2, -1, -2]]}),
    ("solve", {"generators": ["a", "b"], "relators": [[1.5, 2, -1, -2]]}),
    # int() would truncate the next three and answer for the truncated graph
    ("flow", dict(GRAPH, orientations=[1.5, -1, -1])),
    ("flow", dict(GRAPH, vertices=2.5)),
    ("flow", dict(GRAPH, edges=[dict(e, label={"free": [1.5]})
                                for e in GRAPH["edges"]])),
    # a NaN matrix entry, which SL2 used to accept
    ("euler", {"matrices": {"a1": [[math.nan, 0.0], [0.0, 1.0]],
                            "b1": [[1.0, 0.0], [0.0, 1.0]]}}),
    # mixed key types cannot be sorted into the output
    ("solve", {"generators": ["a", 1.5], "relators": [[1, 2, -1, -2]]}),
    ("gate", {"braid": {"strands": 2, "word": [1, 1]}, "monodromy": [2, 0]}),
    # more strands than the limit, refused before any arc is built
    ("invariants", {"braid": {"strands": 1e18, "word": [1]}}),
    # a string in place of an integer array is not read digit by digit
    ("invariants", {"braid": {"strands": 2, "word": "111"}}),
    ("invariants", {"pd": ["2431", "4653", "6215"]}),
    ("solve", {"generators": ["a", "b"], "relators": ["12"]}),
    ("solve", {"generators": ["a", "b"], "relators": "12"}),
    ("solve", {"generators": "xy", "relators": [[1, 2, -1, -2]]}),
    ("flow", dict(GRAPH, edges=[dict(e, label={"free": "1"})
                                for e in GRAPH["edges"]])),
    ("flow", dict(GRAPH, model={"rank": 1, "torsion": "3"})),
    ("flow", dict(GRAPH, model={"rank": -1})),
    ("flow", dict(GRAPH, weights=["1/0", 1, 1])),
    # "" iterates as an empty array, so it was read as one
    ("invariants", {"pd": ""}),
    ("invariants", {"braid": {"strands": 2, "word": ""}}),
    ("solve", {"generators": ["a", "b"], "relators": ""}),
    ("flow", dict(GRAPH, edges=[dict(e, label={"free": ""})
                                for e in GRAPH["edges"]])),
    ("flow", dict(GRAPH, model={"rank": 1, "torsion": ""})),
    ("flow", dict(GRAPH, edges="", weights=[], orientations=[])),
    ("flow", dict(GRAPH, weights="211")),
    ("flow", dict(GRAPH, admissible="")),
    # a flow graph that is not an object
    ("flow", [1, 2]),
    ("flow", None),
    ("flow", "x"),
    ("flow", 3),
    # one link given twice: the pd code used to win and the braid was dropped
    ("invariants", {"pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]],
                    "braid": {"strands": 2, "word": [1]}}),
    # true used to pass as 1: a trefoil, one strand, a relator letter, an
    # arc label and an orientation
    ("invariants", {"braid": {"strands": 2, "word": [True, True, True]}}),
    ("invariants", {"braid": {"strands": True}}),
    ("solve", {"generators": ["a"], "relators": [[True]]}),
    ("invariants", {"pd": [[True, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}),
    ("flow", dict(GRAPH, orientations=[True, -1, -1])),
    # either every edge has a label or none has: the labels after an
    # unlabeled first edge used to be dropped, printing "class": null
    ("flow", dict(GRAPH, edges=[{"from": 0, "to": 1}] + GRAPH["edges"][1:])),
    # torsion that is not a divisor chain: Z/2 + Z/3 is to be given as Z/6
    ("flow", {"vertices": 1,
              "edges": [{"from": 0, "to": 0,
                         "label": {"free": [1], "torsion": [1, 1]}}],
              "weights": [1], "orientations": [1],
              "model": {"rank": 1, "torsion": [2, 3]}}),
    # a generator index that int() refuses: a digit that is not decimal,
    # and more than 4300 digits
    ("euler", {"matrices": {"a\u00b2": [[1, 0], [0, 1]]}}),
    ("euler", {"matrices": {"a" + "9" * 5000: [[1, 0], [0, 1]]}}),
    # an object iterates as its keys, and {} was read as an empty array
    ("invariants", {"pd": {}}),
    ("invariants", {"braid": {"strands": 2, "word": {}}}),
    ("flow", dict(GRAPH, orientations={})),
    # more crossings than the limit, refused before the Seifert or Fox
    # matrix is built
    ("invariants", {"braid": {"strands": 2,
                              "word": [1] * (MAX_CROSSINGS + 1)}}),
    ("gate", {"pd": blowupgate.from_braid(blowupgate.BraidWord(
        2, [1] * (MAX_CROSSINGS + 1))).to_pd()}),
    # more generators than the limit, refused before the search, whose
    # classes print C(n, 3) trace coordinates each
    ("solve", {"generators": [f"g{i}" for i in range(MAX_GENERATORS + 1)],
               "relators": [[1, -1]]}),
    # a string or an object would pass its characters or keys as labels
    # or edges
    ("gate", {"braid": {"strands": 2, "word": [1, 1]}, "monodromy": "10"}),
    ("gate", {"braid": {"strands": 2, "word": [1, 1]},
              "monodromy": {"1": 0, "0": 1}}),
    ("flow", dict(GRAPH, edges={})),
    # more relators, or more relator letters, than the limits: the
    # Jacobian holds 12 entries per generator and relator, and the prefix
    # products one matrix per letter
    ("solve", {"generators": ["a"],
               "relators": [[1, -1]] * (MAX_RELATORS + 1)}),
    ("solve", {"generators": ["a"],
               "relators": [[1] * (MAX_RELATOR_LETTERS + 1)]}),
])
def test_malformed_input_is_input_error(tmp_path, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out = invoke([command, str(path)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "InputError"


def test_link_at_the_crossing_limit_is_accepted(tmp_path):
    # letters on pairwise distant generators: a split link of unknots,
    # whose Seifert matrix is zero
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"braid": {
        "strands": 2 * MAX_CROSSINGS,
        "word": list(range(1, 2 * MAX_CROSSINGS, 2))}}))
    code, out = invoke(["invariants", str(path)])
    assert code == 0
    data = json.loads(out)
    assert (data["components"], data["det"]) == (MAX_CROSSINGS, 0)


def test_presentation_at_the_generator_limit_is_accepted(tmp_path):
    n = MAX_GENERATORS
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"generators": [f"g{i}" for i in range(n)],
                                "relators": [[1, -1]]}))
    code, out = invoke(["solve", str(path), "--restarts", "1"])
    assert code == 0
    (solution,) = json.loads(out)["solutions"]
    assert len(solution["matrices"]) == n
    # one coordinate per generator, two per pair and two per triple
    assert len(solution["traces"]) == (n + 2 * math.comb(n, 2)
                                       + 2 * math.comb(n, 3))


def test_presentation_at_the_relator_limits_is_accepted(tmp_path):
    # relators g g^-1 ... of equal length, which every start solves, with
    # as many relators and letters as the limits allow
    n, length = MAX_GENERATORS, MAX_RELATOR_LETTERS // MAX_RELATORS
    relators = [[k % n + 1, -(k % n + 1)] * (length // 2)
                for k in range(MAX_RELATORS)]
    assert sum(map(len, relators)) == MAX_RELATOR_LETTERS
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"generators": [f"g{i}" for i in range(n)],
                                "relators": relators}))
    code, out = invoke(["solve", str(path), "--restarts", "1"])
    assert code == 0
    (solution,) = json.loads(out)["solutions"]
    assert solution["residual"] < 1e-10 and len(solution["matrices"]) == n


@pytest.mark.parametrize("command, what", [
    ("invariants", "link"), ("gate", "link"), ("flow", "flow graph"),
    ("solve", "presentation"), ("euler", "representation")])
def test_top_level_that_is_not_an_object_is_named(tmp_path, command, what):
    path = tmp_path / "input.json"
    path.write_text("[]")
    code, out = invoke([command, str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "InputError", "message": f"{what} JSON must be an object"}


@pytest.mark.parametrize("text", [
    # a byte that is not UTF-8, an integer of more digits than int()
    # takes, and arrays nested deeper than the recursion limit
    b'{"pd": "\xff"}',
    b'{"pd": ' + b"1" * 5000 + b"}",
    b'{"pd": ' + b"[" * 10 ** 5 + b"]" * 10 ** 5 + b"}",
], ids=["not-utf-8", "long-integer", "deep-nesting"])
def test_undecodable_json_is_input_error(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_bytes(text)
    for command in ("invariants", "gate", "flow", "solve", "euler"):
        code, out = invoke([command, str(path)])
        assert code == 1
        assert "is not valid JSON" in json.loads(out)["error"]["message"]


# the builtin base that each exception class keeps beside BlowupgateError
BUILTIN_BASES = {
    "InputError": ValueError, "NonFiniteResult": ValueError,
    "NonSquare": ValueError, "ZeroEvaluationPoint": ValueError,
    "LabelLengthMismatch": ValueError, "SizeMismatch": ValueError,
    "NonIntegerWeights": ValueError, "NotWirtinger": ValueError,
    "MalformedPD": ValueError, "InvalidLetter": ValueError,
    "EmptySelection": ValueError, "ResidualTooLarge": ValueError,
    "RoundingAmbiguous": ArithmeticError, "GenusZero": ValueError,
    "UnassignedGenerator": KeyError, "NotCoprime": ValueError,
    "InvalidParameter": ValueError, "CertificateFailed": ArithmeticError,
}


def test_every_exception_class_derives_from_blowupgate_error():
    found = {}
    for info in pkgutil.iter_modules(blowupgate.__path__):
        module = importlib.import_module(f"blowupgate.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, Exception) and \
                    obj.__module__ == module.__name__:
                found[name] = obj
    assert set(BUILTIN_BASES) <= set(found)
    for name, cls in found.items():
        assert issubclass(cls, blowupgate.BlowupgateError), name
        assert issubclass(cls, BUILTIN_BASES.get(name, Exception)), name


def test_library_input_checks_raise_blowupgate_errors():
    from blowupgate import (AbelianGroup, BraidWord, Flow, FlowGraph,
                            HomologyElement, from_braid, gate, homology_class,
                            milnor_wood_admissible, sublink)
    hopf = from_braid(BraidWord(2, (1, 1)))
    path = FlowGraph(2, ((0, 1),), (HomologyElement((1,)),))
    calls = [lambda: sublink(hopf, [0.7]),
             lambda: milnor_wood_admissible([2.9]),
             lambda: gate(hopf, ["0", "0"]),
             lambda: BraidWord(2, [1.5]),
             lambda: AbelianGroup(1, (2.7,)),
             lambda: homology_class(path, Flow.from_weights((1,), (1,)),
                                    AbelianGroup(1))]
    for call in calls:
        with pytest.raises(blowupgate.BlowupgateError):
            call()


def _library_checks():
    """Library calls on bad input, each with its id.  Each of them once
    raised a builtin error, ran on a bool, or built a record that later
    calls misread."""
    from blowupgate import (PSL2, BraidWord, BrieskornData, CircleLift, Flow,
                            FlowGraph, IntMatrix, LaurentPoly, Presentation,
                            euler_number, from_braid, fuchsian_genus2, gate,
                            laurent_det, parse_pd, solve, sublink,
                            surface_presentation,
                            surface_times_circle_presentation)
    from blowupgate.psl2r import relator_shift
    circle = Presentation(("x",), ((1,),))
    torus = ((1, 2, -1, -2),)
    hopf = from_braid(BraidWord(2, (1, 1)))
    return {
        "edge-to-missing-vertex": lambda: FlowGraph(1, ((0, 5),)),
        "negative-weight": lambda: Flow.from_weights((-1,), (1,)),
        "orientation-2": lambda: Flow.from_weights((1,), (2,)),
        "orientation-true": lambda: Flow.from_weights((1,), (True,)),
        "weight-string": lambda: Flow.from_weights(("x",), (1,)),
        "weight-none": lambda: Flow.from_weights((None,), (1,)),
        "signed-weight-string": lambda: Flow(("x",)),
        "signed-weights-not-an-array": lambda: Flow(5),
        "weights-not-an-array": lambda: Flow.from_weights(5, 5),
        "negative-rows": lambda: IntMatrix(-1, 0, ()),
        "rows-true": lambda: IntMatrix(True, 1, (1,)),
        "entries-not-an-array": lambda: IntMatrix(1, 1, 5),
        "matrix-sum-shapes":
            lambda: IntMatrix.zero(1, 2) + IntMatrix.zero(2, 1),
        "matrix-product-shapes":
            lambda: IntMatrix.zero(1, 2) @ IntMatrix.zero(1, 2),
        "laurent-list": lambda: LaurentPoly([1, 2]),
        "closure-of-a-tuple": lambda: from_braid((2, (1, 1))),
        "ragged-rows": lambda: IntMatrix.from_rows([[1, 2], [3]]),
        "rows-not-an-array": lambda: IntMatrix.from_rows(5),
        "row-not-an-array": lambda: IntMatrix.from_rows([5]),
        "identity-2.5": lambda: IntMatrix.identity(2.5),
        "labels-not-an-array": lambda: gate(hopf, 5),
        "laurent-det-of-ints": lambda: laurent_det([[1]]),
        "word-not-an-array": lambda: BraidWord(2, 5),
        "surface-genus-0": lambda: surface_presentation(0),
        "surface-x-circle-genus-0":
            lambda: surface_times_circle_presentation(0),
        "brieskorn-2.5": lambda: BrieskornData(2.5, 3, 5),
        "brieskorn-string": lambda: BrieskornData("2", 3, 5),
        "euler-no-matrices": lambda: euler_number({}, 1),
        "euler-genus-1.5": lambda: euler_number(fuchsian_genus2(), 1.5),
        "euler-genus-true": lambda: euler_number(fuchsian_genus2(), True),
        "restarts-2.5": lambda: solve(circle, restarts=2.5),
        "restarts-true": lambda: solve(circle, restarts=True),
        "sublink-index": lambda: sublink(hopf, [5]),
        "repeated-generator": lambda: Presentation(("a", "a"), ()),
        "letter-out-of-range": lambda: Presentation(("a",), ((2,),)),
        "generators-not-an-array": lambda: Presentation(5, ()),
        "generator-not-a-name": lambda: Presentation((5,), ()),
        # a meridian marker is a 1-based generator index
        "marker-zero": lambda: Presentation(("a", "b"), torus, (0,)),
        "marker-past-the-generators":
            lambda: Presentation(("a", "b"), torus, (1, 7)),
        "marker-negative": lambda: Presentation(("a", "b"), torus, (-3,)),
        "zero-matrix-2.5": lambda: IntMatrix.zero(2.5, 1),
        "zero-flow-2.5": lambda: Flow.zero(2.5),
        "flow-labels-not-an-array": lambda: FlowGraph(2, ((0, 1),), 5),
        "flow-label-not-an-element": lambda: FlowGraph(2, ((0, 1),), (5,)),
        "psl2-of-an-int": lambda: PSL2(5),
        "psl2-three-entries": lambda: PSL2((1, 2, 3)),
        "psl2-rows-of-an-int": lambda: PSL2.from_matrix(5),
        "psl2-ragged-rows": lambda: PSL2.from_matrix([[1, 0], [1]]),
        "psl2-negative-determinant": lambda: PSL2((1, 0, 0, -1)),
        "psl2-nan-entry": lambda: PSL2((float("nan"), 0, 0, 1)),
        "psl2-infinite-entry": lambda: PSL2((float("inf"), 0, 0, 1)),
        "lift-of-an-int": lambda: CircleLift(5),
        "shift-of-an-int": lambda: relator_shift((1,), [5]),
        "euler-of-an-int": lambda: euler_number(5, 2),
        "euler-int-matrices": lambda: euler_number({"a1": 5, "b1": 5}, 1),
        "edge-of-three-vertices": lambda: FlowGraph(2, ((0, 1, 2),)),
        "edge-of-one-vertex": lambda: FlowGraph(2, ((0,),)),
        # a dict would pass its keys, a set its elements in no fixed order
        "word-dict": lambda: BraidWord(3, {1: "x", 2: "y"}),
        "word-set": lambda: BraidWord(3, {1, 2}),
        "generators-dict": lambda: Presentation({"a": 0, "b": 1}, ()),
        "relators-dict": lambda: Presentation(("a", "b"), {(1, 2): 0}),
        "relator-set": lambda: Presentation(("a", "b"), ({1, 2},)),
        "pd-dict": lambda: parse_pd({(1, 2, 2, 1): 0}),
        "labels-set": lambda: gate(hopf, {0, 1}),
    }


def _tol_checks():
    """Library calls with a tol that is not a positive number."""
    from blowupgate import (BrieskornData, brieskorn_enumerate, euler_number,
                            fuchsian_genus2, solve, surface_presentation)
    return {
        "euler-0": lambda: euler_number(fuchsian_genus2(), 2, tol=0),
        "euler-negative": lambda: euler_number(fuchsian_genus2(), 2, tol=-1.0),
        "euler-nan": lambda: euler_number(fuchsian_genus2(), 2,
                                          tol=float("nan")),
        "solve-string": lambda: solve(surface_presentation(1), tol="x"),
        "brieskorn-none":
            lambda: brieskorn_enumerate(BrieskornData(2, 3, 7), tol=None),
    }


@pytest.mark.parametrize("check", sorted(_tol_checks()))
def test_library_tol_must_be_positive(check):
    # checked before the relator residual, which 0 would fail too
    with pytest.raises(blowupgate.InvalidParameter,
                       match="^tol must be positive$"):
        _tol_checks()[check]()
    assert blowupgate.repvar.InvalidParameter is blowupgate.InvalidParameter


@pytest.mark.parametrize("check", sorted(_library_checks()))
def test_library_check_raises_blowupgate_error(check):
    with pytest.raises(blowupgate.BlowupgateError):
        _library_checks()[check]()


def test_braid_route_reads_only_the_braid(tmp_path, monkeypatch):
    # the Seifert route reads a closure's braid and component count only:
    # with the PD assembly of closures refused, its results are unchanged
    from blowupgate import links
    from blowupgate.gate import gate
    from blowupgate.invariants import link_invariants
    trefoil = tmp_path / "trefoil.json"
    trefoil.write_text(json.dumps({"braid": {"strands": 2,
                                             "word": [1, 1, 1]}}))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"braid": {"strands": 3,
                                           "word": [1, 1, 2, 2]}}))
    b = links.BraidWord(3, (1, 1, 2, 2))

    def results():
        d = links.from_braid(b)
        part = links.sublink(d, [0, 2])
        return (invoke(["invariants", str(trefoil)]),
                invoke(["gate", str(chain), "--monodromy", "1,0,1"]),
                link_invariants(d), gate(d, [1, 0, 1]),
                part.braid, part.component_count)

    expected = results()

    def refuse(braid):
        raise AssertionError(f"PD code of {braid} assembled")

    monkeypatch.setattr(links, "_braid_pd", refuse)
    assert results() == expected
    assert expected[0][0] == expected[1][0] == 0
    assert '"h1_method":"seifert"' in expected[1][1]


def test_euler_reports_a_bad_determinant_in_psl2_terms(tmp_path):
    # the reflection diag(1, -1) is refused by PSL2 itself, so its
    # message is printed without the CLI's wrapper prefix
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"a1": [[1, 0], [0, -1]],
                                "b1": [[1, 0], [0, 1]]}))
    code, out = invoke(["euler", str(path)])
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "InputError",
        "message": "determinant -1 is not positive and finite"}


def test_integral_floats_read_as_integers():
    # the package's integer rule: an integral float is its integer
    from blowupgate import BrieskornData, euler_number, fuchsian_genus2
    assert BrieskornData(2.0, 3, 5) == BrieskornData(2, 3, 5)
    assert euler_number(fuchsian_genus2(), 2.0) == -2


def test_gate_pd_input_with_sublink(tmp_path):
    from blowupgate.links import BraidWord, from_braid
    code_pd = from_braid(BraidWord(3, (1, 1, 2, 2))).to_pd()
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"pd": code_pd}))
    code, out = invoke(["gate", str(path), "--monodromy", "1,0,1"])
    assert code == 0
    data = json.loads(out)
    assert data["certificates"]["z1_components"] == 2
    assert data["certificates"]["h1_method"] == "fox"
    # the two end circles of the chain are unlinked: split sublink passes
    assert data["status"] == "admissible"
    assert data["certificates"]["det"] == 0
    assert data["certificates"]["h1_branched"]["rank"] == 1
