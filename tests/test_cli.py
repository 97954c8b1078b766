import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import corefree
from corefree.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(*argv):
    """run() without the capsys fixture, for property tests."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_json_error(err: str, kind: Optional[str] = "Usage") -> None:
    """err is one line holding a JSON error of the given kind (any if None)."""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert isinstance(payload["message"], str)
    assert kind is None or payload["error"] == kind


def test_fold_summary(capsys):
    code, out, err = run(capsys, "fold", "--gens", "x1 x2")
    assert code == 0
    assert out == "vertices: 2\nedges: 2\nrank: 1\nindex: infinite\n"


def test_fold_finite_index_summary(capsys):
    code, out, _ = run(capsys, "fold", "--gens", "x1,x2^2,x2 x1 x2^-1")
    assert code == 0
    assert "index: 2" in out and "rank: 3" in out


def test_fold_empty_gens(capsys):
    code, out, _ = run(capsys, "fold", "--gens", "", "--rank", "2")
    assert code == 0
    assert "vertices: 1" in out


def test_fold_dot_and_json(capsys):
    code, out, _ = run(capsys, "fold", "--gens", "x1 x2", "--dot")
    assert code == 0 and out.startswith("digraph corefree {")
    code, out, _ = run(capsys, "fold", "--gens", "x1 x2", "--json")
    data = json.loads(out)
    assert data["vertices"] == 2 and len(data["edges"]) == 2


def test_command_determinism(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "random", "--rank", "2", "--count", "3",
                           "--max-length", "6", "--seed", "9")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    code, other, _ = run(capsys, "random", "--rank", "2", "--count", "3",
                         "--max-length", "6", "--seed", "10")
    assert other not in outs


def test_pipeline_fold_find_basis_verify(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    cert_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "fold", "--gens", "x1", "--json", "--out", str(graph_file))
    assert code == 0
    code, _, err = run(capsys, "find-basis", "--in", str(graph_file),
                       "--out", str(cert_file), "--trace")
    assert code == 0
    assert "iter" in err  # trace table on stderr
    cert = json.loads(cert_file.read_text())
    assert cert["moves"] == [[2, -2]] and cert["m0"] == 3
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file), "--samples", "100")
    assert code == 0
    assert out.count("PASS") == 5


def test_find_basis_finite_index_error(capsys):
    code, out, err = run(capsys, "find-basis", "--gens", "x1,x2^2,x2 x1 x2^-1")
    assert code == 3
    assert json.loads(err.strip())["error"] == "FiniteIndex"
    assert out == ""


def test_find_basis_word_blowup(capsys):
    code, _, err = run(capsys, "find-basis", "--gens", "x1^3,x2^3", "--cap", "10")
    assert code == 4
    assert json.loads(err.strip())["error"] == "WordBlowup"


def test_verify_tampered_certificate(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "find-basis", "--gens", "x1", "--out", str(cert_file))
    assert code == 0
    data = json.loads(cert_file.read_text())
    data["basis"][0] = [[1, 1]]  # claim y1 = x1
    cert_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file), "--samples", "50")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "forge, reason",
    [
        # words that are not psi^-1(x_i)
        (lambda d: d.update(basis=[[[1, 2], [2, 1], [1, 1]], [[2, 1], [1, 2], [2, 2]]]),
         "basis is not psi^-1"),
        (lambda d: d.update(transformed_generators=[]),
         "transformed generators do not present psi(H)"),
        (lambda d: d.update(m0=d["m0"] + 5), "m0 is 13, the power bound is 8"),
        (lambda d: d.update(trace=[{"i": 2, "k": 99, "L_before": 7, "L_after": 0,
                                    "core_vertices": 1}]),
         "trace does not match the replayed moves"),
    ],
    ids=["basis", "transformed-generators", "m0", "trace"],
)
def test_verify_rejects_forged_certificate(tmp_path, capsys, forge, reason):
    cert_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "find-basis", "--gens", "x1 x2 x1^-1 x2, x2^3",
                     "--out", str(cert_file))
    assert code == 0
    data = json.loads(cert_file.read_text())
    forge(data)
    cert_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--cert", str(cert_file), "--samples", "50")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("structural") and "FAIL" in lines[0] and reason in lines[0]


def test_verify_usage_error(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    run(capsys, "find-basis", "--gens", "x1", "--out", str(cert_file))
    data = json.loads(cert_file.read_text())
    malformed = [
        dict(data, m0=None),
        [data],
        dict(data, m0=2.5),
        dict(data, basis=None),
        dict(data, moves=[[3, -2]]),  # no generator x3 in rank 2
        dict(data, moves=[[2]]),
        dict(data, trace=[{"i": 2}]),
    ]
    for bad in malformed:
        cert_file.write_text(json.dumps(bad))
        code, out, err = run(capsys, "verify", "--cert", str(cert_file))
        assert code == 2 and out == ""
        assert json.loads(err.strip())["error"] == "Usage"
    bad_presentation = tmp_path / "p.json"
    for bad in (7, {"rank": 2, "generators": [[[1, None]]]}):
        bad_presentation.write_text(json.dumps(bad))
        code, _, err = run(capsys, "fold", "--in", str(bad_presentation))
        assert code == 2
        assert json.loads(err.strip())["error"] == "Usage"


@pytest.mark.parametrize(
    "argv, data",
    [
        (["qm-defect", "--factors", "{file}"], {"rank": 2, "factors": None}),
        (["qm-defect", "--factors", "{file}"], {"rank": None, "factors": []}),
        (["qm-defect", "--factors", "{file}"], [{"rank": 2}]),
        (["qm-defect", "--factors", "{file}"],
         {"rank": 2, "factors": [{"support": [[1, 0.5]]}, {"support": []}]}),
        (["qm-eval", "--factors", "{file}", "--word", "x1"],
         {"rank": 2, "factors": [{"support": [[1, "1/0"]]}, {"support": []}]}),
        (["qm-eval", "--factors", "{file}", "--word", "x1"],
         {"rank": 2, "factors": [{"support": [[1, "0.5"]]}, {"support": []}]}),
        (["make-relative", "--cert", "{cert}", "--factors", "{file}"],
         {"factors": [{"support": [[1, None]]}, {"support": []}]}),
        (["make-relative", "--cert", "{cert}", "--factors", "{file}"],
         {"factors": [{"support": [[None, "1"]]}, {"support": []}]}),
        (["make-relative", "--cert", "{cert}", "--factors", "{file}"],
         {"factors": [{"support": "3"}, {"support": []}]}),
        (["make-relative", "--cert", "{cert}", "--factors", "{file}"],
         {"factors": [[[3, "1"]], {"support": []}]}),
        (["fold", "--in", "{file}"],
         {"rank": 2, "basepoint": 0, "vertices": 2,
          "edges": [{"from": None, "to": 1, "label": 1}]}),
        (["fold", "--in", "{file}"], {"rank": 2, "edges": [[0, 1, 1]]}),
        (["fold", "--in", "{file}"], {"rank": "2", "edges": []}),
        (["export", "--in", "{file}"], {"rank": 2, "edges": None}),
        (["check-vanishing", "--relative", "{file}"], {"certificate": None, "factors": []}),
        (["make-relative", "--cert", "{file}", "--factors", "{factors}"],
         lambda cert: dict(cert, m0=0)),
        (["check-vanishing", "--relative", "{file}"],
         lambda cert: {"certificate": dict(cert, moves=[[3, -2]]), "factors": [{}, {}]}),
    ],
    ids=["factors-null", "rank-null", "qm-array", "float-value", "zero-denominator",
         "decimal-string", "support-value-null", "support-point-null", "support-string",
         "factor-array", "edge-from-null", "edge-array", "graph-rank-string",
         "edges-null", "certificate-null", "m0-zero", "move-index-beyond-rank"],
)
def test_malformed_loader_input(tmp_path, capsys, argv, data):
    cert_file = tmp_path / "cert.json"
    run(capsys, "find-basis", "--gens", "x1", "--out", str(cert_file))
    factors_file = tmp_path / "factors.json"
    factors_file.write_text(json.dumps({"factors": [{"support": [[3, "1"]]}, {}]}))
    if callable(data):
        data = data(json.loads(cert_file.read_text()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    argv = [a.format(file=bad, cert=cert_file, factors=factors_file) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert_json_error(err)


def test_rank_is_inferred_from_the_largest_index(capsys):
    code, out, _ = run(capsys, "fold", "--gens", "x27")
    assert code == 0
    assert out == "vertices: 1\nedges: 1\nrank: 1\nindex: infinite\n"
    code, out, _ = run(capsys, "export", "--gens", "x1 x30^-1")
    assert code == 0 and json.loads(out)["rank"] == 30
    code, out, _ = run(capsys, "fold", "--gens", "ab", "--json")
    assert code == 0 and json.loads(out)["rank"] == 2
    # letter shorthand stays limited to rank <= 26
    code, out, err = run(capsys, "fold", "--gens", "x27, a")
    assert code == 2 and out == ""
    assert_json_error(err, "ParseError")


# --- malformed artifacts ---------------------------------------------------------

_P = corefree.SubgroupPresentation(
    2, (corefree.parse_word("x1 x2 x1^-1 x2", 2), corefree.parse_word("x2^3", 2)))
_CERT = corefree.find_power_free_basis(_P)
_FACTORS = {"factors": [
    {"support": [[_CERT.power_bound, "1"], [2 * _CERT.power_bound, "-1/2"]]},
    {"support": [[_CERT.power_bound, "3"]]},
]}
ARTIFACTS = {
    "presentation": _P.to_json(),
    "graph": corefree.graph_to_json(corefree.fold(_P)),
    "certificate": _CERT.to_json(),
    "factors": _FACTORS,
    "qm": {"rank": 2, "factors": [{"support": [[1, "1"], [2, "2"]]}, {"support": [[3, "-1/2"]]}]},
    "relative": {"certificate": _CERT.to_json(), "factors": _FACTORS["factors"]},
}
# the commands that read each artifact ({} is the mutated file); exit code 1
# is a failed verification, so only verify and check-vanishing may return it
READERS = {
    "presentation": [["fold", "--in", "{}"], ["find-basis", "--in", "{}"],
                     ["m0", "--in", "{}"], ["export", "--in", "{}", "--core", "--dot"]],
    "graph": [["fold", "--in", "{}", "--json"], ["core", "--in", "{}"],
              ["find-basis", "--in", "{}"]],
    "certificate": [["make-relative", "--cert", "{}", "--factors", "{factors}"],
                    ["verify", "--cert", "{}", "--samples", "5"]],
    "factors": [["make-relative", "--cert", "{cert}", "--factors", "{}"]],
    "qm": [["qm-defect", "--factors", "{}"], ["qm-eval", "--factors", "{}", "--word", "x1^2 x2"]],
    "relative": [["check-vanishing", "--relative", "{}", "--samples", "5", "--length", "4"]],
}
MUTANTS = [None, True, 1.5, "x", "1/2", [], {}, -1, 0, 1, 2, 3, [1, 2], [[1, 1]], {"a": 1}]


def _paths(data, path=()):
    yield path
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated(draw, data):
    """data with one to three nodes replaced by a mutant or deleted.  The
    depth is drawn first, so that the few top-level fields are hit about as
    often as the many deep ones."""
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        value = draw(st.sampled_from(MUTANTS + ["delete"]))
        if not path:
            data = copy.deepcopy(value if value != "delete" else {})
            continue
        data = copy.deepcopy(data)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if value == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return data


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("artifacts")
    for name, data in ARTIFACTS.items():
        (d / f"{name}.json").write_text(json.dumps(data))
    return d


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_artifacts_exit_cleanly(artifact_dir, data):
    kind = data.draw(st.sampled_from(sorted(ARTIFACTS)))
    bad = artifact_dir / "mutated.json"
    bad.write_text(json.dumps(data.draw(mutated(ARTIFACTS[kind]))))
    for template in READERS[kind]:
        argv = [a.format(bad, cert=artifact_dir / "certificate.json",
                         factors=artifact_dir / "factors.json") for a in template]
        code, _, err = run_captured(*argv)
        if code in (0, 1):
            assert code == 0 or argv[0] in ("verify", "check-vanishing")
            assert err == ""
        else:
            assert code in (2, 3, 4)
            assert_json_error(err, None)


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "fold", "--gens", "x1 zz9")
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"] == "ParseError"


def test_m0_command(capsys):
    code, out, _ = run(capsys, "m0", "--gens", "x1 x2^-2")
    assert code == 0 and out.strip() == "3"
    code, _, err = run(capsys, "m0", "--gens", "x1")
    assert code == 3
    assert json.loads(err.strip())["error"] == "UnboundedRun"


def test_qm_eval_and_defect(tmp_path, capsys):
    qm_file = tmp_path / "qm.json"
    qm_file.write_text(json.dumps({
        "rank": 2,
        "factors": [{"support": [[1, "1"], [2, "2"]]}, {"support": []}],
    }))
    code, out, _ = run(capsys, "qm-eval", "--factors", str(qm_file), "--word", "x1^2 x2 x1")
    assert code == 0 and out.strip() == "3"  # f1(2) + f2(1) + f1(1)
    code, out, _ = run(capsys, "qm-defect", "--factors", str(qm_file))
    assert code == 0
    assert out.splitlines()[-1] == "defect: 4"
    assert "factor 1: defect 4 witness (2, 2)" in out


def test_make_relative_and_check_vanishing(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    run(capsys, "find-basis", "--gens", "x1", "--out", str(cert_file))
    factors_file = tmp_path / "factors.json"
    factors_file.write_text(json.dumps({
        "factors": [{"support": [[3, "1"]]}, {"support": [[6, "1/2"]]}],
    }))
    rel_file = tmp_path / "rel.json"
    code, _, _ = run(capsys, "make-relative", "--cert", str(cert_file),
                     "--factors", str(factors_file), "--out", str(rel_file))
    assert code == 0
    code, out, _ = run(capsys, "check-vanishing", "--relative", str(rel_file),
                       "--samples", "200", "--length", "12")
    assert code == 0 and "PASS" in out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "factors": [{"support": [[2, "1"]]}, {"support": []}],
    }))
    code, _, err = run(capsys, "make-relative", "--cert", str(cert_file),
                       "--factors", str(bad))
    assert code == 2
    assert json.loads(err.strip())["error"] == "Usage"


def test_export_core(capsys):
    code, out, _ = run(capsys, "export", "--gens", "x1 x2 x1^-1", "--core")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 1 and data["edges"] == [{"from": 0, "to": 0, "label": 2}]
    code, out, _ = run(capsys, "export", "--gens", "", "--rank", "2", "--core")
    assert code == 0
    assert json.loads(out)["vertices"] == 0


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, "fold")
    assert code == 2
    assert json.loads(err.strip())["error"] == "Usage"


def test_huge_rank_under_memory_limit_exits_4():
    import resource

    limit = 512 * 2**20  # a rank-10^8 graph needs 1.6 GB for one vertex's slots

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(corefree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "corefree", "fold", "--gens", "", "--rank", "100000000"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert_json_error(proc.stderr, "Memory")


def test_module_entry_point():
    # the subprocess imports the same corefree as this test process
    src = str(Path(corefree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "corefree", "fold", "--gens", "x1 x2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "vertices: 2" in proc.stdout
