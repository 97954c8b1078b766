import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corefree
from corefree.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ],
    ids=["basis", "transformed-generators", "m0"],
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
