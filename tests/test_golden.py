"""Byte-exact command line outputs.

Each command below runs in-process in a scratch directory; its exit code,
stdout, stderr and the file it writes with --out must equal the record in
golden/cli.json.  The commands are the README's, a seeded batch of
random presentations through fold/core/export in every output form,
find-basis, verify, m0, qm-defect and make-relative, and trivial-subgroup
and finite-index inputs.

After an intended output change, rewrite the record with
``PYTHONPATH=src python tests/test_golden.py`` and name the change in
CHANGES.md.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from corefree.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

QM = {"rank": 2, "factors": [{"support": [[1, "1"], [2, "2"]]}, {"support": [[3, "-1/2"]]}]}
README_FACTORS = {"factors": [{"support": [[3, "1"]]}, {"support": [[6, "1/2"]]}]}

README = [
    ["fold", "--gens", "x1, x2^2, x2 x1 x2^-1"],
    ["fold", "--gens", "x1 x2", "--dot"],
    ["fold", "--gens", "x1", "--json", "--out", "H.json"],
    ["find-basis", "--in", "H.json", "--out", "cert.json", "--trace"],
    ["verify", "--cert", "cert.json", "--samples", "1000"],
    ["m0", "--gens", "x1 x2^-2"],
    ["qm-eval", "--factors", "qm.json", "--word", "x1^2 x2"],
    ["qm-defect", "--factors", "qm.json"],
    ["make-relative", "--cert", "cert.json", "--factors", "f.json", "--out", "rel.json"],
    ["check-vanishing", "--relative", "rel.json", "--samples", "1000", "--length", "20"],
    ["random", "--rank", "2", "--count", "3", "--max-length", "8", "--seed", "7"],
    ["export", "--gens", "x1 x2 x1^-1", "--core", "--dot"],
]

# Trivial subgroups (empty core), finite-index subgroups, letter shorthand
# with an inferred rank, and the letter cap.
EDGE_CASES = [
    ["fold", "--gens", "", "--rank", "2"],
    ["fold", "--gens", "x1 x1^-1", "--json"],
    ["core", "--gens", "", "--rank", "2"],
    ["core", "--gens", "x1 x1^-1", "--json"],
    ["core", "--gens", "x1 x1^-1", "--dot"],
    ["export", "--gens", "x1 x1^-1", "--core"],
    ["export", "--gens", "x1 x1^-1", "--core", "--json"],
    ["export", "--gens", "x1 x1^-1", "--core", "--dot"],
    ["find-basis", "--gens", "", "--rank", "3"],
    ["m0", "--gens", "", "--rank", "2"],
    ["fold", "--gens", "x1, x2"],
    ["fold", "--gens", "x1,x2^2,x2 x1 x2^-1", "--json"],
    ["core", "--gens", "x1,x2^2,x2 x1 x2^-1"],
    ["export", "--gens", "x1,x2^2,x2 x1 x2^-1", "--core", "--dot"],
    ["find-basis", "--gens", "x1,x2^2,x2 x1 x2^-1"],
    ["m0", "--gens", "x1,x2^2,x2 x1 x2^-1"],
    ["fold", "--gens", "ab, bA"],
    ["core", "--gens", "c b C"],
    ["find-basis", "--gens", "x1^3,x2^3", "--cap", "10"],
    ["find-basis", "--gens", "x1 x2 x1^-1 x2, x2^3", "--trace"],
    ["find-basis", "--gens", "x1^2 x3, x2^3 x1 x2^-1, x3^2", "--trace"],
]


def _write_json(name: str, data) -> None:
    Path(name).write_text(json.dumps(data))


def commands():
    """The argv of each recorded command, in order.  Input files are
    written into the working directory as the commands need them."""
    _write_json("qm.json", QM)
    _write_json("f.json", README_FACTORS)
    yield from README
    for seed, rank, count in ((1, 2, 2), (3, 2, 3), (4, 3, 1), (8, 2, 3)):
        p = f"P{seed}.json"
        yield ["random", "--rank", str(rank), "--count", str(count), "--max-length", "8",
               "--seed", str(seed), "--out", p]
        # with x1^3 added, so that single-label cycles need moves, and conjugated
        # by x2 x1^-2, so that the basepoint hangs off the core
        gens = json.loads(Path(p).read_text())["generators"] + [[[1, 3]]]
        _write_json(f"Q{seed}.json", {"rank": rank, "generators": [
            [[2, 1], [1, -2], *w, [1, 2], [2, -1]] for w in gens]})
        for name in (f"P{seed}", f"Q{seed}"):
            yield from _pipeline(name, rank)
    yield from EDGE_CASES


def _pipeline(name: str, rank: int):
    p, g, c, f = f"{name}.json", f"{name}-graph.json", f"{name}-cert.json", f"{name}-f.json"
    for cmd in ("fold", "core", "export"):
        for form in ([], ["--json"], ["--dot"]):
            yield [cmd, "--in", p, *form]
    yield ["export", "--in", p, "--core"]
    yield ["export", "--in", p, "--core", "--dot"]
    yield ["fold", "--in", p, "--json", "--out", g]
    yield ["export", "--in", g]
    yield ["m0", "--in", p]
    yield ["find-basis", "--in", p, "--out", c, "--trace"]
    if Path(c).exists():
        yield ["verify", "--cert", c, "--samples", "50", "--seed", "3"]
        m0 = json.loads(Path(c).read_text())["m0"]
        _write_json(f, {"factors": [{"support": [[m0, "1"], [2 * m0, "-1/3"]]}] * rank})
        yield ["make-relative", "--cert", c, "--factors", f]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    record = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--out" in argv:
        written = Path(argv[argv.index("--out") + 1])
        record["out"] = written.read_text() if written.exists() else None
    return record


def record_all() -> list[dict]:
    return [run(argv) for argv in commands()]


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = json.loads(GOLDEN.read_text())
    got = record_all()
    assert [r["argv"] for r in got] == [r["argv"] for r in want]
    for g, w in zip(got, want):
        assert g == w, " ".join(w["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        records = record_all()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
