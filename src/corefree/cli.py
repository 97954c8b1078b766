"""Command line interface.

Subcommands: fold, core, find-basis, verify, m0, qm-eval, qm-defect,
make-relative, check-vanishing, random, export.  All output is
deterministic given the inputs and --seed.  Exit codes: 0 success,
1 verification failure, 2 usage/parse error, 3 precondition violation
(finite index, surviving cycles), 4 length cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional, Sequence

from .basis import (
    BasisCertificate,
    FiniteIndexError,
    UnboundedRunError,
    WordBlowupError,
    compute_power_bound,
    find_power_free_basis,
    verify_certificate,
)
from .graphs import (
    FoldedGraph,
    SubgroupPresentation,
    core,
    export_dot,
    fold,
    generators_from_graph,
    graph_from_json,
    graph_to_json,
)
from .qm import (
    AlternatingFunction,
    RelativeQuasimorphism,
    SplitQuasimorphism,
    check_vanishing,
    defect_z,
    make_relative_qm,
    nontriviality_witness,
)
from .sampling import InstanceSpec, random_alternating, random_presentation
from .words import WordSyntaxError, parse_word

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # machine-readable usage errors, exit code 2
        print(json.dumps({"error": "Usage", "message": message}), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _presentation_from_args(args) -> SubgroupPresentation:
    if getattr(args, "infile", None):
        data = _load_json(args.infile)
        if isinstance(data, dict) and "edges" in data:  # a graph artifact: recover generators
            g = graph_from_json(data)
            return SubgroupPresentation(g.rank, tuple(generators_from_graph(g)))
        return SubgroupPresentation.from_json(data)
    if args.gens is None:
        raise ValueError("need --gens or --in")
    texts = [t for t in args.gens.split(",")]
    rank = args.rank
    if rank is None:
        rank = 2
        for t in texts:
            w = parse_word(t, 26)
            rank = max(rank, max((abs(s) for s in w.letters), default=2))
    gens = tuple(parse_word(t, rank) for t in texts if t.strip())
    return SubgroupPresentation(rank, gens)


def _graph_output(args, g: FoldedGraph) -> None:
    if args.dot:
        _write(export_dot(g), args.out)
    elif args.json:
        _write(_dump(graph_to_json(g)), args.out)
    else:
        c = core(g)
        idx = g.index()
        lines = [
            f"vertices: {g.num_vertices}",
            f"edges: {g.num_edges()}",
            f"rank: {c.rank_of_subgroup()}",
            f"index: {idx if idx is not None else 'infinite'}",
        ]
        _write("\n".join(lines) + "\n", args.out)


def _add_input_flags(sp) -> None:
    sp.add_argument("--gens", help="comma-separated generator words, e.g. 'x1 x2, x2^2'")
    sp.add_argument("--rank", type=int, help="ambient rank (default: inferred, at least 2)")
    sp.add_argument("--in", dest="infile", help="presentation or graph JSON file")


def _add_common_flags(sp, *, seed: bool = True, cap: bool = True) -> None:
    if seed:
        sp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    if cap:
        sp.add_argument("--cap", type=int, default=10**6, help="word length cap")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="corefree", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fold", help="fold a presentation into its subgroup graph")
    _add_input_flags(sp)
    sp.add_argument("--json", action="store_true", help="emit the graph as JSON")
    sp.add_argument("--dot", action="store_true", help="emit the graph as DOT")
    sp.add_argument("--out", help="output file (default stdout)")

    sp = sub.add_parser("core", help="fold and export the core graph")
    _add_input_flags(sp)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--dot", action="store_true")
    sp.add_argument("--out", help="output file (default stdout)")

    sp = sub.add_parser("find-basis", help="compute a power-free basis certificate")
    _add_input_flags(sp)
    _add_common_flags(sp, seed=False)
    sp.add_argument("--out", help="certificate file (default stdout)")
    sp.add_argument("--trace", action="store_true", help="print the iteration table")

    sp = sub.add_parser("verify", help="verify a certificate")
    sp.add_argument("--cert", required=True, help="certificate JSON file")
    sp.add_argument("--samples", type=int, default=1000)
    _add_common_flags(sp, cap=False)

    sp = sub.add_parser("m0", help="power bound of a cycle-free presentation")
    _add_input_flags(sp)

    sp = sub.add_parser("qm-eval", help="evaluate a split quasimorphism at a word")
    sp.add_argument("--factors", required=True, help="split quasimorphism JSON file")
    sp.add_argument("--word", required=True)

    sp = sub.add_parser("qm-defect", help="defect of a split quasimorphism")
    sp.add_argument("--factors", required=True)

    sp = sub.add_parser("make-relative", help="build a subgroup-vanishing quasimorphism")
    sp.add_argument("--cert", required=True)
    sp.add_argument("--factors", required=True)
    sp.add_argument("--out", help="output file (default stdout)")

    sp = sub.add_parser("check-vanishing", help="sample a relative quasimorphism on the subgroup")
    sp.add_argument("--relative", help="relative quasimorphism JSON file")
    sp.add_argument("--cert", help="certificate JSON (with --factors)")
    sp.add_argument("--factors", help="factors JSON (with --cert)")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--length", type=int, default=20)
    _add_common_flags(sp, cap=False)

    sp = sub.add_parser("random", help="generate a random presentation")
    sp.add_argument("--rank", type=int, default=2)
    sp.add_argument("--count", type=int, default=3)
    sp.add_argument("--max-length", type=int, default=8)
    sp.add_argument("--out", help="output file (default stdout)")
    _add_common_flags(sp, cap=False)

    sp = sub.add_parser("export", help="re-export a presentation or graph artifact")
    _add_input_flags(sp)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--dot", action="store_true")
    sp.add_argument("--core", dest="core_only", action="store_true", help="export the core")
    sp.add_argument("--out", help="output file (default stdout)")
    return ap


def _factors_from_file(path: str, rank: Optional[int] = None) -> list[AlternatingFunction]:
    data = _load_json(path)
    factors = [AlternatingFunction.from_json(f) for f in data["factors"]]
    if rank is not None and len(factors) != rank:
        raise ValueError(f"need {rank} factors, file has {len(factors)}")
    return factors


def _cmd_fold(args) -> int:
    _graph_output(args, fold(_presentation_from_args(args)))
    return EXIT_OK


def _cmd_core(args) -> int:
    c = core(fold(_presentation_from_args(args)))
    if not c.vertices:
        if args.dot:
            _write("digraph corefree {\n}\n", args.out)
        else:
            _write(_dump({"rank": c.rank, "basepoint": None, "vertices": 0, "edges": []}), args.out)
        return EXIT_OK
    _graph_output(args, c.as_folded_graph())
    return EXIT_OK


def _cmd_find_basis(args) -> int:
    p = _presentation_from_args(args)
    cert = find_power_free_basis(p, max_total_length=args.cap)
    if args.trace:
        table = ["iter  i  k  |L|before  |L|after  core"]
        for t, step in enumerate(cert.trace, start=1):
            table.append(
                f"{t:4d}  {step.index}  {step.power}  {step.loops_before:9d}"
                f"  {step.loops_after:8d}  {step.core_vertices:4d}"
            )
        print("\n".join(table), file=sys.stderr)
    _write(_dump(cert.to_json()), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cert = BasisCertificate.from_json(_load_json(args.cert))
    p = SubgroupPresentation(cert.rank, cert.original_generators)
    rng = random.Random(args.seed)
    report = verify_certificate(p, cert, sample_count=args.samples, rng=rng)
    for line in report.summary_lines():
        print(line)
    factors = [
        random_alternating(rng, max_support=3, multiple_of=cert.power_bound, allow_zero=False)
        for _ in range(cert.rank)
    ]
    rel = make_relative_qm(cert, factors)
    vanishing = check_vanishing(rel, p, samples=args.samples, rng=rng)
    print(
        f"vanishing on {vanishing.samples_checked} subgroup samples: "
        f"{'PASS' if vanishing.ok else 'FAIL'}"
    )
    witness = nontriviality_witness(rel)
    print(f"nonzero outside subgroup: {'PASS' if witness is not None else 'FAIL'}")
    ok = report.all_ok and vanishing.ok and witness is not None
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_m0(args) -> int:
    g = fold(_presentation_from_args(args))
    print(compute_power_bound(g))
    return EXIT_OK


def _cmd_qm_eval(args) -> int:
    q = SplitQuasimorphism.from_json(_load_json(args.factors))
    w = parse_word(args.word, q.rank)
    print(q(w))
    return EXIT_OK


def _cmd_qm_defect(args) -> int:
    q = SplitQuasimorphism.from_json(_load_json(args.factors))
    for i, f in enumerate(q.factors, start=1):
        rep = defect_z(f)
        print(f"factor {i}: defect {rep.value} witness {rep.witness}")
    print(f"defect: {q.defect()}")
    return EXIT_OK


def _cmd_make_relative(args) -> int:
    cert = BasisCertificate.from_json(_load_json(args.cert))
    factors = _factors_from_file(args.factors, cert.rank)
    rel = make_relative_qm(cert, factors)
    _write(_dump(rel.to_json()), args.out)
    return EXIT_OK


def _cmd_check_vanishing(args) -> int:
    if args.relative:
        rel = RelativeQuasimorphism.from_json(_load_json(args.relative))
    elif args.cert and args.factors:
        cert = BasisCertificate.from_json(_load_json(args.cert))
        rel = make_relative_qm(cert, _factors_from_file(args.factors, cert.rank))
    else:
        raise ValueError("need --relative or both --cert and --factors")
    report = check_vanishing(
        rel, samples=args.samples, length=args.length, rng=random.Random(args.seed)
    )
    if report.ok:
        print(f"vanishing on {report.samples_checked} subgroup samples: PASS")
        return EXIT_OK
    w, value = report.failures[0]
    print(f"vanishing: FAIL at {w} with value {value}")
    return EXIT_VERIFY


def _cmd_random(args) -> int:
    spec = InstanceSpec(args.rank, args.count, args.max_length, args.seed)
    p = random_presentation(random.Random(args.seed), spec)
    _write(_dump(p.to_json()), args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    p = _presentation_from_args(args)
    g = fold(p)
    if args.core_only:
        c = core(g)
        if not c.vertices:
            _write(_dump({"rank": c.rank, "basepoint": None, "vertices": 0, "edges": []}), args.out)
            return EXIT_OK
        g = c.as_folded_graph()
    if args.dot:
        _write(export_dot(g), args.out)
    else:
        _write(_dump(graph_to_json(g)), args.out)
    return EXIT_OK


_COMMANDS = {
    "fold": _cmd_fold,
    "core": _cmd_core,
    "find-basis": _cmd_find_basis,
    "verify": _cmd_verify,
    "m0": _cmd_m0,
    "qm-eval": _cmd_qm_eval,
    "qm-defect": _cmd_qm_defect,
    "make-relative": _cmd_make_relative,
    "check-vanishing": _cmd_check_vanishing,
    "random": _cmd_random,
    "export": _cmd_export,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FiniteIndexError as exc:
        _emit_error("FiniteIndex", str(exc))
        return EXIT_PRECONDITION
    except UnboundedRunError as exc:
        _emit_error("UnboundedRun", str(exc))
        return EXIT_PRECONDITION
    except WordBlowupError as exc:
        _emit_error("WordBlowup", str(exc))
        return EXIT_CAP
    except WordSyntaxError as exc:
        _emit_error("ParseError", str(exc))
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit_error("Usage", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
