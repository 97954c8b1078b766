"""One workload process: load the inputs, warm up, run a closed loop.

Started by run.py with the workload's inputs as one JSON document on
stdin.  It imports corefree from the checkout's ``src``, loads the inputs
through the library's public JSON loaders and constructors, runs one
untimed warm-up operation on fixed inputs, and prints ``ready``.  Unless
it is a set-up sample, it then runs the workload's operation one at a
time, on one thread, for the requested time and prints one JSON line of
raw results.  Every operation's output is checked exactly.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

perf = time.perf_counter

# Outcomes of an operation that count as failed without being wrong.
FAILURES = ("blowup", "memory", "timeout")

# Letter count charged to an instance that fails, for cert_letters_p90
# (the library's default cap on transformed-generator letters).
LETTER_CAP = 10**6


class Tracer:
    """Spans around the benchmark's calls into the library, kept in memory:
    [name, start, end, parent span, operation id]."""

    on = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.import_s: list[float] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, perf(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf()
            self.stack.pop()

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def peak(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts[name], n)

    def durations(self, prefix: str) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, t0, t1, _, _ in self.spans:
            if name.startswith(prefix):
                out[name].append(t1 - t0)
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Busy time per span name, each span minus its children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += t1 - t0 - child[k]
        return dict(out)


class NullTracer:
    on = False
    op = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def add(self, name: str, n: int) -> None:
        pass

    peak = add


class Wrong(Exception):
    """An operation produced a wrong output."""


class OpTimeout(Exception):
    """An operation ran past its workload's deadline."""


def _alarm(signum, frame):
    raise OpTimeout()


def check(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


def letters(words) -> int:
    return sum(len(w) for w in words)


def optional(cf, tr, span: str, name: str):
    """A library name the benchmark only needs for a traced layer; when it
    no longer exists the span is reported absent."""
    fn = getattr(cf, name, None)
    if fn is None:
        tr.absent.add(span)
    return fn


def fold_core_loops(cf, p, tr):
    """Fold p, take the core and its single-label loop sets."""
    with tr.span("graphs.fold"):
        g = cf.fold(p)
    tr.add("graphs.fold_calls", 1)
    tr.add("graphs.fold_letters", letters(p.generators))
    tr.add("graphs.folded_vertices", g.num_vertices)
    with tr.span("graphs.core"):
        c = cf.core(g)
    tr.add("graphs.core_vertices", c.num_vertices)
    with tr.span("graphs.loop_sets"):
        loops = {i: c.loop_set(i) for i in range(1, p.rank + 1)}
    tr.add("graphs.loop_vertices", len(set().union(*loops.values())))
    return g, c, loops


def replay(cf, p, cert, tr):
    """Replay a certificate's moves through public calls (traced runs
    only): fold, core, loop sets, k, the move itself.  It must reproduce
    the transformed generators and the basis words."""
    apply_move = optional(cf, tr, "basis.apply_move", "apply_move")
    compute_k = optional(cf, tr, "basis.compute_k", "compute_k")
    if apply_move is None or compute_k is None:
        return
    gens = list(p.generators)
    for move in cert.automorphism.moves:
        _, c, _ = fold_core_loops(cf, cf.SubgroupPresentation(p.rank, tuple(gens)), tr)
        with tr.span("basis.compute_k"):
            k = compute_k(c, move.index)
        check(move.power == -k, f"move {move} but compute_k gives {k}")
        with tr.span("basis.apply_move"):
            gens = [apply_move(w, move) for w in gens]
        tr.add("basis.apply_move_letters_out", letters(gens))
    check(tuple(gens) == cert.transformed_generators, "move replay differs from the certificate")
    with tr.span("basis.inverse_apply"):
        inv = cert.automorphism.inverse()
        basis = tuple(inv.apply(cf.Word.generator(p.rank, i)) for i in range(1, p.rank + 1))
    check(basis == cert.basis, "basis words differ from psi^-1(x_i)")


# --- workloads ------------------------------------------------------------


class Workload:
    # True where an operation yields a certificate, whose sizes are
    # recorded; a failed one is charged LETTER_CAP letters and m0 = inf.
    sized = False
    # An operation still running after this many seconds is abandoned and
    # counted as failed, so one runaway blow-up cannot take over a run.
    deadline_s = 10.0

    def __init__(self, cf):
        self.cf = cf
        self.letters_in = 0  # letters of the input words loaded

    def traced_extra(self, item, result, tr) -> None:
        """Work done only in traced runs, outside the operation's time."""

    def close(self) -> None:
        pass


class Certify(Workload):
    """The ``corefree verify`` pipeline in-process: find the basis, verify
    it, build a relative quasimorphism on multiples of m0, evaluate it on
    subgroup elements and produce a witness outside the subgroup."""

    samples = 100  # sample_count passed to verify_certificate
    sized = True

    def load(self, data):
        cf = self.cf
        out = []
        for d in data:
            p = cf.SubgroupPresentation.from_json(d["p"])
            elements = [cf.word_from_json(p.rank, w) for w in d["elements"]]
            self.letters_in += letters(p.generators) + letters(elements)
            out.append({
                "p": p,
                "elements": elements,
                "factors": [cf.AlternatingFunction.from_json(f) for f in d["factors"]],
                "seed": d["seed"],
            })
        return out

    def op(self, inst, tr):
        cf = self.cf
        p = inst["p"]
        try:
            with tr.span("basis.find"):
                cert = cf.find_power_free_basis(p)
        except cf.FiniteIndexError as exc:
            with tr.span("graphs.fold"):
                g = cf.fold(p)
            index = g.index()
            check(index is not None and exc.index == index,
                  f"finite-index rejection carries {exc.index}, fold gives {index}")
            return None, None
        tr.add("basis.iterations", len(cert.trace))
        tr.peak("basis.move_k_max", max((step.power for step in cert.trace), default=0))
        with tr.span("basis.verify"):
            report = cf.verify_certificate(p, cert, sample_count=self.samples,
                                           rng=random.Random(inst["seed"]))
        tr.add("basis.verify_checks", report.conjugates_checked)
        tr.add("basis.verify_samples", report.samples_checked)
        check(report.all_ok, "verify_certificate rejected the certificate: "
              + "; ".join(report.summary_lines()))
        m0 = cert.power_bound
        rel = cf.make_relative_qm(cert, [cf.embed_support(f, m0) for f in inst["factors"]])
        with tr.span("qm.relative_eval"):
            values = [rel(h) for h in inst["elements"]]
        tr.add("qm.relative_evals", len(values))
        check(all(v == 0 for v in values), "relative quasimorphism is nonzero on H")
        with tr.span("qm.witness"):
            found = cf.nontriviality_witness(rel)
        check(found is not None and found[1] != 0, "no nontriviality witness")
        with tr.span("graphs.fold"):
            g = cf.fold(p)
        with tr.span("graphs.membership"):
            inside = g.membership(found[0])
        check(not inside, "nontriviality witness lies in H")
        return {
            "in_letters": letters(p.generators),
            "transformed_letters": letters(cert.transformed_generators),
            "basis_letters": letters(cert.basis),
            "cert_letters": letters(cert.transformed_generators) + letters(cert.basis),
            "folded_vertices": g.num_vertices,
            "iterations": len(cert.trace),
            "m0": m0,
        }, cert

    def traced_extra(self, inst, cert, tr):
        if cert is not None:
            replay(self.cf, inst["p"], cert, tr)


class CertifyCorpus(Certify):
    """Certify on the whole acceptance-corpus distribution.  Probes saw
    operations without a word blow-up take up to 1.9 s, and blow-ups run
    from 0.7 s to 182 s."""

    deadline_s = 2.0


class BasisScale(Workload):
    """find_power_free_basis on punctured Schreier graphs, then exact cheap
    checks of the certificate: the transformed generators fold to a graph
    with no single-label cycle, and m0 is that graph's power bound."""

    sized = True

    def load(self, data):
        out = []
        for d in data:
            p = self.cf.SubgroupPresentation.from_json(d["p"])
            self.letters_in += letters(p.generators)
            out.append(p)
        return out

    def op(self, p, tr):
        cf = self.cf
        with tr.span("basis.find"):
            cert = cf.find_power_free_basis(p)
        tr.add("basis.iterations", len(cert.trace))
        tr.peak("basis.move_k_max", max((step.power for step in cert.trace), default=0))
        final = cf.SubgroupPresentation(p.rank, cert.transformed_generators)
        g, c, loops = fold_core_loops(cf, final, tr)
        check(not any(loops.values()), "transformed generators still have a single-label cycle")
        with tr.span("basis.power_bound"):
            m0 = cf.compute_power_bound(g)
        check(m0 == cert.power_bound, f"m0 {cert.power_bound} != power bound {m0}")
        return {
            "in_letters": letters(p.generators),
            "transformed_letters": letters(cert.transformed_generators),
            "basis_letters": letters(cert.basis),
            "cert_letters": letters(cert.transformed_generators) + letters(cert.basis),
            "folded_vertices": g.num_vertices,
            "core_vertices": c.num_vertices,
            "iterations": len(cert.trace),
            "m0": m0,
        }, cert

    def traced_extra(self, p, cert, tr):
        replay(self.cf, p, cert, tr)


class QmDefect(Workload):
    """Exact defect of a split quasimorphism, its witness pair, and the
    isometry of pushing each factor onto 2Z, 3Z and 5Z.  Each instance
    gives four operations: the split defect with its witness, and one
    embedding factor each, so that an operation takes milliseconds and
    a run repeats each one many times."""

    def load(self, data):
        cf = self.cf
        return [
            (cf.SplitQuasimorphism(d["rank"], [cf.AlternatingFunction.from_json(f) for f in d["factors"]]),
             part)
            for d in data
            for part in ("split", 2, 3, 5)
        ]

    def defect_z(self, f, tr):
        with tr.span("qm.defect_z"):
            d = self.cf.defect_z(f).value
        tr.add("qm.defect_z_calls", 1)
        tr.add("qm.support_points", len(f.support))
        tr.add("qm.window_sum", 2 * f.support_bound + 2)
        return d

    def op(self, item, tr):
        cf = self.cf
        q, part = item
        if part == "split":
            with tr.span("qm.split_defect"):
                defect = q.defect()
            with tr.span("qm.defect_witness"):
                a, b = q.defect_witness()
            check(abs(cf.coboundary1(q, a, b)) == defect, "defect witness does not attain the defect")
            values = [self.defect_z(f, tr) for f in q.factors]
            check(defect == max(values), "split defect is not the largest factor defect")
            return None, None
        for f in q.factors:
            d = self.defect_z(f, tr)
            de = self.defect_z(cf.embed_support(f, part), tr)
            check(de == d, f"embedding by {part} changed the defect {d} -> {de}")
        return None, None


CLI_COMMANDS = ("fold", "find-basis", "verify", "m0", "qm-defect", "make-relative", "export")


class Cli(Workload):
    """``python -m corefree`` subprocesses, one command per operation,
    cycling through CLI_COMMANDS on each input.  The expected output of
    each command is computed in-process at set-up."""

    def __init__(self, cf, root: Path):
        super().__init__(cf)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.dir = root / ".perfbench_run" / str(os.getpid())
        self.dir.mkdir(parents=True, exist_ok=True)
        self.n = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            self.dir.parent.rmdir()

    def _write(self, name: str, data) -> str:
        path = self.dir / name
        path.write_text(json.dumps(data))
        return str(path)

    def load(self, data):
        cf = self.cf
        out = []
        for d in data:
            k = self.n
            self.n += 1
            p = cf.SubgroupPresentation.from_json(d["p"])
            self.letters_in += letters(p.generators)
            q = cf.SplitQuasimorphism(2, [cf.AlternatingFunction.from_json(f) for f in d["qm"]])
            cert = cf.find_power_free_basis(p)
            factors = [cf.embed_support(cf.AlternatingFunction.from_json(f), cert.power_bound)
                       for f in d["factors"]]
            g = cf.fold(p)
            c = cf.core(g)
            h = self._write(f"H{k}.json", d["p"])
            cert_file = self._write(f"cert{k}.json", cert.to_json())
            gens = ", ".join(cf.format_word(w) for w in p.generators)
            out.append({
                "fold": (["fold", "--rank", "2", "--gens", gens],
                         {"vertices": g.num_vertices, "edges": g.num_edges()}),
                "find-basis": (["find-basis", "--in", h], cert.to_json()),
                "verify": (["verify", "--cert", cert_file], None),
                "m0": (["m0", "--in", self._write(
                    f"T{k}.json", cf.SubgroupPresentation(2, cert.transformed_generators).to_json())],
                    cert.power_bound),
                "qm-defect": (["qm-defect", "--factors", self._write(f"qm{k}.json", q.to_json())],
                              q.defect()),
                "make-relative": (["make-relative", "--cert", cert_file, "--factors",
                                   self._write(f"f{k}.json", {"factors": [f.to_json() for f in factors]})],
                                  cf.make_relative_qm(cert, factors).to_json()),
                "export": (["export", "--in", h, "--core"],
                           {"vertices": c.num_vertices, "edges": c.num_edges()}),
            })
        return [(inst, cmd) for inst in out for cmd in CLI_COMMANDS]

    def op(self, item, tr):
        inst, cmd = item
        args, expected = inst[cmd]
        with tr.span(f"cli.{cmd}"):
            proc = subprocess.run([sys.executable, "-m", "corefree", *args], env=self.env,
                                  capture_output=True, text=True)
        check(proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr.strip()}")
        try:
            got = self._parse(cmd, proc.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            raise Wrong(f"{cmd} output does not parse ({exc}): {proc.stdout[:200]!r}")
        check(got == expected, f"{cmd} printed {got!r}, expected {expected!r}")
        return None, None

    @staticmethod
    def _parse(cmd: str, out: str):
        if cmd == "fold":
            fields = dict(line.split(": ") for line in out.splitlines())
            return {"vertices": int(fields["vertices"]), "edges": int(fields["edges"])}
        if cmd in ("find-basis", "make-relative"):
            return json.loads(out)
        if cmd == "verify":
            lines = out.splitlines()
            check(len(lines) == 5 and all(line.endswith("PASS") for line in lines),
                  f"verify output: {out!r}")
            return None
        if cmd == "m0":
            return int(out)
        if cmd == "qm-defect":
            return Fraction(out.splitlines()[-1].removeprefix("defect: "))
        data = json.loads(out)  # export --core
        return {"vertices": data["vertices"], "edges": len(data["edges"])}

    def traced_extra(self, item, _, tr):
        """Time ``import corefree`` in a fresh interpreter once per round
        of commands (traced runs only)."""
        if item[1] != CLI_COMMANDS[-1]:
            return
        proc = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import corefree; print(time.perf_counter() - t)"],
            env=self.env, capture_output=True, text=True, timeout=self.deadline_s)
        check(proc.returncode == 0, f"import corefree failed: {proc.stderr.strip()}")
        tr.import_s.append(float(proc.stdout))


# --- the closed loop ------------------------------------------------------


def attempt(work, item, tr, blowup):
    """One operation under the workload's deadline: (kind, sizes, payload,
    message), kind being ok, wrong, blowup, memory or timeout."""
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, work.deadline_s)
            with tr.span("bench.op"):
                sizes, payload = work.op(item, tr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return "ok", sizes, payload, None
    except Wrong as exc:
        return "wrong", None, None, str(exc)[:300]
    except blowup:
        return "blowup", None, None, None
    except MemoryError:
        return "memory", None, None, None
    except OpTimeout:
        return "timeout", None, None, None


def reference() -> int:
    """A fixed piece of plain Python (integer arithmetic, tuples, a dict),
    timed after every operation.  It calls no library code, so its time
    tracks only how fast the host runs Python at that moment."""
    x = 0
    for i in range(30000):
        x += i * i % 7
    d = {}
    for i in range(3000):
        d[i, i] = i
    return x + len(d)


def run_phase(work, items, seconds: float, tr, blowup) -> dict:
    """Run operations back to back on items, in rounds over the whole
    list, for ``seconds`` of operation time, each followed by one timed
    reference().  Work done only for the trace, and the reference, is not
    counted in the phase's time.  Latencies and reference times are kept
    in order; the operation at position j ran on item j % len(items)."""
    latencies, kinds, wrong, ref = [], Counter(), [], []
    sizes: dict[str, list] = defaultdict(list)
    extra = 0.0
    start = perf()
    n = 0
    while perf() - start - extra < seconds:
        item = items[n % len(items)]
        tr.op = n
        t0 = perf()
        kind, result, payload, message = attempt(work, item, tr, blowup)
        latencies.append(perf() - t0)
        n += 1
        t1 = perf()
        reference()
        ref.append(perf() - t1)
        extra += ref[-1]
        kinds[kind] += 1
        if message:
            wrong.append(message)
        if result is not None:
            for key, value in result.items():
                sizes[key].append(value)
        elif work.sized and kind in FAILURES:
            sizes["cert_letters"].append(LETTER_CAP)
            sizes["m0"].append(None)  # +inf
        if tr.on and kind == "ok":
            t1 = perf()
            try:
                work.traced_extra(item, payload, tr)
            except Wrong as exc:
                kinds["wrong"] += 1
                wrong.append(str(exc)[:300])
            except (blowup, MemoryError):
                pass  # the operation itself got through; only the trace is short
            extra += perf() - t1
    return {
        "elapsed": perf() - start - extra,
        "latencies": latencies,
        "items": len(items),
        "reference": ref,
        "kinds": dict(kinds),
        "wrong": wrong[:5],
        "sizes": dict(sizes),
    }


def main() -> int:
    config = json.load(sys.stdin)
    root = Path(config["root"])
    limit = config["mem_limit_mib"] * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, str(root / "src"))
    import corefree as cf

    signal.signal(signal.SIGALRM, _alarm)

    if not Path(cf.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"corefree imported from {cf.__file__}, not from the checkout", file=sys.stderr)
        return 2
    kinds = {"certify": Certify, "certify-corpus": CertifyCorpus, "basis-scale": BasisScale, "qm-defect": QmDefect}
    workload = config["workload"]
    work = kinds[workload](cf) if workload in kinds else Cli(cf, root)
    try:
        t0 = perf()
        items = work.load(config["instances"])
        load_s = perf() - t0
        letters_in = work.letters_in
        kind, _, _, message = attempt(work, work.load(config["warmup"])[0], NullTracer(),
                                      cf.WordBlowupError)
        if kind == "wrong":
            print(f"wrong output in the warm-up operation: {message}", file=sys.stderr)
            return 1
        print("ready", flush=True)
        if config["setup_only"]:
            return 0
        seconds = config["seconds"]
        if config["trace"]:
            # the same instances for the same time, untraced then traced
            out = {"untraced": run_phase(work, items, seconds / 2, NullTracer(), cf.WordBlowupError)}
            tr = Tracer()
            out["traced"] = run_phase(work, items, seconds / 2, tr, cf.WordBlowupError)
            out["self_times"] = tr.self_times()
            out["counts"] = dict(tr.counts)
            out["absent"] = sorted(tr.absent)
            out["import_s"] = tr.import_s
            out["cli_s"] = tr.durations("cli.")
        else:
            out = {"untraced": run_phase(work, items, seconds, NullTracer(), cf.WordBlowupError)}
        out["load_s"] = load_s
        out["letters_in"] = letters_in
        usage = resource.RUSAGE_CHILDREN if isinstance(work, Cli) else resource.RUSAGE_SELF
        out["maxrss_kib"] = resource.getrusage(usage).ru_maxrss
        print(json.dumps(out), flush=True)
        return 0
    finally:
        work.close()


if __name__ == "__main__":
    sys.exit(main())
