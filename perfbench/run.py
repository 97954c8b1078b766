"""corefree benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the library is imported from ``src``):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads (closed loops: one process, one thread, one operation at a time;
``cli`` keeps one subprocess alive at a time):

  certify         find_power_free_basis, verify_certificate (default
                  bounds, 100 samples), a relative quasimorphism on
                  multiples of m0 evaluated on subgroup elements,
                  nontriviality_witness; on subgroups of F_2 and F_3
                  with 1-2 generators of length <= 8,
                  finite-index draws included (their operation is the
                  FiniteIndexError).
  certify-corpus  the same on the whole acceptance-corpus distribution,
                  where F_2 with 3-4 generators and F_3 with 4 bring word
                  blow-ups.
  basis-scale     find_power_free_basis on punctured Schreier graphs of
                  random transitive actions, with exact checks of the
                  certificate.
  qm-defect       exact defects of random split quasimorphisms, the defect
                  witness, and the isometry of support embeddings.
  cli             ``python -m corefree`` subprocesses: fold, find-basis,
                  verify, m0, qm-defect, make-relative, export --core.

BENCHMARK.json lists certify, qm-defect and cli, whose figures must agree
from seed to seed and on which no operation fails.  certify-corpus and
basis-scale are left out: their word blow-ups fail operations, and their
operations range from under a millisecond to seconds, so a 30-second run
holds too few of the expensive ones for its figures to settle.

A run goes over a fixed list of at least 100 items in rounds.  ops_per_s,
op_p50_ms and op_p90_ms are taken over each item's median latency across
rounds: operations per second of the summed medians, and quantiles of the
medians.  A pause of the host during a single attempt moves none of them.

All four times are scaled to a host of fixed speed.  The benchmark runs
on a shared host whose speed for Python code drifts by 15-30% over
minutes with the load of other tenants.  After every operation the
workload process times a fixed loop of plain Python that calls no library
code (the reference, in worker.py); each latency is multiplied by
REFERENCE_S over the median of the REFERENCE_WINDOW reference times
around it, which cancels the drift: over eight 20-second windows, summed
certify latencies moved by +-16% and their ratio to the reference by
+-4%.  Set-up times are scaled the same way, by the reference timed in
this process after each set-up.  A change to the library cannot move the
reference.  The report also prints the unscaled figures.

Every output is checked exactly.  A word blow-up (WordBlowupError, or a
MemoryError under the workload process's address-space limit) counts as a
failed operation; a wrong output also fails the run (exit code 1).  With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the run is split into an untraced and a traced half over the
same inputs, and the last line carries the per-layer metrics.  The lines
before it are a readable report with the environment and the sizes that
drive the times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
from worker import CLI_COMMANDS, LETTER_CAP, reference

WORKLOADS = ("certify", "certify-corpus", "basis-scale", "qm-defect", "cli")
# Address-space limit of each workload process.  A word blow-up fails
# fast under it; it is far above what any operation that succeeds needs.
MEM_LIMIT_MIB = 128
# Set-up is measured this many times in separate processes, half before
# and half after the measuring process, plus once in it; setup_s is the
# median, scaled by the host factor of reference() timed after each.
SETUP_SAMPLES = 12
# Each operation's latency is scaled by the host factor of this many
# reference() times around it (about half a second of a certify run).
REFERENCE_WINDOW = 11
WORKER = Path(__file__).resolve().parent / "worker.py"
# Median time of worker.reference() on an otherwise idle core of the host
# the benchmark was tuned on (2-vCPU Intel Xeon VM, Python 3.11.7).  The
# reported times are scaled to a host that runs it in this time.
REFERENCE_S = 0.0021

# per-layer metric (seconds) -> the span whose self time it sums
SPAN_METRICS = {
    "graphs.fold_s": "graphs.fold",
    "graphs.core_s": "graphs.core",
    "graphs.loop_sets_s": "graphs.loop_sets",
    "graphs.membership_s": "graphs.membership",
    "basis.find_s": "basis.find",
    "basis.apply_move_s": "basis.apply_move",
    "basis.compute_k_s": "basis.compute_k",
    "basis.power_bound_s": "basis.power_bound",
    "basis.inverse_apply_s": "basis.inverse_apply",
    "basis.verify_s": "basis.verify",
    "qm.relative_eval_s": "qm.relative_eval",
    "qm.witness_s": "qm.witness",
    "qm.defect_z_s": "qm.defect_z",
    "qm.split_defect_s": "qm.split_defect",
    "qm.defect_witness_s": "qm.defect_witness",
}
COUNT_METRICS = (
    "graphs.fold_calls", "graphs.fold_letters", "graphs.folded_vertices",
    "graphs.core_vertices", "graphs.loop_vertices", "basis.iterations",
    "basis.move_k_max", "basis.apply_move_letters_out", "basis.verify_checks",
    "basis.verify_samples", "qm.relative_evals", "qm.defect_z_calls",
    "qm.support_points", "qm.window_sum",
)


class WorkerError(RuntimeError):
    pass


def start_worker(root: Path, config: dict, timeout: float):
    """Start a workload process and wait for the end of its set-up.
    Returns the process, a watchdog that kills it after ``timeout``
    seconds, and the set-up time from process start to ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=root, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(config))
        proc.stdin.close()
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerError(f"workload process failed during set-up (exit {proc.wait()})")
    except BaseException:
        proc.kill()
        proc.wait()
        watchdog.cancel()
        raise
    return proc, watchdog, setup


def finish_worker(proc, watchdog) -> str:
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise WorkerError(f"workload process exited {code}")
    return out


def setup_sample(root: Path, config: dict, refs: list) -> float:
    proc, watchdog, setup = start_worker(root, config, 60)
    finish_worker(proc, watchdog)
    refs.append(time_reference())
    return setup


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; None entries rank as +inf."""
    ranked = sorted(values, key=lambda v: float("inf") if v is None else v)
    v = ranked[max(0, math.ceil(round(q * len(ranked), 9)) - 1)]
    return float("inf") if v is None else v


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_factor(refs) -> float:
    """REFERENCE_S over the median of reference() times: below 1 when the
    host runs Python slower than that."""
    return REFERENCE_S / statistics.median(refs)


def item_times(phase: dict, scaled: bool = True) -> list[float]:
    """Each item's median latency over the rounds of a run (a pause of the
    host during one attempt does not move it).  Unless ``scaled`` is
    false, each latency is first scaled by the host factor of the
    REFERENCE_WINDOW reference() times nearest to it, which follows the
    host's speed through the run."""
    lat, ref = phase["latencies"], phase["reference"]
    n = phase["items"]
    per_item: list[list[float]] = [[] for _ in range(n)]
    half = REFERENCE_WINDOW // 2
    for j, t in enumerate(lat):
        factor = host_factor(ref[max(0, j - half):j + half + 1]) if scaled else 1.0
        per_item[j % n].append(t * factor)
    return [statistics.median(times) for times in per_item if times]


def rate(phase: dict) -> float:
    """Operations that succeed per second, one round taking the sum of
    the items' median latencies."""
    times = item_times(phase)
    ok_share = phase["kinds"].get("ok", 0) / len(phase["latencies"])
    return ok_share * len(times) / sum(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "corefree" / "__init__.py").is_file():
        print(f"no corefree sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    config = {
        "root": str(root),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "mem_limit_mib": MEM_LIMIT_MIB,
        "instances": gen.make_instances(args.workload, args.seed, gen.CORPUS_SIZE[args.workload]),
        "warmup": gen.make_instances(args.workload, "warmup", 1),
        "setup_only": True,
    }
    timeout = 2 * args.seconds + 60  # traced runs add replays outside the timed half
    try:
        setup_refs: list[float] = []
        setups = [setup_sample(root, config, setup_refs) for _ in range(SETUP_SAMPLES // 2)]
        proc, watchdog, setup = start_worker(root, {**config, "setup_only": False}, timeout)
        setups.append(setup)
        out = json.loads(finish_worker(proc, watchdog).splitlines()[-1])
        setups += [setup_sample(root, config, setup_refs)
                   for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    phases = [out["untraced"]] + ([out["traced"]] if args.trace else [])
    untraced = out["untraced"]
    kinds = untraced["kinds"]
    attempted = len(untraced["latencies"])
    failed = sum(kinds.get(k, 0) for k in ("blowup", "memory", "timeout", "wrong"))
    wrong = sum(p["kinds"].get("wrong", 0) for p in phases)
    lat_ms = [t * 1000 for t in item_times(untraced)]
    rounds = attempted // untraced["items"]

    end_to_end = {
        "ops_per_s": (rate(untraced), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "setup_s": (statistics.median(setups) * host_factor(setup_refs), "s"),
    }
    print(f"# corefree benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# commit={commit(root)} python={platform.python_version()} nproc={os.cpu_count()} "
          f"mem_limit={MEM_LIMIT_MIB}MiB instances={len(config['instances'])} "
          f"input_seed={args.workload}:{args.seed}")
    for name, (value, unit) in end_to_end.items():
        note = f"  (n={len(lat_ms)} items, >= {rounds} rounds each)" if name.startswith("op_p") else ""
        note = f"  (median of {len(setups)})" if name == "setup_s" else note
        print(f"{name:<16} {value:12.4f} {unit}{note}")
    print(f"{'peak_rss_mib':<16} {out['maxrss_kib'] / 1024:12.4f} MiB  (not in BENCHMARK.json: "
          f"the largest instance of a run sets it)")
    raw_ms = [t * 1000 for t in item_times(untraced, scaled=False)]
    print(f"{'host_factor':<16} {host_factor(untraced['reference']):12.4f} ratio  (reference "
          f"loop {REFERENCE_S * 1000:g} ms / its median in the run; the times above are scaled "
          f"by it, over windows of {REFERENCE_WINDOW})")
    print(f"{'raw_setup_s':<16} {statistics.median(setups):12.4f} s  (not in BENCHMARK.json: "
          f"unscaled; host factor {host_factor(setup_refs):.4f})")
    print(f"{'raw_op_p50_ms':<16} {statistics.median(raw_ms):12.4f} ms  "
          f"(not in BENCHMARK.json: unscaled; raw_op_p90_ms {quantile(raw_ms, 0.9):.4f})")
    print(f"{'wall_ops_per_s':<16} {kinds.get('ok', 0) / untraced['elapsed']:12.4f} 1/s  "
          f"(not in BENCHMARK.json: unscaled, per wall-clock second, every round counted)")
    print(f"{'failed_share':<16} {failed / attempted:12.4f} ratio  ({failed}/{attempted}: "
          f"WordBlowupError {kinds.get('blowup', 0)}, MemoryError {kinds.get('memory', 0)}, "
          f"past deadline {kinds.get('timeout', 0)}, wrong {kinds.get('wrong', 0)})")
    sizes = untraced["sizes"]
    if "cert_letters" in sizes:
        print(f"{'cert_letters_p90':<16} {quantile(sizes['cert_letters'], 0.9):12.0f} letters  "
              f"(failed instances count as {LETTER_CAP}; finite-index draws have no certificate)")
        print(f"{'m0_p90':<16} {quantile(sizes['m0'], 0.9):12} count  (failed instances count as inf)")
        for key in ("in_letters", "transformed_letters", "basis_letters", "folded_vertices",
                    "core_vertices", "iterations", "m0"):
            vals = [v for v in sizes.get(key, []) if v is not None]
            if vals:
                print(f"  size {key:<20} p50 {quantile(vals, 0.5):>8} p90 {quantile(vals, 0.9):>8} "
                      f"max {max(vals):>8}")
    for p in phases:
        for message in p["wrong"]:
            print(f"WRONG OUTPUT: {message}")

    if args.trace:
        metrics = per_layer(out)
        for name, (value, unit) in metrics.items():
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {name:<30} {shown:>14} {unit}")
        metrics = {k: (0 if v is None else v, u) for k, (v, u) in metrics.items()}
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


def per_layer(out: dict) -> dict:
    """Per-layer metrics of the traced half; None marks a span whose
    library function no longer exists."""
    self_times, counts = out["self_times"], out["counts"]
    absent = set(out["absent"])
    m = {
        "words.letters_in": (out["letters_in"], "count"),
        "words.load_s": (out["load_s"], "s"),
    }
    for name, span in SPAN_METRICS.items():
        m[name] = (None if span in absent else self_times.get(span, 0.0), "s")
    for name in COUNT_METRICS:
        m[name] = (counts.get(name, 0), "count")
    m["bench.op_s"] = (sum(out["traced"]["latencies"]), "s")
    m["bench.trace_overhead"] = (rate(out["traced"]) / rate(out["untraced"]), "ratio")
    imports = out["import_s"]
    m["cli.import_ms"] = (statistics.median(imports) * 1000 if imports else 0.0, "ms")
    for cmd in CLI_COMMANDS:
        times = out["cli_s"].get(f"cli.{cmd}", [])
        m[f"cli.{cmd}_ms"] = (statistics.median(times) * 1000 if times else 0.0, "ms")
    return m


if __name__ == "__main__":
    sys.exit(main())
