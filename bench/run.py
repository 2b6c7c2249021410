"""revsym benchmark: four seeded workloads, end-to-end metrics with an
independent output oracle, and a traced run for per-layer metrics.

Run from the repository root (stdlib only, single process, one client):

    python3 bench/run.py --workload analyze-2x2 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see README.md).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Each run also appends a stamped
record to .bench_out/results.jsonl; bench/summarize.py turns those records
into medians and quartiles.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter, process_time

import oracle
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120

# name -> (unit, better)
E2E = {
    "setup_s": ("s", "lower"),
    "ops_per_kref": ("ops/kref", "higher"),
    "op_p50_ref": ("ref", "lower"),
    "op_tail_ref": ("ref", "lower"),
    "ok_frac": ("ratio", "higher"),
    "decided_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_CALLS = ("exactmath.mat_det", "exactmath.mat_mul",
          "exactmath.mat_inverse_unimodular", "exactmath.finite_order_test",
          "matgroup.intertwiner_lattice", "matgroup.symmetry_generator_2x2",
          "absgroup.multiply", "polyauto.MultiPoly.substitute",
          "polyauto.compose", "elliptic.add", "numth.square_roots_of_unity")
_SELF = ("exactmath.mat_det", "exactmath.mat_mul",
         "exactmath.mat_inverse_unimodular", "exactmath.finite_order_test",
         "exactmath.char_poly", "matgroup.intertwiner_lattice",
         "matgroup.symmetry_generator_2x2", "matgroup.search_reversors",
         "matgroup.analyze", "absgroup.multiply",
         "polyauto.MultiPoly.substitute", "elliptic.add",
         "numth.square_roots_of_unity")
_TOTAL = ("absgroup.verify_theorem_claims",) + tuple(
    f"verify.criterion_{k}" for k in range(1, 10))

# name -> (unit, better); counts and times are per op
PER_LAYER = {
    **{f"{n}.calls": ("calls/op", "lower") for n in _CALLS},
    **{f"{n}.self_ms": ("ms/op", "lower") for n in _SELF},
    **{f"{n}.ms": ("ms/op", "lower") for n in _TOTAL},
    "matgroup.lattice_rank.max": ("count", "lower"),
    "matgroup.lattice_entry.max": ("abs", "lower"),
    "matgroup.candidates": ("calls/op", "lower"),
    "matgroup.unimodular_hits": ("calls/op", "higher"),
    "matgroup.candidates_per_reversor": ("ratio", "lower"),
    "numth.import_ms": ("ms", "lower"),
    "cli.startup_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "cli.json_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def require_source():
    """Put the checkout's src/ first on the path; refuse to run without it,
    so no other installed copy of revsym is ever measured."""
    if not (SRC / "revsym" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'revsym'} not found; run from a checkout "
                 f"of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Outcome:
    seconds: float                  # CPU time of the op
    failure: str | None = None
    known: bool = False             # failure is a recorded known defect
    decided: float | None = None    # share answered exactly (matrix ops)
    extra: dict = field(default_factory=dict)
    start: float = 0.0              # perf_counter() around the op
    end: float = 0.0


# ---------------------------------------------------------------------------
# Inputs and warm-up


def build_items(workload, seed, tiny=False):
    """The op list of one pass; matrices are converted to revsym objects
    here, before any timing."""
    from revsym import GroupContext, IntMatrix

    if workload in ("analyze-2x2", "analyze-nxn"):
        build = (workloads.analyze_2x2 if workload == "analyze-2x2"
                 else workloads.analyze_nxn)
        return [(inp, IntMatrix(inp.rows),
                 GroupContext(inp.n, projective=inp.projective))
                for inp in build(seed, tiny)]
    if workload == "scoreboard":
        return [None]
    return workloads.cli_cold(seed, tiny)


WARM_DIMENSIONS = {"analyze-2x2": (2,), "analyze-nxn": (3, 4, 6),
                   "scoreboard": (2, 4), "cli-cold": ()}


def warm_up(workload):
    """Fill revsym's cyclotomic-polynomial cache with every order the
    finite-order test can ask for in the workload's dimensions."""
    from revsym import cyclotomic

    for n in WARM_DIMENSIONS[workload]:
        for m in range(1, 2 * n * n + 2):
            if sum(gcd(k, m) == 1 for k in range(1, m + 1)) <= n:  # phi(m)
                cyclotomic(m)


# ---------------------------------------------------------------------------
# One op per call, checked by the oracle outside the timed region


def _span(cpu, wall):
    """Outcome fields of an in-process op begun at (process_time(),
    perf_counter()) = (cpu, wall)."""
    return {"seconds": process_time() - cpu, "start": wall,
            "end": perf_counter()}


def run_analyze(item):
    from revsym import analyze

    inp, m, ctx = item
    cpu, wall = process_time(), perf_counter()
    try:
        report = analyze(m, ctx)
    except Exception as exc:
        span = _span(cpu, wall)
        kind = type(exc).__name__
        return [Outcome(failure=f"{inp.label}: {kind}: {exc}",
                        known=(inp.key, kind) in oracle.KNOWN_DEFECTS,
                        decided=0.0, **span)]
    span = _span(cpu, wall)
    reversors = [(r.rows, order) for r, order in report.reversors]
    failure = oracle.check_analysis(inp, report.status,
                                    report.classification_case, reversors)
    decided = failure is None and report.status in oracle.DECIDED
    return [Outcome(failure=failure and f"{inp.label}: {failure}",
                    decided=float(decided), **span)]


def run_scoreboard(_item):
    from revsym import verify

    cpu, wall = process_time(), perf_counter()
    try:
        results = verify.run_all()
    except Exception as exc:
        return [Outcome(failure=f"run_all: {exc!r}", decided=0.0,
                        **_span(cpu, wall))]
    span = _span(cpu, wall)
    failure = None
    if sorted(r.number for r in results) != list(range(1, 10)):
        failure = f"criteria {[r.number for r in results]}, expected 1..9"
    failed = [r.number for r in results if not r.passed]
    if failed and not failure:
        failure = f"criteria {failed} failed"
    return [Outcome(failure=failure,
                    decided=sum(r.passed for r in results) / 9, **span)]


def _cli_failure(cmd, proc):
    """Reason a CLI answer is wrong, or None; second value: decided."""
    if proc.returncode != 0:
        return f"exit code {proc.returncode}, expected 0", 0.0
    try:
        envelope = json.loads(proc.stdout)
        result = envelope["result"]
    except (ValueError, KeyError) as exc:
        return f"unreadable JSON: {exc}", 0.0
    if envelope.get("command") != cmd.kind:
        return f"command {envelope.get('command')!r}", 0.0
    if cmd.kind == "analyze":
        reversors = [
            (tuple(tuple(int(v) for v in row) for row in r["matrix"]),
             None if r["order"] == "infinite" else int(r["order"]))
            for r in result["reversors"]]
        failure = oracle.check_analysis(cmd.matrix, result["status"],
                                        result["classification"], reversors)
        return failure, float(failure is None
                              and result["status"] in oracle.DECIDED)
    if cmd.kind == "modroots":
        (n,) = cmd.spec
        roots = [int(v) for v in result["roots"]]
        expected = oracle.square_roots_of_unity(n)
        if roots != expected or int(result["count"]) != len(expected) \
                or result["match"] is not True:
            return f"modroots {n}: {roots} != {expected}", None
        return None, None
    check = {"absgroup": oracle.check_absgroup,
             "polyauto": oracle.check_polyauto,
             "elliptic": oracle.check_elliptic}[cmd.kind]
    return check(cmd.spec, result), None


def _elapsed_ms(stderr):
    for line in stderr.splitlines():
        if line.startswith("elapsed_ms="):
            return float(line.split("=", 1)[1])
    return None


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def make_run_cli(traced):
    """Executor for cli-cold: each command runs twice in fresh processes;
    the repeat must print byte-identical JSON."""
    env = child_env()
    prefix = ([sys.executable, str(ROOT / "bench" / "tracing.py")] if traced
              else [sys.executable, "-m", "revsym.cli"])

    def run_cli(cmd):
        outcomes, first = [], None
        for _ in range(2):
            cpu, start = children_cpu_s(), perf_counter()
            try:
                proc = subprocess.run(prefix + list(cmd.argv), cwd=ROOT,
                                      env=env, capture_output=True,
                                      text=True, timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                outcomes.append(Outcome(children_cpu_s() - cpu,
                                        f"{cmd.argv}: timeout", decided=0.0
                                        if cmd.kind == "analyze" else None,
                                        start=start, end=perf_counter()))
                continue
            seconds = children_cpu_s() - cpu
            end = perf_counter()
            wall = end - start
            failure, decided = _cli_failure(cmd, proc)
            if first is not None and proc.stdout != first:
                failure = failure or "JSON differs from the first run"
            first = proc.stdout if first is None else first
            main_ms = _elapsed_ms(proc.stderr)
            extra = {"json_bytes": len(proc.stdout.encode())}
            if main_ms is not None:
                extra.update(main_ms=main_ms, startup_ms=wall * 1000 - main_ms)
            if traced and proc.stderr.rstrip().splitlines():
                last = proc.stderr.rstrip().splitlines()[-1]
                if last.startswith("bench-trace "):
                    extra["trace"] = json.loads(last[len("bench-trace "):])
            outcomes.append(Outcome(seconds, failure and f"{cmd.argv}: "
                                    f"{failure}", decided=decided,
                                    extra=extra, start=start, end=end))
        return outcomes
    return run_cli


def executor(workload, traced=False):
    if workload == "scoreboard":
        return run_scoreboard
    if workload == "cli-cold":
        return make_run_cli(traced)
    return run_analyze


# ---------------------------------------------------------------------------
# Reference unit.  The host's speed moves by a third within seconds (see
# README.md), so each op's CPU time is divided by the mean time of a fixed
# pure-Python loop, sampled on a wall-clock timer while that op runs.

REF_MATRIX = ((3, -1, 2), (0, 5, -4), (7, 1, -2))
REF_ROUNDS = 30             # one unit: about 0.5 ms on a 2-vCPU Xeon VM
SAMPLE_EVERY_S = 0.02       # so the samples take about 2.5% of the time
MIN_SAMPLES = 8             # a shorter op uses the nearest samples in time


def reference_unit():
    """Integer 3x3 products and Fraction sums, the kind of work revsym's
    inner loops do; revsym itself is not called."""
    cols = tuple(zip(*REF_MATRIX))
    acc = Fraction(0)
    for k in range(REF_ROUNDS):
        b = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                  for row in REF_MATRIX)
        acc += Fraction(b[0][0] + k, b[1][1] + 97)
    return acc


class Sampler:
    """Times reference_unit() on SIGALRM every SAMPLE_EVERY_S seconds, in
    the main thread, inside whatever it is doing: an in-process op, or the
    wait for a CLI child.  The timer is per process; children neither
    inherit it nor get the signal."""

    def __init__(self):
        self.ends = []          # perf_counter() at the end of each sample
        self.cpu = []           # CPU seconds of each sample

    def _tick(self, _signum, _frame):
        start = process_time()
        reference_unit()
        self.cpu.append(process_time() - start)
        self.ends.append(perf_counter())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.cpu:        # a run shorter than one period
            self._tick(None, None)

    def within(self, start, end):
        """Indices [lo, hi) of the samples that ended in [start, end]."""
        return (bisect.bisect_left(self.ends, start),
                bisect.bisect_right(self.ends, end))

    def cpu_within(self, start, end):
        lo, hi = self.within(start, end)
        return sum(self.cpu[lo:hi])

    def unit_s(self, start, end):
        """Mean unit time over the samples taken during [start, end],
        widened to the MIN_SAMPLES nearest in time for a short op."""
        lo, hi = self.within(start, end)
        while hi - lo < min(MIN_SAMPLES, len(self.ends)):
            before = start - self.ends[lo - 1] if lo > 0 else None
            after = self.ends[hi] - end if hi < len(self.ends) else None
            if after is None or (before is not None and before < after):
                lo -= 1
            else:
                hi += 1
        return sum(self.cpu[lo:hi]) / (hi - lo)


def run_passes(items, execute, seconds, passes=None, on_op=None):
    """Closed loop, one client: whole passes over the op list, stopping at
    the pass boundary nearest to `seconds` (or after `passes` passes)."""
    outcomes, pass_times = [], []
    begin = perf_counter()
    while True:
        start = perf_counter()
        for item in items:
            if on_op:
                on_op(len(outcomes))
            outcomes.extend(execute(item))
        pass_times.append(perf_counter() - start)
        if passes is not None:
            if len(pass_times) >= passes:
                break
        elif seconds - (perf_counter() - begin) < statistics.mean(
                pass_times) / 2:
            break
    return outcomes, len(pass_times)


# ---------------------------------------------------------------------------
# Set-up time: fresh interpreters, one at a time


def setup_probe(workload, seed):
    require_source()
    build_items(workload, seed)
    warm_up(workload)
    print(f"ready {process_time()!r}", flush=True)


def measure_setup(workload, seed, importtime=False):
    """CPU seconds from process start to ready-to-time, for SETUP_PROBES
    fresh processes; with importtime, also revsym.numth's cumulative import
    ms."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(Path(__file__).resolve()), "--setup-probe", "--workload",
        workload, "--seed", str(seed)]
    samples, numth_ms = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        word, _, value = proc.stdout.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr}")
        samples.append(float(value))
        for row in proc.stderr.splitlines():
            parts = row.split("|")
            if len(parts) == 3 and parts[2].strip() == "revsym.numth":
                numth_ms.append(int(parts[1]) / 1000)
    return samples, numth_ms


# ---------------------------------------------------------------------------
# Metrics


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it, as (value, percentile).  Below 21 samples that percentile would be
    the median or lower, so the maximum (p100) stands in for the tail."""
    lat = sorted(latencies)
    n = len(lat)
    if n < 21:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(workload):
    who = (resource.RUSAGE_CHILDREN if workload == "cli-cold"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024


def in_units(outcomes, sampler, in_process):
    """Each op's CPU time in reference units.  In-process ops lose the CPU
    time of the samples taken inside them; a CLI op's time is its child's,
    which never includes a sample."""
    lat = []
    for o in outcomes:
        cpu = o.seconds
        if in_process:
            cpu -= sampler.cpu_within(o.start, o.end)
        lat.append(cpu / sampler.unit_s(o.start, o.end))
    return lat


def end_to_end(lat, outcomes, setup_samples, rss_mb):
    """The e2e metrics, from op times `lat` in reference units."""
    tail_ref, _ = tail(lat)
    shares = [o.decided for o in outcomes if o.decided is not None]
    failed = sum(o.failure is not None for o in outcomes)
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_kref": 1000 * len(lat) / sum(lat),
        "op_p50_ref": statistics.median(lat),
        "op_tail_ref": tail_ref,
        "ok_frac": (len(outcomes) - failed) / len(outcomes),
        "decided_frac": sum(shares) / len(shares),
        "peak_rss_mb": rss_mb,
    }


def per_layer(summary, n_ops, outcomes, numth_ms, overhead):
    calls, self_s, total_s = (summary["calls"], summary["self_s"],
                              summary["total_s"])
    counters, maxima = summary["counters"], summary["maxima"]

    def cli_median(key):
        values = [o.extra[key] for o in outcomes if key in o.extra]
        return statistics.median(values) if values else 0

    candidates = counters.get("candidates", 0)
    metrics = {
        **{f"{n}.calls": calls.get(n, 0) / n_ops for n in _CALLS},
        **{f"{n}.self_ms": self_s.get(n, 0) * 1000 / n_ops for n in _SELF},
        **{f"{n}.ms": total_s.get(n, 0) * 1000 / n_ops for n in _TOTAL},
        "matgroup.lattice_rank.max": maxima.get("lattice_rank", 0),
        "matgroup.lattice_entry.max": maxima.get("lattice_entry", 0),
        "matgroup.candidates": candidates / n_ops,
        "matgroup.unimodular_hits":
            counters.get("unimodular_hits", 0) / n_ops,
        "matgroup.candidates_per_reversor":
            candidates / max(1, counters.get("reversors", 0)),
        "numth.import_ms": statistics.median(numth_ms) if numth_ms else 0,
        "cli.startup_ms": cli_median("startup_ms"),
        "cli.main_ms": cli_median("main_ms"),
        "cli.json_bytes": cli_median("json_bytes"),
        "trace.overhead_frac": overhead,
    }
    return metrics


def merge_summaries(rec_summary, outcomes):
    """Add the layer summaries that traced CLI children reported."""
    merged = json.loads(json.dumps(rec_summary))
    for o in outcomes:
        child = o.extra.get("trace")
        if not child:
            continue
        for part in ("calls", "self_s", "total_s", "counters"):
            for k, v in child[part].items():
                merged[part][k] = merged[part].get(k, 0) + v
        for k, v in child["maxima"].items():
            merged["maxima"][k] = max(merged["maxima"].get(k, 0), v)
    return merged


# ---------------------------------------------------------------------------
# Stamp and report


def git_commit():
    """HEAD of the checkout; git is not asked to look above ROOT."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp():
    return {"python": platform.python_version(), "cpu": cpu_model(),
            "nproc": os.cpu_count(), "commit": git_commit()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run(workload, seed, seconds, trace, tiny=False):
    require_source()
    items = build_items(workload, seed, tiny)
    warm_up(workload)
    n_items = len(items) * (2 if workload == "cli-cold" else 1)
    notes = []
    if not trace:
        with Sampler() as sampler:
            outcomes, passes = run_passes(items, executor(workload), seconds)
        rss = peak_rss_mb(workload)
        setup, _ = measure_setup(workload, seed)
        lat = in_units(outcomes, sampler, workload != "cli-cold")
        metrics = end_to_end(lat, outcomes, setup, rss)
        units = E2E
        lat_ms = [o.seconds * 1000 for o in outcomes]
        tail_ms, pct = tail(lat_ms)
        notes.append(f"op_tail_ref is p{pct:.2f} of {len(lat_ms)} samples, "
                     f"10 beyond it" if pct != 100.0 else
                     f"op_tail_ref is the maximum (p100) of {len(lat_ms)} "
                     f"samples: too few for ten beyond a percentile above "
                     f"the median")
        q1, q3 = quartiles(lat_ms)
        raw = {"ref_unit_ms": 1000 * statistics.mean(sampler.cpu),
               "ref_samples": len(sampler.cpu),
               "ops_per_s": 1000 * len(lat_ms) / sum(lat_ms),
               "op_p50_ms": statistics.median(lat_ms),
               "op_tail_ms": tail_ms}
        notes.append("as CPU time: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in raw.items()))
        extra = {"passes": passes, "op_q1_ms": q1, "op_q3_ms": q3,
                 "tail_percentile": pct, "setup_samples_s": setup, **raw}
    else:
        from tracing import Recorder, install

        plain, passes = run_passes(items, executor(workload), seconds / 2)
        rec = Recorder()
        restore = install(rec)

        def on_op(k):
            rec.op = k
        try:
            execute = rec.wrap("bench.op", executor(workload, traced=True))
            outcomes, _ = run_passes(items, execute, 0, passes=passes,
                                     on_op=on_op)
        finally:
            restore()
        overhead = (sum(o.seconds for o in outcomes)
                    / sum(o.seconds for o in plain) - 1)
        _, numth_ms = measure_setup(workload, seed, importtime=True)
        OUT.mkdir(exist_ok=True)
        rec.write(OUT / f"spans-{workload}")
        summary = merge_summaries(rec.summary(), outcomes)
        metrics = per_layer(summary, len(outcomes), plain, numth_ms,
                            overhead)
        units = PER_LAYER
        notes.append(f"{rec.span_count()} spans written to "
                     f"{OUT / f'spans-{workload}'}.bin")
        extra = {"passes": passes, "spans": rec.span_count()}
        outcomes = plain + outcomes

    failures = [o for o in outcomes if o.failure]
    correct = all(o.known for o in failures)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "tiny": tiny, **stamp(),
              "ops_per_pass": n_items, **extra,
              "correct": correct, "attempted": len(outcomes),
              "failed": len(failures), "metrics": metrics}
    if not tiny:
        OUT.mkdir(exist_ok=True)
        with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    print(f"workload {workload}, seed {seed}: {len(outcomes)} ops in "
          f"{extra['passes']} pass(es) of {n_items}, {len(failures)} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name][0]}")
    for note in notes:
        print(f"  note: {note}")
    seen = set()
    for o in failures:
        if o.failure not in seen:
            seen.add(o.failure)
            label = "known defect" if o.known else "FAILED"
            print(f"  {label}: {o.failure}")
    print(f"  stamp: {json.dumps(stamp())}")
    return {"correct": correct, "attempted": len(outcomes),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name][0]}
                        for name, value in metrics.items()}}


def run_all_workloads(args):
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {workload} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all_workloads(args)
    else:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
