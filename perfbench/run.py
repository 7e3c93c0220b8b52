"""Benchmark of periodpoly on three fixed workloads of real jobs.

    python3 perfbench/run.py --workload index-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

One run is one process with one thread and a closed loop: one caller, each
job starting when the previous one returns.  The run sets up (imports
periodpoly from ``src/`` of this checkout and generates the inputs), then
repeats passes over the workload's job list, each pass in a seeded order,
until ``--seconds`` of passes have been measured.

Times are given at a reference machine speed.  A shared 2-core VM shifts
between speed plateaus about 1.3-1.6x apart, for tens of seconds at a time,
long enough to cover a whole run, so raw medians alone do not repeat.  A fixed
~3 ms speed probe of Fraction and dict work (the program's own kind of work)
runs between consecutive jobs; each sample is scaled by PROBE_REF_S over the
mean of the probes just before and just after it (wall time by the probes'
wall time, CPU time by their CPU time).  Raw sums and the probe
median are in the context line, with a ~0.2 s calibration loop timed at the
start and at the end of the run.

End-to-end metrics (``--trace 0``):
  wall_s       sum over the jobs of the median wall time of each job: the
               time to get the exact answers of one pass over the job list
  cpu_s        the same for CPU time of the process and its children
  setup_s      median of several set-ups (fresh import + input generation),
               spread over the run; not part of wall_s
  peak_rss_mb  ru_maxrss of the process (not scaled)
The share of failed jobs (``failed`` / ``attempted`` in the result line) is
printed as failed_frac.  A job fails on a nonzero exit, an exception, or an
output that fails its oracle.

With ``--trace 1`` the passes alternate untraced and traced; the per-layer
metrics describe one traced set-up plus one pass.  Self times are raw
seconds, median over traced passes; counts are exact and must repeat in
every traced pass; ``cli.job.<command>.s`` is the scaled untraced time of
the jobs of one command, and ``trace.overhead_ratio`` the scaled traced
over untraced time of a pass.  The spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 5
# probe() seconds at the reference speed: the fast plateau of a 2-core VM
# running Python 3.11.7
PROBE_REF_S = 0.003

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
JOB_COMMANDS = ("cusps", "dims", "hecke-matrix", "chi-component", "eigenvalue",
                "petersson", "lvalue", "gamma02-relations", "gamma06-demo")
SELF_TIMES = (
    "cosets.build_coset_space", "cosets.CosetSpace.cusp_classes",
    "polyspace.w_dimensions", "polyspace.wtilde_dimension",
    "polyspace.build_coboundary_and_D", "exactalg.sparse_int_pivots",
    "exactalg.reduced_column_basis", "exactalg.kernel_basis",
    "exactalg.solve_columns", "polyspace.build_W", "polyspace.eps_split",
    "polyspace.chi_component", "polyspace.Subspace.restricted_matrix",
    "hecke.hecke_matrix", "hecke.merel_family", "hecke.verify_hecke_property",
    "analytic.manin_coefficient", "analytic.completed_lvalue",
    "analytic.petersson_product", "gamma02.extra_relations_check",
    "analytic.eta_product",
)
COUNTS = (
    "cosets.labels",
    "exactalg.sparse_int_pivots.calls", "exactalg.sparse_int_pivots.rows",
    "exactalg.sparse_int_pivots.nnz_in", "exactalg.sparse_int_pivots.nnz_out",
    "exactalg.sparse_int_pivots.max_coeff_bits",
    "exactalg.reduced_column_basis.entries",
    "hecke.resolve_sigma_coset.calls", "hecke.resolve_sigma_coset.hits",
    "polyspace.slash_poly.calls", "hecke.universal_hecke_element.support",
    "analytic.completed_lvalue.terms",
)


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(n + ".self_s", "s") for n in SELF_TIMES]
    names += [(n, "count") for n in COUNTS]
    names.append(("hecke.resolve_sigma_coset.hit_ratio", "ratio"))
    names += [("cli.job.%s.s" % c, "s") for c in JOB_COMMANDS]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


# ----------------------------------------------------------------------
# machine speed

def probe() -> tuple:
    """(wall, CPU) seconds of a fixed ~3 ms kernel of Fraction arithmetic and
    dict updates, the operations periodpoly spends its time on."""
    start, cpu0 = perf_counter(), time.process_time()
    acc, rows = Fraction(0), {}
    for i in range(1, 1200):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 13)
        rows[key] = rows.get(key, 0) + i * i % 1009
    return perf_counter() - start, time.process_time() - cpu0


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (about 0.2 s on a 2-core VM)."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return perf_counter() - start


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Timer:
    """Wall and CPU time of a stretch, with the probes on either side."""

    def __init__(self):
        self.probes = [probe()]

    def measure(self, fn):
        """Run fn(); returns (result, raw wall, raw cpu, scaled wall,
        scaled cpu).  Wall time is scaled by the probes' wall time and CPU
        time by their CPU time, so time the process spent descheduled does
        not distort the CPU figure."""
        cpu0, start = _cpu(), perf_counter()
        try:
            result = fn()
        finally:
            wall, cpu = perf_counter() - start, _cpu() - cpu0
            self.probes.append(probe())
        (wall_a, cpu_a), (wall_b, cpu_b) = self.probes[-2:]
        return (result, wall, cpu, wall * 2 * PROBE_REF_S / (wall_a + wall_b),
                cpu * 2 * PROBE_REF_S / (cpu_a + cpu_b))


# ----------------------------------------------------------------------
# set-up

def _import_program():
    """Import periodpoly from this checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import periodpoly
    import periodpoly.cli  # noqa: F401  (the entry point the jobs call)
    where = os.path.dirname(os.path.abspath(periodpoly.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError("periodpoly imported from %s, not from %s" % (where, SRC))


def set_up(workload: str, seed: int, workdir: str) -> dict:
    """One set-up: a fresh import of periodpoly plus input generation.

    Modules imported by an earlier set-up are put back afterwards, so every
    job of the run uses the first import."""
    earlier = tracing.program_modules()
    for name in earlier:
        del sys.modules[name]
    _import_program()
    inputs = workloads.generate_inputs(workload, seed, workdir)
    if earlier:
        for name in tracing.program_modules():
            del sys.modules[name]
        sys.modules.update(earlier)
    return inputs


# ----------------------------------------------------------------------
# measurement

class Run:
    """Timings, failures and traces of one run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.timer = Timer()
        self.wall = defaultdict(list)      # job id -> scaled seconds, untraced
        self.cpu = defaultdict(list)
        self.raw_wall = defaultdict(list)
        self.raw_cpu = defaultdict(list)
        self.traced_wall = defaultdict(list)
        self.setup = []                    # scaled seconds per set-up
        self.raw_setup = []
        self.attempted = 0
        self.failures: list = []
        self.tracers: list = []

    def run_setup(self, workdir: str) -> dict:
        inputs, wall, _, scaled, _ = self.timer.measure(
            lambda: set_up(self.workload, self.seed, workdir))
        self.setup.append(scaled)
        self.raw_setup.append(wall)
        return inputs

    def run_job(self, job, tracer=None):
        self.attempted += 1

        def call():
            if tracer is None:
                return job.execute()
            with tracer.job_span("cli.job." + job.command, job.id):
                return job.execute()

        reason = None
        try:
            (code, text), wall, cpu, scaled_wall, scaled_cpu = self.timer.measure(call)
        except Exception as exc:  # a job that raises counts as failed
            reason = "%s: %s" % (type(exc).__name__, exc)
        else:
            try:
                reason = job.failure(code, text)
            except (ValueError, KeyError, TypeError) as exc:
                reason = "unreadable output: %s: %s" % (type(exc).__name__, exc)
            if tracer is None:
                self.wall[job.id].append(scaled_wall)
                self.cpu[job.id].append(scaled_cpu)
                self.raw_wall[job.id].append(wall)
                self.raw_cpu[job.id].append(cpu)
            else:
                self.traced_wall[job.id].append(scaled_wall)
        if reason is not None:
            self.failures.append("%s: %s" % (job.id, reason))

    def run_pass(self, jobs, index, tracer=None):
        for job in workloads.pass_order(jobs, self.seed, index):
            self.run_job(job, tracer)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _sum_of_medians(samples: dict, ids=None) -> float:
    return sum(statistics.median(v) for k, v in samples.items() if ids is None or k in ids)


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Set up, then run passes for ``seconds``; set-ups are repeated between
    passes so that they sample the whole run."""
    context = {"workload": workload, "seed": seed, "trace": int(trace),
               "python": platform.python_version(), "nproc": os.cpu_count(),
               "loadavg_start": os.getloadavg(), "calibration_start_s": calibrate()}
    run = Run(workload, seed)
    jobs = run.run_setup(os.path.join(workdir, "setup0"))["jobs"]

    def one_more_setup():
        rep = os.path.join(workdir, "setup%d" % len(run.setup))
        run.run_setup(rep)
        shutil.rmtree(rep, ignore_errors=True)

    setup_trace = None
    if trace:
        # the inputs again, traced, so set-up layers (eta_product) show
        setup_trace = tracing.Tracer()
        with setup_trace, setup_trace.job_span("setup", "setup"):
            workloads.generate_inputs(workload, seed, os.path.join(workdir, "traced-setup"))
    measured = 0.0
    index = 0
    while index < (2 if trace else 1) or measured < seconds:
        start = perf_counter()
        if trace and index % 2 == 1:
            tr = tracing.Tracer()
            with tr:
                run.run_pass(jobs, index, tr)
            run.tracers.append(tr)
        else:
            run.run_pass(jobs, index)
        measured += perf_counter() - start
        index += 1
        if len(run.setup) < SETUP_REPS:
            one_more_setup()
    while len(run.setup) < SETUP_REPS:
        one_more_setup()

    context.update({
        "passes": index, "measured_s": measured, "jobs": len(jobs),
        "wall_raw_s": _sum_of_medians(run.raw_wall),
        "cpu_raw_s": _sum_of_medians(run.raw_cpu),
        "setup_raw_s": statistics.median(run.raw_setup),
        "probe_ref_s": PROBE_REF_S,
        "probe_median_s": statistics.median(w for w, _ in run.timer.probes),
        "loadavg_end": os.getloadavg(), "calibration_end_s": calibrate()})
    if workload == "eigen-sweep":
        context["eigen_primes"] = workloads.eigen_primes(seed)
    return {"run": run, "context": context, "setup_trace": setup_trace}


def end_to_end(res: dict) -> dict:
    run = res["run"]
    values = {
        "wall_s": _sum_of_medians(run.wall),
        "cpu_s": _sum_of_medians(run.cpu),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _merge_counts(a: Counter, b: Counter) -> Counter:
    out = Counter(a)
    for key, value in b.items():
        out[key] = max(out[key], value) if key in tracing.MAXIMA else out[key] + value
    return out


def per_layer(res: dict) -> tuple:
    """(metrics, reason the counts are not repeatable or None)."""
    run, setup_trace = res["run"], res["setup_trace"]
    tracers = run.tracers
    first = tracers[0].counts
    unstable = None
    if any(t.counts != first for t in tracers[1:]):
        unstable = "per-layer counts differ between traced passes"
    counts = _merge_counts(setup_trace.counts, first)
    setup_self = setup_trace.self_times()
    pass_self = [t.self_times() for t in tracers]
    values = {}
    for name in SELF_TIMES:
        values[name + ".self_s"] = setup_self[name] + statistics.median(
            s[name] for s in pass_self)
    for name in COUNTS:
        values[name] = counts[name]
    calls = counts["hecke.resolve_sigma_coset.calls"]
    values["hecke.resolve_sigma_coset.hit_ratio"] = (
        counts["hecke.resolve_sigma_coset.hits"] / calls if calls else 0.0)
    by_command = defaultdict(set)
    for tr in tracers:
        for name, _, _, parent, job in tr.spans:
            if parent < 0:
                by_command[name[len("cli.job."):]].add(job)
    for command in JOB_COMMANDS:
        ids = by_command.get(command, set())
        values["cli.job.%s.s" % command] = _sum_of_medians(run.wall, ids) if ids else 0.0
    values["trace.overhead_ratio"] = (_sum_of_medians(run.traced_wall)
                                      / _sum_of_medians(run.wall))
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in per_layer_names()}, unstable)


def write_spans(res: dict, path: str):
    with open(path, "w") as fh:
        traces = [("setup", res["setup_trace"])] + [
            (i, t) for i, t in enumerate(res["run"].tracers)]
        for pass_index, tr in traces:
            for name, start, end, parent, job in tr.spans:
                fh.write(json.dumps({"pass": pass_index, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")


# ----------------------------------------------------------------------
# entry points

def run_workload(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        try:
            res = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        except ImportError as exc:
            sys.stderr.write("cannot import periodpoly from %s: %s\n" % (SRC, exc))
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run = res["run"]
    reasons = list(run.failures)
    if args.trace:
        metrics, unstable = per_layer(res)
        if unstable:
            reasons.append(unstable)
        write_spans(res, os.path.join(WORK, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
    else:
        metrics = end_to_end(res)
    for reason in reasons[:10]:
        sys.stderr.write("FAILED %s\n" % reason)
    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-48s %14.6g" % ("failed_frac", run.failed / run.attempted))
    print(json.dumps({"context": res["context"]}))
    print(json.dumps({"correct": not reasons, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of the end-to-end metrics."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write("%s: exit code %d\n" % (name, proc.returncode))
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, result in rows:
        print("%s (attempted %d, failed_frac %.4g, correct %s)" % (
            name, result["attempted"], result["failed"] / result["attempted"],
            result["correct"]))
        for metric, m in result["metrics"].items():
            print("  %-46s %14.6g %s" % (metric, m["value"], m["unit"]))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
