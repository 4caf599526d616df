"""qkdsim benchmark: one seeded workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload session|exact|search --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qkdsim is imported from ./src.  With
--trace 0 the last line of stdout is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.  Every
sample and the provenance go to .perfbench_work/results/.  The exit code is 1
when any output check fails and 2 when the checkout holds no qkdsim sources.
See perfbench/README.md.
"""

import os

# one BLAS thread, pinned before numpy is first imported (also for child processes)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the CLI reads its default tolerance from here; the workloads set it explicitly
os.environ.pop("QKDSIM_TOL", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
# A run is a fixed number of passes over the job list, derived from --seconds
# with each workload's nominal pass time, so every commit measures the same
# jobs and the tail percentile is taken over the same sample count.
NOMINAL_PASS_S = {"session": 2.0, "exact": 1.7, "search": 2.5}
MIN_PASSES = 3
SETUP_PROBES = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "rounds_per_s": "1/s",
    "key_assignments_per_s": "1/s",
    "sequences_per_s": "1/s",
    "peak_rss_mb": "MB",
}
THROUGHPUT = {"rounds_per_s": "rounds", "key_assignments_per_s": "key_assignments",
              "sequences_per_s": "sequences"}

# per-layer metric -> the span names whose calls and self time it sums
LAYER_SPANS = {
    "qudit.apply_gate": ["qudit.apply_gate"],
    "qudit.measure": ["qudit.measure"],
    "qudit.apply_gate_dense": ["qudit.apply_gate_dense"],
    "qudit.schmidt_rank": ["qudit.schmidt_rank"],
    "qudit.measurement_branches": ["qudit.measurement_branches"],
    "qudit.partial_trace": ["qudit.partial_trace"],
    "qudit.register_ops": ["qudit.insert_register", "qudit.remove_register"],
    "protocol.run_session": ["protocol.run_session"],
    "protocol.run_session_branches": ["protocol.run_session_branches"],
    "adversary.apply_script": ["adversary.apply_script"],
    "adversary.eve_conditional_states": ["adversary.eve_conditional_states"],
    "analysis.diagnose": ["analysis.diagnose"],
    "analysis.feasibility_search": ["analysis.feasibility_search"],
    "serialize.dumps": ["serialize.dumps"],
    "cli.load_scenario": ["cli.load_scenario"],
}
# entries that report self time only; their work is counted by other metrics
SELF_TIME_ONLY = {"protocol.run_session", "adversary.eve_conditional_states",
                  "analysis.feasibility_search"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("session", "exact", "search"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def setup_samples(scenario_path, count):
    """(import_s, load_s) from `count` fresh interpreters."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(scenario_path)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        import_s, load_s = (float(x) for x in proc.stdout.split())
        samples.append((import_s, load_s))
    return samples


def git_sha():
    """HEAD of a git checkout, read from files; None outside one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qkdsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def known_answers(cli, work):
    """Goldens and repeatability, checked before timing; returns (attempted, errors)."""
    errors = []
    for d in (2, 3):
        scenario = work / f"known-d{d}.scenario.json"
        scenario.write_text(json.dumps(
            {"schema_version": "scenario/1", "d": d, "template": "post_round1_round2"}))
        out = work / f"known-d{d}.out.json"
        golden = ROOT / "tests" / "data" / f"feasibility_post_round1_round2_d{d}_depth1.json"
        code = cli.main(["search", str(scenario), "--depth", "1", "--out", str(out)])
        if code != 0 or out.read_bytes() != golden.read_bytes():
            errors.append(f"search d={d} depth 1 does not reproduce {golden.name}")
    runs = []
    for tag in ("a", "b"):
        out = work / f"known-intercept-{tag}.out.json"
        code = cli.main(["run", str(ROOT / "scenarios" / "intercept_d2.json"),
                         "--out", str(out)])
        runs.append(out.read_bytes() if code == 0 else None)
    if runs[0] is None or runs[0] != runs[1]:
        errors.append("two runs of scenarios/intercept_d2.json differ")
    return 4, errors


class Run:
    """Executes passes over the job list and checks every output."""

    def __init__(self, workloads, jobs, seed, pins):
        self.workloads = workloads
        self.jobs = jobs
        self.pins = pins if seed == DEFAULT_SEED else None
        self.reference = {}
        self.attempted = 0
        self.errors = []
        self.failed = set()

    def execute_pass(self, pass_index, tracer=None):
        """Run every job once; returns per-job seconds and outputs (None on failure)."""
        seconds, outputs = [], []
        for job in self.jobs:
            self.attempted += 1
            start = perf_counter()
            try:
                if tracer is None:
                    result = self.workloads.execute(job)
                else:
                    tracer.job = f"{pass_index}:{job.index}"
                    result = tracer.span("bench.job", self.workloads.execute, job)
                elapsed = perf_counter() - start
                output = self.workloads.collect(job, result)
            except Exception:  # noqa: BLE001 - a failed job is counted, the run goes on
                elapsed = perf_counter() - start
                output = None
                self.fail(pass_index, job, traceback.format_exc())
            seconds.append(elapsed)
            outputs.append(output)
        return seconds, outputs

    def fail(self, pass_index, job, message):
        self.failed.add((pass_index, job.index))
        self.errors.append(f"pass {pass_index} job {job.index} ({job.kind}): {message}")

    def check_pass(self, pass_index, outputs):
        """First outputs: invariants and pins; later ones must repeat them exactly."""
        for job, output in zip(self.jobs, outputs):
            if output is None:
                continue
            reference = self.reference.get(job.index)
            if reference is None:
                self.reference[job.index] = self.workloads.comparable(output)
                problems = self.workloads.invariant_errors(job, output)
                if self.pins is not None:
                    problems += self.workloads.pin_errors(job, output, self.pins[job.index])
            elif self.workloads.comparable(output) != reference:
                problems = ["output differs from the first execution of this job"]
            else:
                problems = []
            for problem in problems:
                self.fail(pass_index, job, problem)


def tail(values):
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave fewer than {TAIL_BEYOND} beyond any percentile")
    percentile = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(percentile / 100 * n)  # nearest rank, 1-based
    return ordered[rank - 1], percentile, n


def end_to_end(args, run, record):
    jobs = run.jobs
    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    work = {metric: sum(job.work[unit] for job in jobs) for metric, unit in THROUGHPUT.items()}
    job_seconds, per_pass = [], []
    for p in range(passes):
        seconds, outputs = run.execute_pass(p)
        run.check_pass(p, outputs)
        job_seconds += [[p, job.index, s] for job, s in zip(jobs, seconds)]
        per_pass.append({"pass": p, "busy_s": math.fsum(seconds)})
    latencies = [s for _, _, s in job_seconds]
    tail_value, percentile, count = tail(latencies)
    setup = record["setup_samples"]
    metrics = {
        "setup_s": statistics.median(i + l for i, l in setup),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_value,
        # total work over total busy time: the machine's speed drifts between
        # two levels, and a mean moves smoothly with the time spent in each
        **{m: w * passes / math.fsum(latencies) for m, w in work.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record.update(job_seconds=job_seconds, passes=per_pass, work_per_pass=work,
                  job_tail={"percentile": percentile, "samples": count})
    notes = {"job_tail_s": f"p{percentile} of {count} job executions",
             "job_p50_s": f"of {count} job executions",
             "setup_s": f"median of {len(setup)} fresh interpreters"}
    return {m: (v, END_TO_END_UNITS[m]) for m, v in metrics.items()}, notes


def per_layer(args, run, record):
    pairs = max(MIN_PASSES - 1, round(args.seconds / (2 * NOMINAL_PASS_S[args.workload])))
    tracers, overhead, pair_busy = [], [], []
    for p in range(pairs):
        plain, plain_outputs = run.execute_pass(2 * p)
        run.check_pass(2 * p, plain_outputs)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_outputs = run.execute_pass(2 * p + 1, tracer)
        finally:
            tracer.uninstall()
        run.check_pass(2 * p + 1, traced_outputs)
        tracers.append(tracer)
        overhead.append(math.fsum(traced) / math.fsum(plain))
        pair_busy.append({"pair": p, "plain_busy_s": math.fsum(plain),
                          "traced_busy_s": math.fsum(traced)})
    counts = tracers[0].counts()
    for p, tracer in enumerate(tracers[1:], start=1):
        if tracer.counts() != counts:
            run.errors.append(f"traced pass {p}: span counts differ from traced pass 0")
            run.failed.add(("trace", p))
    totals = [t.totals() for t in tracers]

    def calls(names):
        return sum(counts["calls"].get(n, 0) for n in names)

    def self_s(names):
        return statistics.median(
            math.fsum(t.get(n, {}).get("self_s", 0.0) for n in names) for t in totals)

    def counter(span, key):
        return counts["counters"].get(span, {}).get(key, 0)

    metrics = {}
    for metric, names in LAYER_SPANS.items():
        if metric not in SELF_TIME_ONLY:
            metrics[f"{metric}.calls"] = (calls(names), "count")
        metrics[f"{metric}.self_s"] = (self_s(names), "s")
    branches = counter("protocol.run_session_branches", "branches")
    sequences = counter("analysis.feasibility_search", "sequences")
    records = counter("adversary.eve_conditional_states", "records")
    metrics.update({
        "qudit.apply_gate.bytes": (counter("qudit.apply_gate", "bytes"), "bytes"),
        "qudit.measurement_branches.outcomes": (
            counter("qudit.measurement_branches", "outcomes"), "count"),
        "protocol.rounds": (counter("protocol.run_session", "rounds"), "count"),
        "protocol.branches": (branches, "count"),
        "adversary.key_assignments": (
            counter("adversary.eve_conditional_states", "key_assignments"), "count"),
        "adversary.records_per_branch": (records / branches if branches else 0.0, "ratio"),
        "analysis.sequences": (sequences, "count"),
        "analysis.candidate_ratio": (
            counter("analysis.feasibility_search", "candidates") / sequences
            if sequences else 0.0, "ratio"),
        "serialize.dumps.bytes": (counter("serialize.dumps", "bytes"), "bytes"),
        "cli.import_s": (statistics.median(i for i, _ in record["setup_samples"]), "s"),
        "trace.overhead_ratio": (statistics.median(overhead), "ratio"),
    })
    record.update(trace_pairs=pair_busy, trace_counts=counts,
                  trace_self_s=[{n: e["self_s"] for n, e in t.items()} for t in totals])
    spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for p, tracer in enumerate(tracers):
            tracer.write(handle, 2 * p + 1)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    notes = {"trace.overhead_ratio": f"median of {pairs} traced/untraced pass pairs"}
    return metrics, notes


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qkdsim" / "__init__.py").is_file():
        print(f"error: no qkdsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import qkdsim
    from qkdsim import cli
    if Path(qkdsim.__file__).resolve().parent != (SRC / "qkdsim").resolve():
        print(f"error: imported qkdsim from {qkdsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = WORK / f"{args.workload}-seed{args.seed}"
    jobs = workloads.make_jobs(args.workload, args.seed, work)
    pins = json.loads((HERE / "pinned.json").read_text())[args.workload]
    record = {"provenance": provenance(args, numpy)}
    record["setup_samples"] = setup_samples(jobs[0].scenario_path, SETUP_PROBES)

    run = Run(workloads, jobs, args.seed, pins)
    known_attempted, known_errors = known_answers(cli, work)
    run.attempted += known_attempted
    run.errors += known_errors
    run.failed.update(("known", i) for i in range(len(known_errors)))

    if args.trace == 0:
        metrics, notes = end_to_end(args, run, record)
    else:
        metrics, notes = per_layer(args, run, record)
    failed = len(run.failed)
    failed_ratio = failed / run.attempted
    if args.trace == 1:
        metrics["failed_ratio"] = (failed_ratio, "ratio")
    end_names, layer_names = declared_metrics()
    expected = set(end_names if args.trace == 0 else layer_names)
    if set(metrics) != expected:
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ expected)} disagree "
                         "with BENCHMARK.json")
    record.update(metrics={m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
                  attempted=run.attempted, failed=failed, failed_ratio=failed_ratio,
                  errors=run.errors)
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n")

    for error in run.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"provenance {json.dumps(record['provenance'])}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {unit}{note}")
    if args.trace == 0:
        print(f"failed_ratio {failed_ratio!r} ratio  ({failed} of {run.attempted} jobs)")
    print(f"samples {results.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
