"""Benchmark of the lorentz CLI, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

The run builds seeded inputs with the benchmark's own generators
(``inputs.py``), then calls the real entry point ``lorentz.cli.main(argv)``
in this process, one job after another (a closed loop with one client),
pass after pass over the workload's job list until ``--seconds`` have gone.
Every answer is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it holds the full record: environment, samples and per-job numbers.

Latencies are in ``cal``: a job's wall time divided by the mean wall time of
the calibration kernel (``calib.py``) run right before and right after it.
On a shared host whose speed drifts, this repeats far better than raw
milliseconds, which the record keeps beside every number.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``pass_cal``: sum over jobs of each job's median latency across passes.
* ``job_cal_gm``: geometric mean over jobs of the same medians.
* ``setup_s``: median wall seconds for a fresh interpreter to import
  ``lorentz.cli`` and generate and write the inputs.
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` the run first measures untraced passes, then wraps the
library's functions (``tracing.py``) and measures traced passes, and prints
the per-layer metrics: self times in ``cal``, exact counts, and the tracing
overhead.  Counts must repeat exactly from one traced pass to the next.

Jobs that exit with the wrong code, raise, or give a wrong answer count as
failed; ``failed / attempted`` is the failed ratio.  The answer check
compares each report with values computed independently by ``inputs.py``,
with the first pass, and, for the recorded seed, with the digests in
``expected.json`` (see ``record.py``).

Outputs go under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ".perfbench_out"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
UNTRACED_SHARE = 0.35       # of --seconds, in a traced run

sys.path.insert(0, str(HERE))
import calib    # noqa: E402
import inputs   # noqa: E402
import tracing  # noqa: E402


# Report keys that carry the answer.  Everything else (elapsed_ms, input
# hashes, fields a later version adds) is left out of the digest.
ANSWER_KEYS = frozenset("""
    verdict witness result certificate is_zero failing_kind failing_alpha detail
    inertia all_failures coefficient pair index reason n_plus n_minus n_zero
    poly n d terms exp num den independence_counts normalized section
    ultra_log_concave value matroid bases violation alpha i j point lhs rhs
    searched_trials points report pnc_holds pnc_failures pairwise_c pairwise_holds
    pairwise_failures ulc_holds ulc_failing_k c_rayleigh_witness
    strongly_rayleigh_witness trials counts
""".split())


def _answer(x):
    if isinstance(x, dict):
        return {k: _answer(v) for k, v in x.items() if k in ANSWER_KEYS}
    if isinstance(x, list):
        return [_answer(v) for v in x]
    return x


def digest(report: dict) -> str:
    """sha256 of the answer fields of a CLI report."""
    text = json.dumps(_answer(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(path: Path, workload: str, seed: int) -> dict | None:
    """Recorded digests by job name, or None when the seed was not recorded."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["digests"][workload] if doc["seed"] == seed else None


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def import_cli():
    src = ROOT / "src"
    if not (src / "lorentz" / "cli.py").is_file():
        raise SetupError(f"no lorentz sources under {src}")
    sys.path.insert(0, str(src))
    import lorentz.cli
    if Path(lorentz.cli.__file__).resolve().parent != (src / "lorentz").resolve():
        raise SetupError(f"imported lorentz from {lorentz.cli.__file__}, not {src}")
    return lorentz.cli


def _setup(workload: str, seed: int, in_dir: str) -> list[float]:
    """Time SETUP_RUNS fresh interpreters that import lorentz.cli and write
    the inputs; return their wall seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "inputs.py"), workload, str(seed), in_dir]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up failed with exit {proc.returncode}: {proc.stderr.strip()}")
    return times


def call_cli(job, cli_module) -> tuple[int, str, str | None, float]:
    """Run one job through cli.main; return (exit code, stdout, error, ms)."""
    saved = {k: os.environ.get(k) for k in job.env}
    os.environ.update(job.env)
    buf = io.StringIO()
    error = None
    code = -1
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter_ns()
            try:
                code = cli_module.main(job.argv)
            finally:
                ms = (time.perf_counter_ns() - t0) / 1e6
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else -1
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a job that raises is a failed job, not a dead run
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, buf.getvalue(), error, ms


def judge(job, code: int, out: str, error: str | None) -> tuple[str | None, dict | None]:
    """Check the exit code, the JSON report and the job's own answer checks;
    return (what is wrong or None, the parsed report)."""
    if error:
        return error, None
    if code != job.expect_code:
        return f"exit {code}, want {job.expect_code}", None
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON object: {exc}", None
    for check in job.checks:
        problem = check(report)
        if problem:
            return problem, report
    return None, report


class Run:
    """One benchmark run: the jobs of a workload, measured pass after pass."""

    def __init__(self, workload: str, seed: int, jobs, cli_module):
        self.jobs = jobs
        self.cli = cli_module
        self.expected = load_expected(HERE / "expected.json", workload, seed)
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _judge(self, job, code: int, out: str, error: str | None) -> str | None:
        problem, report = judge(job, code, out, error)
        if problem:
            return problem
        d = digest(report)
        if d != self.first_digest.setdefault(job.name, d):
            return "answer differs from the first pass"
        if self.expected is not None and d != self.expected.get(job.name):
            return f"answer digest {d[:12]} differs from the one recorded in expected.json"
        return None

    def one_pass(self, index: int, tracer=None) -> list[dict]:
        rows = []
        gc.collect()
        k_before = calib.kernel_ms()
        for job in self.jobs:
            if tracer is not None:
                tracer.job = f"{index}:{job.name}"
            total_ms = 0.0
            for _ in range(job.repeat):
                code, out, error, ms = call_cli(job, self.cli)
                total_ms += ms
                self.attempted += 1
                problem = self._judge(job, code, out, error)
                if problem:
                    self.failures.append(f"pass {index} {job.name}: {problem}")
            if tracer is not None:
                tracer.job = None
            gc.collect()
            k_after = calib.kernel_ms()
            kernel = (k_before + k_after) / 2
            ms = total_ms / job.repeat
            rows.append({"job": job.name, "ms": ms, "kernel_ms": kernel, "cal": ms / kernel})
            k_before = k_after
        return rows

    def passes(self, seconds: float, minimum: int, start: int = 0, tracer=None) -> list:
        out = []
        t_end = time.perf_counter() + seconds
        while len(out) < minimum or time.perf_counter() < t_end:
            out.append(self.one_pass(start + len(out), tracer))
        return out


def _job_table(passes: list) -> dict:
    """Per job: median and quartiles over passes, in cal and raw ms."""
    table = {}
    for i, row in enumerate(passes[0]):
        cal = [p[i]["cal"] for p in passes]
        ms = [p[i]["ms"] for p in passes]
        cq, mq = _quartiles(cal), _quartiles(ms)
        table[row["job"]] = {"cal": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
                             "ms": {"q1": mq[0], "median": mq[1], "q3": mq[2]},
                             "samples": len(passes)}
    return table


def _end_to_end(table: dict) -> dict:
    med_cal = [t["cal"]["median"] for t in table.values()]
    med_ms = [t["ms"]["median"] for t in table.values()]
    return {
        "pass_cal": sum(med_cal),
        "job_cal_gm": math.exp(statistics.fmean(math.log(c) for c in med_cal)),
        "pass_ms": sum(med_ms),
        "job_ms_gm": math.exp(statistics.fmean(math.log(m) for m in med_ms)),
    }


def _layers(tracer, passes: list, errors: list) -> dict:
    """Per-layer metrics from the traced passes: median self time in cal
    over passes, and counts that must be equal in every pass."""
    times = {m: [] for m in tracing.TIME_METRICS}
    counts_by_pass = []
    for index, rows in passes:
        totals = dict.fromkeys(tracing.TIME_METRICS, 0.0)
        counts: dict = {}
        for row in rows:
            self_ns, job_counts = tracer.job_layers(f"{index}:{row['job']}")
            for metric, ns in self_ns.items():
                totals[metric] += ns / 1e6 / row["kernel_ms"]
            for key, n in job_counts.items():
                counts[key] = max(counts.get(key, 0), n) if key == "inertia.max_dim" \
                    else counts.get(key, 0) + n
        for m in tracing.TIME_METRICS:
            times[m].append(totals[m])
        counts_by_pass.append(counts)
    for index, counts in enumerate(counts_by_pass[1:], 1):
        for key, n in counts.items():
            if n != counts_by_pass[0][key]:
                errors.append(f"count {key} is {counts_by_pass[0][key]} in traced pass 0 "
                              f"but {n} in traced pass {index}")
    counts = counts_by_pass[0]
    if counts["observe_errors"]:
        errors.append(f"{counts['observe_errors']} calls could not be counted")
    layer = {m: (statistics.median(v), "cal") for m, v in times.items()}
    layer.update({m: (counts[m], "count") for m in tracing.COUNT_METRICS})
    layer["serialize.dump_bytes"] = (counts["serialize.dump_bytes"], "bytes")
    scanned = counts["certify.alphas_scanned"]
    layer["certify.nonzero_quadratic_ratio"] = (
        counts["hessian_nonzero"] / scanned if scanned else 0.0, "ratio")
    return layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    in_dir = f"{OUT_DIR}/inputs/{args.workload}-s{args.seed}"
    errors: list[str] = []
    try:
        cli = import_cli()
        setup_times = _setup(args.workload, args.seed, in_dir)
    except (SetupError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    jobs, files = inputs.build(args.workload, args.seed, in_dir)
    for name, text in files.items():
        with open(os.path.join(in_dir, name), encoding="utf-8") as fh:
            if fh.read() != text:
                errors.append(f"set-up wrote a different {name}")

    run = Run(args.workload, args.seed, jobs, cli)
    if run.expected is None:
        expected_note = "no recorded digests for this seed; answers checked by construction"
    else:
        expected_note = f"answers compared with the digests recorded for seed {args.seed}"
    record: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        },
        "closed_loop_clients": 1,
        "expected": expected_note,
        "setup_s_samples": setup_times,
    }

    if args.trace:
        untraced = run.passes(args.seconds * UNTRACED_SHARE, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run.passes(args.seconds * (1 - UNTRACED_SHARE), 2,
                                start=len(untraced), tracer=tracer)
        finally:
            tracer.uninstall()
        base = _end_to_end(_job_table(untraced))
        with_trace = _end_to_end(_job_table(traced))
        indexed = [(len(untraced) + i, rows) for i, rows in enumerate(traced)]
        layer = _layers(tracer, indexed, errors)
        layer["trace.pass_cal"] = (with_trace["pass_cal"], "cal")
        layer["trace.overhead_cal"] = (with_trace["pass_cal"] - base["pass_cal"], "cal")
        os.makedirs(f"{OUT_DIR}/runs", exist_ok=True)
        tracer.dump(f"{OUT_DIR}/runs/{tag}-spans.jsonl")
        all_passes = untraced + traced
        record["untraced"] = {"passes": len(untraced), **base, "jobs": _job_table(untraced)}
        record["traced"] = {"passes": len(traced), **with_trace, "jobs": _job_table(traced)}
        record["trace_note"] = ("worker processes of LORENTZ_JOBS=2 jobs are not traced; "
                                "their time counts as certify.scan_self_cal")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        record["samples"] = {"per_layer": len(jobs) * len(traced),
                             "trace.overhead_cal": len(jobs) * len(all_passes)}
    else:
        all_passes = run.passes(args.seconds, 1)
        table = _job_table(all_passes)
        e2e = _end_to_end(table)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "pass_cal": {"value": e2e["pass_cal"], "unit": "cal"},
            "job_cal_gm": {"value": e2e["job_cal_gm"], "unit": "cal"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        record.update({"passes": len(all_passes), **e2e, "jobs": table})
        record["samples"] = {"pass_cal": len(jobs) * len(all_passes),
                             "job_cal_gm": len(jobs) * len(all_passes),
                             "jobs_run": run.attempted,
                             "setup_s": SETUP_RUNS, "peak_rss_mb": 1}

    kernels = [row["kernel_ms"] for rows in all_passes for row in rows]
    record["environment"]["kernel_ms_median"] = statistics.median(kernels)
    failed = len(run.failures)
    record["failed_ratio"] = failed / run.attempted
    record["failures"] = run.failures
    record["errors"] = errors
    record["metrics"] = metrics
    os.makedirs(f"{OUT_DIR}/runs", exist_ok=True)
    with open(f"{OUT_DIR}/runs/{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    for problem in run.failures + errors:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
