"""gridcast benchmark: in-process CLI workloads, checked outputs, optional tracing.

    python3 bench/run.py --workload {search,scan,holes,oracle,all} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source tree that has `src/gridcast`. One process,
one client in a closed loop, no threads: each job is one
`gridcast.cli.main(["--json", ...])` call, timed on its own, and the next job
starts when it returns. A pass runs the workload's whole job list; passes
repeat until the jobs have taken `--seconds` in total. Every output is
checked against `reference`; a wrong answer, a non-zero exit code or an
exception counts as a failed job.

With `--trace 1` the same measurement is followed by one traced pass (see
`tracing`), whose outputs must equal the untraced ones, and the per-layer
metrics are printed instead of the end-to-end ones. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; a full
run record (Python version, nproc, commit, seed, counters, failures) is
printed before it and written under `.bench_out/` with the trace spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
from reference import CheckFailed
from workloads import COUNTERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9  # setup_s is the median of this many import + generate + warm-up rounds
MIN_PASSES = 3
# The CPU speed of a shared host drifts by +-25 % over tens of seconds, and the
# drift moves every job alike. So a fixed pure-Python kernel is timed between
# jobs, and each job's time is scaled by KERNEL_REF_S over the kernel's median
# time around it: times read as on a host where the kernel takes KERNEL_REF_S.
# The record keeps the unscaled numbers as well.
KERNEL_REF_S = 0.001

# Functions of the periodic-pattern layers that `oracle` must never reach, and
# layers `search` must never reach: each workload isolates the layers it was
# chosen for. A breach is reported in the run record, not counted as a failure.
PERIODIC = ("core.contains", "core.canonicalize", "core.reduce_vertex", "signal.signal_at_least",
            "signal.total_signal", "verifier.is_broadcast", "verifier.verify", "search.valid_e_for",
            "halfsquares.depth_map")
MUST_NOT_CALL = {"oracle": PERIODIC, "search": ("finite", "halfsquares")}


def _kernel() -> int:
    """Fixed interpreter work like gridcast's inner loops: tuples, dicts, integer mod."""
    seen = {}
    total = 0
    for i in range(3000):
        v = (i % 37, i // 37)
        seen[v] = total
        total += (v[0] * 7 - v[1] * 3) % 11
    return total


def kernel_time() -> float:
    """Seconds the kernel takes now (median of three runs)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def import_gridcast():
    """Import gridcast afresh from this tree's src/ and return its cli module."""
    for name in [n for n in sys.modules if n == "gridcast" or n.startswith("gridcast.")]:
        del sys.modules[name]
    package = importlib.import_module("gridcast")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported gridcast from {package.__file__}, not from {SRC}")
    return importlib.import_module("gridcast.cli")


class Runner:
    """Calls jobs, checks their outputs and keeps the failure tally."""

    def __init__(self) -> None:
        self.cli = None
        self.attempted = 0
        self.failures: list[dict] = []
        self._passed: dict[tuple, dict] = {}  # (argv, code, output) -> counters
        self.kernel_times: list[float] = []

    def call(self, job) -> tuple[float, object, str]:
        """(seconds, exit code or exception text, stdout) of one job."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.main(["--json", *job.argv])
        except Exception as exc:  # a crashing job is a failed job, not an aborted run
            code = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, code, out.getvalue()

    def check(self, job, code, out: str) -> dict:
        self.attempted += 1
        key = (job.argv, code, out)
        if key in self._passed:
            return self._passed[key]
        try:
            if not isinstance(code, int):
                raise CheckFailed(f"raised {code}")
            counters = job.check(code, out)
        except Exception as exc:  # includes malformed JSON and CheckFailed
            self.fail(job, f"{type(exc).__name__}: {exc}")
            return {}
        self._passed[key] = counters
        return counters

    def fail(self, job, error: str) -> None:
        self.failures.append({"argv": list(job.argv), "error": error})

    def run_pass(self, jobs) -> tuple[list, list, dict]:
        """One pass over the jobs: the call results, their speed scales and the work counters."""
        gc.collect()
        kernel = [kernel_time()]
        results = []
        for job in jobs:
            results.append(self.call(job))
            kernel.append(kernel_time())
        self.kernel_times += kernel
        # Job j ran between kernel[j] and kernel[j+1]. The four nearest kernel
        # times follow the host's drift better than one figure for the pass.
        scales = [KERNEL_REF_S / statistics.median(kernel[max(0, j - 1):j + 3]) for j in range(len(jobs))]
        counters: dict = {}
        for job, (_, code, out) in zip(jobs, results):
            for key, value in self.check(job, code, out).items():
                counters[key] = counters.get(key, 0) + value
        return results, scales, counters


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def timing_values(per_job: list[list[float]], setup_s: float) -> dict:
    """End-to-end timings from each job's times over the passes.

    A typical pass has each job at its median time, so a burst of noise in one
    pass moves no more than the jobs it hit. The latency percentiles are taken
    over those per-job medians: single samples of two jobs of similar cost
    overlap, and a percentile of the pooled samples jumps between them.
    """
    medians = sorted(statistics.median(times) for times in per_job)
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(per_job) / sum(medians),
        "job_p50_ms": percentile(medians, 50) * 1e3,
        "job_p90_ms": percentile(medians, 90) * 1e3,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (ROOT / ".git" / name).is_file():
        return (ROOT / ".git" / name).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridcast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def layer_values(tracer: tracing.Tracer, counters: dict, names: list[str]) -> dict:
    """Per-layer metric values: traced calls and self time, plus output-derived counts."""
    per_fn = tracer.per_function()
    values = {name: counters.get(name, 0) for name in COUNTERS}
    for layer in tracing.LAYERS:
        mine = [v for k, v in per_fn.items() if k.startswith(layer + ".")]
        values[f"{layer}.calls"] = sum(c for c, _ in mine)
        values[f"{layer}.self_s"] = sum(s for _, s in mine)
    for name in names:
        fn, _, stat = name.rpartition(".")
        if name not in values and stat in ("calls", "self_s"):
            if fn not in tracer.traced_names:
                raise KeyError(f"{name}: {fn} is not a traced function")
            calls, self_s = per_fn.get(fn, (0, 0.0))
            values[name] = calls if stat == "calls" else self_s
    broadcasts = per_fn.get("verifier.is_broadcast", (0, 0.0))[0]
    at_least = per_fn.get("signal.signal_at_least", (0, 0.0))[0]
    values["verifier.is_broadcast.vertices_per_call"] = at_least / broadcasts if broadcasts else 0.0
    tested = counters.get("search.e_tested", 0)
    values["search.e_yield"] = counters.get("search.e_valid", 0) / tested if tested else 0.0
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    runner = Runner()
    raw_setups = []
    for _ in range(SETUP_REPEATS):
        runner.kernel_times.append(kernel_time())
        start = time.perf_counter()
        runner.cli = import_gridcast()
        jobs, warmup = WORKLOADS[name](seed)
        warm = [runner.call(job) for job in warmup]
        raw_setups.append(time.perf_counter() - start)
        for job, (_, code, out) in zip(warmup, warm):
            runner.check(job, code, out)
    setup_scale = KERNEL_REF_S / statistics.median(runner.kernel_times)

    scaled, raw = [[] for _ in jobs], [[] for _ in jobs]
    first, counters, spent = None, {}, 0.0
    while spent < seconds or len(raw[0]) < MIN_PASSES:
        results, scales, pass_counters = runner.run_pass(jobs)
        for s_times, r_times, (elapsed, _, _), scale in zip(scaled, raw, results, scales):
            s_times.append(elapsed * scale)
            r_times.append(elapsed)
            spent += elapsed
        if first is None:
            first, counters = results, pass_counters
    values = timing_values(scaled, statistics.median(raw_setups) * setup_scale)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_values = timing_values(raw, statistics.median(raw_setups))
    typical_pass_s = len(jobs) / values["jobs_per_s"]
    record_extra = {}
    wanted = spec["end_to_end"]
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results, scales, counters = runner.run_pass(jobs)
        finally:
            tracer.uninstall()
        for job, (_, code, out), (_, code0, out0) in zip(jobs, results, first):
            if (code, out) != (code0, out0):
                runner.fail(job, "traced output differs from the untraced output")
        wanted = spec["per_layer"]
        values.update(layer_values(tracer, counters, [m["name"] for m in wanted]))
        values["trace.overhead_ratio"] = sum(r[0] * sc for r, sc in zip(results, scales)) / typical_pass_s
        called = tracer.per_function()
        breaches = [fn for fn in MUST_NOT_CALL.get(name, ())
                    if any(k == fn or k.startswith(fn + ".") for k in called)]
        record_extra = {"isolation_breaches": breaches}
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}-seed{seed}-spans.json").write_text(json.dumps(tracer.records(), indent=1))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(runner.failures)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "jobs_per_pass": len(jobs), "passes": len(raw[0]), "samples": len(jobs) * len(raw[0]),
        "kernel_ms": statistics.median(runner.kernel_times) * 1e3,
        "job_median_ms": {" ".join(job.argv): statistics.median(t) * 1e3 for job, t in zip(jobs, scaled)},
        "fail_ratio": failed / runner.attempted, "counters": counters, "values": values,
        "raw_values": raw_values, "failures": runner.failures[:20], **record_extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    for failure in runner.failures[:20]:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['error']}", file=sys.stderr)
    for metric, entry in metrics.items():
        print(f"{name:8s} {metric:45s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(record))
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gridcast" / "__init__.py").is_file():
        print(f"error: no gridcast sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
