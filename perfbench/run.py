"""excursia benchmark: three CLI workloads, end-to-end or traced per layer.

    python3 perfbench/run.py --workload {table2,transform,crosscheck} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each repetition of a workload runs in a fresh interpreter
(``worker.py``).  Repetitions continue while the next one is expected to
end within ``--seconds``, with at least ``MIN_REPS``; every metric is a
median over repetitions.

``--trace 0`` reports the end-to-end metrics:

* ``cpu_s``: process CPU time inside ``excursia.cli.main`` for the
  workload's command sequence, untraced, at reference speed (below): each
  command's median over repetitions, summed.
* ``setup_s``: process CPU time from a fresh interpreter to
  ``excursia.cli`` imported and its parser built, at reference speed;
  sampled in every repetition plus ``SETUP_PROBES`` probes.
* ``peak_rss_mb``: peak resident memory of the worker process.
* ``ok_frac``: share of CLI commands that exited as expected and passed
  their output checks (1 - failed/attempted).

Times are CPU times, not wall times, because on a shared virtual machine
the hypervisor takes the CPU away for bursts of up to half a second
(steal time), which stretched wall times by up to 40% between runs.  Every
workload runs with ``EXCURSIA_THREADS=1``, so CPU time is the command's
run time on an otherwise idle core.  CPU time still drifts with the load
on the host (by 20-45% between repetitions a minute apart), and a fixed
reference loop (``worker.reference_loop``) drifts with it.  So each CPU
time is scaled by ``REF_S`` over the reference loop's CPU time measured
around it: the result is the CPU time on a machine where the reference
loop takes ``REF_S`` seconds.  The raw CPU times, the reference times and
the wall times are kept in the provenance record.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``spans.py`` (median over traced repetitions) and the
tracing overhead, traced minus untraced wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
provenance (machine, versions, thread setting, seed, source revision).
The exit code is 0 when that line is printed, otherwise not 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table2", "transform", "crosscheck")
MIN_REPS = 3
SETUP_PROBES = 2
HARD_LIMIT_S = 170.0  # every run must end within 180 s
REF_S = 0.09  # typical CPU seconds of worker.reference_loop

UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "samplers.divisor.draws_per_s": "1/s",
    "samplers.divisor.uniforms_per_draw": "count",
    "samplers.divisor.self_s": "s",
    "samplers.compound.self_s": "s",
    "samplers.compound.divisors_per_draw": "count",
    "laplace.transform.evals": "count",
    "laplace.transform.ms_per_eval": "ms",
    "laplace.find_pole.evals_per_pole": "count",
    "laplace.find_pole.ms": "ms",
    "laplace.build.ms": "ms",
    "slepian.e0.calls": "count",
    "slepian.e0.points_per_call": "count",
    "slepian.e0.self_s": "s",
    "slepian.validate_iia.ms": "ms",
    "persistency.tail_exponent.self_s": "s",
    "persistency.tail_exponent.samples_per_s": "1/s",
    "persistency.replication.parallel_eff": "ratio",
    "switching.estimate.self_s": "s",
    "switching.size_biased.draws_per_accept": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.output_mb_per_s": "MB/s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def _unit(name: str) -> str:
    while name not in UNITS:  # per-model metrics: strip the model slug
        name = name.rsplit(".", 1)[0]
    return UNITS[name]


def _commit(root: str):
    """HEAD of a git checkout without running git; None outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


class Runner:
    def __init__(self, root, workload, seed, deadline):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
        os.makedirs(self.tmp, exist_ok=True)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        # one thread everywhere: CPU time then measures run time, and a
        # thread pool on a two-core share measures the scheduler
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), EXCURSIA_THREADS="1")
        self.count = 0

    def spawn(self, workload, traced=False):
        """Run one worker; returns its result with ``setup_wall_s`` and ``elapsed_s``."""
        self.count += 1
        result_path = os.path.join(self.tmp, f"result{self.count}.json")
        log_path = os.path.join(self.tmp, f"log{self.count}.txt")
        workdir = os.path.join(self.tmp, f"work{self.count}")
        os.makedirs(workdir)
        argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload, str(self.seed), "1" if traced else "0", workdir, result_path]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        with open(log_path, "w") as log:
            try:
                proc = subprocess.run(argv, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT, timeout=remaining)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"worker {workload} exceeded the time limit") from exc
        end = time.clock_gettime(time.CLOCK_MONOTONIC)
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"worker {workload} exited with {proc.returncode}:\n{tail}")
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_wall_s"] = result["ready"] - start
        result["elapsed_s"] = end - start
        return result

    def repeat(self, seconds, min_reps, kinds):
        """Cycle through ``kinds`` (traced flags) until ``seconds`` is used up."""
        t0 = time.monotonic()
        reps = []
        while True:
            elapsed = time.monotonic() - t0
            if len(reps) >= min_reps and elapsed + statistics.median(r["elapsed_s"] for r in reps) > seconds:
                return reps
            traced = kinds[len(reps) % len(kinds)]
            rep = self.spawn(self.workload, traced)
            rep["traced"] = traced
            reps.append(rep)


def _total(per_rep):
    """Sum over commands of each command's median time across repetitions."""
    return sum(statistics.median(times) for times in zip(*per_rep))


def _at_ref(cpu_s, ref_s):
    """CPU seconds scaled to a machine where the reference loop takes ``REF_S``."""
    return cpu_s * REF_S / ref_s


def measure(args, root):
    deadline = time.monotonic() + HARD_LIMIT_S
    if not os.path.isdir(os.path.join(root, "src", "excursia")):
        raise BenchError("src/excursia not found: run from the root of an excursia checkout")
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", os.path.relpath(BENCH_DIR, root)],
        cwd=root, capture_output=True, text=True, timeout=HARD_LIMIT_S,
    )
    if compiled.returncode != 0:
        raise BenchError(f"byte-compiling failed:\n{compiled.stdout[-2000:]}{compiled.stderr[-2000:]}")
    runner = Runner(root, args.workload, args.seed, deadline)
    try:
        t0 = time.monotonic()
        if args.trace:
            reps = runner.repeat(args.seconds, 2, (False, True))
            probes = []
        else:
            probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
            reps = runner.repeat(args.seconds - (time.monotonic() - t0), MIN_REPS, (False,))
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(runner.tmp))
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    plain = [r for r in reps if not r["traced"]]
    if args.trace:
        wall = _total(r["seconds"] for r in plain)
        traced = [r for r in reps if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        traced_wall = _total(r["seconds"] for r in traced)
        values.update({"trace.wall_s": traced_wall, "trace.untraced_wall_s": wall, "trace.overhead_s": traced_wall - wall})
    else:
        values = {
            "cpu_s": _total(map(_at_ref, r["cpu_seconds"], r["ref_seconds"]) for r in plain),
            "setup_s": statistics.median(_at_ref(r["setup_cpu_s"], r["setup_ref_s"]) for r in probes + reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "ok_frac": (attempted - failed) / attempted,
        }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "EXCURSIA_THREADS": runner.env["EXCURSIA_THREADS"],
        **reps[0]["versions"],
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "wall_s": _total(r["seconds"] for r in plain),
        "raw_cpu_s": _total(r["cpu_seconds"] for r in plain),
        "repetitions": [
            {k: r[k] for k in ("traced", "seconds", "cpu_seconds", "ref_seconds", "setup_cpu_s", "setup_ref_s", "setup_wall_s", "peak_rss_mb")}
            for r in reps
        ],
        "setup_probes": [{k: r[k] for k in ("setup_cpu_s", "setup_ref_s", "setup_wall_s")} for r in probes],
        "failures": [f for r in reps for f in r["failures"]][:20],
    }
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in values.items()},
    }
    return provenance, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        provenance, record = measure(args, os.getcwd())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for failure in provenance["failures"]:
        print(f"perfbench: FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
