"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py <workload|setup> <seed> <trace 0|1> <workdir> <result.json>

The worker imports ``excursia.cli`` from ``src/`` and builds its parser,
then stamps the monotonic clock and the process CPU clock: the CPU time
used up to that instant is one ``setup_s`` sample, and that instant minus
the spawn instant the parent recorded is the set-up wall time.  A fresh
interpreter per repetition keeps the package's per-process caches (Laplace
evaluators, validity reports, the Gaussian envelope check) from hiding
work on repeats.  ``setup`` stops after the stamp and one reference loop.

Each command runs through ``excursia.cli.main`` with its stdout and stderr
captured, so the validity-gate reports and the ``# wall_time_s=`` lines the
CLI prints never reach the benchmark's own output.  Only the ``main`` calls
are timed, in wall time and in process CPU time; output checks run between
them.

A fixed reference loop, run right after set-up and then after every
``REF_EVERY_S`` CPU seconds of commands (and after the last one), gauges
how fast the shared machine runs at that moment.  Each command is paired
with the mean of the reference times just before and just after it, so
the parent can divide that speed out of the command's CPU time.
"""

import bisect
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

REF_EVERY_S = 1.0


def reference_loop() -> float:
    """CPU seconds of a fixed mix of interpreter, numpy and quad work (about 0.1 s).

    The mix matters: on a loaded host, quad with Python callbacks slows
    about twice as much as vectorised numpy.  With all three parts the loop
    tracked both the ``transform`` and the sampler work within 4-5% over
    15 s windows, against 13% and 7% drift of the raw CPU times.  numpy and
    scipy are imported here, after the set-up stamp, so that ``setup_s``
    keeps counting the package's own imports.
    """
    import numpy as np
    from scipy import integrate

    def integrand(t):
        # numpy on 0-d arrays inside a Python callback, as quad-driven code does
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            v = np.tanh(t / 2.0) / np.sqrt(1.0 - np.exp(-t) * np.cosh(t) ** -2 + 1e-300)
        return float(np.where(t == 0.0, 1.0, v)) * math.exp(-0.3 * float(t))

    t0 = time.process_time()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 100_000)
    for _ in range(48):
        a = np.sqrt(a * a + 1.0) - 0.5
    for k in range(8):
        integrate.quad(integrand, 0.0, 40.0 + k, limit=200, epsabs=1e-13, epsrel=1e-12)
    return time.process_time() - t0


def _versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def _run(commands, workdir, cli, first_ref):
    memo, failures, seconds, cpu_seconds = {}, [], [], []
    output_bytes = 0
    refs, ref_at, busy = [first_ref], [0], 0.0  # ref_at[j]: commands run before refs[j]
    for i, cmd in enumerate(commands):
        out_path = os.path.join(workdir, f"{i}.out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0, cpu0 = time.perf_counter(), time.process_time()
            try:
                code = cli.main(list(cmd.argv) + ["--output", out_path])
            except Exception as exc:  # a crashing command is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            seconds.append(time.perf_counter() - t0)
            cpu_seconds.append(time.process_time() - cpu0)
        busy += cpu_seconds[-1]
        if busy >= REF_EVERY_S or i == len(commands) - 1:
            refs.append(reference_loop())
            ref_at.append(i + 1)
            busy = 0.0
        text = ""
        if os.path.exists(out_path):
            with open(out_path) as fh:
                text = fh.read()
            os.remove(out_path)
        output_bytes += len(text.encode()) + len(stdout.getvalue().encode())
        if code != cmd.expect_exit:
            problems = [f"exit {code}, expected {cmd.expect_exit}"]
        elif cmd.check is None:
            problems = []
        else:
            try:
                problems = cmd.check(text, stdout.getvalue(), memo)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            failures.append({"argv": list(cmd.argv), "problems": problems[:5]})
    ref_seconds = []
    for i in range(len(commands)):
        j = bisect.bisect_right(ref_at, i) - 1  # the last reference run before command i
        ref_seconds.append((refs[j] + refs[j + 1]) / 2.0)
    return seconds, cpu_seconds, ref_seconds, output_bytes, failures


def main():
    workload, seed, traced, workdir, result_path = sys.argv[1:6]
    import excursia
    import excursia.cli

    excursia.cli.build_parser()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_cpu = time.process_time()

    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(excursia.__file__).startswith(src):
        sys.exit(f"excursia imported from {excursia.__file__}, not from {src}")
    result = {"ready": ready, "setup_cpu_s": setup_cpu, "setup_ref_s": reference_loop(), "versions": _versions()}
    if workload != "setup":
        import spans
        from workloads import WORKLOADS

        commands = WORKLOADS[workload](int(seed))
        tracer = None
        if traced == "1":
            tracer = spans.Tracer()
            spans.install(tracer)
        seconds, cpu_seconds, ref_seconds, output_bytes, failures = _run(commands, workdir, excursia.cli, result["setup_ref_s"])
        result.update(
            seconds=seconds,
            cpu_seconds=cpu_seconds,
            ref_seconds=ref_seconds,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=len(commands),
            failures=failures,
        )
        if tracer is not None:
            layers = tracer.metrics()
            layers["cli.output_bytes"] = output_bytes
            layers["cli.output_mb_per_s"] = output_bytes / 1e6 / layers["cli.self_s"] if layers["cli.self_s"] else 0.0
            result["layers"] = layers
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
