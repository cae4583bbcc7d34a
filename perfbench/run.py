"""ecomath benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload linear-large --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of a timed closed loop with one client, its timings
scaled to a reference machine speed (see calibrate.py); ``--trace 1``
reports the per-layer metrics of a traced run over a fixed set of ops.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy is imported here or in any child.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import calibrate  # noqa: E402
import numpy as np  # noqa: E402
import problems  # noqa: E402  (this file's directory is first on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3  # fresh interpreters timed for setup_s (after one warm-up)
CHILD_TIMEOUT_S = 60.0
OUT_DIR = "perfbench_out"  # spans and CLI input files, under the checkout


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env(root):
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(argv, env, stdout_path, stderr_path):
    """Run argv to completion; return (exit code, wall seconds, max RSS in KiB).

    The child is reaped with wait4 so its own resource usage is known.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
    except BaseException:  # e.g. SIGTERM while waiting: no orphan child
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        os.close(fd)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status) if ready else -1
    return code, wall, usage.ru_maxrss


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def start_probe(env, work):
    """Seconds a bare interpreter takes to start and exit: the faster of two."""
    out, err = os.path.join(work, "probe.out"), os.path.join(work, "probe.err")
    return min(spawn([sys.executable, "-c", "pass"], env, out, err)[1] for _ in range(2))


def measure_setup(env, work):
    """Median seconds of ``import ecomath`` in a fresh interpreter, unscaled
    and scaled to reference speed by bare interpreter starts made before,
    between and after the imports (see calibrate.py)."""
    code = ("import time; t = time.perf_counter(); import ecomath; "
            "print(time.perf_counter() - t)")
    out, err = os.path.join(work, "setup.out"), os.path.join(work, "setup.err")
    times, probes = [], [start_probe(env, work)]
    for i in range(SETUP_REPEATS + 1):
        rc, _, _ = spawn([sys.executable, "-c", code], env, out, err)
        if rc != 0:
            raise RuntimeError(f"import ecomath failed: {read(err)[-500:]}")
        if i:  # the first run may compile bytecode; users pay that once
            times.append(float(read(out)))
        probes.append(start_probe(env, work))
    raw = statistics.median(times)
    return raw * calibrate.START_REFERENCE_S / statistics.median(probes), raw


class Outcome:
    """Per-op results of a run: wall time per attempted op, failures."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, error):
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(error)


def check_op(op, want, got):
    """None if the output matches the oracle, else a one-line reason."""
    try:
        op.kind.check(op.inp, want, got)
    except problems.Mismatch as exc:
        return f"{op.kind.__name__}: {exc}"
    except Exception as exc:  # output of the wrong shape: a failed op
        return f"{op.kind.__name__}: unreadable output: {exc!r}"
    return None


def run_ops(ops, call, judge, outcome, speed=None):
    """Time call(op) for each op, then judge(op, result) untimed, then let
    the SpeedLog `speed` (if any) probe the machine.

    judge returns None or a failure reason.  Returns the seconds spent
    judging and probing, so a timed loop can leave them out of its wall time.
    """
    clock = time.perf_counter
    judging = 0.0
    for op in ops:
        t0 = clock()
        try:
            r, err = call(op), None
        except Exception as exc:  # a failed op is counted, not fatal
            r, err = None, f"{op.kind.__name__} raised {exc!r}"
        t1 = clock()
        outcome.times.append(t1 - t0)
        if err is None:
            err = judge(op, r)
        if err is not None:
            outcome.fail(err)
        if speed is not None:
            speed.maybe_probe(len(outcome.times))
        judging += clock() - t1
    return judging


def timed_loop(rounds, seconds, call, judge, speed=None):
    """Closed loop, one client: whole rounds until `seconds` of loop time
    (checks and speed probes excluded) have passed.  With a SpeedLog, the
    machine is probed before the first op, between ops and after the last.
    Returns (outcome, loop seconds)."""
    outcome = Outcome()
    judging = speed.maybe_probe(0, force=True) if speed is not None else 0.0
    start = time.perf_counter() - judging
    i = 0
    while True:
        judging += run_ops(rounds[i % len(rounds)], call, judge, outcome, speed)
        i += 1
        wall = time.perf_counter() - start - judging
        if wall >= seconds:
            if speed is not None:
                speed.maybe_probe(len(outcome.times), force=True)
            return outcome, wall


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def lib_call(op):
    return op.kind.run(op.inp)


def lib_judge(oracle, residuals=None):
    """judge() for library results; collects solve residuals if asked."""
    def judge(op, r):
        try:
            got = op.kind.out(r)
        except Exception as exc:
            return f"{op.kind.__name__} output unreadable: {exc!r}"
        err = check_op(op, oracle[id(op)], got)
        if err is None and residuals is not None and op.kind is problems.Solve:
            residuals.append(problems.residual(op.inp, got["particular"]))
        return err

    return judge


def inprocess_run(rounds, oracle, seconds):
    """The timed loop; returns (outcome, loop seconds, max RSS KiB, speed
    factor of each op)."""
    judge = lib_judge(oracle)
    run_ops(rounds[0], lib_call, judge, Outcome())  # warm-up
    speed = calibrate.SpeedLog(window=2)
    outcome, wall = timed_loop(rounds[1:], seconds, lib_call, judge, speed)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcome, wall, rss_kib, speed.factors(len(outcome.times))


def inprocess_trace(w, rounds, oracle, spans_path):
    """Each op of the fixed set runs once to warm up, then untraced and
    traced back to back, in alternating order, so that the overhead ratio
    compares runs made under the same load with the same inputs in cache."""
    fixed = [op for r in rounds[1 : 1 + w.trace_rounds] for op in r]
    judge = lib_judge(oracle)
    plain, outcome, rec, kept = Outcome(), Outcome(), spans.Recorder(), []

    def untraced(op, i):
        run_ops([op], lib_call, judge, plain)

    def traced(op, i):
        # judged after the wrappers are gone, so checks add no spans
        with rec:
            run_ops([op], lambda op: rec.run_op(i, lib_call, op),
                    lambda op, r: kept.append((op, r)), outcome)

    for i, op in enumerate(fixed):
        run_ops([op], lib_call, lambda op, r: None, Outcome())
        for step in (untraced, traced) if i % 2 == 0 else (traced, untraced):
            step(op, i)
    residuals = []
    judge = lib_judge(oracle, residuals)
    for op, r in kept:
        err = judge(op, r)
        if err is not None:
            outcome.fail(err)
    spans.write(spans_path, rec.spans)
    metrics = spans.layer_metrics(rec.spans)
    metrics["linsolve.residual_max"] = max(residuals, default=0.0)
    metrics.update({k: 0.0 for k in CLI_PHASES})
    metrics["trace.overhead_ratio"] = sum(plain.times) / sum(outcome.times)
    return outcome, metrics


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

CLI_PHASES = ("cli.import_ms", "cli.import_scipy_ms", "cli.import_numpy_ms",
              "cli.argparse_ms", "cli.handler_ms", "cli.render_ms", "cli.interpreter_ms")


def prepare_cli(rounds, work):
    """Write each op's input files; returns {id(op): argv after the program}."""
    argvs = {}
    for k, op in enumerate(op for r in rounds for op in r):
        d = os.path.join(work, f"op{k}")
        os.makedirs(d, exist_ok=True)

        def write(name, text, d=d):
            path = os.path.join(d, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        argvs[id(op)] = ["--format", "json"] + op.kind.argv(op.inp, write)
    return argvs


def cli_call(argv_tail, env, work, phases=False):
    """One CLI process; returns (stdout, stderr, wall s, max RSS KiB).
    Raises RuntimeError on a non-zero exit."""
    out, err = os.path.join(work, "cli.out"), os.path.join(work, "cli.err")
    if phases:
        argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_phases.py")]
    else:
        argv = [sys.executable, "-m", "ecomath.cli"]
    rc, wall, rss = spawn(argv + argv_tail, env, out, err)
    if rc != 0:
        raise RuntimeError(f"exit {rc}: {read(err).strip()[-300:]}")
    return read(out), read(err), wall, rss


def cli_run(rounds, oracle, seconds, env, work):
    """The timed loop; returns (outcome, loop seconds, max RSS KiB of the
    children, speed factor of each op)."""
    argvs = prepare_cli(rounds, work)
    rss = [0]

    def call(op):
        stdout, _, _, kib = cli_call(argvs[id(op)], env, work)
        rss[0] = max(rss[0], kib)
        return stdout

    def judge(op, stdout):
        try:
            got = json.loads(stdout)
        except ValueError as exc:
            return f"{op.kind.__name__}: output is not JSON: {exc}"
        return check_op(op, oracle[id(op)], got)

    # one probe per op (ops take about 1 s), so a wider window than in process
    speed = calibrate.SpeedLog(lambda: start_probe(env, work), calibrate.START_REFERENCE_S,
                               window=4)
    outcome, wall = timed_loop(rounds[1:], seconds, call, judge, speed)
    return outcome, wall, rss[0], speed.factors(len(outcome.times))


IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def import_breakdown(stderr):
    """Self time (ms) spent in numpy and in scipy modules, from -X importtime."""
    ms = {"numpy": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if m:
            top = m.group(2).split(".")[0]
            if top in ms:
                ms[top] += int(m.group(1)) / 1e3
    return ms


def cli_trace(w, rounds, oracle, spans_path, env, work):
    fixed = [op for r in rounds[1 : 1 + w.trace_rounds] for op in r]
    argvs = prepare_cli(rounds, work)
    plain, outcome = Outcome(), Outcome()
    phases, all_spans, residuals = {k: [] for k in CLI_PHASES}, [], []
    for op_id, op in enumerate(fixed):
        # untraced and traced back to back, as in inprocess_trace
        run_ops([op], lambda op: cli_call(argvs[id(op)], env, work), lambda op, r: None, plain)
        t0 = time.perf_counter()
        try:
            stdout, stderr, wall, _ = cli_call(argvs[id(op)], env, work, phases=True)
            doc = json.loads(stdout)
            if "error" in doc:
                raise RuntimeError(doc["error"])
            got = json.loads(doc["output"])
        except (RuntimeError, ValueError) as exc:
            outcome.times.append(time.perf_counter() - t0)
            outcome.fail(f"{op.kind.__name__}: {exc}")
            continue
        outcome.times.append(wall)
        err = check_op(op, oracle[id(op)], got)
        if err is not None:
            outcome.fail(err)
        elif op.kind is problems.Solve:
            residuals.append(problems.residual(op.inp, got["particular"]))
        ph = doc["phases"]
        imp = import_breakdown(stderr)
        phases["cli.import_ms"].append(ph["import"])
        phases["cli.import_scipy_ms"].append(imp["scipy"])
        phases["cli.import_numpy_ms"].append(imp["numpy"])
        phases["cli.argparse_ms"].append(ph["argparse"])
        phases["cli.handler_ms"].append(ph["handler"])
        phases["cli.render_ms"].append(ph["render"])
        phases["cli.interpreter_ms"].append(wall * 1e3 - sum(ph.values()))
        base = len(all_spans)
        for name, s0, s1, parent, _ in doc["spans"]:
            all_spans.append([name, s0, s1, parent + base if parent >= 0 else -1, op_id])

    spans.write(spans_path, all_spans)
    metrics = spans.layer_metrics(all_spans)
    metrics["linsolve.residual_max"] = max(residuals, default=0.0)
    metrics.update({k: statistics.median(v) if v else 0.0 for k, v in phases.items()})
    metrics["trace.overhead_ratio"] = sum(plain.times) / sum(outcome.times)
    return outcome, metrics


# ---------------------------------------------------------------------------

def environment_line():
    import numpy
    import scipy

    return (f"env: python {platform.python_version()} numpy {numpy.__version__} "
            f"scipy {scipy.__version__} nproc {os.cpu_count()} "
            f"blas_threads {BLAS_ENV['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ecomath", "__init__.py")):
        print("perfbench: run from the repository root (src/ecomath not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # SIGTERM unwinds like an exception, so children are reaped and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = child_env(root)
    work = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return bench(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, env, work) -> int:
    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(env, work)
    w = workloads.WORKLOADS[args.workload]
    rounds = workloads.generate(w.name, args.seed)
    oracle = {id(op): op.kind.oracle(op.inp) for r in rounds for op in r}

    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{w.name}.jsonl")
        if w.cli:
            outcome, metrics = cli_trace(w, rounds, oracle, spans_path, env, work)
        else:
            outcome, metrics = inprocess_trace(w, rounds, oracle, spans_path)
        units = per_layer_units()
        metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    else:
        if w.cli:
            outcome, wall, rss_kib, factors = cli_run(rounds, oracle, args.seconds, env, work)
        else:
            outcome, wall, rss_kib, factors = inprocess_run(rounds, oracle, args.seconds)
        n = len(outcome.times)
        raw_ms = [t * 1e3 for t in outcome.times]
        ms = [t * f for t, f in zip(raw_ms, factors)]
        p50, p90 = np.percentile(ms, [50, 90])
        # the loop's wall time at reference speed
        scaled_wall = wall * sum(ms) / sum(raw_ms)
        metrics = {
            "ops_per_s": {"value": (n - outcome.failed) / scaled_wall, "unit": "1/s"},
            "op_p50_ms": {"value": float(p50), "unit": "ms"},
            "op_p90_ms": {"value": float(p90), "unit": "ms"},
            "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        print(f"samples: {n} ops in {wall:.3f} s, {sum(m > p90 for m in ms)} beyond p90")
        raw50, raw90 = np.percentile(raw_ms, [50, 90])
        print(f"unscaled wall time: ops_per_s {(n - outcome.failed) / wall:.6g} "
              f"op_p50_ms {raw50:.6g} op_p90_ms {raw90:.6g} setup_s {raw_setup_s:.6g}; "
              f"speed factor median {statistics.median(factors):.4g}, "
              f"range {min(factors):.4g}-{max(factors):.4g}")
    n = len(outcome.times)
    print(f"fail_ratio: {outcome.failed / n:.6g} ({outcome.failed} failed / {n} attempted)")
    for note in outcome.notes:
        print(f"failure: {note}")
    print(environment_line())
    print(json.dumps({"correct": outcome.failed == 0, "attempted": n,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def per_layer_units():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
