#!/usr/bin/env python3
"""Process-level benchmark for getk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of golden, box-tables,
purity-catalog, local-scale, or ``all`` for every workload in turn.

One parent process generates the workload's inputs from the seed, then
starts the workload's ``python -m getk.cli ...`` commands one at a time (a
closed loop with one client) and checks every output.  With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it starts each command
through ``traced_cli.py`` on alternate passes and prints per-layer metrics.
The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import traced_cli
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

IMPORT_ARGV = [sys.executable, "-c", "import getk.cli"]
SETUP_SAMPLES = 7   # `import getk.cli` processes per run, spread between passes
MIN_SAMPLES = 11    # commands per run, so cmd_tail_s has ten samples above it
OVERRUN = 1.25      # no pass starts that would end past OVERRUN * --seconds ...
DEADLINE_S = 170.0  # ... and none after this; a command still running then is killed

# Host-speed reference, timed before a command starts when REFERENCE_GAP_S
# or more have passed since the last one: a fresh interpreter that imports
# two stdlib modules and runs a pure-Python loop building small objects.  It
# runs no getk code.  A run's time samples are scaled by REFERENCE_NOMINAL_S
# over the run's mean reference time, so they read in seconds at the host
# speed where the reference takes REFERENCE_NOMINAL_S (its mean on the
# 2-vCPU machine the benchmark was written on).
REFERENCE_ARGV = [sys.executable, "-c", "import fractions, json\n"
                  "table = {}\n"
                  "for i in range(60000):\n"
                  "    table[i, i % 11] = [i, str(i)]\n"]
REFERENCE_NOMINAL_S = 0.16
REFERENCE_GAP_S = 0.5

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cmd_p50_s", "s"), ("cmd_tail_s", "s"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"),
)

# Layer predicted to have the largest self time on each workload.
PREDICTED_TOP = {
    "golden": ("boxes.enumerate_vertices",),
    "box-tables": ("boxes.relabeling_orbit", "boxes.in_convex_hull"),
    "purity-catalog": ("cli.import",),
    "local-scale": ("operators.ObservableSpace.init",),
}


class Runner:
    """Starts commands one at a time and records wall time, CPU time and peak RSS.

    Commands start through ``launcher.py`` (see there why).  Before a start
    the runner times the reference, at most once per REFERENCE_GAP_S;
    ``speed`` turns those times into the factor that scales the run's time
    samples to nominal host speed.  Use as a context manager: leaving it
    stops the launcher and any command still running.
    """

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.reference = []
        self.last_reference = -math.inf
        self.deadline = time.monotonic() + DEADLINE_S
        env = dict(os.environ, GE_SEED=str(seed))
        env["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                   if os.environ.get("PYTHONPATH") else "")
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        if exc[0] is not None:
            self.launcher.terminate()
        self.launcher.wait()
        self.launcher.stdout.close()

    def _launch(self, argv, tag, timeout):
        out_path = os.path.join(self.workdir, tag + ".out")
        request = {"argv": argv, "cwd": ROOT, "out": out_path,
                   "err": os.path.join(self.workdir, tag + ".err"), "timeout": timeout}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise SystemExit("error: the launcher process ended")
        return json.loads(reply), out_path

    def spawn(self, argv, tag):
        """Run argv to completion.

        Returns (wall_s, cpu_s, maxrss_kb, returncode, stdout), or None past
        the deadline.
        """
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        if time.monotonic() - self.last_reference >= REFERENCE_GAP_S:
            res, _ = self._launch(REFERENCE_ARGV, "reference", timeout)
            if res["returncode"] != 0:
                raise SystemExit("error: the host-speed reference failed")
            self.reference.append(res["wall"])
            self.last_reference = time.monotonic()
        res, out_path = self._launch(argv, tag, timeout)
        with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return res["wall"], res["cpu"], res["maxrss_kb"], res["returncode"], stdout

    def speed(self):
        """Factor that scales this run's time samples to nominal host speed."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.reference)

    def warm_up(self):
        """Import getk.cli once, which also writes the bytecode cache."""
        res = self.spawn(IMPORT_ARGV, "setup")
        if res is None or res[3] != 0:
            raise SystemExit("error: `import getk.cli` failed; see " +
                             os.path.join(self.workdir, "setup.err"))

    def setup_samples(self, count):
        """Wall times of fresh processes that import getk.cli and exit."""
        return [res[0] for res in (self.spawn(IMPORT_ARGV, "setup") for _ in range(count))
                if res is not None]

    def run_pass(self, commands, traced):
        """One pass over the command list; outputs are checked after the pass."""
        results, traces = [], []
        start = time.perf_counter()
        for n, cmd in enumerate(commands):
            if traced:
                spans = os.path.join(self.workdir, f"spans-{n}.json")
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans] + cmd.argv
            else:
                argv = [sys.executable, "-m", "getk.cli"] + cmd.argv
            res = self.spawn(argv, f"cmd-{n}")
            results.append(res)
            if res is None:
                break
            if traced:
                with open(spans, "r", encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        elapsed = time.perf_counter() - start
        failures = []
        for cmd, res in zip(commands, results):
            problem = "not started before the deadline" if res is None else cmd.check(res[3], res[4])
            if problem:
                failures.append(f"{' '.join(cmd.argv)}: {problem}")
        done = [r for r in results if r is not None]
        return {
            "wall": sum(r[0] for r in done),  # the commands alone, no reference
            "elapsed": elapsed,
            "argv": [cmd.argv for cmd in commands],
            "cmd_walls": [r[0] for r in done],
            "cmd_cpus": [r[1] for r in done],
            "rss_kb": max((r[2] for r in done), default=0),
            "attempted": len(results),
            "failures": failures,
            "traces": traces,
            "complete": len(done) == len(commands),
        }


def n_passes(workload, n_commands, seconds, traced):
    """(least, planned) passes per run, set by --seconds and the workload, not by speed."""
    least = max(math.ceil(MIN_SAMPLES / n_commands), 2 if traced else 1)
    return least, max(least, math.floor(seconds / workloads.NOMINAL_PASS_S[workload]))


def tail(samples, planned):
    """Tail of the samples at the percentile that leaves ten of ``planned`` above it.

    With every planned pass made this is the highest percentile with ten
    samples above it; if the run was cut short the percentile stays put.
    Returns (value, percentile, samples above it).
    """
    ordered = sorted(samples)
    q = max(planned - 10, 1) / planned
    index = max(math.ceil(q * len(ordered)) - 1, 0)
    return ordered[index], 100.0 * q, len(ordered) - index - 1


def provenance():
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "git_commit": "unknown (not a git checkout)",
        "lines_src": _py_lines(SRC),
        "lines_tests": _py_lines(os.path.join(ROOT, "tests")),
    }
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu_model"] = models[0] if models else "unknown"
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    info["blas_threads"] = _blas_threads()
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            info["git_commit"] = proc.stdout.strip()
    return info


def _blas_threads():
    """Thread count OpenBLAS reports in this process (the children share its environment)."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return "unknown"
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _py_lines(top):
    total = 0
    for dirpath, _, files in os.walk(top):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_workload(workload, seed, seconds, traced):
    """Generate inputs, run the passes, check outputs; return (result dict, report lines)."""
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    try:
        commands = workloads.build(workload, seed, workdir)
        with Runner(seed, workdir) as runner:
            runner.warm_up()
            least, planned = n_passes(workload, len(commands), seconds, traced)
            per_gap = 0 if traced else math.ceil(SETUP_SAMPLES / (planned + 1))
            setup = runner.setup_samples(per_gap)
            passes = []
            start = time.monotonic()
            while len(passes) < planned:
                if passes and len(passes) >= least and (
                        time.monotonic() - start + passes[-1][1]["elapsed"] > OVERRUN * seconds):
                    break
                # traced runs alternate traced and untraced passes, starting traced
                kind = traced and len(passes) % 2 == 0
                passes.append((kind, runner.run_pass(commands, kind)))
                if not passes[-1][1]["complete"]:
                    break
                setup += runner.setup_samples(per_gap)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p["attempted"] for _, p in passes)
    failures = [f for _, p in passes for f in p["failures"]]
    head = [f"workload={workload} seed={seed} passes={len(passes)} "
            f"commands_per_pass={len(commands)} trace={int(traced)}"]
    head += [f"FAILED {f}" for f in failures]
    if traced:
        metrics, lines = _layer_metrics(workload, passes)
    else:
        metrics, lines = _end_to_end(setup, [p for _, p in passes if p["complete"]], planned,
                                     runner.speed(), len(runner.reference))
    lines.append(f"fail_ratio = {len(failures) / attempted:.6g} 1 ({len(failures)}/{attempted})")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, head + lines


def _end_to_end(setup, passes, planned, speed, n_reference):
    """End-to-end metrics of complete passes.

    On a shared host the same command can take 1.5-2x longer from one
    stretch of time to the next, and the reference slows down with it.
    Every time sample is scaled to nominal host speed by the run's factor
    ``speed``.  wall_s and cpu_s are the mean over the passes, cmd_p50_s
    the median over the commands of each one's mean; setup_s and cmd_tail_s
    are taken over all samples.  The unscaled figures are printed as well.
    """
    if not passes or not setup:
        return {}, ["no complete pass"]
    raw_wall = list(zip(*(p["cmd_walls"] for p in passes)))  # per command, over passes
    wall = [[w * speed for w in ws] for ws in raw_wall]
    cpu = [[c * speed for c in cs] for cs in zip(*(p["cmd_cpus"] for p in passes))]
    means = [statistics.fmean(ws) for ws in wall]
    samples = [w for ws in wall for w in ws]
    value, pct, above = tail(samples, planned * len(wall))
    values = {
        "setup_s": statistics.median(setup) * speed,
        "wall_s": sum(means),
        "cmd_p50_s": statistics.median(means),
        "cmd_tail_s": value,
        "cpu_s": sum(statistics.fmean(cs) for cs in cpu),
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} `import getk.cli` processes between passes",
        "wall_s": f"one pass of {len(wall)} commands, mean of {len(passes)} passes",
        "cmd_p50_s": f"median over {len(wall)} commands of each one's mean of {len(passes)}",
        "cmd_tail_s": f"p{pct:.1f} of {len(samples)} command samples, {above} above it",
        "cpu_s": f"children's user+sys for one pass, mean of {len(passes)} passes",
        "peak_rss_mb": "largest child ru_maxrss",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines = [f"{name} = {values[name]:.6g} {unit} ({notes[name]})" for name, unit in END_TO_END]
    lines.append(f"times above are scaled by {speed:.4f} = {REFERENCE_NOMINAL_S} s / mean of "
                 f"{n_reference} reference times")
    lines.append(f"unscaled: setup_s {statistics.median(setup):.6g} s, wall_s "
                 f"{sum(statistics.fmean(ws) for ws in raw_wall):.6g} s, cmd_p50_s "
                 f"{statistics.median(statistics.fmean(ws) for ws in raw_wall):.6g} s")
    for k, (mean, raw) in enumerate(zip(means, raw_wall)):
        lines.append(f"command {k}: mean {mean:.4f} s scaled, "
                     f"{statistics.fmean(raw):.4f} s unscaled :: "
                     + " ".join(os.path.basename(a) if os.path.isabs(a) else a
                                for a in passes[0]["argv"][k]))
    return metrics, lines


def _layer_metrics(workload, passes):
    traced = [traced_cli.pass_metrics(p["traces"]) for kind, p in passes if kind and p["complete"]]
    plain = [p["wall"] for kind, p in passes if not kind and p["complete"]]
    lines = []
    if not traced or not plain:
        return {}, ["no complete traced and untraced pass"]
    values = {}
    for name, unit in traced_cli.PER_LAYER:
        if name == "trace.overhead":
            traced_walls = [p["wall"] for kind, p in passes if kind and p["complete"]]
            values[name] = statistics.median(traced_walls) / statistics.median(plain)
        elif name in traced_cli.EXACT_COUNTS:
            values[name] = traced[0][name]
            if any(t[name] != values[name] for t in traced[1:]):
                lines.append(f"WARNING {name} differs between traced passes: "
                             f"{[t[name] for t in traced]}")
        else:
            values[name] = statistics.median(t[name] for t in traced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in traced_cli.PER_LAYER}
    lines += [f"{name} = {values[name]:.6g} {unit}" for name, unit in traced_cli.PER_LAYER]
    first = traced[0]
    lines.append(f"purity.reference_cache_hit_ratio base: {first['purity.estimates_under_reference']} "
                 f"estimates / {first['purity.numeric_max_reference.calls']} reference calls")
    lines.append(f"coherent.grad_evals_per_restart base: "
                 f"{first['coherent.raw_purity_and_gradient.calls']} evaluations / "
                 f"{first['coherent.restarts']} restarts")
    lines.append(f"boxes.orbit_yield base: {first['boxes.orbit_members']} members / "
                 f"{first['boxes.local_relabeling.calls']} relabelings")
    self_times = {"cli.import": values["cli.import_s"]}
    self_times.update({n[:-len(".self_s")]: v for n, v in values.items() if n.endswith(".self_s")})
    top = max(self_times, key=self_times.get)
    verdict = "matches" if top in PREDICTED_TOP[workload] else "MISMATCH with"
    lines.append(f"largest self time: {top} ({self_times[top]:.4g} s per pass), "
                 f"{verdict} the prediction {' + '.join(PREDICTED_TOP[workload])}")
    return metrics, lines


def main(argv=None):
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "getk", "cli.py")):
        print(f"error: no getk sources under {SRC}; run from a getk checkout", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        results[name] = result
    if args.workload == "all":
        for name, result in results.items():
            print(f"{name} " + json.dumps(result))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
