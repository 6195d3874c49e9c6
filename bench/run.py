"""Cold-verdict benchmark for the spdeg CLI.

    python3 bench/run.py --workload {theorem-b,theorem-a,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; spdeg is imported from ``src/``.
Every invocation is a fresh interpreter, started only after the previous one
has exited (a closed loop with one client), because that is how the CLI is
used: each verdict pays interpreter start-up and import.  Every verdict is
checked (see verdicts.py).  The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics.  Passes over the workload repeat
  while the next one is expected to end within ``--seconds``; times are
  medians over the passes.
* ``--trace 1``: the per-layer metrics, from one untraced pass, one pass
  through the traced launcher (launch.py) and one cProfile counting pass.

See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark's own process writes nothing
import launch  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "spdeg-bench"
# the body of the `spdeg` console script
ENTRY = "import sys; from spdeg.cli import main; sys.exit(main())"
# cold imports per run, half before and half after the measured passes
SETUP_REPEATS = 20
RUN_LIMIT_S = 170.0             # every run exits well inside 180 s

METRIC_SPANS = sorted({name for name, _, _ in launch.SPANS} - launch.SPLIT
                      - {"degeneration.der_omega_dim"}
                      | {f"{n}.{kind}" for n in launch.SPLIT
                         for kind in ("rational", "exppoly")})
SUITES = ("degeneration.theorem_b_search", "degeneration.non_degeneration_suite")


class RunError(RuntimeError):
    """The benchmark itself cannot go on (no source tree, time limit)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # bytecode is cached inside the checkout, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


class Runner:
    """Spawns one child at a time and reaps it with its own resource usage."""

    def __init__(self, scratch: Path, deadline: float):
        self.env = child_env()
        self.deadline = deadline
        self.out_path = scratch / "stdout"
        self.err_path = scratch / "stderr"

    def spawn(self, cmd):
        """(exit code, wall s, cpu s, maxrss KB, stdout, stderr) of one child."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("run time limit reached")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise RunError(f"child killed by signal {-proc.returncode}: {cmd[-4:]}")
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                self.out_path.read_bytes(), self.err_path.read_bytes())


@dataclass
class Pass:
    """The results of one sequence of invocations over a workload."""

    wall: float = 0.0
    cpu: float = 0.0
    maxrss_kb: int = 0
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)     # (item, code, stdout, stderr)


def run_pass(runner: Runner, items, launcher_mode=None, records_dir=None) -> Pass:
    res = Pass()
    start = time.perf_counter()
    for n, item in enumerate(items):
        if launcher_mode is None:
            cmd = [sys.executable, "-c", ENTRY, *item.argv]
        else:
            cmd = [sys.executable, str(BENCH / "launch.py"), "--mode", launcher_mode,
                   "--out", str(records_dir / f"{n}.json"), "--", *item.argv]
        code, wall, cpu, rss, out, err = runner.spawn(cmd)
        res.latencies.append(wall)
        res.cpu += cpu
        res.maxrss_kb = max(res.maxrss_kb, rss)
        res.outputs.append((item, code, out, err))
    res.wall = time.perf_counter() - start
    return res


def verify(passes):
    """(attempted, failures as (argv, reason, known reason))."""
    attempted, failures = 0, []
    for p in passes:
        for item, code, out, err in p.outputs:
            attempted += 1
            reason = verdicts.check(item, code, out, err)
            if reason is not None:
                failures.append((item.argv, reason, item.known_failure))
    return attempted, failures


def check_import(runner: Runner):
    """Fill the bytecode cache (numpy too, which some verbs import lazily) and
    check that spdeg comes from this checkout."""
    probe = "import spdeg.cli, numpy, sys; sys.stdout.write(spdeg.cli.__file__)"
    code, _, _, _, out, err = runner.spawn([sys.executable, "-c", probe])
    if code != 0 or Path(out.decode()).resolve() != SRC / "spdeg" / "cli.py":
        raise RunError(f"spdeg.cli does not import from {SRC}: {err.decode()[-300:]}")


def setup_times(runner: Runner, n: int):
    """Wall times of n cold interpreters that import spdeg.cli and exit."""
    return [runner.spawn([sys.executable, "-c", "import spdeg.cli"])[1] for _ in range(n)]


def tail_percentile(values, per_pass: int):
    """(percentile, value): the highest of a fixed ladder that has at least ten
    samples beyond it in one pass, so the percentile does not depend on how
    many passes fit in a run.  Workloads of fewer than 20 invocations report
    the maximum, labelled percentile 100."""
    xs = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if per_pass - math.ceil(p / 100 * per_pass) >= 10:
            return p, xs[math.ceil(p / 100 * len(xs)) - 1]
    return 100.0, xs[-1]


# -- end-to-end run ------------------------------------------------------------------


def end_to_end(runner: Runner, items, seconds: float):
    setup = setup_times(runner, SETUP_REPEATS // 2)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(runner, items))
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            break
    setup += setup_times(runner, SETUP_REPEATS - len(setup))
    latencies = [x for p in passes for x in p.latencies]
    tail_p, tail = tail_percentile(latencies, len(items))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "call_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "call_ms_tail": (1000 * tail, "ms"),
        "peak_rss_mb": (max(p.maxrss_kb for p in passes) / 1024, "MB"),
    }
    info = {"passes": len(passes), "invocations": len(latencies),
            "call_ms_tail_percentile": tail_p}
    return passes, metrics, info


# -- traced run ------------------------------------------------------------------------


def span_tree(spans):
    """Self time per span, checking that spans nest under one cli.main root.

    Returns (self_ns by id, root duration ns).  Self time is the span's
    duration minus the durations of its children, which must lie inside it
    and not overlap one another.
    """
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[1] == -1]
    if len(roots) != 1 or roots[0][2] != "cli.main":
        raise RunError(f"expected one cli.main root span, got {[r[2] for r in roots]}")
    children = defaultdict(list)
    for s in spans:
        if s[1] != -1:
            children[s[1]].append(s)
    self_ns = {}
    for sid, (_, _, _, start, end) in by_id.items():
        kids = sorted(children[sid], key=lambda s: s[3])
        last = start
        for k in kids:
            if k[3] < last or k[4] > end:
                raise RunError(f"span {k[2]} is not nested inside {by_id[sid][2]}")
            last = k[4]
        self_ns[sid] = (end - start) - sum(k[4] - k[3] for k in kids)
    return self_ns, roots[0][4] - roots[0][3]


def has_ancestor(span, by_id, names):
    parent = span[1]
    while parent != -1:
        s = by_id[parent]
        if s[2] in names:
            return True
        parent = s[1]
    return False


def per_layer(records, traced: Pass, untraced: Pass, counts):
    calls, self_ns = Counter(), Counter()
    import_ns = k_evals = samples = derw_misses = 0
    for rec in records:
        spans = rec["spans"]
        by_id = {s[0]: s for s in spans}
        own, root_ns = span_tree(spans)
        if sum(own.values()) != root_ns:
            raise RunError("self times under the root do not sum to its duration")
        import_ns += rec["import_ns"]
        for s in spans:
            calls[s[2]] += 1
            self_ns[s[2]] += own[s[0]]
            if s[2] == "curvature.ricci_form" and has_ancestor(
                    s, by_id, {"degeneration.witness_for_class"}):
                k_evals += 1
            if s[2] in ("degeneration.random_symplectic", "degeneration.borbit_element") \
                    and has_ancestor(s, by_id, SUITES):
                samples += 1
            if s[2] == "invariants.symplectic_derivations" and s[1] != -1 \
                    and by_id[s[1]][2] == "degeneration.der_omega_dim":
                derw_misses += 1
    derw_calls = calls["degeneration.der_omega_dim"]
    witnesses = 0
    for item, code, out, _ in traced.outputs:
        if item.check == "theorem-b" and code == 0:
            witnesses += sum(r["status"] == "witness" for r in json.loads(out)["theorem_b"])
    metrics = {}
    for name in METRIC_SPANS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    metrics["setup.import_s"] = (import_ns / 1e9, "s")
    metrics["degeneration.der_omega_cache.hit_ratio"] = (
        (derw_calls - derw_misses) / derw_calls if derw_calls else 0.0, "ratio")
    metrics["degeneration.witness.k_evals_per_witness"] = (
        k_evals / witnesses if witnesses else 0.0, "evals/witness")
    metrics["degeneration.exact_samples"] = (samples, "count")
    metrics["work.fraction_ops"] = (counts["fraction_ops"], "count")
    metrics["work.gcd_calls"] = (counts["gcd_calls"], "count")
    metrics["trace.overhead_ratio"] = (traced.wall / untraced.wall, "ratio")
    info = {"der_omega_dim_calls": derw_calls, "witnesses": witnesses,
            "ricci_form_under_witness": k_evals}
    return metrics, info


def traced_run(runner: Runner, items, scratch: Path):
    untraced = run_pass(runner, items)
    trace_dir, count_dir = scratch / "spans", scratch / "counts"
    trace_dir.mkdir()
    count_dir.mkdir()
    traced = run_pass(runner, items, "trace", trace_dir)
    counted = run_pass(runner, items, "count", count_dir)
    records = [json.loads((trace_dir / f"{n}.json").read_text()) for n in range(len(items))]
    counts = Counter()
    for n in range(len(items)):
        rec = json.loads((count_dir / f"{n}.json").read_text())
        counts["fraction_ops"] += rec["fraction_ops"]
        counts["gcd_calls"] += rec["gcd_calls"]
    metrics, info = per_layer(records, traced, untraced, counts)
    return [untraced, traced, counted], metrics, info


# -- main --------------------------------------------------------------------------------


def run_metadata():
    head = ROOT / ".git" / "HEAD"
    sha = "unavailable (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (SRC / "spdeg").glob("*.py"))
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def main() -> int:
    p = argparse.ArgumentParser(description="cold-verdict benchmark for the spdeg CLI")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # a terminated run still kills and reaps its current child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "spdeg" / "cli.py").is_file():
        print(f"no spdeg source tree at {SRC / 'spdeg'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    inputs = WORK / "inputs" / f"seed{args.seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        items = workloads.build(args.workload, args.seed, inputs, ROOT)
        argv_log = WORK / f"argv-{args.workload}-seed{args.seed}.json"
        argv_log.write_text(json.dumps([i.argv for i in items], indent=1) + "\n")
        runner = Runner(scratch, deadline)
        check_import(runner)
        if args.trace:
            passes, metrics, info = traced_run(runner, items, scratch)
        else:
            passes, metrics, info = end_to_end(runner, items, args.seconds)
        attempted, failures = verify(passes)
    except RunError as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    unexpected = [f for f in failures if not f[2]]
    meta = run_metadata()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in {**meta, **info}.items()))
    print(f"# argv of every invocation: {argv_log.relative_to(ROOT)}")
    print(f"# fail_ratio={len(failures)}/{attempted}"
          f" (known {len(failures) - len(unexpected)}, unexpected {len(unexpected)})")
    for argv, reason, known in sorted({(tuple(a), r, k) for a, r, k in failures}):
        print(f"# FAILED {'known' if known else 'UNEXPECTED'}: spdeg {' '.join(argv)}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
