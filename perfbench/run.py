"""graphrates benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 40 --trace 0

Workloads (why each was chosen is in BENCHMARK.json): generate, validate
and mc-tail. Every repeat runs in a fresh interpreter started from
this process (perfbench/child.py), so the package import and the caches the
program fills are paid the way a user pays them. Only one child runs at a
time, with the BLAS and OpenMP thread variables set to 1.

--trace 0 repeats the workload's fixed job for about --seconds (at least
twice; a repeat is started only if one of median length still ends in
time), checks the outputs of the first repeat (the seed, and so the inputs,
are the same for all), tops the set-up samples up to five with set-up-only
children, and reports the 10%-trimmed mean (TRIM) over the repeats of
  setup_s      interpreter start until the package is imported and the
               inputs are built
  wall_s       the fixed job after set-up
  cpu_s        user plus system CPU time of the child during the job
  peak_rss_mb  the child's ru_maxrss when the job has ended.
--trace 1 runs the job once untraced and once traced (perfbench/tracing.py)
and reports the per-layer metrics, with the tracing overhead as traced minus
untraced wall_s.

The first repeat checks the program's outputs (perfbench/workloads.py); failed
checks over attempted checks is fail_ratio. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics. The
full record, with the environment, every repeat and, for a traced run, every
span, goes to .perfbench-out/ under the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("generate", "validate", "mc-tail")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
MIN_REPEATS = 2
MIN_SETUPS = 5
# The host's speed switches between a fast and a slow state every few
# seconds, so the repeats of one run are bimodal and their median jumps
# between the two modes; a trimmed mean follows the share of time spent in
# each and still drops the odd outlier.
TRIM = 0.1
RUN_LIMIT_S = 170  # a run must end within 180 s
THREAD_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                    "VECLIB_MAXIMUM_THREADS")}


class ChildFailed(Exception):
    pass


def _trimmed_mean(values):
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def _environment(seed):
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed,
            "threads": THREAD_ENV}


class Runner:
    """Starts one child at a time and keeps the whole run under RUN_LIMIT_S."""

    def __init__(self, workload, seed, tmp, log):
        self.workload, self.seed, self.tmp, self.log = workload, seed, tmp, log
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)

    def child(self, mode):
        result_path = self.tmp / f"result-{mode}.json"
        result_path.unlink(missing_ok=True)
        self.log.write(f"--- {mode}\n")
        self.log.flush()
        started = time.monotonic()
        argv = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed),
                mode, repr(time.time()), str(result_path), str(self.tmp)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=self.log,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(self.deadline - started, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child exceeded the {RUN_LIMIT_S} s run limit") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
        result = json.loads(result_path.read_text())
        result["duration_s"] = time.monotonic() - started
        return result


def _measure(runner, seconds):
    started = time.monotonic()
    repeats = [runner.child("run")]
    # start another repeat only if one of median length still ends in time
    while len(repeats) < MIN_REPEATS or (
            time.monotonic() - started
            + statistics.median(rep["duration_s"] for rep in repeats) <= seconds):
        repeats.append(runner.child("time"))
    setups = [rep["setup_s"] for rep in repeats]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.child("setup")["setup_s"])
    metrics = {"setup_s": _trimmed_mean(setups)}
    for name, _ in END_TO_END[1:]:
        metrics[name] = _trimmed_mean(rep[name] for rep in repeats)
    units = dict(END_TO_END)
    return repeats, {"setup_samples_s": setups}, {k: (v, units[k]) for k, v in metrics.items()}


def _trace(runner, workload, seed):
    plain = runner.child("run")
    traced = runner.child("trace")
    spans = traced.pop("spans")
    metrics = {name: (value, unit) for name, value, unit in traced.pop("layers")}
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps(
        {"workload": workload, "seed": seed, "untraced_wall_s": plain["wall_s"],
         "traced_wall_s": traced["wall_s"], "overhead_s": overhead,
         "summary": traced.pop("trace_summary"),
         "span_fields": ["name", "start_s", "end_s", "parent", "op"], "spans": spans}))
    return [plain, traced], {"trace_file": trace_file.name}, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "graphrates" / "__init__.py").is_file():
        print(f"perfbench: no graphrates source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        with open(OUT / f"{run_id}.log", "w") as log:
            runner = Runner(args.workload, args.seed, tmp, log)
            if args.trace:
                repeats, extra, metrics = _trace(runner, args.workload, args.seed)
            else:
                repeats, extra, metrics = _measure(runner, args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}; see {OUT / (run_id + '.log')}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    checks = [c for rep in repeats for c in rep.pop("checks")]
    failed = [c for c in checks if not c["ok"] and not c["known_red"]]
    known_red = [c for c in checks if not c["ok"] and c["known_red"]]
    environment = _environment(args.seed)
    environment.update(repeats[0].pop("versions"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment, "repeats": repeats,
              **extra, "checks": checks,
              "fail_ratio": (len(failed) + len(known_red)) / len(checks),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repeats {len(repeats)}  commit {environment['git_commit']}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6f}" if isinstance(value, float) else value
        print(f"  {name:40s} {shown:>16} {unit}")
    print(f"  {'fail_ratio':40s} {len(failed) + len(known_red)}/{len(checks)}")
    for c in {c["name"]: c for c in failed + known_red}.values():
        label = "known red" if c["known_red"] else "FAILED"
        print(f"  {label}: {c['name']} ({c['detail']})")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
