"""One repeat of one workload, in a fresh interpreter; started by run.py.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED_AT RESULT TMP

MODE is "setup" (build the inputs and stop), "time" (also run the timed
job), "run" (also check the outputs) or "trace" (run it with the layers
traced, then check the outputs). SPAWNED_AT is the parent's
time.time() just before it started this interpreter, so setup_s covers the
interpreter start, the package import and building the inputs. The result
is written as JSON to RESULT; TMP is a scratch directory for the inputs and
the program's outputs.
"""

import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv):
    workload, seed, mode, spawned_at, result_path, tmp = argv
    seed, spawned_at, tmp = int(seed), float(spawned_at), Path(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    import graphrates
    if Path(graphrates.__file__).resolve().parent != ROOT / "src" / "graphrates":
        raise SystemExit(f"imported graphrates from {graphrates.__file__}, "
                         f"not from {ROOT / 'src'}")
    import workloads
    setup, job, check = workloads.WORKLOADS[workload]
    inputs = setup(seed, tmp)
    result = {"setup_s": time.time() - spawned_at}
    if mode == "setup":
        Path(result_path).write_text(json.dumps(result))
        return

    import numpy
    import scipy
    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    output = job(inputs)
    wall = time.perf_counter() - start
    result.update(wall_s=wall, cpu_s=_cpu_seconds() - cpu0,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        # read the trace out before the checks, which call traced functions too
        times = workloads.validate_criterion_times(inputs) if workload == "validate" else {}
        result["layers"], result["trace_summary"] = tracer.layer_metrics(times)
        result["spans"] = tracer.span_rows(start)
    result["checks"] = [
        {"name": c[0], "ok": bool(c[1]), "detail": c[2], "known_red": len(c) > 3 and c[3]}
        for c in (check(inputs, output) if mode != "time" else [])]
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
