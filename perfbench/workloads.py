"""The benchmark's three workloads.

Each workload is three functions:

- setup(seed, tmp) builds the inputs from the seed and returns them;
- job(inputs) is the timed call into graphrates' public functions;
- check(inputs, output) returns (name, ok, detail) tuples, with a fourth
  item True for a known red, that test the law of what the program
  produced, not its bits, so a change that alters a random stream but not
  the distribution still passes.

Why each workload exists, and which layer it loads or bypasses, is recorded
in BENCHMARK.json.
"""

import json
import math
from pathlib import Path

import numpy as np

from graphrates import cli, mcharness
from graphrates.measures import (Alphabet, ColorCounts, ColorMeasure, Kernel,
                                 NeighborhoodCounts, PairCounts, phi_counts)

# The 2-colour bench model, kept here rather than imported so a change to the
# program's own constants cannot silently change the benchmark.
BENCH_MU = [0.5, 0.5]
BENCH_C = [[3.0, 1.0], [1.0, 2.0]]

GENERATE_N = 10 ** 5
EDGE_SD_MULT = 6.0

MC_EVENTS = ({"kind": "edges", "x": 1.2},
             {"kind": "pair", "a": 0, "b": 1, "s": 0.4},
             {"kind": "degree_zero", "t": 0.2})
MC_SIZES = (50, 100)
MC_REPLICAS = 1000
MC_SE_MULT = 5.0

CRITERIA = tuple(range(1, 12))
# Criterion 2 fails at the commit that introduced this benchmark because plain
# Monte Carlo cannot reach its event (ROADMAP open item 3). Its verdict is
# still run, printed and recorded, but it is not counted as a failed check;
# if it turns green nothing here needs to change.
KNOWN_RED = frozenset({2})

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


def bench_model():
    alphabet = Alphabet(2)
    return (ColorMeasure(alphabet, BENCH_MU, probability=True),
            Kernel(alphabet, np.array(BENCH_C)))


def _write_config(tmp, name, cfg):
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _cli_inputs(tmp, configs, command, extra=()):
    """argv lists for one CLI call per config, each writing its own output."""
    calls = []
    for name, cfg in configs:
        out = tmp / f"{name}-out.json"
        argv = [command, "--out", str(out), *extra]
        if cfg is not None:
            argv += ["--config", _write_config(tmp, name, cfg)]
        calls.append((argv, out))
    return calls


def run_cli(inputs):
    return [cli.main(argv) for argv, _ in inputs]


def _load_outputs(inputs):
    return [json.loads(out.read_text()) for _, out in inputs]


# ---------------------------------------------------------------------------
# generate


def setup_generate(seed, tmp):
    cfg = {"mu": BENCH_MU, "C": BENCH_C, "n": GENERATE_N, "seed": seed}
    return _cli_inputs(tmp, [("generate", cfg)], "generate")


def check_generate(inputs, codes):
    checks = [("generate exit code", codes == [0], f"codes={codes}")]
    if codes != [0]:
        return checks
    (doc,) = _load_outputs(inputs)
    cc = ColorCounts.from_dict(doc["color_counts"])
    pc = PairCounts.from_dict(doc["pair_counts"])
    nc = NeighborhoodCounts.from_dict(doc["neighborhood_counts"])
    colors = np.asarray(doc["graph"]["colors"])
    n_edges = len(doc["graph"]["edges"])
    color, adj = phi_counts(nc)
    checks.append(("phi_counts(M) reproduces (L1, L2)",
                   np.array_equal(color, cc.counts) and np.array_equal(adj, pc.adjacency),
                   f"L1={cc.counts.tolist()}"))
    checks.append(("L1 matches the graph's colours",
                   np.array_equal(np.bincount(colors, minlength=len(BENCH_MU)), cc.counts), ""))
    checks.append(("2|E| equals the adjacency total",
                   int(adj.sum()) == 2 * n_edges, f"|E|={n_edges}"))
    # |E| given the colour classes is a sum of independent binomials
    k = cc.counts.astype(float)
    slots = np.outer(k, k) - np.diag(k * (k + 1) / 2)
    p = np.minimum(np.array(BENCH_C) / GENERATE_N, 1.0)
    upper = np.triu_indices(len(k))
    mean = float((slots * p)[upper].sum())
    sd = math.sqrt(float((slots * p * (1 - p))[upper].sum()))
    checks.append((f"|E| within {EDGE_SD_MULT:g} SD of its expectation",
                   abs(n_edges - mean) <= EDGE_SD_MULT * sd,
                   f"|E|={n_edges} mean={mean:.1f} sd={sd:.1f}"))
    return checks


# ---------------------------------------------------------------------------
# validate


def setup_validate(seed, tmp):
    # the criteria keep the seeds they publish; the benchmark seed is unused
    return _cli_inputs(tmp, [("validate", None)], "validate", ("--suite", "all"))


def check_validate(inputs, codes):
    # exit 1 means failed criteria, which the per-criterion checks count; any
    # other exit leaves no records, so every criterion counts as failed
    records = {}
    if codes in ([0], [1]):
        (doc,) = _load_outputs(inputs)
        records = {rec["id"]: rec for rec in doc["records"]}
    return [(f"criterion {cid}", bool(records.get(cid, {}).get("passed")),
             records[cid]["name"] if cid in records else f"missing, codes={codes}",
             cid in KNOWN_RED)
            for cid in CRITERIA]


def validate_criterion_times(inputs):
    """Each criterion's own elapsed time, as its record reports it."""
    (doc,) = _load_outputs(inputs)
    return {rec["id"]: rec["elapsed"] for rec in doc["records"]}


# ---------------------------------------------------------------------------
# mc-tail


def setup_mc_tail(seed, tmp):
    mu, C = bench_model()
    return [mcharness.TailExperiment(mu=mu, C=C, event=dict(event), sizes=MC_SIZES,
                                     replicas=MC_REPLICAS, seed=seed)
            for event in MC_EVENTS]


def run_mc_tail(experiments):
    return [mcharness.estimate_tail_exponent(exp) for exp in experiments]


def check_mc_tail(experiments, estimates):
    checks = []
    for exp, est in zip(experiments, estimates):
        kind = exp.event["kind"]
        for row in est.rows:
            p = REFERENCE["mc_tail"][kind][str(row["n"])]["p"]
            se = math.sqrt(p * (1.0 - p) / row["replicas"])
            checks.append((f"{kind} n={row['n']} p_hat within {MC_SE_MULT:g} SE",
                           abs(row["p_hat"] - p) <= MC_SE_MULT * se,
                           f"hits={row['hits']} p_hat={row['p_hat']:.5f} ref={p:.5f}"))
    return checks


WORKLOADS = {
    "generate": (setup_generate, run_cli, check_generate),
    "validate": (setup_validate, run_cli, check_validate),
    "mc-tail": (setup_mc_tail, run_mc_tail, check_mc_tail),
}
