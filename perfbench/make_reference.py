"""Recompute perfbench/reference.json, the values the workloads check against.

    python3 perfbench/make_reference.py

- mc_tail: P(event) for each mc-tail event and size. The edge and pair
  events are exact: given the colour counts, |E| and the 0-1 edge count are
  (sums of) independent binomials, so the law needs no sampler. The
  isolated-vertex event has no closed form and is estimated from
  REFERENCE_REPLICAS replicas per size with a seed no benchmark run uses.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.stats import binom

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
REFERENCE_PATH = ROOT / "perfbench" / "reference.json"
if not REFERENCE_PATH.exists():
    REFERENCE_PATH.write_text("{}")  # workloads reads it on import

from graphrates import mcharness  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE_REPLICAS = 200_000
REFERENCE_SEED = 2 ** 63 + 20060607


def _binom_pmf(trials, p):
    return binom.pmf(np.arange(trials + 1), trials, p)


def _colour_count_weights(n):
    """P(j vertices get colour 0) under mu = (1/2, 1/2)."""
    return binom.pmf(np.arange(n + 1), n, wl.BENCH_MU[0])


def exact_edges_tail(n, x):
    p = np.minimum(np.array(wl.BENCH_C) / n, 1.0)
    k = math.ceil(x * n)
    total = 0.0
    for j, w in enumerate(_colour_count_weights(n)):
        pmf = np.convolve(np.convolve(_binom_pmf(j * (j - 1) // 2, p[0, 0]),
                                      _binom_pmf(j * (n - j), p[0, 1])),
                          _binom_pmf((n - j) * (n - j - 1) // 2, p[1, 1]))
        total += w * pmf[k:].sum()
    return float(total)


def exact_pair_tail(n, s):
    # same comparison as the harness: count / n >= s in floating point
    k = next(c for c in range(n * n) if c / n >= s)
    p = min(wl.BENCH_C[0][1] / n, 1.0)
    return float(sum(w * binom.sf(k - 1, j * (n - j), p)
                     for j, w in enumerate(_colour_count_weights(n))))


def main():
    mu, C = wl.bench_model()
    ref = {"mc_tail": {}}
    for event in wl.MC_EVENTS:
        kind = event["kind"]
        rows = {}
        if kind == "edges":
            for n in wl.MC_SIZES:
                rows[str(n)] = {"p": exact_edges_tail(n, event["x"]), "method": "exact"}
        elif kind == "pair":
            for n in wl.MC_SIZES:
                rows[str(n)] = {"p": exact_pair_tail(n, event["s"]), "method": "exact"}
        else:
            exp = mcharness.TailExperiment(mu=mu, C=C, event=event, sizes=wl.MC_SIZES,
                                           replicas=REFERENCE_REPLICAS, seed=REFERENCE_SEED)
            for row in mcharness.estimate_tail_exponent(exp).rows:
                rows[str(row["n"])] = {"p": row["p_hat"], "method": "monte-carlo",
                                       "replicas": REFERENCE_REPLICAS,
                                       "seed": REFERENCE_SEED}
        ref["mc_tail"][kind] = {"event": event, **rows}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=2) + "\n")
    print(json.dumps(ref, indent=2))


if __name__ == "__main__":
    main()
