"""Command line front end.

Every command reads a JSON config, resolves defaults, and emits a JSON
document whose "manifest" key echoes the resolved config plus the effective
seed, so a run can be reproduced from its own output. Tabular Monte Carlo
output switches to CSV when --out ends in .csv; graphs switch to the plain
text format when --out ends in .txt.

Exit codes: 0 success, 2 bad config, 3 infeasible request, 4 solver failed
to converge. A failed validate suite exits 1.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import acceptance, oracles, rates, varsolve
from .errors import ConfigError, InfeasibleError, NonConvergenceError
from .graphs import (ColoredGraph, ModelParams, empirical_measures,
                     sample_colored_graph, sample_conditional)
from .measures import (Alphabet, ColorCounts, ColorMeasure, Kernel,
                       NeighborhoodMeasure, PairCounts, PairMeasure,
                       cap_degrees, consistify, phi, phi_counts,
                       product_kernel_measure, quantize, total_variation)
from .mcharness import TailExperiment, estimate_tail_exponent, exact_er_edge_exponent

_SEED_MAX = 2 ** 64


def _load_config(path):
    if path is None:
        raise ConfigError("this command requires --config")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg, key, kind=None):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    value = cfg[key]
    # JSON true/false parse to bool, which Python counts as an int
    if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        raise ConfigError(f"config key {key!r} has wrong type {type(value).__name__}")
    return value


def _real(value, key):
    """A config number as a float; a bool, string or other value is a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _rate_json(value):
    return value if math.isfinite(value) else "inf"


def _parse_mu(raw):
    try:
        w = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"mu must be a list of numbers: {exc}") from exc
    if w.ndim != 1 or w.size == 0:
        raise ConfigError("mu must be a non-empty flat list")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        bad = [i for i, v in enumerate(w) if not (math.isfinite(v) and v >= 0)]
        raise ConfigError(f"mu entries at indices {bad} are negative or non-finite")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"mu must sum to 1 (got {total!r})")
    return ColorMeasure(Alphabet(w.size), w / total, probability=True)


def _parse_kernel(raw, m):
    if isinstance(raw, (int, float)):
        if m != 1:
            raise ConfigError("scalar C only matches a single-color mu")
        return Kernel.constant(float(raw))
    try:
        v = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"C must be a number or a square matrix: {exc}") from exc
    if v.shape != (m, m):
        raise ConfigError(f"C has shape {list(v.shape)}, expected [{m}, {m}]")
    for a in range(m):
        for b in range(a + 1, m):
            if v[a, b] != v[b, a]:
                raise ConfigError(
                    f"C is not symmetric: C[{a}][{b}]={float(v[a, b])!r} but "
                    f"C[{b}][{a}]={float(v[b, a])!r}")
    bad = [(int(a), int(b)) for a, b in np.argwhere(~np.isfinite(v) | (v < 0))]
    if bad:
        raise ConfigError(f"C entries at {bad} are negative or non-finite")
    if not v.any():
        raise ConfigError("C must not be identically zero")
    return Kernel(Alphabet(m), v)


def _parse_model(cfg):
    mu = _parse_mu(_require(cfg, "mu"))
    C = _parse_kernel(_require(cfg, "C"), mu.alphabet.m)
    return mu, C


def _from_config(build, *args, **kwargs):
    """Build a library object from config values; its ValueError is a config error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_seed(cfg, args):
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("a seed is required (config key \"seed\" or --seed)")
    if not isinstance(seed, int) or not 0 <= seed < _SEED_MAX:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


def _manifest(command, cfg, seed=None):
    resolved = dict(cfg)
    if seed is not None:
        resolved["seed"] = seed
    return {"command": command, "config": resolved}


def _emit(doc, args, text=None):
    """Write the JSON document, or for .txt targets the payload text() builds."""
    if args.out and args.out.endswith(".txt") and text is not None:
        with open(args.out, "w") as fh:
            fh.write(text())
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(doc["manifest"], fh, indent=2)
            fh.write("\n")
        return
    payload = json.dumps(doc, indent=2, default=_jsonable) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _jsonable(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# commands


def _cmd_generate(args):
    cfg = _load_config(args.config)
    mu, C = _parse_model(cfg)
    n = _require(cfg, "n", int)
    seed = _resolve_seed(cfg, args)
    graph = sample_colored_graph(_from_config(ModelParams, mu, C, n), seed)
    cc, pc, nc = empirical_measures(graph)
    doc = {"manifest": _manifest("generate", cfg, seed),
           "graph": graph.to_dict(),
           "color_counts": cc.to_dict(), "pair_counts": pc.to_dict(),
           "neighborhood_counts": nc.to_dict()}
    _emit(doc, args, text=graph.to_text)
    return 0


def _load_graph(cfg, args):
    if "graph" in cfg:
        try:
            return ColoredGraph.from_dict(cfg["graph"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad inline graph: {exc}") from exc
    if "graph_path" in cfg:
        try:
            with open(cfg["graph_path"]) as fh:
                return ColoredGraph.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read graph {cfg['graph_path']}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad graph file {cfg['graph_path']}: {exc}") from exc
    if "mu" in cfg:
        mu, C = _parse_model(cfg)
        return sample_colored_graph(
            _from_config(ModelParams, mu, C, _require(cfg, "n", int)),
            _resolve_seed(cfg, args))
    raise ConfigError("measure needs one of: graph, graph_path, or mu/C/n/seed")


def _cmd_measure(args):
    cfg = _load_config(args.config)
    graph = _load_graph(cfg, args)
    cc, pc, nc = empirical_measures(graph)
    doc = {"manifest": _manifest("measure", cfg, cfg.get("seed", args.seed)),
           "n": graph.n, "edge_count": graph.edge_count,
           "color_counts": cc.to_dict(), "pair_counts": pc.to_dict(),
           "neighborhood_counts": nc.to_dict()}
    _emit(doc, args)
    return 0


def _cmd_rate(args):
    cfg = _load_config(args.config)
    mu, C = _parse_model(cfg)
    try:
        nu = NeighborhoodMeasure.from_dict(_require(cfg, "nu", dict))
        pair = PairMeasure.from_dict(_require(cfg, "pair", dict))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad measure in config: {exc}") from exc
    doc = {"manifest": _manifest("rate", cfg),
           "J": rates.rate_J(pair, nu, mu, C).to_dict()}
    if "omega" in cfg:
        omega = _parse_mu(cfg["omega"])
        doc["I"] = rates.rate_I(omega, pair, mu, C).to_dict()
        doc["I_omega"] = rates.rate_I_omega(pair, omega, C)
        doc["J_tilde"] = rates.rate_J_tilde(nu, omega, pair)
    _emit(doc, args)
    return 0


def _cmd_degree_rate(args):
    cfg = _load_config(args.config)
    raw = _require(cfg, "degrees", dict)
    try:
        degrees = {int(k): float(v) for k, v in raw.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"degrees must map integers to probabilities: {exc}") from exc
    c = float(_require(cfg, "c", (int, float)))
    mean = cfg.get("mean")
    value = rates.rate_delta(degrees, c, mean=None if mean is None else _real(mean, "mean"))
    doc = {"manifest": _manifest("degree-rate", cfg), "value": _rate_json(value)}
    _emit(doc, args)
    return 0


def _cmd_edge_rate(args):
    cfg = _load_config(args.config)
    mu, C = _parse_model(cfg)
    mode = cfg.get("mode", "zeta")
    x = None if mode == "mc" and "event" in cfg else float(_require(cfg, "x", (int, float)))
    doc = {"manifest": _manifest("edge-rate", cfg)}
    if mode == "zeta":
        doc["value"] = _rate_json(rates.rate_zeta(x, mu, C))
        if mu.alphabet.m == 1:
            doc["er_closed_form"] = rates.rate_zeta_er(x, float(C.values[0, 0]))
    elif mode == "exact":
        if mu.alphabet.m != 1:
            raise ConfigError("mode \"exact\" needs the single-color model")
        sizes = _require(cfg, "sizes", list)
        c = float(C.values[0, 0])
        doc["rows"] = [{"n": int(n), "exponent": exact_er_edge_exponent(int(n), c, x)}
                       for n in sizes]
    elif mode == "mc":
        seed = _resolve_seed(cfg, args)
        doc["manifest"] = _manifest("edge-rate", cfg, seed)
        event = cfg.get("event", {"kind": "edges", "x": x})
        if not isinstance(event, dict):
            raise ConfigError("event must be a JSON object")
        exp = _from_config(
            TailExperiment, mu=mu, C=C, event=event,
            sizes=tuple(int(n) for n in _require(cfg, "sizes", list)),
            replicas=int(_require(cfg, "replicas", int)), seed=seed,
            replica_offset=int(cfg.get("replica_offset", 0)))
        est = estimate_tail_exponent(exp)
        # only the edge event has a rate here, taken at the event's own x
        prediction = (_rate_json(rates.rate_zeta(float(event["x"]), mu, C))
                      if event["kind"] == "edges" else None)
        if args.out and args.out.endswith(".csv"):
            with open(args.out, "w") as fh:
                fh.write(est.to_csv(rate_prediction=prediction))
            with open(args.out + ".manifest.json", "w") as fh:
                json.dump(doc["manifest"], fh, indent=2)
                fh.write("\n")
            return 0
        doc["estimate"] = est.to_dict()
        doc["rate_prediction"] = prediction
    else:
        raise ConfigError(f"unknown edge-rate mode {mode!r}")
    _emit(doc, args)
    return 0


def _cmd_ising(args):
    cfg = _load_config(args.config)
    betas = cfg.get("beta", 0.0)
    cs = _require(cfg, "c", (int, float, list))
    betas = [_real(b, "beta") for b in (betas if isinstance(betas, list) else [betas])]
    cs = [_real(c, "c") for c in (cs if isinstance(cs, list) else [cs])]
    records = []
    for beta in betas:
        for c in cs:
            if not c > 0:
                raise ConfigError(f"c must be positive, got {c!r}")
            report = varsolve.ising_annealed(beta, c)
            records.append({"beta": beta, "c": c,
                            "value": report.value,
                            "oracle": oracles.ising_oracle(beta, c),
                            "iterations": report.iterations,
                            "converged": report.converged})
    doc = {"manifest": _manifest("ising", cfg), "records": records}
    _emit(doc, args)
    return 0


def _cmd_sample_conditional(args):
    cfg = _load_config(args.config)
    n = _require(cfg, "n", int)
    try:
        omega_n = ColorCounts(n, _require(cfg, "color_counts", list))
        pair_n = PairCounts(n, _require(cfg, "edge_counts", list))
    except ValueError as exc:
        raise ConfigError(f"bad counts: {exc}") from exc
    seed = _resolve_seed(cfg, args)
    graph = sample_conditional(omega_n, pair_n, seed)
    doc = {"manifest": _manifest("sample-conditional", cfg, seed),
           "graph": graph.to_dict()}
    _emit(doc, args, text=graph.to_text)
    return 0


def _cmd_approximate(args):
    cfg = _load_config(args.config)
    mu, C = _parse_model(cfg)
    eps = float(_require(cfg, "eps", (int, float)))
    if not eps > 0:
        raise ConfigError(f"eps must be positive, got {eps!r}")
    nu = rates.poisson_limit_law(mu, C)
    pair = product_kernel_measure(C, mu)
    pair_hat, nu_hat = consistify(pair, nu, eps)
    _, phi2 = phi(nu_hat)
    doc = {"manifest": _manifest("approximate", cfg, cfg.get("seed", args.seed)),
           "consistify": {
               "pair": pair_hat.to_dict(), "nu_atoms": len(nu_hat.support),
               "consistency_residual": float(np.abs(phi2 - pair_hat.weights).max()),
               "pair_moved": float(np.abs(pair_hat.weights - pair.weights).max()),
               "nu_tv": total_variation(nu, nu_hat)}}
    if "n" in cfg:
        n = _require(cfg, "n", int)
        seed = _resolve_seed(cfg, args)
        doc["manifest"] = _manifest("approximate", cfg, seed)
        graph = sample_colored_graph(_from_config(ModelParams, mu, C, n), seed)
        cc, pc, _ = empirical_measures(graph)
        nu_n = quantize(cc, pc, nu, seed)
        color, adj = phi_counts(nu_n)
        stage = {"n": n, "tv_to_target": total_variation(nu_n.measure, nu),
                 "phi_color_exact": bool(np.array_equal(color, cc.counts)),
                 "phi_pair_exact": bool(np.array_equal(adj, pc.adjacency))}
        if cfg.get("cap", False):
            capped = cap_degrees(nu_n)
            stage["max_magnitude_before"] = nu_n.max_magnitude()
            stage["max_magnitude_after"] = capped.max_magnitude()
        doc["quantize"] = stage
    _emit(doc, args)
    return 0


def _cmd_validate(args):
    overrides = {}
    if args.config:
        cfg = _load_config(args.config)
        raw = cfg.get("overrides", {})
        if not isinstance(raw, dict):
            raise ConfigError("overrides must map criterion ids to dicts")
        for key, val in raw.items():
            try:
                cid = int(key)
            except ValueError as exc:
                raise ConfigError(f"bad criterion id {key!r}") from exc
            if cid not in acceptance.CRITERIA or not isinstance(val, dict):
                raise ConfigError(f"bad override entry {key!r}")
            overrides[cid] = val
    suite = args.suite or "all"
    if suite not in acceptance.SUITES:
        raise ConfigError(f"unknown suite {suite!r}, expected one of "
                          f"{sorted(acceptance.SUITES)}")
    records = acceptance.run_suite(suite, overrides)
    for rec in records:
        print(acceptance.format_record(rec))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"suite": suite, "records": records}, fh, indent=2,
                      default=_jsonable)
            fh.write("\n")
    return 0 if all(rec["passed"] for rec in records) else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "measure": _cmd_measure,
    "rate": _cmd_rate,
    "degree-rate": _cmd_degree_rate,
    "edge-rate": _cmd_edge_rate,
    "ising": _cmd_ising,
    "sample-conditional": _cmd_sample_conditional,
    "approximate": _cmd_approximate,
    "validate": _cmd_validate,
}


def _seed_arg(text):
    value = int(text)
    if not 0 <= value < _SEED_MAX:
        raise argparse.ArgumentTypeError("seed must be in [0, 2**64)")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphrates",
        description="Rate functions and samplers for sparse colored graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=_seed_arg,
                       help="override the config seed (unsigned 64-bit)")
        p.add_argument("--out", help="output path; .csv/.txt pick the flat formats")
        if name == "validate":
            p.add_argument("--suite", default="all",
                           choices=sorted(acceptance.SUITES),
                           help="acceptance suite to run (default: all)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 4


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
