"""Command line front end.

One argparse parser reads a command name and --config, --seed, --out and --suite,
which is for validate alone; --seed and degree keys are ASCII base-10 tokens, as
in the .txt format. main frames every command except validate: it reads the JSON
config, refuses a key the command (for edge-rate, its mode) does not read, runs
the command and emits a one-line JSON document whose first key, "manifest",
echoes the command and the resolved config, including the seed that took effect
for a command that draws, so a run can be reproduced from its own output.
validate takes no config and writes no manifest. One writer, _emit, writes every
JSON document, each non-finite float as "inf", "-inf" or "nan". With --out ending
in .csv or .txt, a Monte Carlo table or a graph goes out in that flat format, with
the manifest in a sidecar.

Only the numpy layers (graphs, measures) are imported here. Each command
imports the rate, solver, oracle, Monte Carlo and acceptance modules it runs,
so generate, measure and sample-conditional never load scipy.

Exit codes: 0 success, 2 bad config, 3 infeasible request, 4 solver failed
to converge. A failed validate suite exits 1.
"""

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .errors import ConfigError, InfeasibleError, NonConvergenceError
from .graphs import (ColoredGraph, ModelParams, empirical_measures,
                     sample_colored_graph, sample_conditional)
from .measures import (Alphabet, ColorCounts, ColorMeasure, Kernel, NeighborhoodMeasure,
                       PairCounts, PairMeasure, _float64, _real, _whole, cap_degrees,
                       consistify, phi, phi_counts, product_kernel_measure, quantize,
                       require_probability, total_variation)
from .seeds import check_seed


def _json_constant(name):
    # Python's JSON parser accepts NaN, which then slips past every range check
    if name == "NaN":
        raise ConfigError("config holds NaN, which is not a number")
    return float(name)


def _load_config(path):
    if path is None:
        raise ConfigError("this command requires --config")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_json_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # JSON text is UTF-8, and json refuses nesting past the interpreter's recursion limit
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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


def _decimal(text):
    """text as an int when it is an optional sign and the ASCII digits 0-9, else as it is,
    for _whole to refuse; int() alone also reads "1_0", " 2" and non-ASCII digits."""
    try:
        return int(text) if re.fullmatch(r"[+-]?[0-9]+", text) else text
    except ValueError:  # past Python's limit on the digits of an int
        return text


def _parse_mu(raw, key):
    w = _from_config(_float64, raw, f"{key} entry")
    if w.ndim != 1 or w.size == 0:
        raise ConfigError(f"{key} must be a non-empty flat list")
    mu = _from_config(lambda: ColorMeasure(Alphabet(w.size), w))
    with np.errstate(over="ignore"):  # an overflowing sum fails the check
        _from_config(require_probability, mu, key)
    return ColorMeasure(mu.alphabet, w / mu.total_mass)


def _parse_kernel(raw, m):
    if isinstance(raw, (int, float)):
        if m != 1:
            raise ConfigError("scalar C only matches a single-color mu")
        raw = [[raw]]
    return _from_config(Kernel, Alphabet(m), raw)


def _parse_model(cfg):
    mu = _parse_mu(_require(cfg, "mu"), "mu")
    C = _parse_kernel(_require(cfg, "C"), mu.alphabet.m)
    return mu, C


def _from_config(build, *args, **kwargs):
    """Build a library object from config values; its ValueError is a config error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_seed(cfg, args):
    """The seed that takes effect, recorded in cfg so the manifest echoes it."""
    raw = cfg.get("seed") if args.seed is None else _decimal(args.seed)
    if raw is None:
        raise ConfigError("a seed is required (config key \"seed\" or --seed)")
    seed = _from_config(check_seed, raw)
    cfg["seed"] = seed
    return seed


def _refuse_unread(name, keys, cfg, args):
    """ConfigError naming every config key outside the space-separated keys; --seed
    counts as the key "seed"."""
    extra = sorted({*cfg, *([] if args.seed is None else ["seed"])} - set(keys.split()))
    if extra:
        raise ConfigError(f"{name} does not read the config keys {extra}")


def _flat(args, suffix, text):
    """text, the writer of a command's flat format, when --out ends in suffix, else None."""
    return text if args.out and args.out.endswith(suffix) else None


def _emit(doc, args, flat=None):
    """Write the JSON document as one line; when flat is a writer from _flat, write
    flat() to --out instead, with the manifest in a sidecar file.

    A ColoredGraph value in the document is written as its to_json() text, the
    bytes json.dumps gives its to_dict(); every other value goes through _plain.
    """
    path, undo = args.out, None
    if flat is not None:
        path, undo, doc = path + ".manifest.json", path, doc["manifest"]
    try:  # without an indent json runs its C encoder, several times faster
        payload = "{" + ", ".join(f"{json.dumps(key)}: {_encode(value)}"
                                  for key, value in doc.items()) + "}\n"
    except RecursionError:  # _plain recurses once per level of the config it echoes
        raise ConfigError("config is nested too deeply to echo in the manifest") from None
    if undo is not None:
        _write(undo, flat())
    if path:
        _write(path, payload, undo)
    else:
        sys.stdout.write(payload)


def _write(path, text, undo=None):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        if undo is not None:  # undo, a flat file, goes out only with its manifest
            os.remove(undo)
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _encode(value):
    if isinstance(value, ColoredGraph):
        return value.to_json()
    return json.dumps(_plain(value))


def _plain(value):
    """value with numpy values as Python ones and non-finite floats as "inf", "-inf" or
    "nan", which json.dumps would write as Infinity or NaN, not JSON."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


# ---------------------------------------------------------------------------
# commands: each takes the loaded config and the parsed arguments and returns
# (body, flat), the document's keys after "manifest" and _flat's writer for _emit


def _sample_model_graph(cfg, args):
    """A graph drawn from the config's model mu, C and n with the resolved seed."""
    mu, C = _parse_model(cfg)
    n = _from_config(_whole, _require(cfg, "n"), "n")
    seed = _resolve_seed(cfg, args)
    return sample_colored_graph(_from_config(ModelParams, mu, C, n), seed)


def _cmd_generate(cfg, args):
    graph = _sample_model_graph(cfg, args)
    flat = _flat(args, ".txt", graph.to_text)
    if flat is not None:  # the flat format holds the graph alone: nothing to measure
        return {}, flat
    cc, pc, nc = empirical_measures(graph)
    return {"graph": graph,
            "color_counts": cc.to_dict(), "pair_counts": pc.to_dict(),
            "neighborhood_counts": nc.to_dict()}, None


def _load_graph(cfg, args):
    """The graph to measure: inline, read from graph_path, or drawn from the model."""
    if "graph" in cfg:
        try:
            return ColoredGraph.from_dict(_require(cfg, "graph", dict))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad inline graph: {exc}") from exc
    if "graph_path" in cfg:
        path = _require(cfg, "graph_path", str)  # open() reads an int as a file descriptor
        try:
            with open(path) as fh:
                return ColoredGraph.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read graph {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad graph file {path}: {exc}") from exc
    if "mu" in cfg:
        return _sample_model_graph(cfg, args)
    raise ConfigError("measure needs one of: graph, graph_path, or mu/C/n/seed")


def _cmd_measure(cfg, args):
    graph = _load_graph(cfg, args)
    cc, pc, nc = empirical_measures(graph)
    return {"n": graph.n, "edge_count": graph.edge_count,
            "color_counts": cc.to_dict(), "pair_counts": pc.to_dict(),
            "neighborhood_counts": nc.to_dict()}, None


def _cmd_rate(cfg, args):
    from . import rates
    mu, C = _parse_model(cfg)
    try:
        nu = NeighborhoodMeasure.from_dict(_require(cfg, "nu", dict))
        pair = PairMeasure.from_dict(_require(cfg, "pair", dict))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad measure in config: {exc}") from exc
    body = {"J": _from_config(rates.rate_J, pair, nu, mu, C).to_dict()}
    if "omega" in cfg:
        omega = _parse_mu(cfg["omega"], "omega")
        body["I"] = _from_config(rates.rate_I, omega, pair, mu, C).to_dict()
        body["I_omega"] = rates.rate_I_omega(pair, omega, C)
        body["J_tilde"] = rates.rate_J_tilde(nu, omega, pair)
    return body, None


def _cmd_degree_rate(cfg, args):
    from . import rates
    raw = _require(cfg, "degrees", dict)
    try:
        degrees = {_whole(_decimal(k), "degree"): _real(v, f"degree {k} mass")
                   for k, v in raw.items()}
    except ValueError as exc:  # ConfigError is a ValueError
        raise ConfigError(f"degrees must map integers to probabilities: {exc}") from exc
    if len(degrees) < len(raw):  # keys such as "1" and "01" name one degree
        listed = [_decimal(k) for k in raw]
        twice = next(k for k in listed if listed.count(k) > 1)
        raise ConfigError(f"degree {twice} is listed more than once")
    c = _from_config(_real, _require(cfg, "c"), "config key 'c'")
    # mean goes as it is: rate_delta reads +inf as the flag of an infinite-mean law
    value = _from_config(rates.rate_delta, degrees, c, mean=cfg.get("mean"))
    return {"value": value}, None


def _cmd_edge_rate(cfg, args):
    mode = cfg.get("mode", "zeta")
    if not isinstance(mode, str) or mode not in _EDGE_RATE_KEYS:
        raise ConfigError(f"unknown edge-rate mode {mode!r}")
    reads_x = mode != "mc" or "event" not in cfg  # an mc event carries its own threshold
    _refuse_unread(f"edge-rate mode {mode!r}", _EDGE_RATE_KEYS[mode] + (" x" if reads_x else ""),
                   cfg, args)
    mu, C = _parse_model(cfg)
    x = _from_config(_real, _require(cfg, "x"), "config key 'x'") if reads_x else None
    if mode == "zeta":
        from . import rates
        body = {"value": _from_config(rates.rate_zeta, x, mu, C)}
        if mu.alphabet.m == 1:
            body["er_closed_form"] = rates.rate_zeta_er(x, float(C.values[0, 0]))
        return body, None
    if mode == "exact":
        if mu.alphabet.m != 1:
            raise ConfigError("mode \"exact\" needs the single-color model")
        from .oracles import exact_er_edge_exponent
        sizes = _require(cfg, "sizes", list)
        c = float(C.values[0, 0])
        return {"rows": [{"n": n, "exponent": _from_config(exact_er_edge_exponent, n, c, x)}
                         for n in sizes]}, None
    from .mcharness import TailExperiment, estimate_tail_exponent
    seed = _resolve_seed(cfg, args)
    event = cfg.get("event", {"kind": "edges", "x": x})
    if not isinstance(event, dict):
        raise ConfigError("event must be a JSON object")
    exp = _from_config(
        TailExperiment, mu=mu, C=C, event=event, sizes=_require(cfg, "sizes", list),
        replicas=_require(cfg, "replicas"), seed=seed,
        replica_offset=cfg.get("replica_offset", 0))
    prediction = None
    if event["kind"] == "edges":  # {|E| >= x n} costs zeta(max(x, x_bar)), x_bar = mu'C mu / 2
        from . import rates
        x = float(event["x"])
        x_bar = float(mu.weights @ C.values @ mu.weights) / 2
        prediction = 0.0 if 0 <= x <= x_bar else _from_config(rates.rate_zeta, x, mu, C)
    est = estimate_tail_exponent(exp)
    return ({"estimate": est.to_dict(), "rate_prediction": prediction},
            _flat(args, ".csv", lambda: est.to_csv(rate_prediction=prediction)))


def _cmd_ising(cfg, args):
    from . import varsolve
    betas = cfg.get("beta", 0.0)
    cs = _require(cfg, "c", (int, float, list))
    betas = [_from_config(_real, b, "config key 'beta'")
             for b in (betas if isinstance(betas, list) else [betas])]
    cs = [_from_config(_real, c, "config key 'c'")
          for c in (cs if isinstance(cs, list) else [cs])]
    records = []
    for beta in betas:
        for c in cs:
            report = _from_config(varsolve.ising_annealed, beta, c)
            records.append({"beta": beta, "c": c, "value": report.value,
                            "iterations": report.iterations, "residual": report.residual,
                            "converged": report.converged})
    return {"records": records}, None


def _cmd_sample_conditional(cfg, args):
    n = _from_config(_whole, _require(cfg, "n"), "n")
    try:
        omega_n = ColorCounts(n, _require(cfg, "color_counts", list))
        pair_n = PairCounts(n, _require(cfg, "edge_counts", list))
    except ValueError as exc:
        raise ConfigError(f"bad counts: {exc}") from exc
    graph = sample_conditional(omega_n, pair_n, _resolve_seed(cfg, args))
    return {"graph": graph}, _flat(args, ".txt", graph.to_text)


def _cmd_approximate(cfg, args):
    from . import rates
    mu, C = _parse_model(cfg)
    # consistify refuses eps <= 0
    eps = _from_config(_real, _require(cfg, "eps"), "config key 'eps'")
    cap = cfg.get("cap", False)
    if not isinstance(cap, bool):
        raise ConfigError(f"config key 'cap' must be true or false, got {cap!r}")
    # a missing seed is reported before the later stages' errors
    seed = _resolve_seed(cfg, args) if "n" in cfg else None
    nu = _from_config(rates.poisson_limit_law, mu, C)
    pair = product_kernel_measure(C, mu)
    pair_hat, nu_hat = _from_config(consistify, pair, nu, eps)
    _, phi2 = phi(nu_hat)
    body = {"consistify": {
        "pair": pair_hat.to_dict(), "nu_atoms": nu_hat.weights.size,
        "consistency_residual": float(np.abs(phi2 - pair_hat.weights).max()),
        "pair_moved": float(np.abs(pair_hat.weights - pair.weights).max()),
        "nu_tv": total_variation(nu, nu_hat)}}
    if "n" in cfg:
        graph = _sample_model_graph(cfg, args)
        cc, pc, _ = empirical_measures(graph)
        nu_n = quantize(cc, pc, nu, seed)
        color, adj = phi_counts(nu_n)
        stage = {"n": graph.n, "tv_to_target": total_variation(nu_n.measure, nu),
                 "phi_color_exact": bool(np.array_equal(color, cc.counts)),
                 "phi_pair_exact": bool(np.array_equal(adj, pc.adjacency))}
        if cap:
            capped = cap_degrees(nu_n)
            stage["max_magnitude_before"] = nu_n.max_magnitude()
            stage["max_magnitude_after"] = capped.max_magnitude()
        body["quantize"] = stage
    return body, None


def _cmd_validate(args):
    if args.config is not None or args.seed is not None:
        raise ConfigError("validate takes no --config or --seed: every criterion "
                          "runs with its published tolerances and seeds")
    from . import acceptance
    suite = "all" if args.suite is None else args.suite
    if suite not in acceptance.SUITES:
        raise ConfigError(f"unknown suite {suite!r}, expected one of "
                          f"{sorted(acceptance.SUITES)}")
    records = acceptance.run_suite(suite)
    for rec in records:
        print(acceptance.format_record(rec))
    if args.out:
        _emit({"suite": suite, "records": records}, args)
    return 0 if all(rec["passed"] for rec in records) else 1


# the config keys edge-rate reads in each mode; each reads x too, unless an mc event holds it
_EDGE_RATE_KEYS = {
    "zeta": "mu C mode",
    "exact": "mu C mode sizes",
    "mc": "mu C mode sizes event replicas replica_offset seed",
}

_COMMANDS = {  # each command and every config key it reads in some mode
    "generate": (_cmd_generate, "mu C n seed"),
    "measure": (_cmd_measure, "graph graph_path mu C n seed"),
    "rate": (_cmd_rate, "mu C nu pair omega"),
    "degree-rate": (_cmd_degree_rate, "degrees c mean"),
    "edge-rate": (_cmd_edge_rate, " ".join(["x", *_EDGE_RATE_KEYS.values()])),
    "ising": (_cmd_ising, "beta c"),
    "sample-conditional": (_cmd_sample_conditional, "n color_counts edge_counts seed"),
    "approximate": (_cmd_approximate, "mu C eps cap n seed"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphrates",
        description="Rate functions and samplers for sparse colored graphs.")
    parser.add_argument("command", choices=[*_COMMANDS, "validate"])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", help="override the config seed (unsigned 64-bit)")
    parser.add_argument("--out", help="output path; .csv/.txt pick the flat formats")
    parser.add_argument("--suite", help="validate only: the suite to run (default: all)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.suite is not None:
            raise ConfigError(f"--suite is for validate only, not {args.command}")
        cfg = _load_config(args.config)
        run, keys = _COMMANDS[args.command]
        _refuse_unread(args.command, keys, cfg, args)
        body, flat = run(cfg, args)
        _emit({"manifest": {"command": args.command, "config": cfg}, **body}, args, flat)
        return 0
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
