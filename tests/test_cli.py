import csv
import hashlib
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from graphrates import (Alphabet, ColorCounts, ColorMeasure, ColoredGraph, Kernel,
                        ModelParams, PairCounts, empirical_measures, poisson_limit_law,
                        product_kernel_measure, rate_zeta, rate_zeta_er,
                        sample_colored_graph, sample_conditional)
from graphrates import acceptance, cli, oracles
from graphrates.cli import main

BENCH = {"mu": [0.5, 0.5], "C": [[3.0, 1.0], [1.0, 2.0]]}
ER_MC = {"mu": [1.0], "C": 2.0, "x": 1.2, "mode": "mc", "sizes": [50], "replicas": 100,
         "seed": 3}
ER_EXACT = {"mu": [1.0], "C": 2.0, "x": 1.5, "mode": "exact"}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


# ---------------------------------------------------------------------------
# generate / measure


def test_generate_and_measure_round_trip(tmp_path):
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=200, seed=7))
    code, doc = _run_json(tmp_path, ["generate", "--config", cfg])
    assert code == 0
    assert doc["manifest"]["command"] == "generate"
    assert doc["manifest"]["config"]["seed"] == 7
    assert doc["graph"]["n"] == 200

    graph_cfg = _write(tmp_path, "meas.json", {"graph": doc["graph"]})
    code2, doc2 = _run_json(tmp_path, ["measure", "--config", graph_cfg],
                            name="meas.json.out")
    assert code2 == 0
    assert doc2["edge_count"] == len(doc["graph"]["edges"])
    assert doc2["color_counts"] == doc["color_counts"]
    assert doc2["neighborhood_counts"] == doc["neighborhood_counts"]


def test_generate_txt_round_trips_through_parser(tmp_path):
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=60, seed=3))
    out = tmp_path / "graph.txt"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    g = ColoredGraph.from_text(out.read_text())
    assert g.n == 60
    # manifest sidecar rides along with text output
    sidecar = json.loads((tmp_path / "graph.txt.manifest.json").read_text())
    assert sidecar["config"]["seed"] == 3


def test_generate_json_output_skips_text(tmp_path, monkeypatch):
    def no_text(self):
        raise AssertionError("to_text called for JSON output")

    monkeypatch.setattr(ColoredGraph, "to_text", no_text)
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=60, seed=3))
    code, doc = _run_json(tmp_path, ["generate", "--config", cfg])
    assert code == 0 and doc["graph"]["n"] == 60
    cond = _write(tmp_path, "cond.json", {"n": 4, "color_counts": [4],
                                          "edge_counts": [[2]], "seed": 1})
    code, doc = _run_json(tmp_path, ["sample-conditional", "--config", cond],
                          name="cond-out.json")
    assert code == 0 and len(doc["graph"]["edges"]) == 2


def test_generate_txt_output_measures_nothing(tmp_path, monkeypatch):
    # the flat format holds the graph alone, so a .txt run must not compute measures
    def no_measures(graph):
        raise AssertionError("empirical_measures called for .txt output")

    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=60, seed=3))
    model = ModelParams(ColorMeasure(Alphabet(2), BENCH["mu"], probability=True),
                        Kernel(Alphabet(2), BENCH["C"]), 60)
    want = sample_colored_graph(model, 3)
    monkeypatch.setattr("graphrates.cli.empirical_measures", no_measures)
    out = tmp_path / "graph.txt"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == want.to_text()
    sidecar = json.loads((tmp_path / "graph.txt.manifest.json").read_text())
    assert sidecar == {"command": "generate", "config": dict(BENCH, n=60, seed=3)}


def test_generate_deterministic_output(tmp_path):
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=100, seed=42))
    _, doc_a = _run_json(tmp_path, ["generate", "--config", cfg], name="a.json")
    _, doc_b = _run_json(tmp_path, ["generate", "--config", cfg], name="b.json")
    assert doc_a == doc_b


# sha256 of json.dumps(doc, sort_keys=True) for generate on BENCH, n = 200, seed 7,
# taken while the CLI still wrote indented JSON
GENERATE_DOC_SHA256 = "92bcb019ac09912fe30fc6bacafa32394e0a0486b1b95cb0f6728bba922318eb"


@pytest.mark.parametrize("command, make_cfg, out_name, written", [
    ("generate", lambda: dict(BENCH, n=200, seed=7), "out.json", "out.json"),
    ("generate", lambda: dict(BENCH, n=60, seed=3), "g.txt", "g.txt.manifest.json"),
    ("rate", lambda: dict(BENCH, omega=BENCH["mu"],
                          **_zero_point_measures(BENCH["mu"], BENCH["C"])),
     "out.json", "out.json"),
    ("edge-rate", lambda: dict(BENCH, x=1.2), "out.json", "out.json"),
    ("validate", None, "out.json", "out.json"),
], ids=["generate", "generate-sidecar", "rate", "edge-rate-zeta", "validate-rates"])
def test_json_output_is_one_line(tmp_path, command, make_cfg, out_name, written):
    argv = [command, "--out", str(tmp_path / out_name)]
    argv += (["--suite", "rates"] if make_cfg is None
             else ["--config", _write(tmp_path, "cfg.json", make_cfg())])
    assert main(argv) == 0
    text = (tmp_path / written).read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    if written == "out.json" and command == "generate":
        digest = hashlib.sha256(json.dumps(json.loads(text), sort_keys=True).encode())
        assert digest.hexdigest() == GENERATE_DOC_SHA256


THREE_COLORS = {"mu": [0.3, 0.3, 0.4], "C": [[2, 1, 0.5], [1, 3, 1], [0.5, 1, 1.5]]}


# GENERATE_DOC_SHA256's digest on the 1- and 3-color models at n = 5000, seed 7, taken
# while the atom table was still ordered by lexsort: they pin the atom order past m = 2
@pytest.mark.parametrize("model, digest", [
    ({"mu": [1.0], "C": 2.0}, "30d210faed25514470c501d73be2f4271b72d8a8da202116d3dc91ef11300087"),
    (THREE_COLORS, "f3e883d9e35d8bea6123d26834c9d1da5a7fba537a2391e5bcf4577429fc0c03"),
], ids=["one-color", "three-colors"])
def test_generate_document_digest_per_model(tmp_path, model, digest):
    cfg = _write(tmp_path, "gen.json", dict(model, n=5000, seed=7))
    code, doc = _run_json(tmp_path, ["generate", "--config", cfg])
    assert code == 0
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def _graph_doc(graph):
    return {"n": graph.n, "m": graph.m, "colors": graph.colors.tolist(),
            "edges": graph.edges.tolist()}


@pytest.mark.parametrize("command, cfg", [
    ("generate", dict(BENCH, n=200, seed=7)),
    ("generate", dict(BENCH, n=1, seed=7)),
    ("generate", dict(THREE_COLORS, n=300, seed=11)),
    ("sample-conditional", {"n": 5, "color_counts": [5], "edge_counts": [[0]], "seed": 1}),
    ("sample-conditional", {"n": 30, "color_counts": [10, 8, 12],
                            "edge_counts": [[6, 4, 2], [4, 3, 5], [2, 5, 9]], "seed": 2}),
], ids=["bench-200", "bench-1", "three-colors", "conditional-edgeless",
        "conditional-three-colors"])
def test_graph_documents_are_json_dumps_bytes(tmp_path, command, cfg):
    # the raw --out bytes, key order and separators included, are json.dumps of the
    # document built from plain lists
    out = tmp_path / "out.json"
    assert main([command, "--config", _write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 0
    if command == "generate":
        mu = ColorMeasure(Alphabet(len(cfg["mu"])), cfg["mu"], probability=True)
        params = ModelParams(mu, Kernel(mu.alphabet, cfg["C"]), cfg["n"])
        graph = sample_colored_graph(params, cfg["seed"])
        cc, pc, nc = empirical_measures(graph)
        body = {"graph": _graph_doc(graph), "color_counts": cc.to_dict(),
                "pair_counts": pc.to_dict(), "neighborhood_counts": nc.to_dict()}
    else:
        graph = sample_conditional(ColorCounts(cfg["n"], cfg["color_counts"]),
                                   PairCounts(cfg["n"], cfg["edge_counts"]), cfg["seed"])
        body = {"graph": _graph_doc(graph)}
    doc = {"manifest": {"command": command, "config": cfg}, **body}
    assert out.read_text() == json.dumps(doc) + "\n"


def test_measure_manifest_records_the_seed_it_drew_with(tmp_path):
    cfg = _write(tmp_path, "meas.json", dict(BENCH, n=100, seed=3))
    code, doc = _run_json(tmp_path, ["measure", "--config", cfg, "--seed", "5"])
    gen = _write(tmp_path, "gen.json", dict(BENCH, n=100, seed=5))
    _, doc5 = _run_json(tmp_path, ["generate", "--config", gen], name="gen-out.json")
    assert code == 0 and doc["manifest"]["config"]["seed"] == 5
    assert doc["edge_count"] == len(doc5["graph"]["edges"])
    assert doc["neighborhood_counts"] == doc5["neighborhood_counts"]
    # approximate draws a graph only with "n", so only then does it record a seed
    cfg = _write(tmp_path, "appr.json", dict(BENCH, eps=0.1))
    code, doc = _run_json(tmp_path, ["approximate", "--config", cfg, "--seed", "5"],
                          name="appr-out.json")
    assert code == 0 and "seed" not in doc["manifest"]["config"]


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=100, seed=42))
    code, doc = _run_json(tmp_path, ["generate", "--config", cfg, "--seed", "43"])
    assert code == 0
    assert doc["manifest"]["config"]["seed"] == 43
    _, doc42 = _run_json(tmp_path, ["generate", "--config", cfg], name="c.json")
    assert doc["graph"]["edges"] != doc42["graph"]["edges"]


# every config command with a config, and whether it draws with a seed
MANIFEST_CASES = [
    ("generate", lambda: dict(BENCH, n=50, seed=7), True),
    ("measure", lambda: dict(BENCH, n=50, seed=7), True),
    ("measure", lambda: {"graph": {"n": 3, "m": 1, "colors": [0, 0, 0], "edges": [[0, 2]]}},
     False),
    ("rate", lambda: dict(BENCH, **_zero_point_measures(BENCH["mu"], BENCH["C"])), False),
    ("degree-rate", lambda: {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0, "seed": 9}, False),
    ("edge-rate", lambda: dict(BENCH, x=1.2), False),
    ("edge-rate", lambda: dict(ER_EXACT, sizes=[50]), False),
    ("edge-rate", lambda: dict(ER_MC, replicas=20), True),
    ("ising", lambda: {"beta": 0.5, "c": 2.0}, False),
    ("sample-conditional", lambda: {"n": 4, "color_counts": [4], "edge_counts": [[2]],
                                    "seed": 1}, True),
    ("approximate", lambda: dict(BENCH, eps=0.1), False),
    ("approximate", lambda: dict(BENCH, eps=0.1, n=50, seed=7), True),
]


@pytest.mark.parametrize("command, make_cfg, draws", MANIFEST_CASES, ids=[
    "generate", "measure-model", "measure-inline", "rate", "degree-rate", "edge-rate-zeta",
    "edge-rate-exact", "edge-rate-mc", "ising", "sample-conditional", "approximate",
    "approximate-n"])
def test_manifest_echoes_the_command_and_resolved_config(tmp_path, command, make_cfg,
                                                          draws):
    cfg = make_cfg()
    runs = [(cfg, [], cfg), (cfg, ["--seed", "5"], dict(cfg, seed=5) if draws else cfg)]
    if draws:  # a seed given only by the flag is added to the echoed config
        bare = {k: v for k, v in cfg.items() if k != "seed"}
        runs.append((bare, ["--seed", "5"], dict(bare, seed=5)))
    for i, (given, flag, expected) in enumerate(runs):
        path = _write(tmp_path, f"cfg{i}.json", given)
        code, doc = _run_json(tmp_path, [command, "--config", path, *flag], name=f"{i}.json")
        assert code == 0
        assert next(iter(doc)) == "manifest"
        assert doc["manifest"] == {"command": command, "config": expected}
        assert list(doc["manifest"]["config"]) == list(expected)


# ---------------------------------------------------------------------------
# rates


def test_rate_zero_point(tmp_path):
    mu = ColorMeasure(Alphabet(2), BENCH["mu"], probability=True)
    C = Kernel(Alphabet(2), BENCH["C"])
    nu = poisson_limit_law(mu, C)
    pair = product_kernel_measure(C, mu)
    cfg = _write(tmp_path, "rate.json",
                 dict(BENCH, nu=nu.to_dict(), pair=pair.to_dict(),
                      omega=BENCH["mu"]))
    code, doc = _run_json(tmp_path, ["rate", "--config", cfg])
    assert code == 0
    assert doc["J"]["value"] <= 1e-9
    assert doc["I"]["value"] <= 1e-9
    assert doc["I_omega"] <= 1e-9
    assert doc["J_tilde"] <= 1e-9


@pytest.mark.parametrize("heavy, mass, printed", [
    (200, 0.01, "9.383171157"),  # Q at degree 200 is a subnormal float
    (400, 0.005, "10.777877243"),  # Q at degree 400 underflows to 0
])
def test_rate_prints_a_finite_j_for_a_heavy_atom(tmp_path, heavy, mass, printed):
    # one color, C = 1, pi = 2 and nu = (1 - w) delta_0 + w delta_k: consistent, so J is
    # H(nu || Poisson(2)) + h_c/2 with nu1 = mu = 1; ln Q(k) = -2 + k ln 2 - ln k!
    atoms = [{"color": 0, "ell": [0], "mass": 1.0 - mass},
             {"color": 0, "ell": [heavy], "mass": mass}]
    cfg = _write(tmp_path, "heavy.json", {
        "mu": [1.0], "C": 1.0, "pair": {"m": 1, "weights": [[2.0]]},
        "nu": {"m": 1, "probability": True, "atoms": atoms}})
    code, doc = _run_json(tmp_path, ["rate", "--config", cfg])
    assert code == 0
    neighborhood = sum(w * (math.log(w) + 2.0 - k * math.log(2.0) + math.lgamma(k + 1))
                       for k, w in ((0, 1.0 - mass), (heavy, mass)))
    pair = 0.5 * (2.0 * math.log(2.0) - 2.0 + 1.0)
    assert doc["J"]["breakdown"]["neighborhood"] == pytest.approx(neighborhood, rel=1e-12)
    assert doc["J"]["value"] == pytest.approx(neighborhood + pair, rel=1e-12)
    assert f"{doc['J']['value']:.9f}" == printed


def test_degree_rate_known_value(tmp_path):
    cfg = _write(tmp_path, "deg.json", {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0})
    code, doc = _run_json(tmp_path, ["degree-rate", "--config", cfg])
    assert code == 0
    assert doc["value"] == pytest.approx(0.6534264097200272, abs=1e-12)


def test_degree_rate_answers_at_a_degree_past_int64(tmp_path):
    # numpy holds 2**64 as an object, which gammaln refused; the value is from math.lgamma
    cfg = _write(tmp_path, "deg.json", {"degrees": {"0": 0.5, str(2 ** 64): 0.5}, "c": 1.0})
    code, doc = _run_json(tmp_path, ["degree-rate", "--config", cfg])
    assert code == 0
    assert doc["value"] == pytest.approx(2.0316582946611577e+20, rel=1e-9)


def test_degree_rate_answers_at_large_c(tmp_path):
    # H(d || Poisson(3000)) + (3000 ln(3000/c) - 3000 + c)/2, from math.lgamma
    cfg = _write(tmp_path, "deg.json", {"degrees": {"0": 0.5, "6000": 0.5}, "c": 10000})
    code, doc = _run_json(tmp_path, ["degree-rate", "--config", cfg])
    assert code == 0
    mean, c = 3000.0, 10000.0
    log_q = (-mean, 6000 * math.log(mean) - mean - math.lgamma(6001))
    expect = (sum(0.5 * (math.log(0.5) - q) for q in log_q)
              + 0.5 * (mean * math.log(mean / c) - mean + c))
    assert expect == pytest.approx(3775.42354291, abs=1e-8)
    assert doc["value"] == pytest.approx(expect, abs=1e-8)


def test_edge_rate_zeta_matches_closed_form(tmp_path):
    cfg = _write(tmp_path, "er.json", {"mu": [1.0], "C": 2.0, "x": 1.5})
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0
    assert doc["er_closed_form"] == pytest.approx(rate_zeta_er(1.5, 2.0), abs=1e-15)
    assert abs(doc["value"] - doc["er_closed_form"]) <= 1e-8


def test_edge_rate_zeta_past_32_colors(tmp_path):
    # mu uniform on m colors and C = 1 + I give the symmetric answer, q = omega'C omega
    # = 1 + 1/m at omega = mu, in the ER closed form with c = q
    m, x = 40, 1.5
    C = [[1.0 + (a == b) for b in range(m)] for a in range(m)]
    cfg = _write(tmp_path, "m40.json", {"mu": [1 / m] * m, "C": C, "x": x})
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0
    assert doc["value"] == pytest.approx(rate_zeta_er(x, 1 + 1 / m), abs=1e-9)


def test_edge_rate_zeta_two_colors(tmp_path):
    cfg = _write(tmp_path, "bench.json", dict(BENCH, x=1.5))
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0
    mu = ColorMeasure(Alphabet(2), BENCH["mu"], probability=True)
    assert doc["value"] == rate_zeta(1.5, mu, Kernel(Alphabet(2), BENCH["C"]))
    assert "er_closed_form" not in doc


def test_edge_rate_kernel_vanishing_on_support_prints_inf(tmp_path):
    cfg = _write(tmp_path, "void.json", {"mu": [1.0, 0.0], "C": [[0, 1], [1, 0]], "x": 0.5})
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0 and doc["value"] == "inf"


def test_edge_rate_exact_rows(tmp_path):
    cfg = _write(tmp_path, "ex.json",
                 {"mu": [1.0], "C": 2.0, "x": 1.5, "mode": "exact",
                  "sizes": [250, 500]})
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0
    assert doc["rows"][0]["exponent"] == pytest.approx(0.12247458412549937)
    assert doc["rows"][1]["exponent"] == pytest.approx(0.11599436063975796)


def test_edge_rate_exact_impossible_threshold_prints_inf(tmp_path):
    # 50 n edges are more than n(n-1)/2 at n = 50 and 100, but not at n = 200
    cfg = _write(tmp_path, "ex.json", dict(ER_EXACT, x=50, sizes=[50, 100, 200]))
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0
    assert [row["exponent"] for row in doc["rows"][:2]] == ["inf", "inf"]
    assert math.isfinite(doc["rows"][2]["exponent"])


def test_edge_rate_mc_csv(tmp_path):
    base = {"mu": [1.0], "C": 2.0, "x": 1.2, "mode": "mc", "sizes": [50, 100],
            "seed": 3}

    def run(name, replicas, offset=0):
        cfg = _write(tmp_path, f"{name}.json",
                     dict(base, replicas=replicas, replica_offset=offset))
        out = tmp_path / f"{name}.csv"
        assert main(["edge-rate", "--config", cfg, "--out", str(out)]) == 0
        return out.read_text()

    text = run("mc", 20000)
    lines = text.strip().splitlines()
    assert lines[0].startswith("n,replicas,hits,p_hat,exponent")
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "mc.csv.manifest.json").read_text())
    assert manifest["command"] == "edge-rate"
    assert manifest["config"]["seed"] == 3

    # CSV shards carry the weight sums, so they merge into the full run's
    full = list(csv.DictReader(text.splitlines()))
    left = list(csv.DictReader(run("left", 7001).splitlines()))
    right = list(csv.DictReader(run("right", 12999, offset=7001).splitlines()))
    for f, lo, hi in zip(full, left, right):
        assert int(f["hits"]) == int(lo["hits"]) + int(hi["hits"])
        for key in ("weight_sum", "weight_sq_sum"):
            assert float(lo[key]) + float(hi[key]) == pytest.approx(
                float(f[key]), rel=1e-12)


def test_edge_rate_mc_prediction_matches_event(tmp_path):
    def run(name, event):
        cfg = _write(tmp_path, f"{name}.json",
                     {"mu": [1.0], "C": 2.0, "x": 1.2, "mode": "mc",
                      "sizes": [50], "replicas": 200, "seed": 3, "event": event})
        code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg],
                              name=f"{name}-out.json")
        assert code == 0
        return doc["rate_prediction"]

    # the edge rate is taken at the event's own x, not the top-level one
    assert run("edges", {"kind": "edges", "x": 1.5}) == pytest.approx(
        rate_zeta_er(1.5, 2.0), abs=1e-8)
    # no edge rate predicts the isolated-vertex tail
    assert run("deg0", {"kind": "degree_zero", "t": 0.2}) is None


@pytest.mark.parametrize("model, x", [(ER_MC, 0.5), (ER_MC, 1.0), (BENCH, 0.5), (BENCH, 0.875)],
                         ids=["one-color-below", "one-color-mean", "bench-below", "bench-mean"])
def test_edge_rate_mc_prediction_is_zero_at_or_below_the_mean(tmp_path, model, x):
    # {|E| >= x n} has rate zeta(max(x, x_bar)), x_bar = mu'C mu / 2 the mean edge density
    # (1 and 0.875 here), so a typical edge count costs nothing; zeta(x) itself was printed
    cfg = _write(tmp_path, "mc.json", dict(model, x=x, mode="mc", sizes=[50, 100],
                                           replicas=2000, seed=3))
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0 and doc["rate_prediction"] == 0.0
    assert all(row["hits"] > 0 for row in doc["estimate"]["rows"])
    out = tmp_path / "mc.csv"
    assert main(["edge-rate", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [float(row["rate_prediction"]) for row in rows] == [0.0, 0.0]


def test_edge_rate_mc_two_color_prediction(tmp_path):
    cfg = _write(tmp_path, "mc.json",
                 dict(BENCH, mode="mc", sizes=[50], replicas=200, seed=3,
                      event={"kind": "edges", "x": 1.5}))
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0
    assert math.isfinite(doc["rate_prediction"]) and doc["rate_prediction"] > 0.0


def test_edge_rate_that_does_not_converge_exits_4(tmp_path, capsys, monkeypatch):
    from graphrates import varsolve

    def unconverged(x, mu, C):
        return varsolve.SolveReport((0.5, 0.5), 0.0, math.inf, 1, False)

    monkeypatch.setattr(varsolve, "zeta_inner", unconverged)
    cfg = _write(tmp_path, "zeta.json", dict(BENCH, x=1.5))
    assert main(["edge-rate", "--config", cfg]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == ("did not converge: inner edge-rate infimum did not converge, "
                                 "residual inf\n")


# ---------------------------------------------------------------------------
# ising


def test_ising_table(tmp_path):
    # the reference is the exact (1/n) ln E Z_n extrapolated by ising_oracle; error
    # budget 2.5e-10 at (0.5, 2), next to the critical line c sinh(beta) = 1, 1e-13 at
    # (1, 2) and 1e-14 at beta = 0 (criterion 4)
    from graphrates.oracles import ising_oracle
    cfg = _write(tmp_path, "ising.json", {"beta": [0.0, 0.5, 1.0], "c": 2.0})
    code, doc = _run_json(tmp_path, ["ising", "--config", cfg])
    assert code == 0
    rows = doc["records"]
    assert rows[0]["value"] == pytest.approx(math.log(2.0), abs=1e-9)
    for row in rows:
        assert abs(row["value"] - ising_oracle(row["beta"], row["c"])) <= 1e-6
        assert row["converged"] is True and "oracle" not in row
    vals = [row["value"] for row in rows]
    assert vals == sorted(vals)


def test_ising_reports_a_residual(tmp_path):
    # README's config
    cfg = _write(tmp_path, "ising.json", {"beta": [0.0, 0.5, 1.0], "c": 2.0})
    code, doc = _run_json(tmp_path, ["ising", "--config", cfg])
    assert code == 0
    assert all(row["residual"] <= 1e-6 for row in doc["records"])


def _curie_weiss(beta, c):
    """The annealed free energy in its mean-field form: with J = c sinh(beta) and t the
    largest root of t = tanh(J t), c expm1(beta) / 2 - J / 2 + ln 2 cosh(J t) - J t^2 / 2."""
    J = c * math.sinh(beta)
    t = 1.0
    for _ in range(200):
        t = math.tanh(J * t)
    return c * math.expm1(beta) / 2 - J / 2 + np.logaddexp(J * t, -J * t) - J * t * t / 2


@pytest.mark.parametrize("payload, reference", [
    # a large c leaves ||w|| - c to cancel in the pair functional
    ({"beta": [0.0, 1e-08], "c": [1e20, 1e9]},
     lambda beta, c: math.log(2.0) if beta == 0.0 else _curie_weiss(beta, c)),
    # the functional's terms overflow at the ends of [0, 1] before the answer does; x = 0
    # wins, where the value is c expm1(beta) / 2, and the entropy near it adds e^(-2J)
    ({"beta": 705, "c": 0.5}, lambda beta, c: c * math.expm1(beta) / 2),
    ({"beta": 709, "c": 2.0}, lambda beta, c: c * math.expm1(beta) / 2),
], ids=["large-c", "beta-705", "beta-709"])
def test_ising_matches_the_oracle_at_extreme_configs(tmp_path, payload, reference):
    cfg = _write(tmp_path, "ising.json", payload)
    code, doc = _run_json(tmp_path, ["ising", "--config", cfg])
    assert code == 0
    for row in doc["records"]:
        assert row["value"] == pytest.approx(reference(row["beta"], row["c"]), rel=1e-12)


# ---------------------------------------------------------------------------
# conditional sampling


def test_sample_conditional_exact(tmp_path):
    cfg = _write(tmp_path, "cond.json",
                 {"n": 60, "color_counts": [35, 25],
                  "edge_counts": [[20, 15], [15, 10]], "seed": 5})
    code, doc = _run_json(tmp_path, ["sample-conditional", "--config", cfg])
    assert code == 0
    g = ColoredGraph.from_dict(doc["graph"])
    assert g.n == 60
    assert sum(1 for c in g.colors if c == 0) == 35


# GENERATE_DOC_SHA256's digest for sample-conditional on README's config and on a
# 3-color config whose seed fills both 32-bit words of the seed, taken while every
# replica still seeded its stream by numpy.random.default_rng
@pytest.mark.parametrize("cfg, digest", [
    ({"n": 60, "color_counts": [35, 25], "edge_counts": [[20, 15], [15, 10]], "seed": 5},
     "ff7e8aa49888913007acdab2a2c604dac214bdee0ebb7e2941416ad7ebfcd65a"),
    ({"n": 30, "color_counts": [10, 8, 12], "edge_counts": [[6, 4, 2], [4, 3, 5], [2, 5, 9]],
      "seed": 2 ** 63 + 5},
     "9fdfa5915a2b61facb1c951d5cf47f83093c13a68f5fdbf33de3400a72f7407d"),
], ids=["readme", "three-colors"])
def test_sample_conditional_document_digest(tmp_path, cfg, digest):
    code, doc = _run_json(tmp_path, ["sample-conditional", "--config",
                                     _write(tmp_path, "cond.json", cfg)])
    assert code == 0
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


def test_sample_conditional_infeasible_exit_3(tmp_path):
    # 4 edges demanded inside a 3-vertex color class (max is 3)
    cfg = _write(tmp_path, "bad.json",
                 {"n": 5, "color_counts": [3, 2],
                  "edge_counts": [[4, 0], [0, 0]], "seed": 1})
    assert main(["sample-conditional", "--config", cfg]) == 3


# ---------------------------------------------------------------------------
# approximate


def test_approximate_pipeline(tmp_path):
    cfg = _write(tmp_path, "apx.json",
                 dict(BENCH, eps=0.01, n=500, seed=11, cap=True))
    code, doc = _run_json(tmp_path, ["approximate", "--config", cfg])
    assert code == 0
    assert doc["consistify"]["consistency_residual"] <= 1e-9
    q = doc["quantize"]
    assert q["phi_color_exact"] and q["phi_pair_exact"]
    assert 0.0 <= q["tv_to_target"] <= 1.0
    assert q["max_magnitude_after"] <= max(q["max_magnitude_before"], 1)


# ---------------------------------------------------------------------------
# config errors


def test_missing_config_exit_2(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["generate", "--config", str(path)]) == 2


def test_zero_kernel_exit_2(tmp_path):
    cfg = _write(tmp_path, "zero.json",
                 {"mu": [0.5, 0.5], "C": [[0.0, 0.0], [0.0, 0.0]], "n": 10,
                  "seed": 0})
    assert main(["generate", "--config", cfg]) == 2


def test_asymmetric_kernel_exit_2(tmp_path):
    cfg = _write(tmp_path, "asym.json",
                 {"mu": [0.5, 0.5], "C": [[1.0, 2.0], [3.0, 1.0]], "n": 10,
                  "seed": 0})
    assert main(["generate", "--config", cfg]) == 2


def test_zero_size_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=0, seed=0))
    assert main(["generate", "--config", cfg]) == 2
    assert "n must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["graph_path", "inline", "flat"])
def test_measure_refuses_an_edge_that_is_not_a_pair(tmp_path, capsys, source):
    # each of these was once regrouped and read as the two edges (0, 1) and (1, 2)
    if source == "graph_path":
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1 1\n0 1 1 2\n")
        cfg = {"graph_path": str(path)}
    else:
        edges = [[0, 1, 1, 2]] if source == "inline" else [0, 1, 1, 2]
        cfg = {"graph": {"n": 3, "m": 2, "colors": [0, 1, 1], "edges": edges}}
    assert main(["measure", "--config", _write(tmp_path, "m.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "edges must have shape (E, 2)" in err


@pytest.mark.parametrize("text, message", [
    ("3 2\n0 1 1\n0 1\n1 2 0\n", "the number of columns changed from 2 to 3"),
    ("3 2\n0 1 1\n0 1\n1\n", "the number of columns changed from 2 to 1"),
    ("3 2\n0 1 1\n0 1.5\n", "could not convert string '1.5' to int64"),
    ("3 2\n0 1 1.0\n", "could not convert string '1.0' to int64"),
    ("3 2 1\n0 1 1\n0 1\n", "the header line must be 'n m', got 3 numbers"),
    ("4 2\n0 1 1\n0 1\n", "colors shape (3,) != (4,)"),
    ("3 2\n", "graph text needs a header line and a color line"),
    # an index past int64 was once an OverflowError and a traceback
    ("3 2\n0 1 1\n0 99999999999999999999\n", "could not convert string '99999999999999999999'"),
    ("3 2\n0 1 99999999999999999999\n", "could not convert string '99999999999999999999'"),
], ids=["ragged-long", "ragged-short", "fraction", "color-fraction", "header-three",
        "header-n", "no-color-line", "edge-past-int64", "color-past-int64"])
def test_measure_refuses_a_malformed_graph_file(tmp_path, capsys, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["measure", "--config", _write(tmp_path, "m.json", {"graph_path": str(path)})]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"bad graph file {path}" in err and message in err


def test_measure_reads_an_edgeless_graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("\n3 2\n\n0 1 1\n\n  \n")
    code, doc = _run_json(tmp_path, ["measure", "--config",
                                     _write(tmp_path, "m.json", {"graph_path": str(path)})])
    assert code == 0 and doc["n"] == 3 and doc["edge_count"] == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("graph", [
    {"n": 4.7, "m": 2, "colors": [0, 1, 0, 1], "edges": [[0, 1]]},
    {"n": 4, "m": 2.9, "colors": [0, 1, 0, 1], "edges": [[0, 1]]},
    {"n": True, "m": 2, "colors": [0], "edges": []},
], ids=["n-fraction", "m-fraction", "n-true"])
def test_measure_refuses_a_size_that_is_not_an_integer(tmp_path, capsys, graph):
    # each was once truncated, and 4.7 and 2.9 measured a graph with n = 4 and m = 2
    assert main(["measure", "--config", _write(tmp_path, "m.json", {"graph": graph})]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be an integer" in err


def test_degree_rate_refuses_a_mean_the_degrees_contradict(tmp_path, capsys):
    degrees = {"0": 0.5, "2": 0.5}
    cfg = _write(tmp_path, "deg.json", {"degrees": degrees, "c": 1.0, "mean": 5})
    assert main(["degree-rate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mean 5.0 differs from the degrees' mean 1.0" in err
    # a matching mean answers as no mean does; an infinite one flags the law
    values = []
    for extra in ({}, {"mean": 1}, {"mean": math.inf}):
        cfg = _write(tmp_path, "deg.json", dict({"degrees": degrees, "c": 1.0}, **extra))
        values.append(_run_json(tmp_path, ["degree-rate", "--config", cfg])[1]["value"])
    assert values[0] == values[1] != "inf" and values[2] == "inf"


def _readme_commands(tmp_path):
    """The argv of each command in the README's CLI block, with every config it echoes
    written to tmp_path."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("echo "):
            payload, name = shlex.split(line[len("echo "):])[0::2]
            (tmp_path / name).write_text(payload)
        elif line.startswith("graphrates "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every config the README echoes is written, and every command it shows exits 0
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    assert len(commands) == 10
    assert capsys.readouterr().err == ""


def _strict_json(text):
    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _document(argv, capsys):
    """Run argv and load the JSON document it wrote: its stdout, or its --out file or
    that file's manifest sidecar."""
    assert main(argv) == 0, argv
    if "--out" not in argv:
        return _strict_json(capsys.readouterr().out)
    out = argv[argv.index("--out") + 1]
    return _strict_json(Path(out if out.endswith(".json") else out + ".manifest.json")
                        .read_text())


def test_every_json_document_is_strict_json(tmp_path, monkeypatch, capsys):
    # +inf is a value the rates take; it is written "inf", never as Infinity, which
    # strict JSON readers refuse
    monkeypatch.chdir(tmp_path)
    for argv in _readme_commands(tmp_path):
        assert _document(argv, capsys)
    # pair charges a zero of C omega x omega, and nu's color marginal is not omega
    cfg = dict(BENCH, C=[[2.0, 0.0], [0.0, 2.0]], omega=[0.3, 0.7],
               **_zero_point_measures(BENCH["mu"], BENCH["C"]))
    doc = _document(["rate", "--config", _write(tmp_path, "rate.json", cfg)], capsys)
    assert doc["I_omega"] == doc["J_tilde"] == doc["I"]["value"] == "inf"
    cfg = {"mu": [1.0], "C": 2.0, "x": 1e308}
    doc = _document(["edge-rate", "--config", _write(tmp_path, "er.json", cfg)], capsys)
    assert doc["value"] == doc["er_closed_form"] == "inf"
    # the manifest echoes an infinite config value the same way
    cfg = {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0, "mean": math.inf}
    for out in ([], ["--out", "deg-out.json"]):
        doc = _document(["degree-rate", "--config", _write(tmp_path, "deg.json", cfg), *out],
                        capsys)
        assert doc["value"] == doc["manifest"]["config"]["mean"] == "inf"
    doc = _document(["validate", "--suite", "rates", "--out", "records.json"], capsys)
    assert [rec["id"] for rec in doc["records"]] == [3, 6]


@pytest.mark.parametrize("command,payload,key", [
    ("edge-rate", {"mu": [1.0], "C": 2.0, "x": True}, "'x'"),
    ("degree-rate", {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0, "mean": "abc"}, "mean 'abc'"),
    ("ising", {"beta": "hot", "c": 2.0}, "'beta'"),
])
def test_non_number_exit_2(tmp_path, capsys, command, payload, key):
    cfg = _write(tmp_path, "bad.json", payload)
    assert main([command, "--config", cfg]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("files, argv", [
    ({}, "generate --config {d}/gen.json --out {d}/missing/g.json"),
    ({}, "generate --config {d}/gen.json --out {d}"),
    ({}, "generate --config {d}/gen.json --out {d}/missing/g.txt"),
    ({"g.txt.manifest.json": None}, "generate --config {d}/gen.json --out {d}/g.txt"),
    ({}, "validate --suite duality --out {d}/missing/records.json"),
    ({"bad.json": b'{"mu": [1.0], "C": 2.0, "x": "\xff"}'}, "edge-rate --config {d}/bad.json"),
    ({"bad.json": b"[" * 100000 + b"]" * 100000}, "generate --config {d}/bad.json"),
], ids=["out-in-a-missing-directory", "out-onto-a-directory", "txt-in-a-missing-directory",
        "sidecar-onto-a-directory", "validate-out-in-a-missing-directory", "config-not-utf-8",
        "config-nested-100000-deep"])
def test_a_file_the_cli_cannot_read_or_write_exits_2(tmp_path, capsys, files, argv):
    # each ended in a traceback and exit 1: an OSError from the output's open(), a
    # UnicodeDecodeError or a RecursionError from the config's
    _write(tmp_path, "gen.json", dict(BENCH, n=20, seed=1))
    for name, data in files.items():
        (tmp_path / name).mkdir() if data is None else (tmp_path / name).write_bytes(data)
    assert main([arg.format(d=tmp_path) for arg in argv.split()]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")


def test_a_config_too_deep_to_echo_exits_2(capsys, monkeypatch):
    # json loads a config nested nearly as deep as the recursion limit, but _plain, which
    # recurses once or twice per level, cannot echo it: a RecursionError and a traceback
    note = []
    for _ in range(sys.getrecursionlimit()):
        note = [note]
    monkeypatch.setattr(cli, "_load_config",
                        lambda path: {"degrees": {"0": 1.0}, "c": 1.0, "note": note})
    assert main(["degree-rate", "--config", "deep.json"]) == 2
    assert capsys.readouterr().err == ("config error: config is nested too deeply to echo "
                                       "in the manifest\n")


def _zero_point_measures(mu_w, C_raw):
    mu = ColorMeasure(Alphabet(len(mu_w)), mu_w, probability=True)
    C = Kernel(Alphabet(len(mu_w)), C_raw)
    return {"nu": poisson_limit_law(mu, C).to_dict(),
            "pair": product_kernel_measure(C, mu).to_dict()}


def _rate_config(one_color_key):
    """rate config on the bench model whose nu or pair lives on one color."""
    measures = _zero_point_measures(BENCH["mu"], BENCH["C"])
    measures[one_color_key] = _zero_point_measures([1.0], [[2.0]])[one_color_key]
    return dict(BENCH, omega=BENCH["mu"], **measures)


RATE_ONE_COLOR = {"mu": [1.0], "C": 2.0, "omega": [1.0],
                  "pair": {"m": 1, "weights": [[2.0]]},
                  "nu": {"m": 1, "probability": True,
                         "atoms": [{"color": 0, "ell": [2], "mass": 1.0}]}}


def _with(cfg, path, value):
    """A copy of cfg with the entry at path, a tuple of keys and indices, set to value."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("command,payload,message", [
    ("edge-rate", dict(BENCH, x=-1), "x must be nonnegative, got -1.0"),
    ("edge-rate", {"mu": [1.0], "C": 2.0, "x": -1, "mode": "mc", "sizes": [20],
                   "replicas": 10, "seed": 1}, "x must be nonnegative, got -1.0"),
    ("edge-rate", {"mu": [1.0], "C": 2.0, "x": 1.5, "mode": "exact", "sizes": [1]},
     "n must be >= 2, got 1"),
    ("ising", {"beta": -1, "c": 2.0}, "beta must be nonnegative, got -1.0"),
    ("ising", {"beta": 1, "c": -2.0}, "c must be positive, got -2.0"),
    ("ising", {"beta": math.nan, "c": 2.0}, "NaN"),
    ("edge-rate", dict(BENCH, x=math.nan), "NaN"),
    ("degree-rate", {"degrees": {"0": 0.5, "2": 0.5}, "c": -1}, "c must be positive, got -1.0"),
    ("degree-rate", {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0, "mean": -1},
     "mean must be nonnegative, got -1.0"),
    ("degree-rate", {"degrees": {"0": 0.5}, "c": 1.0}, "total mass 0.5"),
    ("degree-rate", {"degrees": {"-1": 1.0}, "c": 1.0}, "degree must be nonnegative, got -1"),
    ("rate", _rate_config("nu"), "alphabet mismatch: m in [1, 2]"),
    ("rate", _rate_config("pair"), "alphabet mismatch: m in [1, 2]"),
    # a refused number prints measures._real's message, naming the config key
    ("ising", {"beta": math.inf, "c": 2.0}, "config key 'beta' inf is not a finite real number"),
    ("ising", {"beta": 1, "c": [2.0, math.inf]}, "config key 'c' inf is not a finite real number"),
    ("edge-rate", {"mu": [1.0], "C": 2.0, "x": math.inf},
     "config key 'x' inf is not a finite real number"),
    ("edge-rate", dict(BENCH, x=math.inf), "config key 'x' inf is not a finite real number"),
    ("edge-rate", {"mu": [1.0], "C": 2.0, "x": math.inf, "mode": "exact", "sizes": [50]},
     "config key 'x' inf is not a finite real number"),
    ("degree-rate", {"degrees": {"0": 0.5, "2": 0.5}, "c": math.inf},
     "config key 'c' inf is not a finite real number"),
    ("approximate", dict(BENCH, eps=math.inf), "config key 'eps' inf is not a finite real number"),
    # a scalar C goes through the Kernel constructor like a matrix one
    ("edge-rate", {"mu": [1.0], "C": -2.0, "x": 1.0}, "kernel entries must be finite and >= 0"),
    ("edge-rate", {"mu": [1.0], "C": 0.0, "x": 1.0}, "kernel is identically zero"),
    ("edge-rate", {"mu": [1.0], "C": math.inf, "x": 1.0},
     "kernel entry inf is not a finite real number"),
    ("edge-rate", {"mu": [1.0], "C": True, "x": 1.0},
     "kernel entry True is not a finite real number"),
    ("edge-rate", {"mu": [1 / 65] * 65, "C": 1.0, "x": 1.0}, "m must be in [1, 64], got 65"),
    ("edge-rate", dict(BENCH, mu=[1.5, -0.5], x=1.0), "color measure entries must be finite"),
    ("edge-rate", dict(BENCH, mu=[math.inf, -math.inf], x=1.0),
     "mu entry inf is not a finite real number"),
    # integer values are checked, never truncated
    ("edge-rate", dict(ER_MC, sizes=["a"]), "a size must be an integer, got 'a'"),
    ("edge-rate", dict(ER_EXACT, sizes=["a"]), "n must be an integer, got 'a'"),
    ("edge-rate", dict(ER_MC, sizes=[50.7]), "a size must be an integer, got 50.7"),
    ("edge-rate", dict(ER_MC, replica_offset="x"),
     "replica_offset must be an integer, got 'x'"),
    ("edge-rate", dict(ER_MC, replica_offset=2.5),
     "replica_offset must be an integer, got 2.5"),
    ("edge-rate", dict(ER_MC, seed=True), "seed must be an integer in [0, 2**64), got True"),
    ("sample-conditional", {"n": 4, "color_counts": [4.5], "edge_counts": [[2]], "seed": 1},
     "bad counts: a color count must be an integer, got 4.5"),
    # wrong JSON shapes
    ("measure", {"graph": 5}, "config key 'graph' has wrong type int"),
    ("rate", dict(BENCH, pair={"m": 2, "weights": [[1.0, 0.5], [0.5, 1.0]]},
                  nu={"m": 2, "atoms": [{"color": 0, "ell": 5, "mass": 1.0}]}),
     "bad measure in config"),
    ("edge-rate", dict(ER_MC, event={"kind": ["edges"], "x": 1.2}),
     "unknown event kind ['edges']"),
    ("approximate", dict(BENCH, eps=0.01, n=100, seed=1, cap="no"),
     "'cap' must be true or false, got 'no'"),
    # a fractional degree-vector entry is an error, not truncated
    ("rate", dict(BENCH, pair={"m": 2, "weights": [[1.0, 0.5], [0.5, 1.0]]},
                  nu={"m": 2, "atoms": [{"color": 0, "ell": [1.5, 0], "mass": 1.0}]}),
     "degree vector entry must be an integer, got 1.5"),
    # an integer too large for a float is out of range, not an OverflowError
    ("edge-rate", {"mu": [1.0], "C": 2.0, "x": 10 ** 400}, "'x' is too large for a float"),
    ("ising", {"beta": 10 ** 400, "c": 2.0}, "'beta' is too large for a float"),
    ("ising", {"beta": 0.5, "c": [2.0, 10 ** 400]}, "'c' is too large for a float"),
    ("degree-rate", {"degrees": {"0": 0.5, "2": 0.5}, "c": 10 ** 400},
     "'c' is too large for a float"),
    ("degree-rate", {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0, "mean": 10 ** 400},
     "mean is too large for a float"),
    ("approximate", dict(BENCH, eps=10 ** 400), "'eps' is too large for a float"),
    ("degree-rate", {"degrees": {"0": 10 ** 400}, "c": 1.0}, "degrees must map integers"),
    # so is a Monte Carlo event threshold of that size
    ("edge-rate", dict(ER_MC, event={"kind": "edges", "x": 10 ** 400}),
     "edges event threshold"),
    ("edge-rate", dict(ER_MC, event={"kind": "degree_zero", "t": 10 ** 400}),
     "degree_zero event threshold"),
    ("edge-rate", dict(ER_MC, event={"kind": "pair", "a": 0, "b": 0, "s": 10 ** 400}),
     "pair event threshold"),
    # a repeated atom is refused, not merged into one of mass 0.5
    ("rate", {"mu": [1.0], "C": 2.0, "pair": {"m": 1, "weights": [[1.0]]},
              "nu": {"m": 1, "atoms": [{"color": 0, "ell": [1], "mass": 0.5}] * 2
                     + [{"color": 0, "ell": [0], "mass": 0.5}]}},
     "duplicate atom (0, (1,))"),
    # a beta whose e^beta, or a degree whose first moment, overflows a float is out
    # of range too
    ("ising", {"beta": 1000, "c": 2.0}, "beta 1000.0 is too large: e^beta overflows a float"),
    ("ising", {"beta": 709, "c": 3.0}, "for c 3.0: c e^beta overflows a float"),
    ("degree-rate", {"degrees": {str(10 ** 400): 1.0}, "c": 1.0},
     "a degree is too large for a float"),
    # "1" and "01" name one degree, which is refused, not read as the last mass given
    ("degree-rate", {"degrees": {"1": 0.5, "01": 0.5, "0": 0.5}, "c": 1.0},
     "degree 1 is listed more than once"),
    # n and the config seed take whole floats, and refuse fractions, bools and strings
    ("generate", dict(BENCH, n=100.5, seed=1), "n must be an integer, got 100.5"),
    ("generate", dict(BENCH, n=True, seed=1), "n must be an integer, got True"),
    ("sample-conditional", {"n": "4", "color_counts": [4], "edge_counts": [[2]], "seed": 1},
     "n must be an integer, got '4'"),
    ("generate", dict(BENCH, n=100, seed=2.5), "seed must be an integer in [0, 2**64), got 2.5"),
    ("approximate", dict(BENCH, eps=0.1, n=100, seed="7"),
     "seed must be an integer in [0, 2**64), got '7'"),
    # a degree near the float limit leaves the rate's terms as inf - inf
    ("degree-rate", {"degrees": {"0": 0.5, str(10 ** 308): 0.5}, "c": 1.0},
     "a degree is too large for a float"),
    # a degree vector entry past int64 is refused, not wrapped or answered
    ("rate", {"mu": [1.0], "C": 2.0, "pair": {"m": 1, "weights": [[1.0]]},
              "nu": {"m": 1, "atoms": [{"color": 0, "ell": [2 ** 63], "mass": 1.0}]}},
     "degree vector entry does not fit in int64"),
    # consistify's heavy atom would need a degree past int64
    ("approximate", dict(BENCH, eps=1e-20),
     "eps 1e-20 needs degree vectors of magnitude 275000000000000000000, past int64"),
    # a vertex or color index of an inline graph past int64
    ("measure", {"graph": {"n": 2, "m": 1, "colors": [0, 0], "edges": [[0, 10 ** 20]]}},
     "bad inline graph: a vertex index does not fit in int64"),
    ("measure", {"graph": {"n": 2, "m": 1, "colors": [0, 10 ** 20], "edges": []}},
     "bad inline graph: a color index does not fit in int64"),
    # an inline graph's fraction or bool index is refused, not truncated
    ("measure", {"graph": {"n": 2, "m": 2, "colors": [0.5, 1.9], "edges": [[0, 1.7]]}},
     "bad inline graph: a color index must be an integer, got 0.5"),
    ("measure", {"graph": {"n": 2, "m": 2, "colors": [True, False], "edges": []}},
     "bad inline graph: a color index must be an integer, got True"),
    ("measure", {"graph": {"n": 2, "m": 2, "colors": [0, True], "edges": []}},
     "bad inline graph: a color index must be an integer, got True"),
    ("measure", {"graph": {"n": 2, "m": 2, "colors": [0, 1], "edges": [[0, 1.7]]}},
     "bad inline graph: a vertex index must be an integer, got 1.7"),
    ("measure", {"graph": {"n": 2, "m": 2, "colors": [0, 1], "edges": [[False, True]]}},
     "bad inline graph: a vertex index must be an integer, got False"),
    # a count past int64 says so, rather than wrapping into a failed sign or symmetry check
    ("sample-conditional", {"n": 4, "color_counts": [2 ** 63], "edge_counts": [[2]],
                            "seed": 1}, "bad counts: a color count does not fit in int64"),
    ("sample-conditional", {"n": 4, "color_counts": [4], "edge_counts": [[2 ** 63]],
                            "seed": 1}, "bad counts: an edge count does not fit in int64"),
    ("sample-conditional", {"n": 4, "color_counts": [2, 2],
                            "edge_counts": [[0, 2 ** 64], [2 ** 64, 0]], "seed": 1},
     "bad counts: an edge count does not fit in int64"),
    # the refusal names the key it read
    ("rate", dict(BENCH, omega=[0.25, 0.5], **_zero_point_measures(BENCH["mu"], BENCH["C"])),
     "omega must sum to 1 (got 0.75)"),
    # a degree key is an ASCII base-10 token, as --seed is
    ("degree-rate", {"degrees": {"0": 0.5, "1_0": 0.5}, "c": 1.0},
     "degrees must map integers to probabilities: degree must be an integer, got '1_0'"),
    ("degree-rate", {"degrees": {"0": 0.5, " 2": 0.5}, "c": 1.0},
     "degree must be an integer, got ' 2'"),
    ("degree-rate", {"degrees": {"0": 0.5, "\u0662": 0.5}, "c": 1.0},
     "degree must be an integer, got '\u0662'"),
    # a mass is a JSON number, not a string or a bool
    ("degree-rate", {"degrees": {"0": "0.5", "2": 0.5}, "c": 1.0},
     "degrees must map integers to probabilities: degree 0 mass '0.5' is not a finite real"),
    ("degree-rate", {"degrees": {"1": True}, "c": 1.0},
     "degrees must map integers to probabilities: degree 1 mass True is not a finite real"),
    # consistify reads eps, as every library call reads its scalars
    ("approximate", dict(BENCH, eps=0.0), "eps must be positive, got 0.0"),
    ("approximate", dict(BENCH, eps=-1), "eps must be positive, got -1.0"),
    # numpy's float cast read each of these as a number, and truthiness read "no" as
    # true, so each was answered with exit 0
    ("edge-rate", {"mu": [True], "C": 2.0, "x": 1.0}, "mu entry True is not a finite real number"),
    ("edge-rate", dict(BENCH, C=[["3", 1], [1, 2]], x=1.0),
     "kernel entry '3' is not a finite real number"),
    ("rate", _with(RATE_ONE_COLOR, ("pair", "weights", 0, 0), "2.0"),
     "bad measure in config: pair measure entry '2.0' is not a finite real number"),
    ("rate", _with(RATE_ONE_COLOR, ("nu", "atoms", 0, "mass"), True),
     "bad measure in config: atom mass True is not a finite real number"),
    ("rate", dict(RATE_ONE_COLOR, omega=["1"]), "omega entry '1' is not a finite real number"),
    ("rate", _with(RATE_ONE_COLOR, ("nu", "probability"), "no"),
     "bad measure in config: probability must be true or false, got 'no'"),
    # open() reads an int as a file descriptor: 0 measured the graph on stdin with exit 0,
    # and true opened fd 1 and closed it; 1.5 and null ended in a TypeError
    ("measure", {"graph_path": 0}, "config key 'graph_path' has wrong type int"),
    ("measure", {"graph_path": True}, "config key 'graph_path' has wrong type bool"),
    ("measure", {"graph_path": 1.5}, "config key 'graph_path' has wrong type float"),
    ("measure", {"graph_path": None}, "config key 'graph_path' has wrong type NoneType"),
])
def test_out_of_range_exit_2(tmp_path, capsys, command, payload, message):
    cfg = _write(tmp_path, "bad.json", payload)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_out_of_range_seed_flag_exit_2(tmp_path, capsys, seed):
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=10, seed=1))
    assert main(["generate", "--config", cfg, "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: seed must be an integer in [0, 2**64), got {seed}\n"


@pytest.mark.parametrize("seed", ["1_0", " 7", "7 ", "\u0667", "7.0", "0x7", "1e1", "",
                                  pytest.param("9" * 5000, id="5000-digits")])
def test_seed_flag_is_an_ascii_base_10_token(tmp_path, capsys, seed):
    # int() would read the first four as 10, 7, 7 and 7, and refuses the last one, past
    # its limit on digits, with a ValueError
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=10, seed=1))
    assert main(["generate", "--config", cfg, "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: seed must be an integer in [0, 2**64), got {seed!r}\n"


def test_seed_flag_takes_a_sign_and_leading_zeros(tmp_path):
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=100, seed=1))
    docs = [_run_json(tmp_path, ["generate", "--config", cfg, "--seed", seed],
                      name=f"out{i}.json") for i, seed in enumerate(("7", "+7", "007"))]
    assert all(code == 0 and doc == docs[0][1] for code, doc in docs)
    assert docs[0][1]["manifest"]["config"]["seed"] == 7


def test_degree_keys_are_ascii_base_10_tokens(tmp_path):
    # "+2" and "02" name the degree 2; test_out_of_range_exit_2 refuses "1_0", " 2" and
    # an Arabic-Indic two
    values = []
    for i, key in enumerate(("2", "+2", "02")):
        cfg = _write(tmp_path, f"deg{i}.json", {"degrees": {"0": 0.5, key: 0.5}, "c": 1.0})
        code, doc = _run_json(tmp_path, ["degree-rate", "--config", cfg], name=f"o{i}.json")
        assert code == 0
        values.append(doc["value"])
    assert values[0] == values[1] == values[2] != "inf"


def test_suite_is_for_validate_only(tmp_path, capsys):
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=10, seed=1))
    for argv in (["generate", "--config", cfg], ["rate"]):
        assert main([*argv, "--suite", "all"]) == 2
        command = argv[0]
        assert capsys.readouterr().err == (f"config error: --suite is for validate only, "
                                           f"not {command}\n")


def test_approximate_refuses_a_limit_law_past_the_atom_limit(tmp_path, capsys, monkeypatch):
    # 8 colors give about 1.2e10 atoms; the refusal must come before any grid exists
    def no_grid(*args, **kwargs):
        raise AssertionError("np.indices called")

    monkeypatch.setattr(np, "indices", no_grid)
    m = 8
    cfg = _write(tmp_path, "m8.json", {"mu": [1 / m] * m, "C": [[2.0] * m] * m, "eps": 0.01})
    assert main(["approximate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "atoms, more than 1000000" in err


@pytest.mark.parametrize("make, huge, plain, code", [
    (lambda x: dict(ER_MC, x=x), 1e308, 50, 0),
    (lambda x: dict(ER_MC, event={"kind": "edges", "x": x}), 1e308, 50, 0),
    # exact mode answers a threshold past n(n-1)/2 with exponent "inf"
    (lambda x: dict(ER_EXACT, x=x, sizes=[50]), 1e308, 50, 0),
    (lambda x: dict(ER_EXACT, x=x, sizes=[50]), -1e308, -1, 0),
], ids=["mc", "mc-event", "exact", "exact-negative"])
def test_edge_threshold_past_the_float_range_answers_as_saturated(tmp_path, capsys, make,
                                                                  huge, plain, code):
    # x n overflows at n = 50, yet the event is as impossible as at x = 50
    # (x n = n^2) or as certain as at x = -1, and gets the same answer
    answers = []
    for x in (huge, plain):
        out = tmp_path / "out.json"
        out.unlink(missing_ok=True)
        got = main(["edge-rate", "--config", _write(tmp_path, "cfg.json", make(x)),
                    "--out", str(out)])
        doc = json.loads(out.read_text()) if got == 0 else {}
        answers.append((got, capsys.readouterr().err, doc.get("estimate"), doc.get("rows")))
    assert answers[0] == answers[1] and answers[0][0] == code


def test_degree_rate_infinite_mean_is_a_value(tmp_path):
    # an infinite mean is a law, not an overflow: its rate is infinite
    cfg = _write(tmp_path, "deg.json",
                 {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0, "mean": math.inf})
    code, doc = _run_json(tmp_path, ["degree-rate", "--config", cfg])
    assert code == 0 and doc["value"] == "inf"


def test_degree_rate_negative_infinite_mean_exit_2(tmp_path, capsys):
    # only +inf flags an infinite-mean law; -inf was read as that flag and answered "inf"
    cfg = _write(tmp_path, "deg.json",
                 {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0, "mean": -math.inf})
    assert main(["degree-rate", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: mean must be nonnegative, got -inf\n"


def test_pair_event_color_outside_alphabet_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.json",
                 {"mu": [1.0], "C": 2.0, "x": 1.2, "mode": "mc", "sizes": [50],
                  "replicas": 100, "seed": 3,
                  "event": {"kind": "pair", "a": 3, "b": 0, "s": 0.1}})
    assert main(["edge-rate", "--config", cfg]) == 2
    assert "pair event color a must be in [0, 0], got 3" in capsys.readouterr().err


def test_edge_rate_mc_fit_through_a_size_where_every_replica_hits(tmp_path):
    # the one vertex at n = 1 is always isolated, so p_hat = 1 and its se is floored
    cfg = _write(tmp_path, "mc.json",
                 dict(ER_MC, sizes=[1, 50], replicas=300,
                      event={"kind": "degree_zero", "t": 0.1}))
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0
    est = doc["estimate"]
    assert est["rows"][0]["p_hat"] == 1.0 and est["rows"][1]["hits"] < 300
    # two sizes: the fit is the line through (1, 0) and (1/50, exponent at 50)
    assert est["exponent"] == pytest.approx(est["rows"][1]["exponent"] * 50 / 49, rel=1e-9)
    assert math.isfinite(est["ci_half_width"])


def test_event_key_of_another_kind_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.json", dict(ER_MC, event={"kind": "edges", "x": 1.2, "t": 0.5}))
    assert main(["edge-rate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "edges event does not take ['t']" in err


def test_event_threshold_not_a_number_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.json",
                 {"mu": [1.0], "C": 2.0, "x": 1.2, "mode": "mc", "sizes": [50],
                  "replicas": 100, "seed": 3, "event": {"kind": "edges", "x": "big"}})
    assert main(["edge-rate", "--config", cfg]) == 2
    assert "not a finite real number" in capsys.readouterr().err


def test_edge_rate_mc_event_needs_no_top_level_x(tmp_path):
    base = {"mu": [1.0], "C": 2.0, "mode": "mc", "sizes": [50], "replicas": 100, "seed": 3}
    cfg = _write(tmp_path, "deg0.json", dict(base, event={"kind": "degree_zero", "t": 0.2}))
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0 and doc["estimate"]["rows"][0]["replicas"] == 100
    # the default mc event and zeta mode still read x
    for name, bare in (("mc", base), ("zeta", dict(base, mode="zeta"))):
        assert main(["edge-rate", "--config", _write(tmp_path, f"{name}.json", bare)]) == 2


def test_edge_rate_whole_float_counts_are_integers(tmp_path):
    # one integer rule: 50.0 is 50 in sizes, replicas and the offset, as "n": 4.0
    # is 4 in a graph
    for name, base, floats in (("mc", ER_MC, dict(sizes=[50.0], replicas=100.0,
                                                   replica_offset=3.0)),
                               ("exact", ER_EXACT, dict(sizes=[50.0]))):
        ints = {key: [int(v) for v in val] if isinstance(val, list) else int(val)
                for key, val in floats.items()}
        docs = [_run_json(tmp_path, ["edge-rate", "--config",
                                     _write(tmp_path, f"{name}{i}.json", dict(base, **cfg))],
                          name=f"{name}{i}-out.json") for i, cfg in enumerate((floats, ints))]
        assert [code for code, _ in docs] == [0, 0]
        rows = [doc["estimate"]["rows"] if name == "mc" else doc["rows"] for _, doc in docs]
        assert [row["exponent"] for row in rows[0]] == [row["exponent"] for row in rows[1]]
    # so are n and the seed of a model graph
    bodies = []
    for i, (n, seed) in enumerate(((1000.0, 7.0), (1000, 7))):
        cfg = _write(tmp_path, f"gen{i}.json", dict(BENCH, n=n, seed=seed))
        code, doc = _run_json(tmp_path, ["generate", "--config", cfg], name=f"gen{i}-out.json")
        assert code == 0
        bodies.append({key: val for key, val in doc.items() if key != "manifest"})
    assert bodies[0] == bodies[1]


# ---------------------------------------------------------------------------
# validate


def test_validate_duality_suite(tmp_path, capsys):
    code = main(["validate", "--suite", "duality"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all("PASS" in line for line in lines)


def test_validate_failing_criterion_exits_1(tmp_path, capsys, monkeypatch):
    def broken():
        return {"id": 3, "name": "degree-rate-points", "passed": False,
                "details": {"zero": 1.0}, "elapsed": 0.0}

    monkeypatch.setitem(acceptance.CRITERIA, 3, broken)
    out = tmp_path / "records.json"
    assert main(["validate", "--suite", "rates", "--out", str(out)]) == 1
    assert "FAIL criterion 3" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert [rec["passed"] for rec in doc["records"]] == [False, True]


def test_validate_a_violated_counting_bound_fails(capsys, monkeypatch):
    # the oracles report their bound flags and criterion 10 judges them: a FAIL
    # line and exit 1, not a traceback
    monkeypatch.setattr(oracles, "_SCALAR_BOUND_CONST", 1.0)
    rec = acceptance.criterion_10()
    assert not rec["passed"] and not rec["details"]["scalar_ok"]
    for cid in (7, 8, 9):  # passing stand-ins for the suite's slower criteria
        monkeypatch.setitem(acceptance.CRITERIA, cid,
                            lambda cid=cid: dict(rec, id=cid, passed=True))
    assert main(["validate", "--suite", "bounds"]) == 1
    assert "FAIL criterion 10 (combinatorial-bounds)" in capsys.readouterr().out


def test_validate_unknown_suite_exits_2(capsys):
    # the suite is checked when validate runs, so the parser need not load the criteria
    assert main(["validate", "--suite", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown suite 'nope'" in err
    assert all(repr(name) in err for name in acceptance.SUITES)


def test_validate_takes_no_config_or_seed(tmp_path, capsys):
    # the criteria run only with their published tolerances and seeds
    cfg = _write(tmp_path, "settings.json", {"overrides": {"5": {"instances": 0}}})
    for extra in (["--seed", "5"], ["--config", cfg]):
        assert main(["validate", "--suite", "duality", *extra]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "validate takes no --config or --seed" in err
