import csv
import json
import math

import pytest

from graphrates import (Alphabet, ColorMeasure, ColoredGraph, Kernel,
                        poisson_limit_law, product_kernel_measure, rate_zeta,
                        rate_zeta_er)
from graphrates.cli import main

BENCH = {"mu": [0.5, 0.5], "C": [[3.0, 1.0], [1.0, 2.0]]}


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


def test_generate_deterministic_output(tmp_path):
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=100, seed=42))
    _, doc_a = _run_json(tmp_path, ["generate", "--config", cfg], name="a.json")
    _, doc_b = _run_json(tmp_path, ["generate", "--config", cfg], name="b.json")
    assert doc_a == doc_b


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "gen.json", dict(BENCH, n=100, seed=42))
    code, doc = _run_json(tmp_path, ["generate", "--config", cfg, "--seed", "43"])
    assert code == 0
    assert doc["manifest"]["config"]["seed"] == 43
    _, doc42 = _run_json(tmp_path, ["generate", "--config", cfg], name="c.json")
    assert doc["graph"]["edges"] != doc42["graph"]["edges"]


# ---------------------------------------------------------------------------
# rates


def test_rate_zero_point(tmp_path):
    mu = ColorMeasure(Alphabet(2), BENCH["mu"], probability=True)
    C = Kernel(Alphabet(2), BENCH["C"])
    nu = poisson_limit_law(mu, C, tail_mass=1e-12)
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


def test_degree_rate_known_value(tmp_path):
    cfg = _write(tmp_path, "deg.json", {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0})
    code, doc = _run_json(tmp_path, ["degree-rate", "--config", cfg])
    assert code == 0
    assert doc["value"] == pytest.approx(0.6534264097200272, abs=1e-12)


def test_edge_rate_zeta_matches_closed_form(tmp_path):
    cfg = _write(tmp_path, "er.json", {"mu": [1.0], "C": 2.0, "x": 1.5})
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0
    assert doc["er_closed_form"] == pytest.approx(rate_zeta_er(1.5, 2.0), abs=1e-15)
    assert abs(doc["value"] - doc["er_closed_form"]) <= 1e-8


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


def test_edge_rate_mc_two_color_prediction(tmp_path):
    cfg = _write(tmp_path, "mc.json",
                 dict(BENCH, mode="mc", sizes=[50], replicas=200, seed=3,
                      event={"kind": "edges", "x": 1.5}))
    code, doc = _run_json(tmp_path, ["edge-rate", "--config", cfg])
    assert code == 0
    assert math.isfinite(doc["rate_prediction"]) and doc["rate_prediction"] > 0.0


# ---------------------------------------------------------------------------
# ising


def test_ising_table(tmp_path):
    cfg = _write(tmp_path, "ising.json", {"beta": [0.0, 0.5, 1.0], "c": 2.0})
    code, doc = _run_json(tmp_path, ["ising", "--config", cfg])
    assert code == 0
    rows = doc["records"]
    assert rows[0]["value"] == pytest.approx(math.log(2.0), abs=1e-9)
    assert rows[0]["oracle"] == pytest.approx(math.log(2.0), abs=1e-12)
    for row in rows:
        assert abs(row["value"] - row["oracle"]) <= 1e-6
        assert row["converged"] is True
    vals = [row["value"] for row in rows]
    assert vals == sorted(vals)


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


@pytest.mark.parametrize("command,payload,key", [
    ("edge-rate", {"mu": [1.0], "C": 2.0, "x": True}, "'x'"),
    ("degree-rate", {"degrees": {"0": 0.5, "2": 0.5}, "c": 1.0, "mean": "abc"}, "'mean'"),
    ("ising", {"beta": "hot", "c": 2.0}, "'beta'"),
])
def test_non_number_exit_2(tmp_path, capsys, command, payload, key):
    cfg = _write(tmp_path, "bad.json", payload)
    assert main([command, "--config", cfg]) == 2
    assert key in capsys.readouterr().err


def test_pair_event_color_outside_alphabet_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.json",
                 {"mu": [1.0], "C": 2.0, "x": 1.2, "mode": "mc", "sizes": [50],
                  "replicas": 100, "seed": 3,
                  "event": {"kind": "pair", "a": 3, "b": 0, "s": 0.1}})
    assert main(["edge-rate", "--config", cfg]) == 2
    assert "pair event colors" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# validate


def test_validate_duality_suite(tmp_path, capsys):
    code = main(["validate", "--suite", "duality"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all("PASS" in line for line in lines)


def test_validate_tampered_tolerance_fails(tmp_path, capsys):
    cfg = _write(tmp_path, "ovr.json",
                 {"overrides": {"3": {"zero_tol": 1e-30}}})
    out = tmp_path / "records.json"
    code = main(["validate", "--suite", "rates", "--config", cfg,
                 "--out", str(out)])
    assert code == 1
    text = capsys.readouterr().out
    assert "FAIL" in text
    records = json.loads(out.read_text())["records"]
    assert any(not rec["passed"] for rec in records)
