import json

import pytest

from fracbdf.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coeffs_csv_classical_bdf2(capsys):
    code, out = run_cli(capsys, "coeffs", "--k", "2", "--alpha", "1", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# fracbdf-csv-v1 coeffs")
    assert lines[1] == "j,l_j,g_j"
    values = [float(line.split(",")[1]) for line in lines[2:]]
    assert values[:3] == [1.5, -2.0, 0.5]
    assert abs(values[3]) < 1e-14 and abs(values[4]) < 1e-14


def test_cli_output_is_deterministic(capsys):
    args = ("coeffs", "--k", "5", "--alpha", "0.37", "--sigma", "0.2",
            "--tau", "0.05", "--n", "64")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_coeffs_json(capsys):
    code, out = run_cli(capsys, "coeffs", "--k", "1", "--alpha", "0.5",
                        "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["l"] == pytest.approx([1.0, -0.5, -0.125])


def test_multipliers_json_with_q(capsys):
    code, out = run_cli(capsys, "multipliers", "--k", "6", "--alpha", "0.5",
                        "--n", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == pytest.approx([43.0 / 30.0, -2.0 / 3.0, 0.1])
    assert payload["c"][1] == pytest.approx(43.0 / 30.0)
    assert len(payload["q"]) == 9


def test_multipliers_csv_without_alpha(capsys):
    code, out = run_cli(capsys, "multipliers", "--k", "3", "--n", "4")
    assert code == 0
    header = out.strip().splitlines()[1]
    assert header == "m,mu_m,c_m"


def test_check_positivity(capsys):
    code, out = run_cli(capsys, "check-positivity", "--k", "6", "--N", "10,50")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["property_p"]["f_min"] > 0.004785


def test_check_astability(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out = run_cli(capsys, "check-astability", "--k", "6", "--alpha", "0.99",
                        "--grid", "2048", "--csv-out", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["property_a"]["max_abs_arg"] <= 1.5707963277
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "x,arg_q,theta1,theta2,reciprocal_sum"
    assert len(lines) == 2050


def test_toeplitz(capsys):
    code, out = run_cli(capsys, "toeplitz", "--k", "4", "--N", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["lambda_min"] >= payload["f_min"] - 1e-10


def test_solve_scalar_config(capsys, tmp_path):
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps({
        "operator": {"variant": "single_term", "alpha": 0.5},
        "spatial": {"variant": "scalar", "value": 1.0},
        "rho": 1.0, "T": 1.0}))
    code, out = run_cli(capsys, "solve", "--config", str(cfg), "--k", "2", "--n", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n,t,u0"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert float(last[0]) == 8 and float(last[1]) == 1.0
    assert abs(float(last[2]) - 0.4275835761558073) < 1e-2


def test_solve_norms_mode(capsys, tmp_path):
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps({
        "operator": {"variant": "multi_term", "terms": [[1.0, 0.7], [1.0, 0.2]]},
        "spatial": {"variant": "tridiagonal", "size": 24},
        "rho": {"profile": "sin"}, "T": 1.0}))
    code, out = run_cli(capsys, "solve", "--config", str(cfg), "--k", "3",
                        "--n", "6", "--norms")
    assert code == 0
    assert out.strip().splitlines()[1] == "n,t,norm_l2,norm_energy"


def test_converge_json(capsys):
    code, out = run_cli(capsys, "converge", "--k", "2", "--alpha", "0.5",
                        "--n-list", "32,64,128", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["observed_order"] == pytest.approx(2.0, abs=0.35)


def test_stability_command(capsys, tmp_path):
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps({
        "operator": {"variant": "single_term", "alpha": 0.5},
        "spatial": {"variant": "tridiagonal", "size": 16},
        "rho": {"profile": "sin"}, "T": 1.0}))
    code, out = run_cli(capsys, "stability", "--config", str(cfg), "--k", "6",
                        "--trials", "3", "--n-list", "16,32", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert len(payload["max_ratio_sq"]) == 2


def test_error_reporting(capsys):
    code = main(["coeffs", "--k", "9", "--alpha", "0.5", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.err)
    assert "BDF order" in payload["error"]


@pytest.mark.parametrize("case", ("converge-n-list", "stability-n-list",
                                  "config-directory", "config-not-utf8", "config-missing",
                                  "out-directory"))
def test_bad_cli_input_is_json_error(capsys, tmp_path, case):
    cfg = _solve_config(tmp_path)
    argv = {
        "converge-n-list": ["converge", "--k", "3", "--alpha", "0.5", "--n-list", "a,b"],
        "stability-n-list": ["stability", "--config", cfg, "--k", "3", "--n-list", "64,x"],
        "config-directory": ["solve", "--config", str(tmp_path), "--k", "2", "--n", "8"],
        "config-not-utf8": ["solve", "--config", cfg, "--k", "2", "--n", "8"],
        "config-missing": ["solve", "--config", str(tmp_path / "none.json"),
                           "--k", "2", "--n", "8"],
        "out-directory": ["solve", "--config", cfg, "--k", "2", "--n", "8",
                          "--out", str(tmp_path)],
    }[case]
    if case == "config-not-utf8":
        (tmp_path / "prob.json").write_bytes(b'{"T": "\xff\xfe"}')
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["kind"] == "error"


def test_bad_matrix_size_list_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-positivity", "--k", "6", "--N", "10,abc"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def _solve_config(tmp_path, sigma=0.0, T=1.0):
    # json writes float('nan') and float('inf') as NaN and Infinity, which
    # json.load reads back.
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps({
        "operator": {"variant": "single_term", "alpha": 0.5, "sigma": sigma},
        "spatial": {"variant": "scalar", "value": 1.0},
        "rho": 1.0, "T": T}))
    return str(cfg)


@pytest.mark.parametrize("field", ("sigma", "T"))
@pytest.mark.parametrize("value", (float("nan"), float("inf")))
def test_solve_rejects_non_finite_config(capsys, tmp_path, field, value):
    cfg = _solve_config(tmp_path, **{field: value})
    code = main(["solve", "--config", cfg, "--k", "2", "--n", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "error"


@pytest.mark.parametrize("precision", ("0", "-3", "15", "1.5", "abc"))
def test_converge_rejects_bad_precision(capsys, precision):
    code = main(["converge", "--k", "5", "--alpha", "0.5", "--n-list", "16,32",
                 "--precision", precision])
    captured = capsys.readouterr()
    assert code == 2
    assert "precision" in json.loads(captured.err)["error"]


def test_converge_twin_rejects_grids_coarser_than_the_order(capsys):
    code = main(["converge", "--k", "5", "--alpha", "0.5", "--n-list", "2,4",
                 "--precision", "30"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "need N >= k" in json.loads(captured.err)["error"]


def test_converge_high_precision_json(capsys):
    code, out = run_cli(capsys, "converge", "--k", "5", "--alpha", "0.5",
                        "--n-list", "32,64,128", "--precision", "30",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["observed_order"] == pytest.approx(5.0, abs=0.35)


def test_converge_has_no_seed_flag():
    with pytest.raises(SystemExit):
        main(["converge", "--k", "2", "--alpha", "0.5", "--seed", "1"])


_NAN, _INF = float("nan"), float("inf")
_SCALAR = {"variant": "scalar", "value": 1.0}
_TRI = {"variant": "tridiagonal", "size": 4}
_SINGLE = {"variant": "single_term", "alpha": 0.5}
_HUGE = 10 ** 400        # valid JSON, beyond float range

#: Malformed configs, each with a fragment of the error message it must give.
MALFORMED_CONFIGS = {
    "nan-term-weight": ({"operator": {"variant": "multi_term", "terms": [[_NAN, 0.5]]},
                         "spatial": _SCALAR, "rho": 1.0, "T": 1.0}, "term weights"),
    "nan-length": ({"operator": _SINGLE, "spatial": {**_TRI, "length": _NAN},
                    "rho": [1.0] * 4, "T": 1.0}, "length"),
    "inf-length": ({"operator": _SINGLE, "spatial": {**_TRI, "length": _INF},
                    "rho": [1.0] * 4, "T": 1.0}, "length"),
    "nan-power-weight": ({"operator": {"variant": "distributed_order", "weight": "power",
                                       "weight_params": {"p": _NAN}},
                          "spatial": _SCALAR, "rho": 1.0, "T": 1.0}, "weight"),
    "nan-rho-entry": ({"operator": _SINGLE, "spatial": _TRI,
                       "rho": [1.0, _NAN, 1.0, 1.0], "T": 1.0}, "rho"),
    "nan-scalar-rho": ({"operator": _SINGLE, "spatial": _SCALAR, "rho": _NAN, "T": 1.0},
                       "rho"),
    "string-power-param": ({"operator": {"variant": "distributed_order", "weight": "power",
                                         "weight_params": {"p": "x"}},
                            "spatial": _SCALAR, "rho": 1.0, "T": 1.0}, "malformed config"),
    "string-alpha": ({"operator": {"variant": "single_term", "alpha": "x"},
                      "spatial": _SCALAR, "rho": 1.0, "T": 1.0}, "malformed config"),
    "three-entry-term": ({"operator": {"variant": "multi_term", "terms": [[1.0, 0.5, 2.0]]},
                          "spatial": _SCALAR, "rho": 1.0, "T": 1.0}, "malformed config"),
    "unknown-weight-param": ({"operator": {"variant": "distributed_order",
                                           "weight": "constant", "weight_params": {"q": 1.0}},
                              "spatial": _SCALAR, "rho": 1.0, "T": 1.0},
                             "malformed config"),
    "dirac-comb-unknown-param": ({"operator": {"variant": "distributed_order",
                                               "weight": "dirac_comb",
                                               "weight_params": {"terms": [[1.0, 0.5]],
                                                                 "typo": 3}},
                                  "spatial": _SCALAR, "rho": 1.0, "T": 1.0}, "dirac_comb"),
    "dirac-comb-nodes": ({"operator": {"variant": "distributed_order", "weight": "dirac_comb",
                                       "weight_params": {"terms": [[1.0, 0.5]]}, "nodes": 7},
                          "spatial": _SCALAR, "rho": 1.0, "T": 1.0}, "dirac_comb"),
    "nan-dense-matrix": ({"operator": _SINGLE,
                          "spatial": {"variant": "dense_spd", "matrix": [[1.0, _NAN], [_NAN, 1.0]]},
                          "rho": [1.0, 1.0], "T": 1.0}, "finite"),
    "huge-T": ({"operator": _SINGLE, "spatial": _SCALAR, "rho": 1.0, "T": _HUGE},
               "too large"),
    "huge-length": ({"operator": _SINGLE, "spatial": {**_TRI, "length": _HUGE},
                     "rho": [1.0] * 4, "T": 1.0}, "too large"),
    "huge-amplitude": ({"operator": _SINGLE, "spatial": _TRI,
                        "rho": {"profile": "sin", "amplitude": _HUGE}, "T": 1.0}, "too large"),
    "huge-sigma": ({"operator": {**_SINGLE, "sigma": _HUGE}, "spatial": _SCALAR,
                    "rho": 1.0, "T": 1.0}, "too large"),
    # b * tau^(-alpha) = 1e308 * 8^0.5 overflows
    "overflowing-term-weight": ({"operator": {"variant": "multi_term", "terms": [[1e308, 0.5]]},
                                 "spatial": _SCALAR, "rho": 1.0, "T": 1}, "must be finite"),
}


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_solve_rejects_malformed_config(capsys, tmp_path, case):
    config, message = MALFORMED_CONFIGS[case]
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps(config))
    code = main(["solve", "--config", str(cfg), "--k", "2", "--n", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["kind"] == "error"
    assert message in payload["error"]


#: Counts that are not integers: before, int() truncated 2.7 to 2 and ran.
NON_INTEGER_COUNTS = {
    "float-size": ({"variant": "tridiagonal", "size": 2.7}, _SINGLE, "size"),
    "bool-size": ({"variant": "tridiagonal", "size": True}, _SINGLE, "size"),
    "string-size": ({"variant": "tridiagonal", "size": "64"}, _SINGLE, "size"),
    "float-nodes": (_SCALAR, {"variant": "distributed_order", "nodes": 3.9}, "nodes"),
    "bool-nodes": (_SCALAR, {"variant": "distributed_order", "nodes": True}, "nodes"),
    "string-nodes": (_SCALAR, {"variant": "distributed_order", "nodes": "16"}, "nodes"),
}


@pytest.mark.parametrize("case", NON_INTEGER_COUNTS)
def test_solve_rejects_non_integer_counts(capsys, tmp_path, case):
    spatial, operator, message = NON_INTEGER_COUNTS[case]
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps({"operator": operator, "spatial": spatial,
                               "rho": 1.0, "T": 1.0}))
    code = main(["solve", "--config", str(cfg), "--k", "2", "--n", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["kind"] == "error"
    assert message in payload["error"]


def test_solve_accepts_integer_counts(capsys, tmp_path):
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps({
        "operator": {"variant": "distributed_order", "nodes": 3},
        "spatial": {"variant": "tridiagonal", "size": 3}, "rho": [1.0, 2.0, 1.0],
        "T": 1.0}))
    code = main(["solve", "--config", str(cfg), "--k", "2", "--n", "8"])
    assert code == 0
    assert capsys.readouterr().out
