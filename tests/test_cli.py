import csv
import io
import json
import math

import numpy as np
import pytest

from localquant import (
    ConstantColumn,
    Dataset,
    Kernel,
    LocalizationSpec,
    MissingColumn,
    ParseError,
    QuantileSpec,
    RngStream,
    df_quantile_ci,
    load_csv,
    localization_weights,
    qr_interval,
    wq_interval,
)
from localquant.cli import main, parse_endpoint


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(42)
    x = rng.uniform(0, 1, size=120)
    y = np.sin(5 * x) + rng.normal(scale=0.3, size=120)
    path = tmp_path / "data.csv"
    write_csv(path, ["x", "y"], np.column_stack([x, y]).tolist())
    return str(path), x, y


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- load_csv ---------------------------------------------------------------

def test_load_small_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], [[0.1, 1.0], [0.2, 2.0], [0.3, 3.0]])
    data = load_csv(str(path), ["x"], "y")
    assert data.n == 3 and data.dim == 1
    assert data.x_names == ("x",) and data.y_name == "y"
    assert np.array_equal(data.responses, [1.0, 2.0, 3.0])


def test_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "y"], [[1, 2]])
    with pytest.raises(MissingColumn):
        load_csv(str(path), ["x"], "y")


def test_parse_error_location(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], [[0.1, 1.0], ["oops", 2.0]])
    with pytest.raises(ParseError) as err:
        load_csv(str(path), ["x"], "y")
    assert err.value.row == 3
    assert err.value.column == "x"


def test_constant_column(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], [[1.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ConstantColumn):
        load_csv(str(path), ["x"], "y", normalize=True)


def test_normalization(tmp_path):
    path = tmp_path / "t.csv"
    raw = [[10.0, 1.0], [20.0, 2.0], [30.0, 3.0], [40.0, 4.0]]
    write_csv(path, ["x", "y"], raw)
    data = load_csv(str(path), ["x"], "y", normalize=True)
    col = data.covariates[:, 0]
    assert col.mean() == pytest.approx(0.0, abs=1e-15)
    assert col.std() == pytest.approx(1.0, rel=1e-12)
    means, sds = data.normalization
    assert means[0] == 25.0
    # responses untouched
    assert np.array_equal(data.responses, [1.0, 2.0, 3.0, 4.0])
    # normalized coordinate of a raw point
    assert (50.0 - means[0]) / sds[0] == pytest.approx(
        (50.0 - 25.0) / np.std([10.0, 20.0, 30.0, 40.0]), rel=1e-12
    )


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], [[0.1, "inf"], [0.2, 2.0]])
    with pytest.raises(ParseError):
        load_csv(str(path), ["x"], "y")


# --- exit codes -------------------------------------------------------------

def test_qr_without_seed_is_usage_error(sample_csv, capsys):
    path, _, _ = sample_csv
    with pytest.raises(SystemExit) as exc:
        main(["ci", "--data", path, "--x-cols", "x", "--y-col", "y",
              "--x0", "0.5", "--h", "0.2", "--method", "qr"])
    assert exc.value.code == 2


def test_missing_file_is_data_error(capsys):
    code, _, err = run_cli(capsys, ["ci", "--data", "/nonexistent.csv", "--x-cols", "x",
                                    "--y-col", "y", "--x0", "0.5", "--h", "0.2",
                                    "--method", "wq"])
    assert code == 3
    assert "error" in err


def test_empty_window_exit_code(sample_csv, capsys):
    path, _, _ = sample_csv
    code, _, err = run_cli(capsys, ["ci", "--data", path, "--x-cols", "x", "--y-col", "y",
                                    "--x0", "5.0", "--h", "0.01", "--method", "wq"])
    assert code == 4


def test_underflowing_weights_exit_code(tmp_path, capsys):
    # every weight squares to 0: a data error, not a traceback
    d = 13
    path = tmp_path / "tiny.csv"
    write_csv(path, [f"x{j}" for j in range(d)] + ["y"], [[-(1.0 - 2.0**-53)] * d + [1.0]])
    code, out, err = run_cli(capsys, [
        "ci", "--data", str(path), "--x-cols", ",".join(f"x{j}" for j in range(d)),
        "--y-col", "y", "--x0", ",".join(["0"] * d), "--h", ",".join(["1"] * d),
        "--method", "wq",
    ])
    assert code == 3
    assert out == ""
    assert "underflow" in err


def test_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("signal = step\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg)])
    assert exc.value.code == 2


# --- ci output --------------------------------------------------------------

def test_ci_matches_library_bit_for_bit(sample_csv, capsys):
    path, x, y = sample_csv
    code, out, _ = run_cli(capsys, [
        "ci", "--data", path, "--x-cols", "x", "--y-col", "y",
        "--x0", "0.5", "--h", "0.2", "--p", "0.4", "--alpha", "0.1",
        "--alpha1", "0.05", "--method", "both", "--seed", "31337",
    ])
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["method"] for r in records] == ["WQ", "QR"]

    data = Dataset(x[:, None], y)
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.2])
    q = QuantileSpec(0.4, 0.1, 0.05)
    wq = wq_interval(data, spec, q)
    qr = qr_interval(data, spec, q, RngStream(31337))
    assert parse_endpoint(records[0]["lower"]) == wq.lower
    assert parse_endpoint(records[0]["upper"]) == wq.upper
    assert records[0]["n_eff"] == wq.n_eff
    assert parse_endpoint(records[1]["lower"]) == qr.lower
    assert parse_endpoint(records[1]["upper"]) == qr.upper
    assert records[1]["accepted"] == qr.accepted
    assert records[0]["p"] == 0.4 and records[0]["alpha"] == 0.1


def test_ci_json_round_trip_infinite(tmp_path, capsys):
    # four rows inside a sure-acceptance window: QR returns the real line
    path = tmp_path / "four.csv"
    write_csv(path, ["x", "y"], [[0.5, 1.0], [0.51, 2.0], [0.49, 3.0], [0.5, 4.0]])
    code, out, _ = run_cli(capsys, [
        "ci", "--data", str(path), "--x-cols", "x", "--y-col", "y",
        "--x0", "0.5", "--h", "0.5", "--kernel", "uniform",
        "--method", "qr", "--seed", "1",
    ])
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["lower"] == "-inf" and rec["upper"] == "inf"
    assert parse_endpoint(rec["lower"]) == -math.inf
    assert parse_endpoint(rec["upper"]) == math.inf


def test_ci_dfq(sample_csv, capsys):
    path, x, y = sample_csv
    code, out, _ = run_cli(capsys, [
        "ci", "--data", path, "--y-col", "y", "--method", "dfq", "--p", "0.5",
        "--alpha", "0.1", "--alpha1", "0.05",
    ])
    assert code == 0
    rec = json.loads(out.strip())
    direct = df_quantile_ci(y, 0.5, 0.05, 0.05)
    assert parse_endpoint(rec["lower"]) == direct.lower
    assert parse_endpoint(rec["upper"]) == direct.upper
    assert rec["method"] == "DFQ"


def test_ci_multivariate_grid(tmp_path, capsys):
    rng = np.random.default_rng(3)
    n, d = 200, 4
    x = rng.uniform(0, 1, size=(n, d))
    y = x.sum(axis=1) + rng.normal(scale=0.2, size=n)
    path = tmp_path / "multi.csv"
    write_csv(path, ["a", "b", "c", "d", "y"], np.column_stack([x, y]).tolist())
    code, out, _ = run_cli(capsys, [
        "ci", "--data", str(path), "--x-cols", "a,b,c,d", "--y-col", "y",
        "--x0", "0.5,0.5,0.5,0.5", "--x0", "0.4,0.6,0.5,0.5",
        "--h", "0.4,0.4,0.5,0.5", "--method", "both", "--seed", "5",
    ])
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    # one record per (x0 tuple, method)
    assert len(records) == 4
    assert records[0]["x0"] == [0.5, 0.5, 0.5, 0.5]
    # weights agree with the scalar product evaluator
    data = Dataset(x, y)
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5] * 4, [0.4, 0.4, 0.5, 0.5])
    ws = localization_weights(data, spec)
    i = int(np.argmax(ws.weights))
    manual = 1.0
    for j in range(d):
        manual *= max(0.0, 1.0 - abs((spec.center[j] - x[i, j]) / spec.bandwidths[j]))
    assert ws.weights[i] == pytest.approx(manual, rel=1e-12)


def test_ci_normalize_keeps_response_units(tmp_path, capsys):
    # covariates are standardized but endpoints stay raw response values
    rng = np.random.default_rng(8)
    x = rng.uniform(40, 60, size=150)
    y = rng.normal(loc=30, scale=10, size=150)
    path = tmp_path / "raw.csv"
    write_csv(path, ["comp", "y"], np.column_stack([x, y]).tolist())
    code, out, _ = run_cli(capsys, [
        "ci", "--data", str(path), "--x-cols", "comp", "--y-col", "y",
        "--normalize", "--x0", "0.0", "--h", "1.0", "--method", "wq",
    ])
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["lower"] in y and rec["upper"] in y


def test_parser_accepts_reference_preset():
    from localquant.cli import _build_parser

    args = _build_parser().parse_args(["simulate", "--preset", "paper-spikes-s1"])
    assert args.preset == "paper-spikes-s1"


def test_ci_mismatched_x0_length(sample_csv, capsys):
    path, _, _ = sample_csv
    code, _, err = run_cli(capsys, [
        "ci", "--data", path, "--x-cols", "x", "--y-col", "y",
        "--x0", "0.5,0.5", "--h", "0.2", "--method", "wq",
    ])
    assert code == 3


# --- simulate / target / indist ----------------------------------------------

def test_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "signal = step\nsetting = 1\nkernel = triangular\np = 0.5\n"
        "alpha = 0.1\nalpha1 = 0.05\nn = 50\nn_sim = 8\nseed = 11\n"
        "x0 = 0.5\nh = 0.2\nmethods = wq\n"
    )
    out_path = tmp_path / "res.csv"
    code, _, _ = run_cli(capsys, ["simulate", "--config", str(cfg), "--out", str(out_path)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
    assert len(rows) == 1
    assert rows[0]["signal"] == "step" and rows[0]["method"] == "WQ"
    assert 0.0 <= float(rows[0]["coverage"]) <= 1.0


def test_target_flat_preset(capsys):
    code, out, _ = run_cli(capsys, ["target", "--preset", "flat-sanity"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    for row in rows:
        assert float(row["theta"]) == pytest.approx(0.8, abs=1e-6)


def test_indist_default(capsys):
    code, out, _ = run_cli(capsys, ["indist"])
    assert code == 0
    rec = json.loads(out)
    assert rec["theta_prime"] == pytest.approx(2.7, abs=0.01)
    assert rec["tv_distance"] == pytest.approx(0.010, abs=0.001)
    assert rec["theta_p"] == pytest.approx(1.35, abs=0.01)
    assert rec["mixture_weight"] == pytest.approx(0.51, rel=1e-12)
