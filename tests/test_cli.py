import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import localquant
from localquant import (
    BracketFailure,
    ConstantColumn,
    Dataset,
    DomainError,
    Kernel,
    LocalizationSpec,
    LowEffectiveSampleSizeWarning,
    MissingColumn,
    ParseError,
    QuantileSpec,
    RngStream,
    df_quantile_ci,
    localization_weights,
    localize,
    qr_interval,
    wq_interval,
)
from localquant import cli
from localquant.cli import load_csv, main


def parse_endpoint(value) -> float:
    """Inverse of the JSON endpoint encoding ("-inf"/"inf" strings)."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


SIM_CONFIG = (
    "signal = step\nsetting = 1\nkernel = triangular\np = 0.5\n"
    "alpha = 0.1\nalpha1 = 0.05\nn = 50\nn_sim = 8\nseed = 11\n"
    "x0 = 0.5\nh = 0.2\nmethods = wq\n"
)


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


@pytest.mark.parametrize(
    "bad_row, column",
    [(["oops", 2.0], "x"), ([0.2, "oops"], "y"), (["oops", "nope"], "x")],
    ids=["covariate", "response", "covariate-first"],
)
def test_parse_error_location(tmp_path, bad_row, column):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], [[0.1, 1.0], bad_row])
    with pytest.raises(ParseError) as err:
        load_csv(str(path), ["x"], "y")
    assert err.value.row == 3
    assert err.value.column == column


def test_constant_column(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], [[1.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ConstantColumn):
        load_csv(str(path), ["x"], "y", normalize=True)


def test_normalize_overflow_names_the_column(tmp_path, capsys):
    # the mean and sd of this column overflow: an error naming it, no warning
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], [[1e308, 1.0], [-1e308, 2.0], [1e308, 3.0]])
    with pytest.raises(DomainError, match="column 'x' cannot be normalized"):
        load_csv(str(path), ["x"], "y", normalize=True)
    code, out, err = run_cli(capsys, ["ci", "--data", str(path), "--x-cols", "x", "--y-col", "y",
                                      "--normalize", "--x0", "0", "--h", "1", "--method", "wq"])
    assert (code, out) == (3, "")
    assert err.startswith("error: column 'x' cannot be normalized")
    assert "Warning" not in err


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


def test_load_csv_reads_a_pipe(tmp_path):
    # a pipe cannot be mapped or rewound: the row parser reads it as a stream
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("x,y\n0.1,1\n0.2,2\n",))
    writer.start()
    data = load_csv(str(fifo), ["x"], "y")
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(data.covariates[:, 0], [0.1, 0.2])
    assert np.array_equal(data.responses, [1.0, 2.0])


# cells the C parser and float() may read differently, or not at all
ODD_CELLS = [
    '"{}"', '"{}"5', '""{}', " {} ", "\u00a0{}", "{}\t", "1_0", "nan", "inf", "-Infinity",
    "abc", "", "  ", "\x1c{}", "{}\x1d", "\x1e{}", "{}\x1f", '"{}\n"', "{}\x00",
]
# rows the row parser skips or rejects
ODD_ROWS = ["", "{blank}", "  ", "\t", "{short}", "{long}"]


@st.composite
def csv_files(draw):
    """(file text, x columns, y column, whether it is plain numeric with data rows)."""
    d = draw(st.integers(0, 3))
    extra = draw(st.integers(0, 2))
    names = [f"x{j}" for j in range(d)] + ["y"] + [f"u{j}" for j in range(extra)]
    names = draw(st.permutations(names))
    width = len(names)
    number = st.one_of(
        st.integers(-999, 999).map(str),
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    )
    rows = draw(st.lists(st.lists(number, min_size=width, max_size=width), max_size=6))
    odd = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, width), st.sampled_from(
        [("cell", c) for c in ODD_CELLS] + [("row", r) for r in ODD_ROWS]
        + [("wider", None), ("text column", None)]
    )), max_size=2))
    for i, j, (kind, form) in odd:
        if kind == "cell" and rows:
            row = rows[i % len(rows)]
            row[j % len(row)] = form.format(row[j % len(row)])
        elif kind == "row":
            line = form.format(blank="," * (width - 1), short=",".join(["1"] * (width - 1)),
                               long=",".join(["1"] * (width + 1)))
            rows.insert(i % (len(rows) + 1), [line])
        elif kind == "wider":
            rows = [row + ["1"] for row in rows]
        else:
            names = names + ["name"]
            rows = [row + ["abc"] for row in rows]
    ends = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(names)] + [",".join(row) for row in rows]
    text = ends.join(lines) + draw(st.sampled_from(["", ends]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    x_cols = sorted(n for n in names if n.startswith("x"))
    return text, x_cols, "y", bool(rows) and not odd


def _load_or_error(path, x_cols, y_col, normalize):
    try:
        data = load_csv(path, x_cols, y_col, normalize=normalize)
    except Exception as exc:
        return type(exc), str(exc)
    norm = None if data.normalization is None else [a.tobytes() for a in data.normalization]
    return data.covariates.shape, data.covariates.tobytes(), data.responses.tobytes(), norm


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=csv_files(), normalize=st.booleans())
def test_c_parser_matches_row_parser(tmp_path, monkeypatch, case, normalize):
    text, x_cols, y_col, plain = case
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    c_parsed = cli._c_parsed
    took_c_path = []

    def spy(fh, width):
        table = c_parsed(fh, width)
        took_c_path.append(table is not None)
        return table

    with monkeypatch.context() as m:
        m.setattr(cli, "_c_parsed", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = _load_or_error(str(path), x_cols, y_col, normalize)
    with monkeypatch.context() as m:
        m.setattr(cli, "_c_parsed", lambda fh, width: None)
        rows = _load_or_error(str(path), x_cols, y_col, normalize)
    assert fast == rows
    if plain:
        assert took_c_path == [True]


# --- exit codes -------------------------------------------------------------

def test_qr_without_seed_is_usage_error(sample_csv, capsys):
    path, _, _ = sample_csv
    with pytest.raises(SystemExit) as exc:
        main(["ci", "--data", path, "--x-cols", "x", "--y-col", "y",
              "--x0", "0.5", "--h", "0.2", "--method", "qr"])
    assert exc.value.code == 2


WQ_QUERY = ["--x-cols", "x", "--y-col", "y", "--x0", "0.5", "--h", "0.2", "--method", "wq"]


@pytest.mark.parametrize("data, argv, code, message", [
    ("sample", WQ_QUERY + ["--p", "1.5"], 2, "p must lie in (0, 1)"),
    ("sample", WQ_QUERY + ["--alpha", "0.1", "--alpha1", "0.2"], 2, "alpha1 must lie in [0, alpha]"),
    ("sample", WQ_QUERY[2:], 2, "--x-cols is required"),
    ("sample", WQ_QUERY[:4] + WQ_QUERY[8:], 2, "--x0 and --h are required"),
    ("empty", WQ_QUERY, 3, "empty file"),
])
def test_ci_input_errors_exit_codes(sample_csv, tmp_path, capsys, data, argv, code, message):
    path = sample_csv[0]
    if data == "empty":
        path = tmp_path / "empty.csv"
        path.write_text("")
    try:
        got = main(["ci", "--data", str(path), *argv])
    except SystemExit as exc:  # argparse's usage error
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, "")
    assert message in captured.err


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
    # every weight squares to 0 at the first center: a data error, not a
    # traceback. Its error record comes first, the next query still runs,
    # and the run exits 3 after it
    d = 13
    path = tmp_path / "tiny.csv"
    write_csv(path, [f"x{j}" for j in range(d)] + ["y"], [[-(1.0 - 2.0**-53)] * d + [1.0]])
    with pytest.warns(LowEffectiveSampleSizeWarning):
        code, out, err = run_cli(capsys, [
            "ci", "--data", str(path), "--x-cols", ",".join(f"x{j}" for j in range(d)),
            "--y-col", "y", "--x0", ",".join(["0"] * d), "--x0=" + ",".join(["-0.5"] * d),
            "--h", ",".join(["1"] * d), "--method", "wq",
        ])
    failed, answered = [json.loads(line) for line in out.splitlines()]
    assert code == 3
    assert err == "error: the squared localization weights underflow to zero\n"
    assert (failed["lower"], failed["upper"], failed["error"]) == (None, None, {
        "type": "DomainError", "message": "the squared localization weights underflow to zero"})
    assert (answered["x0"], answered["lower"], answered["upper"]) == ([-0.5] * d, 1.0, 1.0)


@pytest.mark.parametrize(
    "x0, h", [("abc", "0.2"), ("0.5", "0.2;0.3"), ("0.5", "-1"), ("nan", "0.2")]
)
def test_bad_x0_h_is_usage_error_before_load(tmp_path, capsys, x0, h):
    # the file does not exist, so reading it first would exit 3
    with pytest.raises(SystemExit) as exc:
        main(["ci", "--data", str(tmp_path / "missing.csv"), "--x-cols", "x", "--y-col", "y",
              "--x0", x0, "--h", h, "--method", "wq"])
    assert exc.value.code == 2
    assert "--x0/--h" in capsys.readouterr().err


def test_x0_arity_is_checked_before_load(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["ci", "--data", str(tmp_path / "missing.csv"),
                                    "--x-cols", "x", "--y-col", "y", "--x0", "0.5,0.5",
                                    "--h", "0.2", "--method", "wq"])
    assert code == 3
    assert "match columns" in err


@pytest.mark.parametrize("grid", ["0.1:0.9:abc", "0.1:0.9", "0.1,x"])
def test_bad_x0_grid_is_usage_error(capsys, grid):
    with pytest.raises(SystemExit) as exc:
        main(["target", "--x0-grid", grid])
    assert exc.value.code == 2


# the error message of each bad `target` argument, by its value
TARGET_ERRORS = {
    "0": "bandwidths must be strictly positive",
    "1.5": "p must lie in (0, 1)",
    "0.1:0.9:0": "the grid is empty",
    "nan": "center must be finite",
    "1e-300": "the kernel window at x0 = 0.1 collapses to a point",
    "inf": "bandwidths must be finite",
}


@pytest.mark.parametrize("argv", [
    ["--h", "0"], ["--p", "1.5"], ["--x0-grid", "0.1:0.9:0"], ["--x0-grid", "nan"],
    ["--h", "1e-300"], ["--h", "inf"],
])
def test_bad_target_argument_writes_nothing(tmp_path, capsys, argv):
    out_path = tmp_path / "t.csv"
    for out in ([], ["--out", str(out_path)]):
        with pytest.raises(SystemExit) as exc:
            main(["target", *argv, *out])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert TARGET_ERRORS[argv[-1]] in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("command", [["simulate", "--preset", "quick-spikes-s1"], ["target"]])
def test_bad_out_is_usage_error_before_work(tmp_path, capsys, monkeypatch, command):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "run_experiment", must_not_run)
    monkeypatch.setattr(cli, "true_theta", must_not_run)
    a_file = tmp_path / "file"
    a_file.write_text("")
    for out in (tmp_path / "missing" / "x.csv", a_file / "x.csv", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_target_oracle_failure_writes_nothing(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise BracketFailure("no sign change")

    monkeypatch.setattr(cli, "true_theta", fail)
    out_path = tmp_path / "t.csv"
    for out in ([], ["--out", str(out_path)]):
        code, stdout, err = run_cli(capsys, ["target", *out])
        assert (code, stdout) == (3, "")
        assert "no sign change" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["--h", "-1"], ["--p", "0"], ["--h0", "0.5"], ["--x0", "0.01"],
    ["--theta-star", "inf"], ["--theta-star", "nan"],
])
def test_bad_indist_argument_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["indist", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--preset", "quick-spikes-s1", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("signal = step\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["h = -0.1", "h = nan", "x0 = nan", "methods ="])
def test_bad_config_value_is_usage_error(tmp_path, capsys, bad):
    # the config builds its localization specs when it is parsed, before any work
    key = bad.split("=")[0]
    cfg = tmp_path / "c.txt"
    cfg.write_text("".join(line for line in SIM_CONFIG.splitlines(keepends=True)
                           if not line.startswith(key)) + bad + "\n")
    out_path = tmp_path / "res.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--out", str(out_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out_path.exists()


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


def test_ci_localizes_each_query_once(sample_csv, capsys, monkeypatch):
    path, x, y = sample_csv
    calls = []

    def counted(data, specs):
        calls.append(len(specs))
        return localize(data, specs)

    # every module that binds the name, so no call goes uncounted
    for module in (cli, localquant.wq, localquant.qr):
        monkeypatch.setattr(module, "localize", counted, raising=False)
    data = Dataset(x[:, None], y)
    q = QuantileSpec(0.5, 0.1, 0.05)
    bandwidths = [0.02, 0.1, 0.3]  # the first cell has n_eff < 10
    for method in ("both", "wq", "qr"):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowEffectiveSampleSizeWarning)
            code, out, _ = run_cli(capsys, [
                "ci", "--data", path, "--x-cols", "x", "--y-col", "y", "--x0", "0.5",
                *(arg for h in bandwidths for arg in ("--h", str(h))),
                "--method", method, "--seed", "7",
            ])
            assert code == 0
            assert calls == [1, 1, 1]
            records = [json.loads(line) for line in out.strip().splitlines()]
            names = ["wq", "qr"] if method == "both" else [method]
            expected = [
                (h, wq_interval(data, spec, q) if name == "wq"
                 else qr_interval(data, spec, q, RngStream(7)))
                for h in bandwidths
                for spec in [LocalizationSpec(Kernel.TRIANGULAR, [0.5], [h])]
                for name in names
            ]
        assert len(records) == len(expected)
        for rec, (h, res) in zip(records, expected):
            assert (rec["h"], rec["method"]) == ([h], res.method)
            assert parse_endpoint(rec["lower"]) == res.lower
            assert parse_endpoint(rec["upper"]) == res.upper
            assert rec["n_eff"] == res.n_eff
            assert rec["accepted"] == res.accepted
        assert expected[0][1].n_eff < 10


@pytest.mark.parametrize("method, warned", [("both", 1), ("wq", 1), ("qr", 0)])
def test_ci_warns_on_low_effective_sample_size(tmp_path, capsys, method, warned):
    path = tmp_path / "four.csv"
    write_csv(path, ["x", "y"], [[0.5, 1.0], [0.51, 2.0], [0.9, 3.0], [0.95, 4.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, [
            "ci", "--data", str(path), "--x-cols", "x", "--y-col", "y",
            "--x0", "0.5", "--h", "0.1", "--method", method, "--seed", "1",
        ])
    assert code == 0 and out
    low = [w for w in caught if issubclass(w.category, LowEffectiveSampleSizeWarning)]
    assert len(low) == warned
    assert all("effective sample size 1.99 < 10" in str(w.message) for w in low)


def test_ci_low_neff_warnings_name_their_queries(tmp_path, capsys):
    # two rows near 0.5 and two near 0.9: every query warns, each with its own (x0, h)
    path = tmp_path / "four.csv"
    write_csv(path, ["x", "y"], [[0.5, 1.0], [0.51, 2.0], [0.9, 3.0], [0.95, 4.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, [
            "ci", "--data", str(path), "--x-cols", "x", "--y-col", "y",
            "--x0", "0.5", "--x0", "0.9", "--h", "0.1", "--h", "0.2", "--method", "wq",
        ])
    assert code == 0 and len(out.splitlines()) == 4
    low = [str(w.message) for w in caught
           if issubclass(w.category, LowEffectiveSampleSizeWarning)]
    queries = [(x0, h) for x0 in ("0.5", "0.9") for h in ("0.1", "0.2")]
    assert len(low) == len(queries)
    for message, (x0, h) in zip(low, queries):
        assert f"< 10 at x0 = [{x0}], h = [{h}];" in message


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
    cfg.write_text(SIM_CONFIG)
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


def _python_env():
    src = os.path.dirname(os.path.dirname(localquant.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _run_python(*args, text=True):
    return subprocess.run(
        [sys.executable, *args], env=_python_env(), capture_output=True, text=text, timeout=120
    )


def test_module_run_is_warning_free():
    # importing the package must not import localquant.cli, or runpy warns
    # that the module it is about to run is already loaded
    proc = _run_python(
        "-W", "error::RuntimeWarning", "-m", "localquant.cli", "target", "--preset", "flat-sanity"
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_optimized_simulate_matches_golden_file():
    # asserts are stripped under -O; the study must print the same bytes, and
    # a numpy warning on the way fails it
    proc = _run_python("-O", "-W", "error", "-m", "localquant.cli", "simulate", "--preset",
                       "quick-spikes-s1", text=False)
    golden = os.path.join(os.path.dirname(__file__), "data", "quick-spikes-s1.csv")
    with open(golden, "rb") as fh:
        expected = fh.read()
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


def test_ci_answers_every_query_around_a_failed_one(tmp_path):
    # the window at x0 = 5.0 holds no row: its WQ query gets an error record
    # between the records a run without it writes, and the run exits 4
    rng = np.random.default_rng(7)
    path = tmp_path / "data.csv"
    write_csv(path, ["x", "y"], rng.uniform(0, 1, size=(300, 2)).tolist())
    argv = ["-m", "localquant.cli", "ci", "--data", str(path), "--x-cols", "x", "--y-col", "y",
            "--h", "0.1", "--method", "wq"]
    valid = _run_python(*argv, "--x0", "0.5", "--x0", "0.6")
    around = _run_python(*argv, "--x0", "0.5", "--x0", "5.0", "--x0", "0.6")
    assert (valid.returncode, valid.stderr) == (0, "")
    assert (around.returncode, around.stderr) == (4, "error: all localization weights are zero\n")
    first, second = valid.stdout.splitlines()
    records = around.stdout.splitlines()
    assert (records[0], records[2], len(records)) == (first, second, 3)
    assert json.loads(records[1]) == {
        "x0": [5.0], "h": [0.1], "lower": None, "upper": None, "n_eff": None, "accepted": None,
        "method": "WQ", "p": 0.5, "alpha": 0.1,
        "error": {"type": "AllWeightsZero", "message": "all localization weights are zero"},
    }


def test_ci_low_neff_warning_shows_no_cli_source(tmp_path, capsys):
    # the warning was attributed to the `status = command(args, parser)` line of
    # cli.main, so stderr showed a path into cli.py and echoed that line
    path = tmp_path / "three.csv"
    write_csv(path, ["x", "y"], [[0.5, 1.0], [0.51, 2.0], [0.9, 3.0]])
    argv = ["ci", "--data", str(path), "--x-cols", "x", "--y-col", "y", "--x0", "0.5",
            "--h", "0.1", "--method", "wq"]
    proc = _run_python("-m", "localquant.cli", *argv)
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 1
    assert proc.stderr == (
        "warning: LowEffectiveSampleSizeWarning: effective sample size 1.99 < 10 at "
        "x0 = [0.5], h = [0.1]; coverage of the WQ interval is not reliable\n"
    )
    # in process, main formats warnings its own way only while it runs
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    library_format = warnings.formatwarning
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        code, _, err = run_cli(capsys, argv)
    assert (code, err) == (0, proc.stderr)
    assert warnings.formatwarning is library_format


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_simulate_keeps_its_heap_between_chunks():
    # with glibc's dynamic thresholds each of the preset's 63 chunks faulted
    # its arrays in afresh: about 36,000 minor faults in all
    code = (
        "import contextlib, io, resource\n"
        "from localquant.cli import main\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['simulate', '--preset', 'paper-spikes-s1']) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = _run_python("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) < 5000


def test_keep_heap_leaves_other_allocators_alone(monkeypatch):
    def forbidden(*args):
        raise AssertionError("no libc call off glibc")

    monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("", ""))
    monkeypatch.setattr(cli.ctypes, "CDLL", forbidden)
    assert cli._keep_heap() is False


def test_cli_import_leaves_out_scipy_optimize(tmp_path):
    # every CLI call pays for its imports: the oracle's bisection is in-repo
    # and its Gauss-Legendre rule is literals, so of scipy only scipy.special
    # loads, on import and through every command
    data = tmp_path / "data.csv"
    write_csv(data, ["x", "y"], np.random.default_rng(7).uniform(0, 1, size=(50, 2)).tolist())
    code = (
        "import contextlib, io, sys\n"
        "from localquant.cli import main\n"
        "heavy = ['scipy.linalg', 'scipy.optimize', 'scipy.integrate', 'scipy.stats']\n"
        "print([m for m in heavy if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['simulate', '--preset', 'quick-spikes-s1']), main(['target']),\n"
        "             main(['indist']), main(['ci', '--data', sys.argv[1], '--x-cols', 'x',\n"
        "                                     '--y-col', 'y', '--x0', '0.5', '--h', '0.2',\n"
        "                                     '--seed', '1'])]\n"
        "print(codes, [m for m in heavy if m in sys.modules])\n"
    )
    proc = _run_python("-c", code, str(data))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n[0, 0, 0, 0] []\n"


def test_closed_stdout_pipe_exits_141_quietly(tmp_path):
    # as `localquant ci ... | head -1`: the reader takes one line and goes
    # while about 500 kB of records are still to come
    rng = np.random.default_rng(7)
    path = tmp_path / "data.csv"
    write_csv(path, ["x", "y"], rng.uniform(0, 1, size=(300, 2)).tolist())
    centers = [f"--x0={c}" for c in np.linspace(0.1, 0.9, 1000).tolist()]
    proc = subprocess.Popen(
        [sys.executable, "-m", "localquant.cli", "ci", "--data", str(path), "--x-cols", "x",
         "--y-col", "y", "--h", "0.2", "--seed", "1", *centers],
        env=_python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline())["x0"] == [0.1]
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), stderr) == (141, b"")


def test_closed_stdout_pipe_in_process(monkeypatch, sample_csv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["ci", "--data", sample_csv[0], "--y-col", "y", "--method", "dfq"]) == 141
        print("more", file=out)  # the pipe's descriptor now leads to devnull
