"""Command-line front end.

Subcommands:
  ci        confidence intervals for CSV data (methods wq / qr / dfq / both)
  simulate  Monte Carlo coverage/width study from a config file or preset
  target    oracle quantile table for a synthetic model, as CSV
  indist    indistinguishable-pair analysis for a synthetic model, as JSON

All numeric results equal the corresponding library calls bit for bit; the
CLI only parses arguments, loads data, and serializes. Exit codes: 2 usage
errors, 3 data errors, 4 when every localization weight is zero, 141 (128 +
SIGPIPE) when the reader of stdout goes away, with no message. `ci` writes
a record for every query, an error record for one that fails, and exits 3
or 4 for the first failed query after the last record.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import math
import mmap
import os
import platform
import sys
import warnings

import numpy as np

from .base import Dataset, IntervalResult, QuantileSpec
from .errors import (
    AllWeightsZero,
    ConstantColumn,
    DimensionMismatch,
    DomainError,
    LocalQuantError,
    MissingColumn,
    ParseError,
)
from .experiments import PRESETS, parse_config, run_experiment, write_summaries
from .kernels import Kernel, LocalizationSpec, localize
from .orderstat import df_quantile_ci
from .qr import qr_cells
from .rng import RngStream
from .synthetic import (
    NoiseSetting,
    Signal,
    SyntheticModel,
    indistinguishable_pair,
    mixture_weight,
    true_theta,
)
from .wq import _warn_low_neff, wq_cells

_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_NO_WEIGHT = 4
_EXIT_BROKEN_PIPE = 141

# mallopt parameters of glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def load_csv(path: str, x_columns: list[str], y_column: str, normalize: bool = False) -> Dataset:
    """Load named numeric columns from an RFC-4180 CSV file with a header row.

    A plain numeric file is parsed by numpy's C parser; any file that parser
    refuses or may read differently is parsed row by row with `float()`,
    which gives the same arrays and reports the row and column of a bad cell.

    With normalize=True each covariate column is standardized to mean 0 and
    sd 1 (population sd); the per-column (mean, sd) pairs are stored on the
    returned dataset so centers and bandwidths can be given in normalized
    units. Responses are never transformed.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        header = [name.strip() for name in header]
        for name in [*x_columns, y_column]:
            if name not in header:
                raise MissingColumn(f"column {name!r} not found; header has {header}")
        wanted = [header.index(name) for name in [*x_columns, y_column]]

        table = _c_parsed(fh, len(header))
        if table is not None:
            table = table[:, wanted]
        else:
            if fh.seekable():
                # the C parser may have read on: start again after the header
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
            table = []
            for rownum, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"expected {len(header)} fields, found {len(row)}", row=rownum
                    )
                try:
                    table.append([float(row[c]) for c in wanted])
                except ValueError:
                    bad = next(c for c in wanted if not _is_float(row[c]))
                    raise ParseError(
                        f"could not parse {row[bad]!r} as a number", row=rownum,
                        column=header[bad],
                    ) from None

    if len(table) == 0:
        raise ParseError("file contains no data rows")
    table = np.asarray(table, dtype=float)
    if not np.all(np.isfinite(table)):
        raise ParseError("file contains non-finite values")
    covariates, responses = table[:, :-1], table[:, -1]

    normalization = None
    if normalize:
        # a sum or square beyond the float range gives inf or nan, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            means = covariates.mean(axis=0)
            sds = covariates.std(axis=0)
        for j, (mean, sd) in enumerate(zip(means.tolist(), sds.tolist())):
            if not (math.isfinite(mean) and math.isfinite(sd)):
                raise DomainError(
                    f"column {x_columns[j]!r} cannot be normalized: its mean or sd overflows "
                    f"(mean = {mean!r}, sd = {sd!r})"
                )
            if sd == 0.0:
                raise ConstantColumn(f"column {x_columns[j]!r} is constant (sd = 0)")
        covariates = (covariates - means) / sds
        normalization = (means, sds)

    return Dataset(
        covariates=covariates,
        responses=responses,
        x_names=tuple(x_columns),
        y_name=y_column,
        normalization=normalization,
    )


def _c_parsed(fh, width: int) -> np.ndarray | None:
    """Every row left in `fh`, all columns, by numpy's C parser; or None.

    None leaves the file to the row parser: it is not a regular file, it
    holds a byte 0x1c-0x1f (which np.loadtxt strips around a number and
    float() rejects), or the C parser fails, warns (as on no data), finds no
    rows or finds a width other than the header's. Blank rows, ragged rows,
    text cells and forms only float() reads, such as `1_0`, all end here.
    """
    try:
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
            if any(view.find(sep) >= 0 for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
                return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                fh, delimiter=",", quotechar='"', ndmin=2, comments=None, dtype=float
            )
    except (OSError, ValueError, Warning):
        return None
    return table if table.shape[0] > 0 and table.shape[1] == width else None


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _endpoint_to_json(value: float):
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def _record(x0, h, method: str, q: QuantileSpec, outcome) -> dict:
    """The JSON record of one query by `method`: its interval, when `outcome`
    is an IntervalResult, or else null endpoints and the error `outcome`."""
    record = {"x0": x0, "h": h, "lower": None, "upper": None, "n_eff": None,
              "accepted": None, "method": method.upper(), "p": q.p, "alpha": q.alpha}
    if isinstance(outcome, IntervalResult):
        record.update(lower=_endpoint_to_json(outcome.lower),
                      upper=_endpoint_to_json(outcome.upper),
                      n_eff=outcome.n_eff, accepted=outcome.accepted)
    else:
        record["error"] = {"type": type(outcome).__name__, "message": str(outcome)}
    return record


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localquant",
        description="Distribution-free confidence intervals for locally weighted quantiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("ci", help="confidence intervals for CSV data")
    ci.add_argument("--data", required=True, help="CSV file with a header row")
    ci.add_argument("--x-cols", default=None, help="comma-separated covariate column names")
    ci.add_argument("--y-col", required=True, help="response column name")
    ci.add_argument(
        "--x0",
        action="append",
        default=None,
        metavar="V1,V2,...",
        help="center point, one value per covariate; repeat for several points",
    )
    ci.add_argument(
        "--h",
        action="append",
        default=None,
        metavar="H1,H2,...",
        help="bandwidths, one per covariate; repeat for several settings",
    )
    ci.add_argument(
        "--kernel", default="triangular", choices=[k.value for k in Kernel],
        help="kernel family (default triangular)",
    )
    ci.add_argument("--p", type=float, default=0.5, help="quantile level (default 0.5)")
    ci.add_argument("--alpha", type=float, default=0.1, help="total miscoverage (default 0.1)")
    ci.add_argument(
        "--alpha1", type=float, default=None, help="lower-tail miscoverage (default alpha/2)"
    )
    ci.add_argument(
        "--method", choices=["wq", "qr", "dfq", "both"], default="both",
        help="interval method; 'both' runs wq and qr",
    )
    ci.add_argument("--seed", type=int, default=None, help="rejection seed (required for qr)")
    ci.add_argument(
        "--normalize", action="store_true",
        help="standardize covariates; --x0/--h are then in normalized units",
    )

    sim = sub.add_parser("simulate", help="Monte Carlo coverage/width study")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="flat key-value config file (see README)")
    src.add_argument("--preset", choices=sorted(PRESETS), help="named built-in study")
    sim.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")
    sim.add_argument("--out", default=None, help="output CSV path (default stdout)")

    signal_names = [s.value for s in Signal]
    tgt = sub.add_parser("target", help="oracle quantile table as CSV")
    tgt.add_argument("--preset", choices=["flat-sanity"], default=None)
    tgt.add_argument("--signal", default="spikes", choices=signal_names)
    tgt.add_argument("--setting", type=int, default=1, choices=[1, 2, 3])
    tgt.add_argument("--kernel", default="triangular", choices=[k.value for k in Kernel])
    tgt.add_argument("--h", type=float, default=0.04)
    tgt.add_argument("--p", type=float, default=0.5)
    tgt.add_argument(
        "--x0-grid", default="0.1:0.9:17",
        help="comma list of centers, or start:stop:count",
    )
    tgt.add_argument("--out", default=None, help="output CSV path (default stdout)")

    ind = sub.add_parser("indist", help="indistinguishable-pair analysis as JSON")
    ind.add_argument("--signal", default="spikes", choices=signal_names)
    ind.add_argument("--setting", type=int, default=1, choices=[1, 2, 3])
    ind.add_argument("--x0", type=float, default=0.47)
    ind.add_argument("--h", type=float, default=0.04)
    ind.add_argument("--h0", type=float, default=0.012)
    ind.add_argument("--theta-star", type=float, default=2.7)
    ind.add_argument("--p", type=float, default=0.5)

    return parser


def _cmd_ci(args, parser: argparse.ArgumentParser) -> int:
    methods = ["wq", "qr"] if args.method == "both" else [args.method]
    if "qr" in methods and args.seed is None:
        parser.error("--method qr requires --seed for reproducibility")
    alpha1 = args.alpha / 2.0 if args.alpha1 is None else args.alpha1
    try:
        q = QuantileSpec(args.p, args.alpha, alpha1)
    except ValueError as exc:
        parser.error(str(exc))

    needs_kernel = any(m in ("wq", "qr") for m in methods)
    if needs_kernel:
        if not args.x_cols:
            parser.error("--x-cols is required for methods wq/qr")
        if not args.x0 or not args.h:
            parser.error("--x0 and --h are required for methods wq/qr")
    x_cols = [c.strip() for c in args.x_cols.split(",")] if args.x_cols else []

    # (x0, h, spec) per query, checked before the data file is read; the
    # dataset will have one covariate per name in x_cols
    cells = []
    if needs_kernel:
        kernel = Kernel.from_name(args.kernel)
        try:
            centers = [_float_list(tok) for tok in args.x0]
            bandwidths = [_float_list(tok) for tok in args.h]
            if any(len(v) != len(x_cols) for v in centers + bandwidths):
                raise DimensionMismatch(
                    f"--x0/--h need {len(x_cols)} value(s) to match columns {x_cols}"
                )
            cells = [(c, h, LocalizationSpec(kernel, c, h)) for c in centers for h in bandwidths]
        except ValueError as exc:
            parser.error(f"--x0/--h: {exc}")

    data = load_csv(args.data, x_cols, args.y_col, normalize=args.normalize)

    # one localization per query, read by both methods: the results of
    # wq_interval and qr_interval on the same spec, WQ first. Each record is
    # written once computed; a query that fails gets an error record, and the
    # first failure is raised after the last record
    failures = []
    for center, bw, spec in cells:
        loc = localize(data, [spec])
        for method in methods:
            try:
                if method == "wq":
                    res = wq_cells(loc, q).result(0)
                    _warn_low_neff(res.n_eff, center, bw)
                else:
                    res = qr_cells(loc, q, [RngStream(args.seed)]).result(0)
            except LocalQuantError as exc:
                failures.append(exc)
                res = exc  # gives an error record
            print(json.dumps(_record(center, bw, method, q, res)), flush=True)
    if "dfq" in methods:
        res = df_quantile_ci(data.responses, q.p, q.alpha1, q.alpha2)
        print(json.dumps(_record(None, None, "dfq", q, res)), flush=True)
    if failures:
        raise failures[0]
    return 0


def _check_out(path, parser: argparse.ArgumentParser) -> None:
    """Exit 2 before any work if `--out` cannot be created as a file.

    The file itself is opened only after the work, so a failed run leaves none.
    """
    if not path:
        return
    if os.path.isdir(path):
        parser.error(f"--out: {path!r} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK | os.X_OK):
        parser.error(f"--out: {parent!r} is not a writable directory")


def _open_out(path):
    """A context manager giving the `--out` file, or stdout, which it leaves open."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _keep_heap() -> bool:
    """Have glibc keep this process's heap between study chunks; True if it took.

    Each chunk of `run_experiment` allocates and frees about a dozen 512 KiB
    arrays. glibc's dynamic thresholds serve such arrays by mmap, or trim the
    heap once they are freed, so every chunk faults its memory in afresh. A
    fixed 32 MiB mmap threshold (the ceiling of the dynamic one on 64-bit)
    puts them on the heap and a 16 MiB trim threshold keeps it. Fixing
    either threshold turns both dynamic ones off, leaving the other at its
    128 KiB default: the mmap threshold alone saves nothing and the trim
    threshold alone doubles the faults. So the trim threshold is set only
    once the mmap threshold has taken, which an older glibc refuses where
    its heaps are small (32-bit). Off glibc this does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1 and mallopt(_M_TRIM_THRESHOLD, 16 << 20) == 1


def _cmd_simulate(args, parser: argparse.ArgumentParser) -> int:
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    _check_out(args.out, parser)
    if args.preset:
        config = PRESETS[args.preset]
    else:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = parse_config(fh.read())
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    _keep_heap()
    summaries = run_experiment(config, workers=args.workers)
    with _open_out(args.out) as out:
        write_summaries(out, [(config, summaries)])
    return 0


def _x0_grid(text: str) -> list[float]:
    if ":" in text:
        start, stop, count = text.split(":")
        return [float(v) for v in np.linspace(float(start), float(stop), int(count))]
    return _float_list(text)


def _cmd_target(args, parser: argparse.ArgumentParser) -> int:
    _check_out(args.out, parser)
    signal, setting, kernel, h, p = args.signal, args.setting, args.kernel, args.h, args.p
    grid_text = args.x0_grid
    if args.preset == "flat-sanity":
        # step signal probed away from its jumps: the oracle must return the
        # same flat-region quantile at every center
        signal, setting, kernel, h, p, grid_text = "step", 1, "triangular", 0.04, 0.5, "0.45:0.55:5"
    model = SyntheticModel(Signal.from_name(signal), NoiseSetting.from_number(setting))
    kern = Kernel.from_name(kernel)
    # every theta is computed before the output is opened, so a bad argument
    # writes nothing
    try:
        grid = _x0_grid(grid_text)
        if not grid:
            raise ValueError("the grid is empty")
        thetas = [true_theta(model, LocalizationSpec(kern, [x0], [h]), p) for x0 in grid]
    except (ValueError, DomainError) as exc:
        parser.error(f"--x0-grid/--h/--p: {exc}")
    with _open_out(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["signal", "setting", "kernel", "p", "h", "x0", "theta"])
        for x0, theta in zip(grid, thetas):
            writer.writerow([signal, setting, kernel, repr(p), repr(h), repr(x0), repr(theta)])
    return 0


def _cmd_indist(args, parser: argparse.ArgumentParser) -> int:
    model = SyntheticModel(Signal.from_name(args.signal), NoiseSetting.from_number(args.setting))
    try:
        spec = LocalizationSpec(Kernel.TRIANGULAR, [args.x0], [args.h])
        theta_p = true_theta(model, spec, args.p)
        theta_prime, tv = indistinguishable_pair(model, spec, args.h0, args.theta_star)
    except (ValueError, DomainError) as exc:
        parser.error(str(exc))
    print(
        json.dumps(
            {
                "theta_p": theta_p,
                "theta_prime": theta_prime,
                "tv_distance": tv,
                "mixture_weight": mixture_weight(args.h, args.h0),
            }
        )
    )
    return 0


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI prints it: its class and message, without the
    location and source line of the code that warned, which are the CLI's own."""
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"ci": _cmd_ci, "simulate": _cmd_simulate, "target": _cmd_target,
               "indist": _cmd_indist}[args.command]
    library_format, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        status = command(args, parser)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the final flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE
    except AllWeightsZero as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NO_WEIGHT
    except (LocalQuantError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    finally:
        warnings.formatwarning = library_format


if __name__ == "__main__":
    sys.exit(main())
