"""CSV and JSON artifacts with a provenance header, and run comparison.

Every CSV starts with a single comment line recording the tool version
and optional key=value metadata (typically the scenario hash), followed
by a column-name line and full-precision (%.17g) numeric rows.  Reading
a file written here reproduces the arrays bit-for-bit.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bath import CorrelationKernel
from .coefficients import HPZCoefficients
from .dynamics import ACTION, LENGTH, MOMENTS, MOMENTUM, NO_UNIT, TIME

_TOOL = "qbmlab"

KERNEL_COLUMNS = ("tau", "D_re", "D_im")
MOMENT_COLUMNS = ("t", *MOMENTS, "rs_witness")
COEFFICIENT_COLUMNS = ("t", "Gamma", "Theta", "Xi", "Upsilon")
AUDIT_COLUMNS = ("t", "lambda_min", "det", "norm")
ENSEMBLE_COLUMNS = ("t", *(c for m in MOMENTS for c in (m, "se_" + m)),
                    "norm2", "se_norm2", "alive")

# Dimensions as exponents of (length, time, energy), which no run reads:
# those of the Kossakowski matrix a's entries a_qq, a_qp and a_pp, and of
# each base column (a derived column, se_*, *_mc, *_ode, *_abs_dev or
# *_se, takes its base's).  lambda_min and the norm of a mix its entries,
# whose units differ, so they have none (None).
KOSSAKOWSKI_DIMS = ((-2, -1, 0), (0, -2, -1), (2, -3, -2))
COLUMN_DIMS = {
    "t": TIME, "tau": TIME, "mean_q": LENGTH, "mean_p": MOMENTUM,
    "s_qq": (2, 0, 0), "s_pp": (-2, 2, 2), "s_qp": ACTION,
    "rs_witness": (0, 2, 2), "norm2": NO_UNIT, "alive": NO_UNIT,
    "D_re": (-2, 0, 2), "D_im": (-2, 0, 2),  # force^2
    "Gamma": (-2, 1, 2), "Xi": (-2, 1, 2),  # force^2 time
    "Theta": (-2, 2, 2), "Upsilon": (-2, 2, 2),  # momentum^2
    "det": (0, -4, -2), "lambda_min": None, "norm": None,
}


@dataclass
class CsvTable:
    """Columns of equal-length float arrays plus header metadata."""

    columns: tuple
    data: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        if set(self.columns) != set(self.data):
            raise ValueError("column list and data keys disagree")
        lengths = {np.asarray(self.data[c]).shape for c in self.columns}
        if len(lengths) != 1 or len(next(iter(lengths))) != 1:
            raise ValueError("columns must be 1-D arrays of equal length")
        self.data = {c: np.asarray(self.data[c], dtype=float)
                     for c in self.columns}

    def __getitem__(self, column):
        return self.data[column]


def _open_new(path):
    """`path` opened for writing as a new file.  A regular file or a
    symlink there is removed first, so a rewrite does not truncate the old
    file, which on some filesystems (ext4) waits for the previous write's
    data to reach the disk, and a symlink is replaced, not written
    through; anything else there (a device, a pipe) is opened as it is.
    """
    try:
        mode = os.lstat(path).st_mode
        if stat.S_ISREG(mode) or stat.S_ISLNK(mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", encoding="utf-8", newline="\n")


def write_csv(path, table):
    """Write a CsvTable; the first line is '# qbmlab <version> k=v ...'
    with this writer's version, so a `tool_version` key is not written."""
    entries = {k: v for k, v in table.meta.items() if k != "tool_version"}
    for key, value in entries.items():
        token = f"{key}={value}"
        if any(ch.isspace() for ch in token):
            raise ValueError(f"metadata entry {token!r} contains whitespace")
    meta = "".join(f" {k}={v}" for k, v in sorted(entries.items()))
    row = ",".join(["%.17g"] * len(table.columns)) + "\n"
    rows = zip(*(table.data[c].tolist() for c in table.columns))
    with _open_new(path) as fh:
        fh.write(f"# {_TOOL} {__version__}{meta}\n"
                 + ",".join(table.columns) + "\n"
                 + "".join(row % values for values in rows))


def read_csv(path):
    """Read a CSV written by write_csv back into a CsvTable."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError(f"{path}: missing provenance header line")
        tokens = header[2:].split()
        if len(tokens) < 2 or tokens[0] != _TOOL:
            raise ValueError(f"{path}: unrecognized provenance header")
        meta = {"tool_version": tokens[1]}
        for token in tokens[2:]:
            key, _, value = token.partition("=")
            meta[key] = value
        columns = tuple(name.strip() for name in fh.readline().split(","))
        rows = [(n, line.strip().split(",")) for n, line in enumerate(fh, 3)
                if line.strip()]
    if not columns or columns == ("",):
        raise ValueError(f"{path}: missing column-name line")
    repeated = sorted({c for c in columns if columns.count(c) > 1})
    if repeated:
        raise ValueError(f"{path}: repeated column name(s) {repeated}")
    values = np.empty((len(rows), len(columns)))
    for i, (n, row) in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(f"{path}: line {n} has {len(row)} fields for "
                             f"{len(columns)} columns")
        try:
            values[i] = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
    data = {c: values[:, j].copy() for j, c in enumerate(columns)}
    return CsvTable(columns=columns, data=data, meta=meta)


# ------------------------------------------------------- artifact builders

def kernel_table(kernel, meta=None):
    return CsvTable(columns=KERNEL_COLUMNS,
                    data={"tau": kernel.grid, "D_re": kernel.re_values,
                          "D_im": kernel.im_values},
                    meta=dict(meta or {}))


def kernel_from_table(table):
    return CorrelationKernel.from_samples(
        table["tau"], table["D_re"], table["D_im"])


def moment_table(trajectory, meta=None):
    return CsvTable(columns=MOMENT_COLUMNS,
                    data={"t": trajectory.times,
                          **dict(zip(MOMENTS, trajectory.data.T)),
                          "rs_witness": trajectory.rs_witness()},
                    meta=dict(meta or {}))


def coefficient_table(coefficients, meta=None):
    return CsvTable(columns=COEFFICIENT_COLUMNS,
                    data={"t": coefficients.grid,
                          "Gamma": coefficients.Gamma,
                          "Theta": coefficients.Theta,
                          "Xi": coefficients.Xi,
                          "Upsilon": coefficients.Upsilon},
                    meta=dict(meta or {}))


def coefficients_from_table(table):
    """Rebuild an HPZCoefficients table, e.g. to re-run the CP auditor."""
    return HPZCoefficients(grid=table["t"], Gamma=table["Gamma"],
                           Theta=table["Theta"], Xi=table["Xi"],
                           Upsilon=table["Upsilon"])


def audit_table(report, meta=None):
    return CsvTable(columns=AUDIT_COLUMNS,
                    data={"t": report.times, "lambda_min": report.lambda_min,
                          "det": report.det, "norm": report.norm},
                    meta=dict(meta or {}))


def ensemble_table(result, meta=None):
    return CsvTable(columns=ENSEMBLE_COLUMNS, data=result.moment_table(),
                    meta=dict(meta or {}))


def write_json(path, payload):
    with _open_new(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------- comparison

@dataclass
class ColumnDeviation:
    column: str
    max_abs: float
    max_rel: float
    passed: bool


@dataclass
class CompareReport:
    """Per-column deviations of two runs on a shared time grid."""

    columns: list
    atol: float
    rtol: float

    @property
    def passed(self):
        return all(c.passed for c in self.columns)

    def summary_lines(self):
        lines = []
        for c in self.columns:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.column}: max_abs={c.max_abs:.6e} "
                         f"max_rel={c.max_rel:.6e} {status}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'} "
                     f"(atol={self.atol:g}, rtol={self.rtol:g})")
        return lines


def compare_runs(path_a, path_b, columns=None, atol=0.0, rtol=0.0):
    """Compare two CSV artifacts column by column on a shared grid.

    The first column of each file is treated as the grid and must match
    to 1e-12 of its largest |t|.  A column passes
    when every |a - b| <= atol + rtol * max(|a|, |b|).
    """
    if not (0.0 <= atol < np.inf and 0.0 <= rtol < np.inf):
        raise ValueError("atol and rtol must be finite and non-negative")
    table_a = read_csv(path_a)
    table_b = read_csv(path_b)
    grid_name = table_a.columns[0]
    if table_b.columns[0] != grid_name:
        raise ValueError(
            f"grid columns differ: {grid_name!r} vs {table_b.columns[0]!r}")
    ga, gb = table_a[grid_name], table_b[grid_name]
    if ga.size != gb.size:
        raise ValueError(
            f"time grids differ in length: {ga.size} vs {gb.size}")
    if not ga.size:
        raise ValueError("no rows to compare: both files have a header only")
    scale = float(max(np.max(np.abs(ga)), np.max(np.abs(gb))))
    if float(np.max(np.abs(ga - gb))) > 1e-12 * scale:
        raise ValueError("time grids differ beyond 1e-12")

    if columns is None:
        columns = [c for c in table_a.columns
                   if c != grid_name and c in table_b.columns]
    else:
        missing = [c for c in columns
                   if c not in table_a.columns or c not in table_b.columns]
        if missing:
            raise ValueError(f"columns not present in both files: {missing}")
    if not columns:
        raise ValueError("no shared data columns to compare")

    results = []
    for name in columns:
        a, b = table_a[name], table_b[name]
        dev = np.abs(a - b)
        mag = np.maximum(np.abs(a), np.abs(b))
        max_abs = float(np.max(dev))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(mag > 0.0, dev / mag, 0.0)
        max_rel = float(np.max(rel))
        ok = bool(np.all(dev <= atol + rtol * mag))
        results.append(ColumnDeviation(column=name, max_abs=max_abs,
                                       max_rel=max_rel, passed=ok))
    return CompareReport(columns=results, atol=float(atol), rtol=float(rtol))
