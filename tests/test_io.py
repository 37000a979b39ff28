"""CSV artifacts: round trips, provenance headers, and run comparison."""

import os
import pathlib

import numpy as np
import pytest

from qbmlab import io
from qbmlab.bath import CorrelationKernel, SpectralDensity, ThermalBathSpec
from qbmlab.cli import main
from qbmlab.coefficients import delta_limit_coefficients
from qbmlab.dynamics import MasterEquationSpec, SystemSpec, integrate_moments
from qbmlab.positivity import audit_cp


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 4.0, 37)
    a = rng.standard_normal(37) * 1e-30
    b = rng.standard_normal(37) * 1e25
    table = io.CsvTable(columns=("t", "a", "b"),
                        data={"t": t, "a": a, "b": b},
                        meta={"scenario_sha256": "ab12"})
    path = tmp_path / "x.csv"
    io.write_csv(path, table)
    back = io.read_csv(path)
    assert back.columns == ("t", "a", "b")
    assert np.array_equal(back["t"], t)
    assert np.array_equal(back["a"], a)
    assert np.array_equal(back["b"], b)
    assert back.meta["scenario_sha256"] == "ab12"
    assert back.meta["tool_version"]


def test_csv_bytes_are_pinned(tmp_path):
    # %.17g, with nan, the infinities, -0 and the extremes of float64
    table = io.CsvTable(
        columns=("x", "y"),
        data={"x": [0.1, np.nan, np.inf, -np.inf],
              "y": [-0.0, 5e-324, 1e300, 1.0 / 3.0]},
        meta={"k": "v"})
    path = tmp_path / "pinned.csv"
    io.write_csv(path, table)
    assert path.read_bytes() == (
        f"# qbmlab {io.__version__} k=v\n"
        "x,y\n"
        "0.10000000000000001,-0\n"
        "nan,4.9406564584124654e-324\n"
        "inf,1.0000000000000001e+300\n"
        "-inf,0.33333333333333331\n").encode()
    back = io.read_csv(path)
    assert np.array_equal(back["x"], table["x"], equal_nan=True)
    assert back["y"].tobytes() == table["y"].tobytes()


@pytest.mark.parametrize("kind", ["csv", "json"])
def test_a_rewrite_creates_a_new_file(tmp_path, kind):
    # the old file is removed, not truncated: a reader still holding it
    # reads the first content, and a symlink at the path is replaced
    # with the target left as it was
    path = tmp_path / f"artifact.{kind}"

    def write(x):
        if kind == "csv":
            io.write_csv(path, io.CsvTable(columns=("t",), data={"t": [x]}))
        else:
            io.write_json(path, {"t": x})

    write(1.0)
    first = path.read_text()
    with open(path, encoding="utf-8") as held:
        write(2.0)
        assert held.read() == first
        assert os.fstat(held.fileno()).st_ino != path.stat().st_ino
    second = path.read_text()
    assert second != first and "2" in second
    target = tmp_path / "target"
    target.write_text("kept")
    path.unlink()
    path.symlink_to(target)
    write(2.0)
    assert not path.is_symlink() and path.read_text() == second
    assert target.read_text() == "kept"


def test_csv_table_validation():
    with pytest.raises(ValueError, match="disagree"):
        io.CsvTable(columns=("t",), data={"x": np.zeros(3)})
    with pytest.raises(ValueError, match="equal length"):
        io.CsvTable(columns=("t", "x"),
                    data={"t": np.zeros(3), "x": np.zeros(4)})
    with pytest.raises(ValueError, match="whitespace"):
        io.write_csv("/dev/null", io.CsvTable(
            columns=("t",), data={"t": np.zeros(1)}, meta={"k": "a b"}))


def test_read_rejects_foreign_files(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("t,x\n0,1\n")
    with pytest.raises(ValueError, match="provenance"):
        io.read_csv(path)


def test_read_rejects_repeated_column_names(tmp_path):
    # a dict keyed by name would give both "a" the last column's values
    path = tmp_path / "twice.csv"
    path.write_text(f"# qbmlab {io.__version__}\nt,a,a\n0,1,2\n")
    with pytest.raises(ValueError, match=r"repeated column name.*'a'"):
        io.read_csv(path)
    assert main(["--compare", str(path), str(path)]) == 2
    # one short row among full ones is named by its file line
    path.write_text(f"# qbmlab {io.__version__}\nt,a\n0,1\n\n1\n2,3\n")
    with pytest.raises(ValueError, match=r"twice\.csv: line 5 has 1 fields"):
        io.read_csv(path)
    assert main(["--compare", str(path), str(path)]) == 2


def test_read_names_the_line_of_a_non_numeric_field(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(f"# qbmlab {io.__version__}\nt,a\n0,1\n1,abc\n2,3\n")
    message = r"bad\.csv: line 4: could not convert string to float: 'abc'$"
    with pytest.raises(ValueError, match=message):
        io.read_csv(path)
    assert main(["--compare", str(path), str(path)]) == 2
    assert capsys.readouterr().err.endswith("bad.csv: line 4: could not "
                                            "convert string to float: 'abc'\n")


def test_rewriting_a_cli_artifact_keeps_its_bytes(tmp_path):
    # the header's version token is the writer's; the tool_version entry
    # that read_csv puts in meta is not written back as a key
    scenario = pathlib.Path(__file__).resolve().parent.parent \
        / "scenarios" / "hpz_audit.json"
    assert main(["--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == 4  # kernel, coefficients, moments, audit
    for path in paths:
        back = io.read_csv(path)
        assert back.meta["tool_version"] == io.__version__
        io.write_csv(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_kernel_table_round_trip(tmp_path):
    bath = ThermalBathSpec(SpectralDensity(1.0, 0.1, 5.0), T=2.0)
    grid = np.linspace(0.0, 2.0, 21)
    kernel = CorrelationKernel.from_bath(bath, grid)
    path = tmp_path / "kernel.csv"
    io.write_csv(path, io.kernel_table(kernel))
    back = io.kernel_from_table(io.read_csv(path))
    assert np.array_equal(back.grid, kernel.grid)
    assert np.array_equal(back.re_values, kernel.re_values)
    assert np.array_equal(back.im_values, kernel.im_values)


def test_coefficient_table_feeds_the_auditor(tmp_path):
    table = delta_limit_coefficients(4.0, np.linspace(0.0, 1.0, 11))
    path = tmp_path / "coeff.csv"
    io.write_csv(path, io.coefficient_table(table))
    rebuilt = io.coefficients_from_table(io.read_csv(path))
    assert np.array_equal(rebuilt.Gamma, table.Gamma)
    report = audit_cp(rebuilt)
    assert report.verdict == "CP-semigroup-form"


def test_moment_table_columns(tmp_path):
    spec = MasterEquationSpec("jz", SystemSpec(1.0, 1.0), gamma=0.1, T=2.0)
    traj = integrate_moments(spec, (1.0, 0.0, 0.5, 0.5, 0.0), (0.0, 1.0),
                             1e-2, store_every=20)
    table = io.moment_table(traj, meta={"scenario_sha256": "00"})
    path = tmp_path / "moments.csv"
    io.write_csv(path, table)
    back = io.read_csv(path)
    assert back.columns == ("t", "mean_q", "mean_p", "s_qq", "s_pp", "s_qp",
                            "rs_witness")
    _, _, _, _, s_qp = traj.data.T
    assert np.array_equal(back["s_qp"], s_qp)
    assert np.array_equal(back["rs_witness"], traj.rs_witness())


def test_compare_file_against_itself(tmp_path):
    t = np.linspace(0.0, 1.0, 9)
    table = io.CsvTable(columns=("t", "x"), data={"t": t, "x": np.sin(t)})
    path = tmp_path / "a.csv"
    io.write_csv(path, table)
    report = io.compare_runs(path, path)
    assert report.passed
    assert all(c.max_abs == 0.0 and c.max_rel == 0.0
               for c in report.columns)


def test_compare_tolerance_gates(tmp_path):
    t = np.linspace(0.0, 1.0, 9)
    x = np.cos(t)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    io.write_csv(a, io.CsvTable(columns=("t", "x"), data={"t": t, "x": x}))
    io.write_csv(b, io.CsvTable(columns=("t", "x"),
                                data={"t": t, "x": x + 1e-7}))
    assert not io.compare_runs(a, b, atol=1e-8).passed
    assert io.compare_runs(a, b, atol=1e-6).passed
    assert io.compare_runs(a, b, rtol=1e-5).passed
    report = io.compare_runs(a, b)
    assert report.columns[0].max_abs == pytest.approx(1e-7, rel=1e-3)
    for bad in ({"atol": -1.0}, {"atol": np.nan}, {"rtol": -0.5},
                {"rtol": np.inf}):
        with pytest.raises(ValueError, match="finite and non-negative"):
            io.compare_runs(a, a, **bad)
    assert main(["--compare", str(a), str(a), "--atol", "-1"]) == 2


def test_compare_grid_mismatch(tmp_path):
    t = np.linspace(0.0, 1.0, 9)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    io.write_csv(a, io.CsvTable(columns=("t", "x"),
                                data={"t": t, "x": np.sin(t)}))
    io.write_csv(b, io.CsvTable(columns=("t", "x"),
                                data={"t": t + 1e-3, "x": np.sin(t)}))
    io.write_csv(c, io.CsvTable(columns=("t", "x"),
                                data={"t": t[:-1], "x": np.sin(t[:-1])}))
    with pytest.raises(ValueError, match="grids differ"):
        io.compare_runs(a, b)
    # the grids are matched relative to their own scale, however small
    for path, t in ((a, [0.0, 1e-15, 2e-15]), (b, [0.0, 5e-16, 1e-15])):
        io.write_csv(path, io.CsvTable(columns=("t", "x"),
                                       data={"t": np.array(t),
                                             "x": np.zeros(3)}))
    with pytest.raises(ValueError, match="grids differ"):
        io.compare_runs(a, b)
    with pytest.raises(ValueError, match="length"):
        io.compare_runs(a, c)
    with pytest.raises(ValueError, match="not present"):
        io.compare_runs(a, a, columns=["y"])


def test_compare_header_only_files_is_a_value_error(tmp_path):
    empty = np.zeros(0)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        io.write_csv(path, io.CsvTable(columns=("t", "x"),
                                       data={"t": empty, "x": empty}))
    with pytest.raises(ValueError, match="no rows to compare"):
        io.compare_runs(a, b)
