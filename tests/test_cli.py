from pathlib import Path

import pytest

from stretchgrid.cli import main

SMOKE = Path(__file__).resolve().parents[1] / "src/stretchgrid/configs/smoke_zero_vol.cfg"


def test_converge_writes_csv(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["converge", "--config", str(SMOKE), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("column,I,price_S75,err1e5_S75,order")
    assert text.endswith("\n")


def test_converge_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["converge", "--config", str(SMOKE), "--out", str(a)])
    main(["converge", "--config", str(SMOKE), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_grid_command(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["grid", "--table", "1", "--column", "sinh",
                 "--steps", "62", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,u,S"
    assert len(lines) == 64  # header + 63 points
    assert lines[1].startswith("0,0,0")
    assert lines[-1].split(",")[2] == "150"


def test_price_command(tmp_path):
    out = tmp_path / "price.csv"
    assert main(["price", "--config", str(SMOKE), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "spot,price"
    spot, price = lines[1].split(",")
    assert float(spot) == 75.0
    assert abs(float(price) - 25.0) < 1e-9


def test_price_rejects_zero_steps(capsys):
    assert main(["price", "--config", str(SMOKE), "--steps", "0"]) == 1
    assert "need at least two intervals" in capsys.readouterr().err


@pytest.mark.parametrize("argv, steps", [
    (["price", "--table", "5", "--steps", "0"], 0),
    (["grid", "--table", "6", "--steps", "0"], 0),
    (["price", "--table", "3", "--steps", "1"], 1),
])
def test_too_few_intervals_name_i(capsys, argv, steps):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"I = {steps}: need at least two intervals" in err
    assert "division by zero" not in err


@pytest.mark.parametrize("argv", [
    ["grid", "--config", str(SMOKE), "--steps", "16"],
    ["price", "--config", str(SMOKE)],
    ["converge", "--config", str(SMOKE)],
])
def test_stdout_gets_the_bytes_of_out(tmp_path, capsysbinary, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(argv) == 0
    written = out.read_bytes()
    assert capsysbinary.readouterr().out == written
    assert written.endswith(b"\r\n") and written.count(b"\r\n") == written.count(b"\n")


def test_bench_command(capsys):
    assert main(["bench", "--samples", "1000000"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_failure_is_one_line_diagnostic(capsys):
    rc = main(["converge", "--config", "/does/not/exist.cfg"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("stretchgrid: error:")
    assert err.count("\n") == 1


def test_unknown_column_fails(tmp_path):
    rc = main(["price", "--config", str(SMOKE), "--column", "nope"])
    assert rc == 1
