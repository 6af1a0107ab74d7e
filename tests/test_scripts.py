"""Smoke tests: each script in scripts/ runs end to end at tiny sizes."""

import csv
import importlib.util
from pathlib import Path

from resicomp.cli import CSV_FIELDS, EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TINY = ["--images", "1", "--L", "4", "--channels", "16"]


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _rows(text, header):
    """Whitespace-split rows of the table that starts at `header`."""
    lines = text.splitlines()
    start = lines.index(header)
    return [line.split() for line in lines[start + 1:]]


def test_efficiency_report(capsys):
    assert _main("run_efficiency_report")(TINY) == 0
    out = capsys.readouterr().out
    rows = _rows(out, f"{'mode':<8} {'mean_bpp':>9} {'mean_bpp_total':>14}")
    assert [r[0] for r in rows] == ["LC", "SLC:1", "MDC:2", "MDC:4", "ISC"]
    bpp = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    for payload, total in bpp.values():
        assert 0.0 < payload < total
    assert bpp["LC"][0] <= bpp["MDC:2"][0] <= bpp["ISC"][0]


def test_progressive_demo(capsys):
    assert _main("run_progressive_demo")(TINY) == 0
    out = capsys.readouterr().out
    rows = _rows(out, f"{'prefix':>6} {'mean_bpp':>9} {'mean_psnr_db':>12}")
    assert rows[-1] == "final step bit-exact on 1/1 images".split()
    steps = rows[:-1]
    assert [int(r[0]) for r in steps] == [1, 2, 3, 4]
    bpp = [float(r[1]) for r in steps]
    assert bpp == sorted(bpp) and bpp[0] > 0.0


def test_resilience_sweep(capsys, tmp_path):
    # The script is a flag front end to `resicomp sweep`: the same
    # summary on stdout and the same CSV bytes as the equivalent config.
    output = tmp_path / "resilience.csv"
    assert _main("run_resilience_sweep")(
        TINY + ["--reps", "1", "--output", str(output)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("scheme,L,preset,episodes,mean_psnr_db,mean_bpp,"
                        "failure_ratio")
    rows = [line.split(",") for line in lines[1:]]
    assert [tuple(r[:4]) for r in rows] == [
        (mode, "4", preset, "1") for mode in ("ISC", "LC", "MDC:2", "SLC:1")
        for preset in ("EP3", "EP5")]
    for row in rows:
        assert 0.0 <= float(row[6]) <= 1.0
    with open(output, newline="") as f:
        episodes = list(csv.DictReader(f))
    assert len(episodes) == 8
    assert list(episodes[0]) == CSV_FIELDS

    config = tmp_path / "sweep.cfg"
    config.write_text("synthetic_images = 1\nmodes = ISC, LC, MDC:2, SLC:1\n"
                      "l_values = 4\npresets = EP3, EP5\nchannels = 16\n")
    cli_output = tmp_path / "cli.csv"
    assert main(["sweep", "--config", str(config),
                 "--output", str(cli_output)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == lines
    assert cli_output.read_bytes() == output.read_bytes()
