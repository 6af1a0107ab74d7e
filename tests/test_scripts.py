"""Smoke tests: each script in scripts/ runs end to end at tiny sizes."""

import importlib.util
from pathlib import Path

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
