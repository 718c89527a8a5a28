"""Which scipy modules a fresh interpreter executes: none at import, none
for experiments without a transform, scipy.fft at the first transform."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
# scipy modules that only tests use, as references; scipy.fft._basic is
# loaded once scipy.fft has executed
TEST_ONLY = ("scipy.interpolate", "scipy.integrate", "scipy.optimize")

# argv: config path, "eager" to import scipy.fft before conewolff, or "-"
CHILD = """
import json, sys
if sys.argv[2] == "eager":
    import scipy.fft
from conewolff import cli
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
code = cli.main(["run", sys.argv[1]]) if sys.argv[1] != "-" else 0
print(json.dumps({"code": code, "at_import": loaded,
                  "after_run": sorted(sys.modules)}))
"""


def _child(tmp_path, text, mode="-"):
    cfg = "-"
    if text is not None:
        tmp_path.mkdir(exist_ok=True)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
    env = dict(os.environ, OUTPUT_DIR=str(tmp_path / "out"),
               PYTHONPATH=os.pathsep.join(
                   [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", CHILD, str(cfg), mode],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["after_run"] = set(result["after_run"])
    return result


def _report(tmp_path) -> bytes:
    (run_dir,) = (tmp_path / "out").iterdir()
    return (run_dir / "report.json").read_bytes()


def test_import_executes_no_scipy_module(tmp_path):
    # scipy.fft is registered unexecuted; the scipy package itself (which
    # any executed scipy submodule needs first) is not imported
    res = _child(tmp_path, None)
    assert res["at_import"] == ["scipy.fft"]
    assert "scipy" not in res["after_run"]


def test_geometry_run_loads_no_scipy(tmp_path):
    # twisted_cubic goes through reparametrize_arclength and its _pchip
    res = _child(tmp_path, "experiment = geometry\ncurve = twisted_cubic\n"
                 "samples = 20\n")
    assert res["code"] == 0
    assert not res["after_run"] & {*TEST_ONLY, "scipy.fft._basic"}


def test_transform_loads_scipy_fft_with_identical_reports(tmp_path):
    text = ("experiment = decouple\nn = 16\nlam = 4\nL = 8\ntrials = 1\n"
            "deltas = 0.25\n")
    lazy = _child(tmp_path / "lazy", text)
    eager = _child(tmp_path / "eager", text, "eager")
    assert lazy["code"] == eager["code"] == 0
    assert "scipy.fft._basic" in lazy["after_run"]
    assert not lazy["after_run"] & set(TEST_ONLY)
    assert _report(tmp_path / "lazy") == _report(tmp_path / "eager")
