"""numpy is conewolff's one runtime dependency: a fresh interpreter loads no
scipy module at import or in a run, the transform experiments included
(scipy is a test-only reference)."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# argv: "eager" to import scipy.fft before conewolff, or "-"; then the
# config paths to run, in order. Prints, after the import and after each
# run, the run's exit code and the scipy modules loaded
CHILD = """
import json, sys
if sys.argv[1] == "eager":
    import scipy.fft

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

from conewolff import cli
steps = [["import", 0, scipy_modules()]]
for cfg in sys.argv[2:]:
    code = cli.main(["run", cfg])
    steps.append([cfg, code, scipy_modules()])
print(json.dumps(steps))
"""

CONFIGS = {
    "geometry": "experiment = geometry\ncurve = twisted_cubic\nsamples = 20\n",
    "decouple": ("experiment = decouple\nn = 16\nlam = 4\nL = 8\ntrials = 1\n"
                 "deltas = 0.25\n"),
    "smoothing": "experiment = smoothing\nn = 16\nk_list = 2,3\n",
}


def _child(tmp_path, names, mode="-"):
    paths = []
    tmp_path.mkdir(exist_ok=True)
    for name in names:
        paths.append(tmp_path / f"{name}.cfg")
        paths[-1].write_text(CONFIGS[name])
    env = dict(os.environ, OUTPUT_DIR=str(tmp_path / "out"),
               PYTHONPATH=os.pathsep.join(
                   [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", CHILD, mode,
                           *map(str, paths)],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    steps = json.loads(done.stdout.strip().splitlines()[-1])
    assert [s[0] for s in steps] == ["import", *map(str, paths)]
    return steps


def _report(tmp_path, experiment) -> bytes:
    (run_dir,) = (tmp_path / "out").glob(f"{experiment}-*")
    return (run_dir / "report.json").read_bytes()


def test_import_executes_no_scipy_module(tmp_path):
    assert _child(tmp_path, []) == [["import", 0, []]]


def test_geometry_run_loads_no_scipy(tmp_path):
    # twisted_cubic goes through reparametrize_arclength and its _pchip
    steps = _child(tmp_path, ["geometry"])
    assert [(code, loaded) for _, code, loaded in steps] == [(0, [])] * 2


def test_transform_loads_scipy_fft_with_identical_reports(tmp_path):
    # decouple sums through the pruned inverse transform, and smoothing adds
    # the transform pair in t: neither loads scipy, and a scipy.fft imported
    # first (as the test-only references do) leaves the report unchanged
    lazy = _child(tmp_path / "lazy", ["decouple", "smoothing"])
    assert [(code, loaded) for _, code, loaded in lazy] == [(0, [])] * 3
    eager = _child(tmp_path / "eager", ["decouple"], "eager")
    assert [code for _, code, _ in eager] == [0, 0]
    assert "scipy.fft" in eager[-1][2]
    assert _report(tmp_path / "lazy", "decouple") == \
        _report(tmp_path / "eager", "decouple")
