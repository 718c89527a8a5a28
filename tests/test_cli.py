"""Tests for the batch front-end: config parsing, dispatch, reports."""

import contextlib
import dataclasses
import io
import json
import os

import pytest

from conewolff import cli
from conewolff.errors import ConfigError


def _cfg_text(**kv):
    lines = [f"{k} = {v}" for k, v in kv.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------


def test_parse_config_happy_path():
    text = (
        "# a comment\n"
        "[main]\n"
        "experiment = geometry\n"
        "curve = helix(1,1)\n"
        "samples = 20   # trailing comment\n"
        "deltas = 0.0625,0.03125\n"
        "k_list = 4,5\n"
        "custom_note = hello\n"
    )
    cfg = cli.parse_config(text)
    assert cfg.experiment == "geometry"
    assert cfg.curve == "helix(1,1)"
    assert cfg.samples == 20
    assert cfg.deltas == (0.0625, 0.03125)
    assert cfg.k_list == (4, 5)
    assert cfg.extras["custom_note"] == "hello"
    assert cfg.raw_text == text


def test_parse_config_diagnostics():
    with pytest.raises(ConfigError, match="line 2"):
        cli.parse_config("experiment = geometry\nnot a kv pair\n")
    with pytest.raises(ConfigError, match="line 2.*samples"):
        cli.parse_config("experiment = geometry\nsamples = many\n")
    with pytest.raises(ConfigError, match="experiment"):
        cli.parse_config("samples = 5\n")
    with pytest.raises(ConfigError, match="unknown experiment"):
        cli.parse_config("experiment = frobnicate\n")


@pytest.mark.parametrize("text,key,first,second", [
    ("experiment = schedule\nk = 20\nk = 12\n", "k", 2, 3),
    ("experiment = schedule\n[run]\nexperiment = geometry\n", "experiment",
     1, 3),
    ("experiment = geometry\nnote = a\n# note = b\nnote = c\n", "note", 2, 4),
])
def test_parse_config_refuses_a_key_given_twice(tmp_path, monkeypatch, text,
                                                key, first, second):
    # the later value used to win in silence; a known key, the experiment
    # and an unknown key are all refused, naming both lines
    match = (f"line {second}: key '{key}' is given twice, on lines {first} "
             f"and {second}")
    with pytest.raises(ConfigError, match=match):
        cli.parse_config(text)
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["run", str(cfg_file)]) == 1
    assert match in err.getvalue() and "Traceback" not in err.getvalue()
    assert not [p for p in tmp_path.iterdir() if p != cfg_file]


def _assert_refused(tmp_path, monkeypatch, key, val, match,
                    experiment="schedule"):
    # refused while parsing, and `conewolff run` exits 1 with an error line,
    # writing nothing
    text = f"experiment = {experiment}\n{key} = {val}\n"
    with pytest.raises(ConfigError, match=match):
        cli.parse_config(text)
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["run", str(cfg_file)]) == 1
    assert "error: " in err.getvalue() and match in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not [p for p in tmp_path.iterdir() if p != cfg_file]


@pytest.mark.parametrize("key,val", [("p", "nan"), ("alpha", "inf")])
def test_parse_config_rejects_non_finite(tmp_path, monkeypatch, key, val):
    _assert_refused(tmp_path, monkeypatch, key, val,
                    f"line 2: field '{key}'")


@pytest.mark.parametrize("key,val", [("M", "0"), ("M", "-1"),
                                     ("eps0", "0"), ("eps", "0"),
                                     ("p", "0.5"), ("L", "0"),
                                     ("alpha", "-0.1"), ("alpha", "1.5"),
                                     ("deltas", ""), ("k_list", ""),
                                     ("sigma", "0"), ("r0", "0"),
                                     ("r0", "-1"), ("curve", "helix(nan,1)"),
                                     ("curve", "helix(0,0)"),
                                     ("curve", "helix2"), ("n", "48"),
                                     ("deltas", "0.0625,0.015625")])
def test_parse_config_rejects_out_of_range(tmp_path, monkeypatch, key,
                                           val):
    # every value here is refused whatever the experiment reads (plates
    # reads neither curve nor n); plates, which builds one family, also
    # refuses a second delta
    _assert_refused(tmp_path, monkeypatch, key, val, f"field '{key}'",
                    experiment="plates")


@pytest.mark.parametrize("val", ["5", "9"])
def test_schedule_refuses_k_below_10(tmp_path, monkeypatch, val):
    # the radius schedule needs k >= 10; schedule used to run k = 10 in
    # place of a smaller k and report k = 10
    _assert_refused(tmp_path, monkeypatch, "k", val, "field 'k'")
    with pytest.raises(ConfigError, match="k >= 10"):
        cli.validate_config(cli.Config("schedule", k=int(val)))
    cli.validate_config(cli.Config("schedule", k=10))
    cli.validate_config(cli.Config("decouple", k=int(val)))


def test_validate_config_holds_plates_to_one_delta():
    # the rule is validate_config's, so a Config built in code meets it
    # too, rather than plates silently using deltas[0]
    with pytest.raises(ConfigError, match="field 'deltas'.*not 2"):
        cli.validate_config(cli.Config("plates", deltas=(0.25, 0.0625)))
    cli.validate_config(cli.Config("plates", deltas=(0.25,)))
    cli.validate_config(cli.Config("decouple", deltas=(0.25, 0.0625)))


def test_validate_scale_constraints(capsys):
    with pytest.raises(ConfigError, match="sigma"):
        cli.parse_config(_cfg_text(experiment="plates", deltas="0.0625",
                                   sigma=0.5))
    with pytest.raises(ConfigError, match="theta"):
        cli.parse_config(_cfg_text(experiment="plates", deltas="0.25",
                                   theta=0.1))
    # a rule between keys holds only where the experiment reads them
    cfg = cli.parse_config(_cfg_text(experiment="geometry", deltas="0.25",
                                     theta=0.1, sigma=0.9))
    assert cfg.extras == {"deltas": "0.25", "theta": "0.1", "sigma": "0.9"}
    # no experiment reads a shell index l, so it is an unknown key
    cfg = cli.parse_config(_cfg_text(experiment="decompose", k=6, l=4))
    assert "line 3: unknown config key 'l'" in capsys.readouterr().err
    assert cfg.extras == {"l": "4"}
    with pytest.raises(ConfigError, match="power of two"):
        cli.parse_config(_cfg_text(experiment="sobolev", n=48))
    for edge in (0, 1):  # alpha's range is closed
        assert cli.parse_config(_cfg_text(experiment="sobolev",
                                          alpha=edge)).alpha == edge


# ---------------------------------------------------------------------------
# listing and selftest
# ---------------------------------------------------------------------------


def test_list_experiments_contents_and_stability():
    out = cli.list_experiments()
    assert "decouple §2" in out
    assert "umu §4" in out
    for name in ("geometry", "plates", "decompose", "umu", "census",
                 "schedule", "decouple", "sobolev", "smoothing", "maximal",
                 "helix2"):
        assert name in out
    assert out == cli.list_experiments()


class _RecordingConfig:
    """A Config stand-in that records which fields are read."""

    def __init__(self, cfg):
        self._cfg = cfg
        self.reads = set()

    def __getattr__(self, name):
        self.reads.add(name)
        return getattr(self._cfg, name)


# a small config per experiment; every key not given keeps its default
_SMALL = {
    "geometry": {"samples": 8},
    "plates": {},
    "decompose": {"k": 9, "samples": 8},
    "umu": {"samples": 8},
    "census": {"samples": 4},
    "schedule": {},
    "decouple": {"n": 64, "lam": 16, "trials": 1, "deltas": 0.0625},
    "sobolev": {"n": 16, "k_list": "2,3"},
    "smoothing": {"n": 8, "k_list": "1,2"},
    "maximal": {"n": 32},
    "helix2": {"samples": 4},
}


@pytest.mark.parametrize("name", cli.EXPERIMENTS)
def test_list_names_the_fields_each_experiment_reads(name):
    # the keys the runner reads are the keys its table row lists, and
    # `conewolff list` shows each of them with its default
    rec = _RecordingConfig(
        cli.parse_config(_cfg_text(experiment=name, **_SMALL[name])))
    cli._DISPATCH[name](rec)
    exp = cli.EXPERIMENTS[name]
    assert rec.reads - {"seed"} == set(exp.keys)
    lines = cli.list_experiments().splitlines()
    (at,) = [i for i, line in enumerate(lines)
             if line.startswith(f"  {name} ")]
    listed = [kv.split(" = ")[0] for kv in lines[at + 1].strip().split(", ")]
    assert listed == list(exp.keys)


def test_selftest_passes():
    assert cli.selftest() == 0


def test_selftest_fails_loudly(monkeypatch, capsys):
    monkeypatch.setattr(cli.ol, "helix_phase_identity",
                        lambda *args: (0.0, 1.0))
    assert cli.selftest() == 2
    err = capsys.readouterr().err
    assert "selftest failed: helix-family phase identity" in err
    assert err.count("selftest failed") == 1


# ---------------------------------------------------------------------------
# run dispatch and reports
# ---------------------------------------------------------------------------


def _run_to(tmp_path, monkeypatch, text):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    cfg = cli.parse_config(text)
    code = cli.run(cfg)
    dirs = sorted(tmp_path.iterdir())
    return code, dirs


def test_run_geometry_reports(tmp_path, monkeypatch):
    code, dirs = _run_to(tmp_path, monkeypatch, _cfg_text(
        experiment="geometry", curve="helix(1,1)", samples=40))
    assert code == 0
    (run_dir,) = dirs
    for name in ("report.json", "data.csv", "config.echo", "metadata.json"):
        assert (run_dir / name).exists()
    assert (run_dir / "plots").is_dir()
    rep = json.loads((run_dir / "report.json").read_text())
    assert abs(rep["kappa_min"] - 0.5) <= 1e-8
    assert abs(rep["kappa_max"] - 0.5) <= 1e-8
    assert abs(rep["tau_min"] - 0.5) <= 1e-8
    rows = (run_dir / "data.csv").read_text().strip().splitlines()
    assert rows[0] == "s,kappa,tau"
    assert len(rows) == 41


def test_unknown_keys_warned_and_listed_in_metadata(tmp_path, monkeypatch,
                                                   capsys):
    base = _cfg_text(experiment="schedule", p=74, eps=0.1, k=20)
    typo = base + "k_lst = 9,10\nnote = x\n"
    cfg = cli.parse_config(typo)
    err = capsys.readouterr().err
    assert cfg.extras == {"k_lst": "9,10", "note": "x"}
    assert err.count("warning") == 2
    assert "line 5: unknown config key 'k_lst'" in err
    assert "line 6: unknown config key 'note'" in err
    cli.parse_config(base)
    assert capsys.readouterr().err == ""

    reports, unknown = [], []
    for i, text in enumerate((base, typo)):
        code, (run_dir,) = _run_to(tmp_path / str(i), monkeypatch, text)
        assert code == 0
        reports.append((run_dir / "report.json").read_bytes())
        meta = json.loads((run_dir / "metadata.json").read_text())
        unknown.append(meta["unknown_keys"])
    assert unknown == [[], ["k_lst", "note"]]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", cli.EXPERIMENTS)
def test_every_experiment_runs_from_its_default_config(tmp_path, monkeypatch,
                                                       capsys, name):
    # `experiment = <name>` alone runs the table's defaults, which are the
    # field values of Config(name) built in code; on the parent smoothing
    # (n clamped to 32 under a 2^5 band) and decouple (lam = 24 plates on
    # n = 64) exited 1
    text = f"experiment = {name}\n"
    assert cli.parse_config(text) == dataclasses.replace(cli.Config(name),
                                                         raw_text=text)
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    cfg_file = tmp_path / f"{name}.cfg"
    cfg_file.write_text(text)
    assert cli.main(["run", str(cfg_file)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rep = json.loads((tmp_path / out.strip() / "report.json").read_text())
    assert rep["experiment"] == name


def _two_reports(tmp_path, monkeypatch, base, extra):
    # report bytes and unknown_keys of base and of base + extra
    reports, unknown = [], []
    for i, text in enumerate((base, base + extra)):
        code, (run_dir,) = _run_to(tmp_path / str(i), monkeypatch, text)
        assert code == 0
        reports.append((run_dir / "report.json").read_bytes())
        meta = json.loads((run_dir / "metadata.json").read_text())
        unknown.append(meta["unknown_keys"])
    return reports, unknown


def test_keys_the_experiment_does_not_read_are_warned_and_listed(
        tmp_path, monkeypatch, capsys):
    # a known key that the experiment does not list is an unknown key to
    # it: warned, kept out of the run and listed in metadata.json
    base = _cfg_text(experiment="geometry", samples=20)
    extra = _cfg_text(lam=3, trials=9, n=128, deltas=0.5)
    cfg = cli.parse_config(base + extra)
    err = capsys.readouterr().err
    assert cfg.extras == {"lam": "3", "trials": "9", "n": "128",
                          "deltas": "0.5"}
    assert err.count("warning") == 4
    for lineno, key in enumerate(("lam", "trials", "n", "deltas"), start=3):
        assert (f"line {lineno}: config key {key!r} is not read by "
                "experiment 'geometry'") in err
    reports, unknown = _two_reports(tmp_path, monkeypatch, base, extra)
    assert unknown == [[], ["lam", "trials", "n", "deltas"]]
    assert reports[0] == reports[1]

    # decouple fixes sigma = sqrt(delta) itself, so a sigma above it is
    # not checked against the deltas; the parent refused it
    base = _cfg_text(experiment="decouple", n=64, lam=16, trials=1,
                     deltas=0.0625)
    capsys.readouterr()
    reports, unknown = _two_reports(tmp_path / "d", monkeypatch, base,
                                    "sigma = 0.9\n")
    assert "config key 'sigma' is not read by experiment 'decouple'" \
        in capsys.readouterr().err
    assert unknown == [[], ["sigma"]]
    assert reports[0] == reports[1]


def test_run_schedule_n_star(tmp_path, monkeypatch):
    code, dirs = _run_to(tmp_path, monkeypatch, _cfg_text(
        experiment="schedule", p=74, eps=0.1, k=20, eps0=0.3, M=10))
    assert code == 0
    rep = json.loads((dirs[0] / "report.json").read_text())
    assert rep["n_star"] == 8
    assert rep["hypothesis_ok"] is True


def test_run_schedule_csv(tmp_path, monkeypatch):
    code, dirs = _run_to(tmp_path, monkeypatch, _cfg_text(
        experiment="schedule", p=74, eps=0.1, k=20, eps0=0.3, M=10))
    assert code == 0
    rep = json.loads((dirs[0] / "report.json").read_text())
    lines = (dirs[0] / "data.csv").read_text().strip().splitlines()
    assert lines[0] == "n,log2_r0,log2_r1,r0,r1,ratio_check"
    assert len(lines) == rep["N"] + 2
    assert all(row.endswith("True") for row in lines[1:])


def test_run_reports_byte_identical(tmp_path, monkeypatch):
    text = _cfg_text(experiment="decompose", curve="helix(0.5,0.5)",
                     k=10, samples=50, seed=7)
    code1, _ = _run_to(tmp_path, monkeypatch, text)
    code2, dirs = _run_to(tmp_path, monkeypatch, text)
    assert code1 == code2 == 0
    assert len(dirs) == 2
    a = (dirs[0] / "report.json").read_bytes()
    b = (dirs[1] / "report.json").read_bytes()
    assert a == b
    # the echoed config is the verbatim input
    assert (dirs[0] / "config.echo").read_text() == text


def test_run_invalid_config_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(_cfg_text(experiment="plates", deltas="0.0625",
                                  sigma=0.9))
    assert cli.main(["run", str(cfg_file)]) == 1
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 1


@pytest.mark.parametrize("experiment", ["sobolev", "decouple"])
def test_run_refuses_grid_beyond_memory(tmp_path, monkeypatch, capsys,
                                        experiment):
    # a 4096^3 grid is refused before anything is built: decouple's two
    # complex grids would take 2.2 TB, and each of sobolev's sums would
    # run over 2^36 points, beyond its cell budget
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    cfg_file = tmp_path / "big.cfg"
    cfg_file.write_text(_cfg_text(experiment=experiment, n=2**12))
    assert cli.main(["run", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4096^3 grid" in err
    assert "Traceback" not in err
    assert not [p for p in tmp_path.iterdir() if p != cfg_file]


def test_run_assertion_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    cfg = cli.parse_config(_cfg_text(experiment="umu", samples=10))
    monkeypatch.setattr(
        cli.si, "verify_umu_approximation",
        lambda *a, **kw: {"pass": False, "max_ratio_one": 9.9,
                          "max_ratio_two": 9.9, "n_samples": 10,
                          "r0": 0.0625, "M": 10.0})
    assert cli.run(cfg) == 2


def test_main_list_and_selftest(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "umu §4" in out
    assert cli.main(["selftest"]) == 0


def test_run_umu_small(tmp_path, monkeypatch):
    code, dirs = _run_to(tmp_path, monkeypatch, _cfg_text(
        experiment="umu", curve="helix(0.5,0.5)", samples=200))
    assert code == 0
    rep = json.loads((dirs[0] / "report.json").read_text())
    assert rep["pass"] is True
    assert rep["max_ratio_one"] <= 0.05


def test_run_helix2(tmp_path, monkeypatch):
    code, dirs = _run_to(tmp_path, monkeypatch, _cfg_text(
        experiment="helix2", samples=500, seed=1))
    assert code == 0
    rep = json.loads((dirs[0] / "report.json").read_text())
    assert rep["phase_identity_max_err"] <= 1e-12


def test_run_maximal_reports_its_grid(tmp_path, monkeypatch):
    # the maximal job runs on the grid its config sets and says so; on a
    # box of 6 the default helix(0.5,0.5) at t = 2 would wrap around, the
    # twisted cubic does not
    code, dirs = _run_to(tmp_path, monkeypatch, _cfg_text(
        experiment="maximal", curve="twisted_cubic", n=64, L=6))
    assert code == 0
    rep = json.loads((dirs[0] / "report.json").read_text())
    assert rep["n"] == 64
    assert rep["box"] == 6.0


def test_run_maximal_frozen_seed0(tmp_path, monkeypatch):
    # the curve-averages benchmark's maximal job, whose ratios the
    # benchmark checks at 1e-5 only
    code, dirs = _run_to(tmp_path, monkeypatch, _cfg_text(
        experiment="maximal", curve="helix(0.5,0.5)", n=32, seed=0))
    assert code == 0
    rep = json.loads((dirs[0] / "report.json").read_text())
    want = {"4": 1.2110844952065634, "8": 1.173691263361057,
            "16": 1.1998672339904035, "40": 1.2657040629426837}
    assert rep["ratios"].keys() == want.keys()
    for p, ratio in want.items():
        assert rep["ratios"][p] == pytest.approx(ratio, rel=1e-12, abs=0.0)


def test_run_helix2_frozen_seed0(tmp_path, monkeypatch):
    # sup_norm is the largest value of the two-parameter maximal function
    code, dirs = _run_to(tmp_path, monkeypatch, _cfg_text(
        experiment="helix2", seed=0))
    assert code == 0
    rep = json.loads((dirs[0] / "report.json").read_text())
    assert rep["sup_norm"] == pytest.approx(0.004575498152413186, rel=1e-12,
                                            abs=0.0)


def test_run_helix2_reports_its_grid(tmp_path, monkeypatch):
    # the helix2 job reads L and runs on a fixed 16^3 grid, and says so;
    # below L = 8 the helix family's averages would wrap around the box
    code, dirs = _run_to(tmp_path, monkeypatch, _cfg_text(
        experiment="helix2", samples=10, L=10))
    assert code == 0
    rep = json.loads((dirs[0] / "report.json").read_text())
    assert rep["n"] == 16
    assert rep["box"] == 10.0


def test_run_decouple_builds_one_family_per_delta(tmp_path, monkeypatch):
    # the plates of each delta are built once, by the decoupling itself
    deltas = []
    make_family = cli.cp.make_family

    def counted(g, delta, *args):
        deltas.append(delta)
        return make_family(g, delta, *args)

    monkeypatch.setattr(cli.cp, "make_family", counted)
    monkeypatch.setattr(cli.ol, "make_family", counted)
    code, _ = _run_to(tmp_path, monkeypatch, _cfg_text(
        experiment="decouple", deltas="0.0625,0.03125", n=128, trials=1))
    assert code == 0
    assert deltas == [0.0625, 0.03125]
