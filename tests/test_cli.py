import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radonlab import cli, experiments
from radonlab.errors import BudgetError
from radonlab.experiments import (EXPERIMENTS, ExperimentSpec, RunConfig,
                                  RunOutcome, param_shape, run)
from radonlab.reporting import ResultRow, read_csv, read_json

EXPERIMENT_NAMES = ("gauss-scan", "weyl-decay", "vr-suite", "prop0-fit",
                    "prop2-fit", "iw-build", "operator-norm", "lepingle",
                    "good-lambda", "multiplier-apply")


def stub_spec(rows=(), error=None):
    def runner(params, config):
        if error is not None:
            raise error
        return RunOutcome(tuple(rows), (), {})
    return ExperimentSpec(runner=runner, defaults={}, needs_seed=False,
                          summary="stub")


# -- experiment dispatch ------------------------------------------------------

def test_registry_matches_cli_surface():
    assert tuple(EXPERIMENTS) == EXPERIMENT_NAMES
    for spec in EXPERIMENTS.values():
        assert isinstance(spec.defaults, dict)
        assert spec.summary


def test_seedless_experiments():
    seedless = {name for name, spec in EXPERIMENTS.items()
                if not spec.needs_seed}
    assert seedless == {"gauss-scan", "weyl-decay", "iw-build"}


def test_run_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        run(RunConfig(experiment="nonsense"))


def test_run_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameter"):
        run(RunConfig(experiment="iw-build", params={"m": 3}))


def test_run_requires_seed_for_random_draws():
    with pytest.raises(ValueError, match="seed"):
        run(RunConfig(experiment="vr-suite"))


@pytest.mark.parametrize("seed", [7.9, True, "7", -1, 2 ** 64])
def test_run_refuses_a_seed_that_is_not_a_u64(seed):
    with pytest.raises(ValueError, match=f"vr-suite: seed .*{seed!r}"):
        run(RunConfig("vr-suite", seed=seed, params={"n_max": 3}))


@pytest.mark.parametrize("threads", [2.5, True, "2", 0])
def test_run_refuses_a_thread_count_that_is_not_positive(threads):
    with pytest.raises(ValueError, match=f"iw-build: threads .*{threads!r}"):
        run(RunConfig("iw-build", threads=threads))


def test_run_takes_numpy_integers_and_stores_checked_values():
    config = RunConfig("vr-suite", seed=np.uint64(2 ** 64 - 1),
                       threads=np.int64(2),
                       params={"n_max": np.int32(3), "trials": 2,
                               "r_grid": [2, 3.5]})
    meta = run(config).meta
    assert meta["seed"] == 2 ** 64 - 1 and type(meta["seed"]) is int
    assert meta["params"] == {"n_max": 3, "trials": 2, "r_grid": (2.0, 3.5)}
    assert type(meta["params"]["n_max"]) is int
    assert type(meta["params"]["r_grid"][0]) is float


# -- the shape rule over every experiment's defaults --------------------------

def _wrong_values(default):
    """Values of another shape than the default's."""
    return ([5] if isinstance(default, str) else ["x"]) + [True, {"a": 1}]


@pytest.mark.parametrize("experiment", EXPERIMENT_NAMES)
def test_every_default_passes_its_own_shape_check(experiment):
    # param_shape raises on a default whose shape it does not know.
    for default in EXPERIMENTS[experiment].defaults.values():
        check, _ = param_shape(default)
        value = check(default)
        assert value == default and type(value) is type(default)


@pytest.mark.parametrize("default", [True, {}, (), ("a", "b"), [1, 2],
                                     ((1,), 2), (1, None)])
def test_param_shape_refuses_unknown_default_shapes(default):
    with pytest.raises(TypeError, match="no parameter shape"):
        param_shape(default)


@pytest.mark.parametrize("experiment", EXPERIMENT_NAMES)
def test_a_wrongly_shaped_parameter_exits_two(tmp_path, capsys, experiment):
    for key, default in EXPERIMENTS[experiment].defaults.items():
        wrong, *others = _wrong_values(default)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "params": {key: wrong}}))
        code = cli.main([experiment, "--config", str(cfg),
                         "--out", str(tmp_path)])
        assert code == 2
        assert f"error: {experiment}: {key} must be " \
            in capsys.readouterr().err
        for value in others:
            with pytest.raises(ValueError, match=f"{experiment}: {key} "):
                run(RunConfig(experiment, seed=1, params={key: value}))
    assert not list(tmp_path.glob(f"{experiment}*"))


@pytest.mark.parametrize("command, setting", [
    ("operator-norm --size 1", "size"),
    ("operator-norm --size 0", "size"),
    ("operator-norm --halfwidth -3", "halfwidth"),
    ("multiplier-apply --n 0", "n"),
    ("multiplier-apply --trials 0", "trials"),
    ("good-lambda --fields 0", "fields"),
    ("lepingle --fields 0", "fields"),
    ("prop0-fit --trials 0", "trials"),
    ("prop2-fit --trials 0", "trials"),
    ("vr-suite --trials 0", "trials"),
    ("vr-suite --n-max 1", "n_max"),
    ("gauss-scan --q-max 1", "q_max"),
    ("weyl-decay --points 1", "points"),
    ("lepingle --m 0", "m"),
    ("good-lambda --m 0", "m"),
    ("lepingle --L 0", "L"),
    ("iw-build --n -1", "n"),
    ("iw-build --rho 0", "rho"),
    # a cap of 0 ran an empty segment and passed its checks
    ("iw-build --cap 0", "cap"),
    *((f"{name} --{key} 0", key)
      for name in ("gauss-scan", "weyl-decay", "prop0-fit", "prop2-fit",
                   "operator-norm", "multiplier-apply")
      for key in ("k", "deg") if key in EXPERIMENTS[name].defaults),
    # tol 0 spent the quadrature node budget before it stopped
    ("weyl-decay --tol 0", "tol"),
    ("prop0-fit --tol 0", "tol"),
    ("prop0-fit --n-max 3 --n-min 0", "n_min"),
    ("lepingle --jump-r 0.5", "jump_r"),
    ("operator-norm --p 0.5", "p"),
    ("good-lambda --q 1", "q"),
    ("good-lambda --r 2", "r"),
])
def test_too_small_a_count_is_refused_by_name(tmp_path, capsys, monkeypatch,
                                              command, setting):
    # A refusal up front, not an IndexError, an empty max() or a library
    # message mid-run: counts and every other bounded scalar setting.
    argv = command.split()
    refuse_to_run(monkeypatch, argv[0])
    code = cli.main(argv + ["--seed", "1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (f"error: {argv[0]}: {setting} must be "
                   f"{bound(argv[0], setting)}, got "
                   f"{flag_value(argv[0], setting, argv[-1])}\n")
    assert not list(tmp_path.iterdir())


def refuse_to_run(monkeypatch, name):
    """Make the experiment's runner fail the test if a run reaches it."""
    def runner(params, config):
        raise AssertionError(f"{name} ran")
    monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(
        EXPERIMENTS[name], runner=runner))


def bound(name, setting):
    """The relation and value a setting's spec bounds it by."""
    spec = EXPERIMENTS[name]
    if setting in spec.minimums:
        return f">= {spec.minimums[setting]}"
    return f"> {spec.exceeds[setting]}"


def flag_value(name, setting, text):
    """A scalar flag's text as the run stores it."""
    return param_shape(EXPERIMENTS[name].defaults[setting])[1](text)


@pytest.mark.parametrize("command, setting", [
    ("lepingle --p-grid ,", "p_grid"),
    ("good-lambda --lam-grid ,", "lam_grid"),
    ("prop0-fit --rational-n-grid ,", "rational_n_grid"),
])
def test_an_empty_list_setting_is_refused_by_name(tmp_path, capsys,
                                                  monkeypatch, command,
                                                  setting):
    argv = command.split()
    refuse_to_run(monkeypatch, argv[0])
    code = cli.main(argv + ["--seed", "1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (f"error: {argv[0]}: {setting} must "
                                       f"not be empty\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, value", [
    ("lepingle --r-grid 1.5,3", "1.5"),
    ("operator-norm --r-grid 2.0,3.0", "2.0"),
    # a truncation radius below 1, refused as the growth fit's r is
    ("operator-norm --n-set 0,1", "0"),
    # entries bounded from below: each names the first one out of range
    ("vr-suite --r-grid 0.5", "0.5"),
    ("lepingle --p-grid 2,0.5", "0.5"),
    ("lepingle --lam-grid 0.5,0", "0.0"),
    ("good-lambda --lam-grid 0", "0.0"),
])
def test_a_growth_fit_r_of_at_most_two_is_refused_by_name(
        tmp_path, capsys, monkeypatch, command, value):
    argv = command.split()
    setting = argv[1][2:].replace("-", "_")
    refuse_to_run(monkeypatch, argv[0])
    code = cli.main(argv + ["--seed", "1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {argv[0]}: every {setting} entry must be "
        f"{bound(argv[0], setting)}, got {value}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, message", [
    ("prop0-fit --n-min 100 --n-max 50", "n_min must be <= n_max = 50, "
                                         "got 100"),
    ("prop2-fit --n-min 65 --n-max 64", "n_min must be <= n_max = 64, "
                                        "got 65"),
    ("prop2-fit --m-factor 2", "m_factor must be <= 1, got 2.0"),
])
def test_a_rule_across_settings_is_refused_before_the_first_draw(
        tmp_path, capsys, monkeypatch, command, message):
    argv = command.split()

    def draw(*args):
        raise AssertionError(f"{argv[0]} reached its probes")
    for key in ("_rational_probes", "_random_windows"):
        monkeypatch.setattr(experiments, key, draw)
    code = cli.main(argv + ["--seed", "1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {argv[0]}: {message}\n"
    assert not list(tmp_path.iterdir())


_MARTINGALE_RUNS = """
import sys
from radonlab import cli, experiments
for argv in (["lepingle", "--fields", "8"], ["good-lambda", "--fields", "4"]):
    assert cli.main(argv + ["--seed", "1", "--out", sys.argv[1]]) == 0
print("numpy.ma" in sys.modules)
"""


def test_a_martingale_run_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs 13 ms and 0.9 MB of RSS to import; np.unique is one
    # way in.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", _MARTINGALE_RUNS, str(tmp_path)], env=env,
        capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


# -- parser and config --------------------------------------------------------

def test_the_shared_parser_leaks_nothing_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["iw-build", "--n", "3", "--out", str(tmp_path / "a")]) \
        == 0
    assert cli.main(["iw-build", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert read_json(tmp_path / "a" / "iw-build.json")["meta"]["n"] == 3
    assert read_json(tmp_path / "b" / "iw-build.json")["meta"]["n"] == 4


def test_parser_lists_every_subcommand():
    text = cli.build_parser().format_help()
    for name in EXPERIMENT_NAMES + ("report",):
        assert name in text


def test_parser_turns_defaults_into_flags():
    parser = cli.build_parser()
    args = parser.parse_args(["gauss-scan", "--q-max", "50"])
    assert args.param_q_max == 50
    args = parser.parse_args(["vr-suite", "--r-grid", "2.0,3.0"])
    assert args.param_r_grid == (2.0, 3.0)


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(["iw-build", "--sides", "3"])
    assert info.value.code == 2
    capsys.readouterr()


def test_config_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1, 2]")
    code = cli.main(["iw-build", "--config", str(cfg)])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"sed": 1}')
    code = cli.main(["iw-build", "--config", str(cfg)])
    assert code == 2
    assert "sed" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["prop0-fit", "prop2-fit"])
@pytest.mark.parametrize("frac", [[1, 1, 0], [1, 1, 1.5]],
                         ids=["zero-q", "float-q"])
def test_bad_rational_fraction_is_a_usage_error(tmp_path, capsys,
                                                experiment, frac):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"rational_fracs": [frac]}}))
    code = cli.main([experiment, "--seed", "1", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 2
    assert f"fraction (1, 1)/{frac[-1]}" in capsys.readouterr().err


def test_config_budgets_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"budgets": {"set_cardinality": 10}}')
    code = cli.main(["iw-build", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "unknown key(s) budgets" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [{"seed": 7.9}, {"threads": 2.5}])
def test_config_seed_and_threads_must_be_integers(tmp_path, capsys,
                                                   setting):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**setting, "params": {"n_max": 3}}))
    argv = ["vr-suite", "--config", str(cfg), "--out", str(tmp_path)]
    if "seed" not in setting:
        argv += ["--seed", "1"]
    assert cli.main(argv) == 2
    (key, value), = setting.items()
    err = capsys.readouterr().err
    assert f"vr-suite: {key} must be " in err and f"got {value!r}" in err
    assert not (tmp_path / "vr-suite.csv").exists()


@pytest.mark.parametrize("key, value", [("trials", "5"), ("n_max", 4.5)])
def test_mistyped_config_parameter_is_a_usage_error(tmp_path, capsys, key,
                                                     value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {key: value}}))
    code = cli.main(["vr-suite", "--seed", "1", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: vr-suite: {key} must be an integer, " \
        f"got {value!r}\n"


@pytest.mark.parametrize("out", [5, None, ["a"]])
def test_config_out_must_be_a_path(tmp_path, capsys, out):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"out": out}))
    assert cli.main(["iw-build", "--config", str(cfg)]) == 2
    assert "out must be a directory path" in capsys.readouterr().err


def test_vr_suite_tolerance_is_not_a_setting(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["vr-suite", "--seed", "1", "--tolerance", "1",
                  "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments: --tolerance 1" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text('{"params": {"tolerance": 1}}')
    assert cli.main(["vr-suite", "--seed", "1", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
    assert "unknown parameter(s) for vr-suite: tolerance" \
        in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["iw-build", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    capsys.readouterr()


def test_seed_must_fit_u64(tmp_path, capsys):
    code = cli.main(["vr-suite", "--seed", "-3",
                     "--out", str(tmp_path)])
    assert code == 2
    code = cli.main(["vr-suite", "--seed", str(2 ** 64),
                     "--out", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


def test_threads_must_be_positive(tmp_path, capsys):
    code = cli.main(["iw-build", "--threads", "0", "--out", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


def test_missing_seed_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["vr-suite", "--out", str(tmp_path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


# -- running an experiment end to end -----------------------------------------

def test_iw_build_default_run(tmp_path, capsys):
    code = cli.main(["iw-build", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "4/4 exact checks passed" in out

    rows = {r.case: r for r in read_csv(tmp_path / "iw-build.csv")}
    assert rows["cardinality"].passed is True
    assert rows["cardinality"].observed == 16.0
    assert rows["initial-segment"].passed is True
    assert rows["factor-roundtrip"].passed is True
    assert rows["nesting"].passed is True
    # The upper inclusion fails at this scale; reported, not flagged.
    assert rows["upper-inclusion"].passed is None
    assert rows["upper-inclusion"].observed > rows["upper-inclusion"].reference

    doc = read_json(tmp_path / "iw-build.json")
    assert doc["meta"]["members"] == [1, 2, 3, 4, 6, 8, 9, 12, 18, 24,
                                      27, 36, 54, 72, 108, 216]
    sidecar = read_json(tmp_path / "iw-build.meta.json")
    assert sidecar["rows"] == 5
    assert sidecar["threads"] == 1
    assert "wall_time_s" in sidecar
    # Timing stays out of the result tables themselves.
    assert "wall_time_s" not in json.dumps(doc)


def test_iw_build_over_budget_truncates_and_reports(tmp_path):
    code = cli.main(["iw-build", "--rho", "0.5", "--n", "30",
                     "--out", str(tmp_path)])
    assert code == 0
    rows = {r.case: r for r in read_csv(tmp_path / "iw-build.csv")}
    assert rows["truncated"].observed > rows["truncated"].reference
    assert rows["truncated"].passed is None
    assert rows["cardinality"].passed is None
    assert rows["factor-roundtrip"].passed is True


def test_format_selects_files(tmp_path):
    cli.main(["iw-build", "--out", str(tmp_path / "c"), "--format", "csv"])
    cli.main(["iw-build", "--out", str(tmp_path / "j"), "--format", "json"])
    assert (tmp_path / "c" / "iw-build.csv").exists()
    assert not (tmp_path / "c" / "iw-build.json").exists()
    assert (tmp_path / "j" / "iw-build.json").exists()
    assert not (tmp_path / "j" / "iw-build.csv").exists()


def test_gauss_scan_emits_plot_data(tmp_path, capsys):
    code = cli.main(["gauss-scan", "--q-max", "30", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "gauss-scan-decay.dat").exists()
    manifest = read_json(tmp_path / "gauss-scan.plots.json")
    assert manifest["figures"][0]["file"] == "gauss-scan-decay.dat"


def test_exit_one_iff_an_exact_flag_fails(tmp_path, monkeypatch, capsys):
    bad = ResultRow("iw-build", "stub", {}, 2.0, 1.0, 2.0, False)
    good = ResultRow("iw-build", "stub", {}, 1.0, 2.0, 0.5, True)
    fitted = ResultRow("iw-build", "fit", {}, 9.9)

    monkeypatch.setitem(EXPERIMENTS, "iw-build",
                        stub_spec(rows=[good, fitted]))
    assert cli.main(["iw-build", "--out", str(tmp_path)]) == 0

    monkeypatch.setitem(EXPERIMENTS, "iw-build",
                        stub_spec(rows=[good, bad, fitted]))
    assert cli.main(["iw-build", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "FAIL iw-build/stub" in err


def test_budget_refusal_exits_three(tmp_path, monkeypatch, capsys):
    refusal = BudgetError("too big", estimate=10 ** 9)
    monkeypatch.setitem(EXPERIMENTS, "iw-build", stub_spec(error=refusal))
    code = cli.main(["iw-build", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "over budget" in err and "1000000000" in err


def test_quadrature_failure_exits_three(tmp_path, capsys):
    # The interval rule cannot reach 1e-17 within its node budget.
    code = cli.main(["weyl-decay", "--points", "2", "--tol", "1e-17",
                     "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "interval rule did not reach tol 1.0e-17" in err
    assert "(estimate (" in err and "error bound " in err


def test_kernel_of_the_wrong_dimension_exits_two(tmp_path, capsys):
    # weyl-decay's kernel lives on R^1, so it takes no --k at all.
    with pytest.raises(SystemExit) as info:
        cli.main(["weyl-decay", "--k", "2", "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments: --k 2" in capsys.readouterr().err


# -- precedence: defaults < config < flags -----------------------------------

def test_config_supplies_seed_and_params(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "format": "json",
                               "params": {"n_max": 5, "trials": 8}}))
    code = cli.main(["vr-suite", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    doc = read_json(tmp_path / "vr-suite.json")
    assert doc["meta"]["seed"] == 5
    assert doc["meta"]["params"] == {"n_max": 5, "trials": 8}
    assert not (tmp_path / "vr-suite.csv").exists()


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "params": {"n_max": 5,
                                                     "trials": 8}}))
    code = cli.main(["vr-suite", "--config", str(cfg), "--n-max", "4",
                     "--seed", "11", "--format", "json",
                     "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    doc = read_json(tmp_path / "vr-suite.json")
    assert doc["meta"]["seed"] == 11
    assert doc["meta"]["params"]["n_max"] == 4
    assert doc["meta"]["params"]["trials"] == 8


def test_config_and_flags_set_out_and_threads(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    config_dir = tmp_path / "from_config"
    cfg.write_text(json.dumps({"out": str(config_dir), "threads": 4}))
    code = cli.main(["iw-build", "--config", str(cfg)])
    assert code == 0
    capsys.readouterr()
    assert read_json(config_dir / "iw-build.meta.json")["threads"] == 4

    flag_dir = tmp_path / "from_flag"
    code = cli.main(["iw-build", "--config", str(cfg), "--out",
                     str(flag_dir), "--threads", "3"])
    assert code == 0
    capsys.readouterr()
    assert (flag_dir / "iw-build.csv").exists()
    assert read_json(flag_dir / "iw-build.meta.json")["threads"] == 3


def test_environment_does_not_steer_a_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LAB_OUT", str(tmp_path / "from_env"))
    monkeypatch.setenv("LAB_THREADS", "2")
    assert cli.main(["iw-build"]) == 0
    capsys.readouterr()
    assert not (tmp_path / "from_env").exists()
    assert read_json(tmp_path / "iw-build.meta.json")["threads"] == 1
    monkeypatch.setenv("LAB_THREADS", "0")
    assert cli.main(["iw-build"]) == 0
    capsys.readouterr()


def test_config_value_and_flag_write_the_same_bytes(tmp_path, capsys):
    # A config integer for a float parameter is stored as the float the
    # flag parses, in the rows and in meta.params alike.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"p": 2, "r_grid": [3, 4]}}))
    base = ["operator-norm", "--seed", "3", "--size", "4",
            "--halfwidth", "8"]
    assert cli.main([*base, "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main([*base, "--p", "2", "--r-grid", "3,4",
                     "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("operator-norm.csv", "operator-norm.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    doc = read_json(tmp_path / "a" / "operator-norm.json")
    assert doc["meta"]["params"]["p"] == 2.0
    fit, = (r for r in read_csv(tmp_path / "a" / "operator-norm.csv")
            if r.case == "growth-fit")
    assert type(fit.params["p"]) is float


# -- determinism --------------------------------------------------------------

def test_thread_count_never_changes_results(tmp_path, capsys):
    for threads, sub in (("1", "a"), ("3", "b")):
        code = cli.main(["vr-suite", "--seed", "42", "--n-max", "8",
                         "--trials", "12", "--threads", threads,
                         "--out", str(tmp_path / sub)])
        assert code == 0
    capsys.readouterr()
    for name in ("vr-suite.csv", "vr-suite.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    for sub in ("a", "b"):
        cli.main(["prop0-fit", "--seed", "7", "--trials", "6",
                  "--out", str(tmp_path / sub)])
    capsys.readouterr()
    a = (tmp_path / "a" / "prop0-fit.csv").read_bytes()
    b = (tmp_path / "b" / "prop0-fit.csv").read_bytes()
    assert a == b


# -- report subcommand --------------------------------------------------------

def test_report_identical_runs(tmp_path, capsys):
    cli.main(["iw-build", "--out", str(tmp_path / "a")])
    cli.main(["iw-build", "--out", str(tmp_path / "b")])
    capsys.readouterr()
    code = cli.main(["report", str(tmp_path / "a" / "iw-build.json"),
                     str(tmp_path / "b" / "iw-build.json")])
    assert code == 0
    assert "No differences." in capsys.readouterr().out


def test_report_flags_changes(tmp_path, capsys):
    cli.main(["iw-build", "--out", str(tmp_path / "a")])
    cli.main(["iw-build", "--n", "5", "--out", str(tmp_path / "b")])
    capsys.readouterr()
    code = cli.main(["report", str(tmp_path / "a" / "iw-build.json"),
                     str(tmp_path / "b" / "iw-build.json"),
                     "--format", "json"])
    assert code == 0
    diff = json.loads(capsys.readouterr().out)
    assert not diff["identical"]
    assert diff["added"]


def test_report_rejects_foreign_documents(tmp_path, capsys):
    doc = {"schema_version": 99, "experiment": "x", "meta": {}, "rows": []}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["report", str(path), str(path)])
    assert code == 2
    assert "schema version" in capsys.readouterr().err
