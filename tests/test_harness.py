import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cgd
from cgd import cli, harness
from cgd.harness import (
    ConfigError,
    ExperimentConfig,
    NumericalError,
    batch_seed_sequence,
    compare_suite,
    csv_header,
    gradcheck,
    run_experiment,
    track_eigenvalues,
    write_csv,
)
from cgd.metric import ModeMismatch
from cgd.moments import MetricShape, MomentState, Timescales, covariance, update_moments
from cgd.problems import rosenbrock_grad, rosenbrock_loss


# --- configuration ---------------------------------------------------------


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.problem == "rosenbrock"
    assert cfg.steps == 5000
    assert cfg.resolved_dim() == 2


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_mapping({"problem": "rosenbrock", "stepz": 10})
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig().with_overrides({"learning_rate": "0.1"})


def test_field_validation_messages():
    with pytest.raises(ConfigError, match="problem"):
        ExperimentConfig(problem="quartic")
    with pytest.raises(ConfigError, match="steps"):
        ExperimentConfig(steps=0)
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(problem="multiply", seed=-1)
    with pytest.raises(ConfigError, match="gamma"):
        ExperimentConfig(gamma=float("inf"))
    with pytest.raises(ConfigError, match="batch_size"):
        ExperimentConfig(problem="rosenbrock", batch_size=10)
    with pytest.raises(ConfigError, match="dim"):
        ExperimentConfig(problem="multiply", dim=5)
    with pytest.raises(ConfigError, match="q0"):
        ExperimentConfig(problem="multiply", q0=(1.0, 1.0))
    with pytest.raises(ConfigError, match="q0"):
        ExperimentConfig(q0=(1.0, 1.0, 1.0))
    with pytest.raises(ConfigError, match="eig_track_k"):
        ExperimentConfig(eig_track_k=5)  # exceeds rosenbrock dimension
    with pytest.raises(ConfigError, match="full-matrix"):
        ExperimentConfig(optimizer="adam", eig_track_k=2)
    with pytest.raises(ConfigError, match="optimizer"):
        ExperimentConfig(optimizer="adamw")


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "problem = rosenbrock\n"
        "optimizer = cgd-full   # trailing comment\n"
        "\n"
        "steps = 12\n"
        "gamma = 0.01\n"
        "q0 = 0.0, 0.5\n"
    )
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.optimizer == "cgd_full"
    assert cfg.steps == 12
    assert cfg.gamma == 0.01
    assert cfg.q0 == (0.0, 0.5)


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        ExperimentConfig.from_file(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("steps 12\n")
    with pytest.raises(ConfigError, match="key = value"):
        ExperimentConfig.from_file(str(bad))
    dup = tmp_path / "dup.cfg"
    dup.write_text("steps = 1\nsteps = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        ExperimentConfig.from_file(str(dup))
    badint = tmp_path / "badint.cfg"
    badint.write_text("steps = twelve\n")
    with pytest.raises(ConfigError, match="steps"):
        ExperimentConfig.from_file(str(badint))
    badpreset = tmp_path / "badpreset.cfg"
    badpreset.write_text("optimizer = adamw\n")
    with pytest.raises(ConfigError, match="optimizer"):
        ExperimentConfig.from_file(str(badpreset))


def test_overrides_are_typed():
    cfg = ExperimentConfig().with_overrides(
        {"steps": "250", "gamma": "0.03", "optimizer": "adam", "seed": "7"}
    )
    assert cfg.steps == 250 and cfg.gamma == 0.03
    assert cfg.optimizer == "adam" and cfg.seed == 7
    with pytest.raises(ConfigError, match="gamma"):
        ExperimentConfig().with_overrides({"gamma": "fast"})


# --- running ----------------------------------------------------------------


def test_single_sgd_step_decreases_rosenbrock_loss():
    cfg = ExperimentConfig(optimizer="sgd", steps=1)
    rec = run_experiment(cfg)
    assert rec.steps.tolist() == [1]
    assert rec.losses.shape == (1,)
    assert rec.losses[0] < 26.0  # loss at the (0, 0.5) start
    assert rec.losses[0] == rosenbrock_loss(rec.params[0])
    assert rec.smoothed[0] == rec.losses[0]


def test_minimum_is_a_fixed_point():
    cfg = ExperimentConfig(optimizer="sgd", steps=5, q0=(1.0, 1.0))
    rec = run_experiment(cfg)
    assert np.array_equal(rec.losses, np.zeros(5))
    assert np.array_equal(rec.final_params, [1.0, 1.0])


def test_row_count_and_step_column():
    rec = run_experiment(ExperimentConfig(optimizer="adam", steps=17))
    assert rec.steps.tolist() == list(range(1, 18))
    assert rec.losses.shape == rec.smoothed.shape == (17,)
    assert rec.params.shape == (17, 2)


def test_smoothed_loss_recursion():
    rec = run_experiment(ExperimentConfig(optimizer="adam", steps=10))
    s = rec.losses[0]
    for t in range(1, 10):
        s = rec.losses[t] / 21.0 + s * (20.0 / 21.0)
        assert rec.smoothed[t] == s


def test_params_recorded_only_for_small_dimension():
    assert run_experiment(ExperimentConfig(optimizer="adam", steps=2)).params is not None
    wide = ExperimentConfig(optimizer="adam", steps=2, dim=5)
    assert run_experiment(wide).params is None
    mult = ExperimentConfig(problem="multiply", optimizer="cgd_diagonal", steps=2)
    assert run_experiment(mult).params is None


def test_multiply_run_is_seed_deterministic():
    cfg = ExperimentConfig(problem="multiply", optimizer="cgd_diagonal", steps=8, seed=3)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert np.array_equal(a.losses, b.losses)
    assert np.array_equal(a.final_params, b.final_params)
    c = run_experiment(ExperimentConfig(problem="multiply", optimizer="cgd_diagonal",
                                        steps=8, seed=4))
    assert not np.array_equal(a.losses, c.losses)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_numerical_error_records_step():
    cfg = ExperimentConfig(optimizer="sgd", gamma=1.0, steps=50)
    with pytest.raises(NumericalError) as err:
        run_experiment(cfg)
    assert isinstance(err.value.step, int)
    assert 1 <= err.value.step <= 50


def test_batch_seed_sequence_properties():
    a = batch_seed_sequence(0, 100)
    assert a.shape == (100,)
    assert np.array_equal(a, batch_seed_sequence(0, 100))
    assert not np.array_equal(a, batch_seed_sequence(1, 100))
    # per-step seeds must not collide with the parameter-init stream
    assert not np.array_equal(a[:2], np.random.default_rng(0).integers(2**63, size=2))


# --- eigenvalue tracking ----------------------------------------------------


def test_track_eigenvalues_fresh_state_is_identity():
    st = MomentState.initial(5, MetricShape.FULL)
    assert np.array_equal(track_eigenvalues(st, 3), np.ones(3))


def test_track_eigenvalues_zero_variance_limit():
    g = np.array([1.5, -2.0, 0.5])
    st = update_moments(MomentState.initial(3, MetricShape.FULL), g, Timescales(0.0, 0.0))
    assert np.array_equal(track_eigenvalues(st, 3), np.zeros(3))


def test_track_eigenvalues_rank_one():
    v = np.array([1.0, 2.0, -2.0])
    st = MomentState(m1=np.zeros(3), m2=np.outer(v, v), step=1)
    eigs = track_eigenvalues(st, 3)
    assert abs(eigs[0] - 9.0) < 1e-12  # ||v||^2
    assert np.all(np.abs(eigs[1:]) < 1e-12)
    assert np.all(np.diff(eigs) <= 1e-12)  # descending


def test_track_eigenvalues_errors():
    with pytest.raises(ModeMismatch):
        track_eigenvalues(MomentState.initial(3), 2)
    with pytest.raises(ValueError):
        track_eigenvalues(MomentState.initial(3, MetricShape.FULL), 0)
    with pytest.raises(ValueError):
        track_eigenvalues(MomentState.initial(3, MetricShape.FULL), 4)


def test_eigenvalues_carried_between_tracking_steps():
    cfg = ExperimentConfig(problem="multiply", optimizer="cgd_full", steps=22,
                           eig_track_k=2, eig_track_interval=10)
    rec = run_experiment(cfg)
    assert rec.eigenvalues.shape == (22, 2)
    for t in range(1, 10):
        assert np.array_equal(rec.eigenvalues[t], rec.eigenvalues[0])
    assert not np.array_equal(rec.eigenvalues[10], rec.eigenvalues[9])
    for t in range(11, 20):
        assert np.array_equal(rec.eigenvalues[t], rec.eigenvalues[10])


def _checked_tracking(monkeypatch):
    """Replace the run's eigenvalue tracker with one that also decomposes
    the covariance afresh and requires the same bits; returns the list of
    spectra the run passed in (None where it passed none)."""
    passed = []

    def checked(moments, k, spectrum=None):
        got = track_eigenvalues(moments, k, spectrum)
        assert np.array_equal(got, track_eigenvalues(moments, k))
        passed.append(spectrum)
        return got

    monkeypatch.setattr(harness, "track_eigenvalues", checked)
    return passed


@pytest.mark.parametrize("interval", [1, 3])
def test_tracking_reuses_the_step_spectrum_bitwise(monkeypatch, interval):
    passed = _checked_tracking(monkeypatch)
    run_experiment(ExperimentConfig(problem="multiply", optimizer="cgd_full", steps=7,
                                    eig_track_k=10, eig_track_interval=1,
                                    metric_update_interval=interval))
    reused = [spectrum is not None for spectrum in passed]
    # at interval 3 the operator is built at steps 1, 4 and 7; the tracked
    # steps between them decompose the covariance afresh
    assert reused == ([True] * 7 if interval == 1 else [True, False, False] * 2 + [True])


def test_second_moment_metric_tracks_covariance_eigenvalues(monkeypatch):
    passed = _checked_tracking(monkeypatch)
    rec = run_experiment(ExperimentConfig(optimizer="cgd_full", statistic="second_moment",
                                          steps=1, eig_track_k=2))
    assert passed == [None]
    # after one step from (0, 0.5) the first moment is far from zero, so the
    # covariance and the raw second moment have different spectra
    g = rosenbrock_grad(np.array([0.0, 0.5]))
    st = update_moments(MomentState.initial(2, MetricShape.FULL), g, Timescales(10.9, 9.46))
    cov_top = np.maximum(np.linalg.eigvalsh(covariance(st)), 0.0)[::-1]
    m2_top = np.linalg.eigvalsh(st.m2)[::-1]
    assert np.allclose(rec.eigenvalues[0], cov_top, rtol=1e-12)
    assert not np.allclose(rec.eigenvalues[0], m2_top, rtol=1e-3)


# --- CSV --------------------------------------------------------------------


def test_csv_schema_variants(tmp_path):
    rec = run_experiment(ExperimentConfig(optimizer="adam", steps=3))
    assert csv_header(rec) == ["step", "loss", "smoothed_loss", "q0", "q1"]

    wide = run_experiment(ExperimentConfig(optimizer="adam", steps=3, dim=5))
    assert csv_header(wide) == ["step", "loss", "smoothed_loss"]

    tracked = run_experiment(ExperimentConfig(problem="multiply", optimizer="cgd_full",
                                              steps=3, eig_track_k=3))
    assert csv_header(tracked) == ["step", "loss", "smoothed_loss", "eig0", "eig1", "eig2"]

    path = tmp_path / "out.csv"
    write_csv(rec, path)
    lines = path.read_text().split("\n")
    assert lines[0] == "step,loss,smoothed_loss,q0,q1"
    assert lines[-1] == ""  # newline-terminated final row
    assert len(lines) == 1 + 3 + 1


def test_csv_roundtrips_floats_exactly(tmp_path):
    rec = run_experiment(ExperimentConfig(optimizer="cgd_diagonal", steps=20))
    path = tmp_path / "run.csv"
    write_csv(rec, path)
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    losses = np.array([float(r[1]) for r in rows])
    q0 = np.array([float(r[3]) for r in rows])
    assert np.array_equal(losses, rec.losses)
    assert np.array_equal(q0, rec.params[:, 0])


def test_rerun_is_byte_identical(tmp_path):
    for cfg in (
        ExperimentConfig(optimizer="cgd_full", steps=12),
        ExperimentConfig(problem="multiply", optimizer="cgd_diagonal", steps=6, seed=2),
    ):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(cfg), a)
        write_csv(run_experiment(cfg), b)
        assert a.read_bytes() == b.read_bytes()


def test_full_metric_cli_rerun_is_byte_identical_at_one_blas_thread(tmp_path):
    # two fresh processes at a pinned BLAS thread count; the bytes are a
    # function of the config, numpy, the BLAS build and the thread count
    cfg = tmp_path / "full.cfg"
    cfg.write_text("problem = multiply\noptimizer = cgd_full\nsteps = 40\n"
                   "eig_track_k = 3\n")
    src = str(Path(cgd.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "cgd.cli", "run", "--config", str(cfg),
                        "--output_dir", str(out)], env=env, check=True, capture_output=True)
        outputs.append((out / "multiply_cgd_full_seed0.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 41


# --- suites and gradcheck ----------------------------------------------------


def test_compare_suite_writes_all_presets(tmp_path):
    records = compare_suite("rosenbrock", tmp_path / "cmp", steps=4)
    assert sorted(records) == sorted(
        ["sgd", "rmsprop", "adam", "adabelief", "cgd_diagonal", "cgd_full"]
    )
    for name in records:
        assert (tmp_path / "cmp" / f"{name}.csv").exists()
    with pytest.raises(ConfigError):
        compare_suite("quartic", tmp_path)


def test_gradcheck_rejects_unknown_problem():
    with pytest.raises(ConfigError):
        gradcheck("quartic")


def test_gradcheck_rosenbrock_small():
    assert gradcheck("rosenbrock", n_points=3) < 1e-7


# --- CLI ----------------------------------------------------------------------


def write_cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_cli_run_and_override(tmp_path):
    cfg = write_cfg(tmp_path, "problem = rosenbrock\noptimizer = adam\nsteps = 4\n"
                              f"output_dir = {tmp_path / 'runs'}\n")
    assert cli.main(["run", "--config", cfg]) == 0
    out = tmp_path / "runs" / "rosenbrock_adam_seed0.csv"
    assert out.exists()
    assert len(out.read_text().strip().split("\n")) == 5

    assert cli.main(["run", "--config", cfg, "--steps", "2", "--seed", "1"]) == 0
    out2 = tmp_path / "runs" / "rosenbrock_adam_seed1.csv"
    assert len(out2.read_text().strip().split("\n")) == 3


def test_cli_config_errors(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    bad = write_cfg(tmp_path, "stepz = 4\n")
    assert cli.main(["run", "--config", bad]) == 2
    ok = write_cfg(tmp_path, "steps = 4\n")
    assert cli.main(["run", "--config", ok, "--stepz", "1"]) == 2
    assert cli.main(["run", "--config", ok, "--steps"]) == 2
    assert cli.main(["run", "--config", ok, "--steps", "0"]) == 2
    assert cli.main(["run", "--config", ok, "--gamma", "inf"]) == 2
    assert cli.main(["compare", "--suite", "rosenbrock", "--out", str(tmp_path / "cmp"),
                     "--steps", "2", "--seed", "-1"]) == 2
    # an output directory beneath a regular file cannot be created
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert cli.main(["run", "--config", ok, "--output_dir", str(blocker / "runs")]) == 2
    assert cli.main(["compare", "--suite", "rosenbrock", "--out", str(blocker / "cmp"),
                     "--steps", "2"]) == 2
    # a CSV path taken by a directory cannot be written
    (tmp_path / "taken" / "rosenbrock_cgd_diagonal_seed0.csv").mkdir(parents=True)
    assert cli.main(["run", "--config", ok, "--output_dir", str(tmp_path / "taken")]) == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_numerical_failure(tmp_path):
    cfg = write_cfg(tmp_path, "optimizer = sgd\nsteps = 50\n"
                              f"output_dir = {tmp_path}\n")
    assert cli.main(["run", "--config", cfg, "--gamma", "1.0"]) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_non_finite_full_metric_is_a_numerical_failure(tmp_path, capsys):
    # the first gradient overflows, so the full covariance holds inf - inf
    cfg = write_cfg(tmp_path, "problem = rosenbrock\noptimizer = cgd_full\n"
                              f"q0 = 1e200,1e200\noutput_dir = {tmp_path}\n")
    assert cli.main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "step 1" in err
    assert "Traceback" not in err
    with pytest.raises(NumericalError) as caught:
        run_experiment(ExperimentConfig.from_file(cfg))
    assert caught.value.step == 1


def test_cli_compare(tmp_path, capsys):
    assert cli.main(["compare", "--suite", "rosenbrock", "--out",
                     str(tmp_path / "cmp"), "--steps", "3"]) == 0
    assert len(list((tmp_path / "cmp").glob("*.csv"))) == 6
    assert "cgd_full" in capsys.readouterr().out


def test_cli_gradcheck(capsys):
    assert cli.main(["gradcheck", "--problem", "rosenbrock"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


# --- fuzzed configs ------------------------------------------------------------

_NAMED_FIELDS = {"problem": ["rosenbrock", "multiply"],
                 "optimizer": ["sgd", "adam", "adabelief", "cgd_diagonal", "cgd_full", "cgd-diag"],
                 "statistic": ["covariance", "second_moment"]}
_KNOWN_FIELDS = sorted({f.name for f in fields(ExperimentConfig)} - {"steps", "output_dir"})
# config-file text: no line breaks or other control characters, no comment mark
_JUNK = st.text(st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="#"),
                max_size=12)
# repr gives "nan", "inf" and "-inf" for the non-finite values
_FLOAT = (st.floats(0.0, 1.0) | st.floats()).map(repr)


def _value(key):
    if key in harness._INT_KEYS:
        # small magnitudes keep dimensions and batches small
        typed = st.integers(-3, 6).map(str)
    elif key == "q0":
        typed = st.lists(_FLOAT, min_size=1, max_size=3).map(",".join)
    elif key in _NAMED_FIELDS:
        typed = st.sampled_from(_NAMED_FIELDS[key])
    else:
        typed = _FLOAT
    # mostly well-typed values, so that many files pass validation and run
    return st.one_of(typed, typed, typed, _JUNK)


@st.composite
def _configs(draw):
    mapping = {"steps": draw(st.sampled_from(["1", "2", "3", "0", "-1"]))}
    for key in draw(st.lists(st.sampled_from(_KNOWN_FIELDS), max_size=3, unique=True)):
        mapping[key] = draw(_value(key))
    if draw(st.integers(0, 4)) == 0:
        unknown = draw(st.from_regex(r"[a-z_]{1,10}", fullmatch=True))
        mapping.setdefault(unknown, draw(_JUNK))
    return mapping


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(mapping=_configs(), where=st.sampled_from(["out", "a/b", "blocker/out", "blocker"]))
@example(mapping={"steps": "2", "problem": "multiply", "optimizer": "adam", "seed": "-1"},
         where="out")
@example(mapping={"steps": "2"}, where="blocker/out")
@example(mapping={"steps": "2", "gamma": "inf"}, where="out")
def test_cli_run_exit_codes_under_fuzzed_configs(mapping, where):
    # every config file either runs (0), is refused (2) or fails numerically
    # (3); none may end in a traceback. "blocker" is a regular file.
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "blocker").write_text("")
        lines = [f"{key} = {value}" for key, value in mapping.items()]
        lines.append(f"output_dir = {base / where}")
        cfg = base / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg)]) in (0, 2, 3)
