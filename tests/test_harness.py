import contextlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cgd
from cgd import cli, harness, linalg, metric, problems
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
from cgd.metric import build_inverse_metric
from cgd.moments import covariance, update_moments
from cgd.optimizer import PRESET_NAMES, CgdConfig, initial_state, preset, step
from cgd.problems import (MultiplyProblem, RosenbrockProblem, rosenbrock_grad, rosenbrock_loss,
                          sample_batch)


def _child_env(**extra):
    """The environment for a child Python process that imports this source tree's cgd."""
    src = str(Path(cgd.__file__).resolve().parent.parent)
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# --- configuration ---------------------------------------------------------


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.problem == "rosenbrock"
    assert cfg.steps == 5000
    assert cfg.build_problem().dim == 2 == RosenbrockProblem().dim
    assert ExperimentConfig(dim=7).build_problem().dim == 7
    multiply = ExperimentConfig(problem="multiply")
    assert multiply.build_problem().dim == MultiplyProblem().dim
    assert multiply.build_problem().batch_size == MultiplyProblem().batch_size


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_mapping({"problem": "rosenbrock", "stepz": 10})
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig().with_overrides({"learning_rate": "0.1"})


def test_field_validation_messages(tmp_path):
    with pytest.raises(ConfigError, match="problem"):
        ExperimentConfig(problem="quartic")
    with pytest.raises(ConfigError, match="steps"):
        ExperimentConfig(steps=0)
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(problem="multiply", seed=-1)
    with pytest.raises(ConfigError, match="^gamma: "):
        ExperimentConfig(gamma=float("inf"))
    with pytest.raises(ConfigError, match="^statistic: "):
        ExperimentConfig(statistic="bogus")
    with pytest.raises(ConfigError, match="^eps: "):
        ExperimentConfig(optimizer="cgd_full", eps=float("inf"))
    with pytest.raises(ConfigError, match="^tau1: "):
        ExperimentConfig(tau1=-1.0)
    with pytest.raises(ConfigError, match="^power: "):
        ExperimentConfig(power=float("nan"))
    with pytest.raises(ConfigError, match="^metric_update_interval: "):
        ExperimentConfig(metric_update_interval=0)
    with pytest.raises(ConfigError, match="batch_size"):
        ExperimentConfig(problem="rosenbrock", batch_size=10)
    with pytest.raises(ConfigError, match="dim"):
        ExperimentConfig(problem="multiply", dim=5)
    with pytest.raises(ConfigError, match="^dim: "):
        ExperimentConfig(dim=1)
    with pytest.raises(ConfigError, match="^batch_size: "):
        ExperimentConfig(problem="multiply", batch_size=0)
    with pytest.raises(ConfigError, match="q0"):
        ExperimentConfig(problem="multiply", q0=(1.0, 1.0))
    with pytest.raises(ConfigError, match="q0"):
        ExperimentConfig(q0=(1.0, 1.0, 1.0))
    # a finite q0 whose loss overflows fails mid-run (exit 3); a non-finite one is refused
    for q0 in ("nan, nan", "0, inf", "-inf, 0"):
        with pytest.raises(ConfigError, match="^q0: must be finite"):
            ExperimentConfig.from_mapping({"q0": q0})
    # a typed q0 list holding a non-number, through each entry point that parses values
    for q0 in (["a", "b"], [None, 1]):
        with pytest.raises(ConfigError, match="^q0: expected comma-separated numbers, got "):
            ExperimentConfig.from_mapping({"q0": q0})
        with pytest.raises(ConfigError, match="^q0: expected comma-separated numbers, got "):
            ExperimentConfig().with_overrides({"q0": q0})
        with pytest.raises(ConfigError, match="^q0: expected comma-separated numbers, got "):
            compare_suite("rosenbrock", tmp_path, q0=q0)
    with pytest.raises(ConfigError, match="eig_track_k"):
        ExperimentConfig(eig_track_k=5)  # exceeds rosenbrock dimension
    with pytest.raises(ConfigError, match="full-matrix"):
        ExperimentConfig(optimizer="adam", eig_track_k=2)
    with pytest.raises(ConfigError, match="optimizer"):
        ExperimentConfig(optimizer="adamw")


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "\ufeff"  # one leading byte-order mark is skipped
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
    # a byte that is not UTF-8 past the first 8 KiB is reported at its file offset
    late = tmp_path / "late.cfg"
    late.write_bytes(b"#" + b"x" * 9000 + b"\nsteps = 4\n\xff\n")
    with pytest.raises(ConfigError, match=r"^config: cannot read .*position 9012:"):
        ExperimentConfig.from_file(str(late))
    # a byte-order mark's 3 bytes count in that offset; a second mark is part of a key
    late.write_bytes(b"\xef\xbb\xbfsteps = 4\n\xff\n")
    with pytest.raises(ConfigError, match=r"^config: cannot read .*position 13:"):
        ExperimentConfig.from_file(str(late))
    late.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfsteps = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_file(str(late))


def test_optimizer_name_is_canonical_from_every_entry_point():
    assert ExperimentConfig(optimizer="CGD-Diag").optimizer == "cgd_diagonal"
    assert ExperimentConfig.from_mapping({"optimizer": "CGD-Diag"}).optimizer == "cgd_diagonal"
    assert replace(ExperimentConfig(), optimizer=" Cgd Full").optimizer == "cgd_full"
    with pytest.raises(ConfigError, match="optimizer: unknown preset"):
        ExperimentConfig(optimizer="CGD-Diagonals")


def test_overrides_are_typed():
    cfg = ExperimentConfig().with_overrides(
        {"steps": "250", "gamma": "0.03", "optimizer": "adam", "seed": "7"}
    )
    assert cfg.steps == 250 and cfg.gamma == 0.03
    assert cfg.optimizer == "adam" and cfg.seed == 7
    with pytest.raises(ConfigError, match="gamma"):
        ExperimentConfig().with_overrides({"gamma": "fast"})


@pytest.mark.parametrize("values, field, typed", [
    ({"steps": 2.5}, "steps", ConfigError("steps: must be an integer, got 2.5")),
    ({"eig_track_interval": 2.5}, "eig_track_interval",
     ConfigError("eig_track_interval: must be an integer, got 2.5")),
    ({"optimizer": "cgd_full", "metric_update_interval": 1.5}, "metric_update_interval",
     ConfigError("metric_update_interval: must be an integer, got 1.5")),
    ({"gamma": "fast"}, "gamma", ConfigError("gamma: must be a number, got 'fast'")),
    ({"optimizer": None}, "optimizer",
     ConfigError(f"optimizer: unknown preset None; expected one of {PRESET_NAMES}")),
    ({"steps": True}, "steps", ConfigError("steps: must be an integer, got True")),
    ({"seed": "3"}, "seed", 3),
    ({"q0": np.array([0.0, 0.5])}, "q0", (0.0, 0.5)),
    # exact: str(np.float32(0.1)) would parse back as 0.1
    ({"gamma": np.float32(0.1)}, "gamma", float(np.float32(0.1))),
], ids=lambda value: "ConfigError" if isinstance(value, ConfigError) else None)
def test_config_built_in_python_is_typed_like_a_config_file(values, field, typed):
    if isinstance(typed, ConfigError):
        with pytest.raises(ConfigError) as caught:
            ExperimentConfig(**values)
        assert str(caught.value) == str(typed)
        return
    value = getattr(ExperimentConfig(**values), field)
    assert type(value) is type(typed) and value == typed


def test_csv_digest_configs_parse():
    # tools/csv_digest.py writes each config as `key = value` lines; a renamed
    # or removed key should fail here, not halfway through a digest listing
    path = Path(__file__).resolve().parents[1] / "tools" / "csv_digest.py"
    spec = importlib.util.spec_from_file_location("csv_digest", path)
    csv_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(csv_digest)
    for config in csv_digest.CONFIGS.values():
        parsed = ExperimentConfig.from_mapping({key: str(value) for key, value in config.items()})
        assert {key: getattr(parsed, key) for key in config} == config


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


def test_one_batch_draw_per_step(monkeypatch):
    draws = []

    def counting_sample_batch(seed, size):
        draws.append((seed, size))
        return sample_batch(seed, size)

    monkeypatch.setattr(problems, "sample_batch", counting_sample_batch)
    run_experiment(ExperimentConfig(problem="multiply", optimizer="adam", steps=20, batch_size=7))
    # one draw per step, from that step's seed: the gradient and the
    # post-update loss of a step share it
    assert draws == [(seed, 7) for seed in batch_seed_sequence(0, 20).tolist()]


# --- allocator setting -------------------------------------------------------


def _on_glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (ValueError, OSError, AttributeError):
        return False


@pytest.mark.skipif(not _on_glibc(), reason="the heap setting acts on glibc malloc only")
def test_full_metric_steps_do_not_refault_the_heap():
    # Minor page faults over a second 20-step multiply cgd_full run in a fresh
    # process, at metric_update_interval 1 and 2. When glibc trims the heap
    # top after every step, each step faults the freed d x d arrays back in:
    # about 1400-3000 faults per step at interval 1, and 180-210 at interval
    # 2, where only every other step builds the operator.
    script = (
        "import resource\n"
        "from cgd.harness import ExperimentConfig, run_experiment\n"
        "for interval in (1, 2):\n"
        "    cfg = ExperimentConfig(problem='multiply', optimizer='cgd_full', steps=20,\n"
        "                           metric_update_interval=interval)\n"
        "    run_experiment(cfg)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    run_experiment(cfg)\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = _child_env()
    env.pop("GLIBC_TUNABLES", None)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    faults_per_step = [int(line) / 20 for line in out.stdout.split()]
    assert len(faults_per_step) == 2
    for faults, bound in zip(faults_per_step, (200, 50)):
        assert faults < bound, faults_per_step


@pytest.fixture
def fresh_heap_setting():
    # the setting is made once per process; later tests get it made for real
    harness._keep_heap_resident.cache_clear()
    yield
    harness._keep_heap_resident.cache_clear()


def test_heap_setting_is_made_once(monkeypatch, fresh_heap_setting):
    calls = []
    real_confstr = os.confstr
    monkeypatch.setattr(os, "confstr", lambda name: calls.append(name) or real_confstr(name))
    harness._keep_heap_resident()
    harness._keep_heap_resident()
    assert calls == ["CS_GNU_LIBC_VERSION"]


@pytest.mark.parametrize("error", [ValueError, OSError, AttributeError])
def test_heap_setting_is_a_no_op_off_glibc(monkeypatch, fresh_heap_setting, error):
    import ctypes

    def no_glibc(name):
        raise error(name)

    def no_cdll(*args, **kwargs):
        raise AssertionError("the C library must not be opened")

    monkeypatch.setattr(os, "confstr", no_glibc)
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    record = run_experiment(ExperimentConfig(optimizer="cgd_full", steps=3))
    assert harness._keep_heap_resident.cache_info().currsize == 1
    assert record.losses.shape == (3,)


# --- eigenvalue tracking ----------------------------------------------------


# a full covariance metric, its moments replaced by each gradient (tau1 = tau2 = 0)
FULL_COVARIANCE = CgdConfig(1.0, 0.0, 0.0, "full", "covariance", 0.5)


def _full_spectrum(m1, m2):
    """The raw spectrum a full covariance metric built from the moments carries."""
    return build_inverse_metric(m1, m2, FULL_COVARIANCE).eigenvalues


def test_track_eigenvalues_fresh_state_is_identity():
    st = initial_state(np.zeros(5), FULL_COVARIANCE)
    assert np.array_equal(track_eigenvalues(_full_spectrum(st.m1, st.m2), 3), np.ones(3))


def test_track_eigenvalues_zero_variance_limit():
    g = np.array([1.5, -2.0, 0.5])
    moments = update_moments(np.zeros(3), np.eye(3), g, FULL_COVARIANCE)
    assert np.array_equal(track_eigenvalues(_full_spectrum(*moments), 3), np.zeros(3))


def test_track_eigenvalues_rank_one():
    v = np.array([1.0, 2.0, -2.0])
    eigs = track_eigenvalues(_full_spectrum(np.zeros(3), np.outer(v, v)), 3)
    assert abs(eigs[0] - 9.0) < 1e-12  # ||v||^2
    assert np.all(np.abs(eigs[1:]) < 1e-12)
    assert np.all(np.diff(eigs) <= 1e-12)  # descending


def test_track_eigenvalues_errors():
    with pytest.raises(ValueError, match="^k: must be in"):
        track_eigenvalues(np.ones(3), 0)
    with pytest.raises(ValueError, match="^k: must be in"):
        track_eigenvalues(np.ones(3), 4)


@pytest.mark.parametrize("k", [2.5, 2.0, "2", True, None])
def test_track_eigenvalues_rejects_a_k_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match="^k: must be an integer"):
        track_eigenvalues(np.ones(3), k)


def test_track_eigenvalues_takes_a_numpy_integer():
    assert np.array_equal(track_eigenvalues(np.arange(4.0), np.int64(2)), [3.0, 2.0])


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


def _counted(monkeypatch, fn):
    """Count the calls to ``fn`` under every name a loaded cgd module binds it to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "cgd" or name.startswith("cgd."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("interval", [1, 3])
def test_tracking_reuses_the_step_spectrum_bitwise(monkeypatch, interval):
    spectra = []

    def recorded(state, grad, cfg):
        state = step(state, grad, cfg)
        spectra.append(state.spectrum)
        return state

    monkeypatch.setattr(harness, "step", recorded)
    builds = _counted(monkeypatch, metric.build_inverse_metric)
    decompositions = _counted(monkeypatch, linalg.eigendecompose)
    rec = run_experiment(ExperimentConfig(problem="multiply", optimizer="cgd_full", steps=7,
                                          eig_track_k=10, eig_track_interval=1,
                                          metric_update_interval=interval))
    # tracking decomposes nothing of its own; at interval 3 the operator is
    # built at steps 1, 4 and 7 and reused in between ...
    assert len(builds) == (7 if interval == 1 else 3)
    assert len(decompositions) == len(builds)
    if interval == 3:
        assert spectra[0] is spectra[1] is spectra[2] is not spectra[3]
    # ... and every row is the clamped top of the spectrum the step applied
    assert len(spectra) == rec.eigenvalues.shape[0] == 7
    for row, spectrum in zip(rec.eigenvalues, spectra):
        assert np.array_equal(row, np.maximum(spectrum, 0.0)[::-1][:10])


def test_second_moment_metric_tracks_m2_eigenvalues():
    rec = run_experiment(ExperimentConfig(optimizer="cgd_full", statistic="second_moment",
                                          steps=1, eig_track_k=2))
    # after one step from (0, 0.5) the first moment is far from zero, so the
    # raw second moment the metric decomposed and the covariance have
    # different spectra
    g = rosenbrock_grad(np.array([0.0, 0.5]))
    m1, m2 = update_moments(np.zeros(2), np.eye(2), g, preset("cgd_full"))
    m2_top = np.maximum(np.linalg.eigh(m2)[0], 0.0)[::-1]
    cov_top = np.maximum(np.linalg.eigvalsh(covariance(m1, m2)), 0.0)[::-1]
    assert np.array_equal(rec.eigenvalues[0], m2_top)
    assert not np.allclose(rec.eigenvalues[0], cov_top, rtol=1e-3)


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


def test_write_csv_refuses_a_nul_byte_in_the_path(tmp_path):
    rec = run_experiment(ExperimentConfig(optimizer="adam", steps=1))
    with pytest.raises(ConfigError, match="^cannot write .*embedded null byte"):
        write_csv(rec, str(tmp_path / "a\x00b.csv"))


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
    env = _child_env(OPENBLAS_NUM_THREADS="1")
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
    # keys compare sets per run, unknown keys and untyped values are config errors
    for key in ("problem", "optimizer", "eig_track_k", "output_dir"):
        with pytest.raises(ConfigError, match=f"^{key}: set by compare"):
            compare_suite("rosenbrock", tmp_path / "refused", **{key: "x"})
    with pytest.raises(ConfigError, match="unknown config key"):
        compare_suite("rosenbrock", tmp_path / "refused", stepz=3)
    with pytest.raises(ConfigError, match="^steps: must be an integer, got 'many'$"):
        compare_suite("rosenbrock", tmp_path / "refused", steps="many")
    assert not (tmp_path / "refused").exists()


def test_gradcheck_rejects_unknown_problem():
    with pytest.raises(ConfigError):
        gradcheck("quartic")


def test_gradcheck_rosenbrock_small():
    assert gradcheck("rosenbrock") < 1e-7


# --- CLI ----------------------------------------------------------------------


def write_cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
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


def test_cli_config_errors(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    bad = write_cfg(tmp_path, "stepz = 4\n")
    assert cli.main(["run", "--config", bad]) == 2
    ok = write_cfg(tmp_path, "steps = 4\n")
    assert cli.main(["run", "--config", ok, "--stepz", "1"]) == 2
    assert cli.main(["run", "--config", ok, "--steps"]) == 2
    assert cli.main(["run", "--config", ok, "--steps", "0"]) == 2
    assert cli.main(["run", "--config", ok, "--gamma", "inf"]) == 2
    assert cli.main(["run", "--config", ok, "--eps", "inf"]) == 2
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
    # a byte that is not UTF-8, and a NUL byte in the output directory
    undecodable = tmp_path / "undecodable.cfg"
    undecodable.write_bytes(b"steps = 4\n\xff\n")
    capsys.readouterr()
    assert cli.main(["run", "--config", str(undecodable)]) == 2
    assert capsys.readouterr().err.startswith("config error: config: cannot read")
    nul = write_cfg(tmp_path, "steps = 4\noutput_dir = out\x00dir\n")
    assert cli.main(["run", "--config", nul]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot create output directory")
    # a NUL byte in the config path
    assert cli.main(["run", "--config", str(tmp_path / "a\x00b.cfg")]) == 2
    assert capsys.readouterr().err.startswith("config error: config: cannot read")
    assert cli.main(["run", "--config", ok, "--optimizer", "adamw"]) == 2
    assert capsys.readouterr().err == ("config error: optimizer: unknown preset 'adamw'; "
                                       f"expected one of {PRESET_NAMES}\n")


@pytest.mark.parametrize("override", [
    ("rosenbrock", "steps", 10**15), ("rosenbrock", "steps", 10**19),
    ("rosenbrock", "dim", 10**15),
    ("multiply", "batch_size", 10**15), ("multiply", "batch_size", 10**20),
])
def test_cli_run_too_large_to_allocate_is_a_config_error(tmp_path, capsys, override):
    # petabytes fail at once and allocate nothing; 10**19 and 10**20 pass
    # numpy's size limit (ValueError rather than MemoryError)
    problem, key, value = override
    cfg = write_cfg(tmp_path, f"problem = {problem}\noptimizer = cgd_full\n"
                              f"{key} = {value}\noutput_dir = {tmp_path}\n")
    assert cli.main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: no room for") and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


@pytest.mark.skipif(sys.platform != "linux", reason="caps the address space with RLIMIT_AS")
@pytest.mark.parametrize("problem, optimizer, key, value", [
    ("multiply", "sgd", "batch_size", 5_000_000), ("rosenbrock", "cgd_full", "dim", 9000),
])
def test_cli_step_too_large_to_allocate_is_a_config_error(tmp_path, problem, optimizer,
                                                          key, value):
    # Under a 2 GiB address-space cap the batch and the state fit, but a
    # step's arrays do not: the network's (5000000, 23) activations (877 MiB)
    # or the 9000 x 9000 gradient outer product (618 MiB). One BLAS thread:
    # at two, OpenBLAS cannot allocate its own buffers on the batch case and
    # exits 1 from inside the library ("Memory allocation still failed after
    # 10 retries, giving up."), which no handler in cgd can reach.
    cfg = write_cfg(tmp_path, f"problem = {problem}\noptimizer = {optimizer}\n"
                              f"{key} = {value}\nsteps = 1\noutput_dir = {tmp_path}\n")
    proc = subprocess.run([sys.executable, "-m", "cgd.cli", "run", "--config", cfg],
                          env=_child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"config error: {key}: no room for step 1: ")
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.glob("*.csv"))


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


def _fail_eigh(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _fail_dstedc(*args):
    args[10]._obj.value = 1  # info > 0: the tridiagonal solver did not converge


@pytest.mark.parametrize("solver", ["eigh", "dstedc"])
def test_non_converging_eigensolver_is_a_numerical_failure(tmp_path, capsys, monkeypatch,
                                                           solver):
    # eigh serves dimensions below the tridiagonal threshold, dstedc the rest
    if solver == "eigh":
        dim = 2
        monkeypatch.setattr(np.linalg, "eigh", _fail_eigh)
    else:
        if linalg._binding() is None:
            pytest.skip("numpy bundles no scipy-openblas LAPACK")
        dim = linalg.TRIDIAGONAL_MIN_DIM
        monkeypatch.setattr(linalg._binding(), "dstedc", _fail_dstedc)
    cfg = write_cfg(tmp_path, f"problem = rosenbrock\noptimizer = cgd_full\ndim = {dim}\n"
                              f"steps = 3\noutput_dir = {tmp_path}\n")
    assert cli.main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: full-metric eigendecomposition failed at step 1: ")
    assert "did not converge" in err
    assert "Traceback" not in err
    with pytest.raises(NumericalError) as caught:
        run_experiment(ExperimentConfig.from_file(cfg))
    assert caught.value.step == 1


def test_cli_compare(tmp_path, capsys):
    assert cli.main(["compare", "--suite", "rosenbrock", "--out",
                     str(tmp_path / "cmp"), "--steps", "3"]) == 0
    assert len(list((tmp_path / "cmp").glob("*.csv"))) == 6
    assert "cgd_full" in capsys.readouterr().out


def test_cli_compare_without_flags_runs_the_config_defaults(tmp_path, monkeypatch):
    # every run is cut to 2 steps after its config is recorded as compare built it
    built = []

    def short_run(cfg):
        built.append(cfg)
        return run_experiment(replace(cfg, steps=2))

    monkeypatch.setattr(harness, "run_experiment", short_run)
    assert cli.main(["compare", "--suite", "rosenbrock", "--out", str(tmp_path)]) == 0
    defaults = ExperimentConfig()
    assert len(built) == 6
    for cfg in built:
        assert (cfg.steps, cfg.seed, cfg.metric_update_interval) == (
            defaults.steps, defaults.seed, defaults.metric_update_interval)


@pytest.mark.parametrize("spelling", ["--metric_update_interval", "--metric-update-interval"])
def test_cli_compare_takes_the_run_override_grammar(tmp_path, monkeypatch, spelling):
    built = []

    def short_run(cfg):
        built.append(cfg)
        return run_experiment(replace(cfg, steps=2))

    monkeypatch.setattr(harness, "run_experiment", short_run)
    assert cli.main(["compare", "--suite", "rosenbrock", "--out", str(tmp_path), spelling, "2",
                     "--seed=3", "--tau1", "4"]) == 0
    assert [(cfg.metric_update_interval, cfg.seed, cfg.tau1) for cfg in built] == [(2, 3, 4.0)] * 6


@pytest.mark.parametrize("extras, message", [
    (["--ste", "3"], "unknown config key(s): ste"),  # no prefix matching
    (["--optimizer", "adam"], "optimizer: set by compare for each run"),
    (["--steps", "3", "--steps", "4"], "duplicate override --steps"),
    # compare's own arguments are no config keys, whatever they are called in Python
    (["--out-dir", "x"], "unknown config key(s): out_dir"),
    (["--out_dir=x"], "unknown config key(s): out_dir"),
    # a value that types but fails a later check still stops compare before any directory
    (["--metric-update-interval", "0"], "metric_update_interval: must be an integer >= 1, got 0"),
], ids=["abbreviation", "per-run-key", "duplicate", "out-dir", "out_dir", "late-check"])
def test_cli_compare_refuses_bad_overrides(tmp_path, capsys, extras, message):
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--suite", "rosenbrock", "--out", str(out), *extras]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_cli_override_values_keep_their_dashes(tmp_path):
    # only the key's dashes become underscores; "my-runs", "1e-3" and "-1"
    # reach the config as typed
    cfg = write_cfg(tmp_path, "steps = 2\n")
    out = tmp_path / "my-runs"
    assert cli.main(["run", "--config", cfg, f"--output-dir={out}", "--gamma=1e-3",
                     "--q0=-1,2"]) == 0
    assert (out / "rosenbrock_cgd_diagonal_seed0.csv").exists()
    assert not (tmp_path / "my_runs").exists()
    assert cli._parse_override_pairs(["--output-dir=a-b", "--gamma=1e-3", "--q0=-1,2"]) == {
        "output_dir": "a-b", "gamma": "1e-3", "q0": "-1,2"}


def test_cli_gradcheck(capsys):
    assert cli.main(["gradcheck", "--problem", "rosenbrock"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def _cli_child(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env):
    return subprocess.run([sys.executable, "-m", "cgd.cli", *args], env=_child_env(**env),
                          stdout=stdout, stderr=stderr, text=True)


_WRITE_ERRORS = {"closed-pipe": "[Errno 32]", "/dev/full": "[Errno 28]"}


@contextlib.contextmanager
def _unwritable(target):
    """A file every write to fails: a pipe whose read end is closed before the
    child starts, or /dev/full (skipped if absent)."""
    if target == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            yield write_end
        finally:
            os.close(write_end)
    else:
        if not os.path.exists(target):
            pytest.skip(f"no {target} on this system")
        with open(target, "w") as full:
            yield full


@pytest.mark.parametrize("target", list(_WRITE_ERRORS))
@pytest.mark.parametrize("command", ["run", "gradcheck"])
def test_cli_unwritable_stdout_is_a_config_error(tmp_path, target, command):
    # like an unwritable CSV: exit 2 and one stderr line, with no traceback and
    # no "Exception ignored" from the interpreter's last flush of stdout
    cfg = write_cfg(tmp_path, f"steps = 2\noutput_dir = {tmp_path}\n")
    args = (["run", "--config", cfg] if command == "run"
            else ["gradcheck", "--problem", "rosenbrock"])
    with _unwritable(target) as stdout:
        proc = _cli_child(args, stdout=stdout)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"config error: cannot write stdout: {_WRITE_ERRORS[target]}")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("target", list(_WRITE_ERRORS))
@pytest.mark.parametrize("failure, code", [("config", 2), ("numerical", 3)])
def test_cli_unwritable_stderr_keeps_the_exit_code(tmp_path, target, failure, code):
    # the report is lost, but the exit code still names the failure
    if failure == "config":
        cfg = str(tmp_path / "missing.cfg")
    else:  # the first gradient overflows, as in the non-finite full-metric test
        cfg = write_cfg(tmp_path, "problem = rosenbrock\noptimizer = cgd_full\n"
                                  f"q0 = 1e200,1e200\noutput_dir = {tmp_path}\n")
    with _unwritable(target) as stderr:
        proc = _cli_child(["run", "--config", cfg], stderr=stderr)
    assert proc.returncode == code
    assert proc.stdout == ""


def test_cli_stdout_escapes_what_it_cannot_encode(tmp_path):
    out = tmp_path / "runs-\u00e9"
    cfg = write_cfg(tmp_path, f"steps = 2\noutput_dir = {out}\n")
    proc = _cli_child(["run", "--config", cfg], PYTHONIOENCODING="ascii")
    assert proc.returncode == 0, proc.stderr
    csv = out / "rosenbrock_cgd_diagonal_seed0.csv"
    assert proc.stdout.splitlines()[-1] == f"wrote {tmp_path}{os.sep}runs-\\xe9{os.sep}{csv.name}"
    assert csv.stat().st_size > 0


# --- fuzzed configs ------------------------------------------------------------

_NAMED_FIELDS = {"problem": ["rosenbrock", "multiply"],
                 "optimizer": ["sgd", "adam", "adabelief", "cgd_diagonal", "cgd_full", "cgd-diag"],
                 "statistic": ["covariance", "second_moment"]}
_KNOWN_FIELDS = sorted({f.name for f in fields(ExperimentConfig)} - {"steps", "output_dir"})
# config-file text: no line breaks or other control characters, no comment mark
_JUNK = st.text(st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="#"),
                max_size=12)
# any text: NUL, line breaks and other control characters included
_RAW = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
# repr gives "nan", "inf" and "-inf" for the non-finite values
_FLOAT = (st.floats(0.0, 1.0) | st.floats()).map(repr)


_INT_FIELDS = {name for name, hint in get_type_hints(ExperimentConfig).items()
               if int in (hint, *get_args(hint))}


def _value(key):
    if key in _INT_FIELDS:
        # small magnitudes keep dimensions and batches small
        typed = st.integers(-3, 6).map(str)
    elif key == "q0":
        typed = st.lists(_FLOAT, min_size=1, max_size=3).map(",".join)
    elif key in _NAMED_FIELDS:
        typed = st.sampled_from(_NAMED_FIELDS[key])
    else:
        typed = _FLOAT
    # mostly well-typed values, so that many files pass validation and run
    return st.one_of(typed, typed, typed, _JUNK | _RAW)


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
@given(mapping=_configs(),
       # no "/" after "out", so every output directory stays inside the temporary one
       where=(st.sampled_from(["out", "a/b", "blocker/out", "blocker"])
              | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/"),
                        max_size=4).map("out{}".format)),
       # a byte that no UTF-8 text holds, spliced in at an offset into the file
       invalid=st.none() | st.tuples(st.integers(0, 200), st.sampled_from([0x80, 0xC0, 0xFF])))
@example(mapping={"steps": "2", "problem": "multiply", "optimizer": "adam", "seed": "-1"},
         where="out", invalid=None)
@example(mapping={"steps": "2"}, where="blocker/out", invalid=None)
@example(mapping={"steps": "2", "gamma": "inf"}, where="out", invalid=None)
@example(mapping={"steps": "2"}, where="out\x00dir", invalid=None)
@example(mapping={"steps": "2"}, where="out", invalid=(0, 0xFF))
@example(mapping={"\ufeffsteps": "2"}, where="out", invalid=None)  # a byte-order mark
def test_cli_run_exit_codes_under_fuzzed_configs(mapping, where, invalid):
    # every config file either runs (0), is refused (2) or fails numerically
    # (3); none may end in a traceback. "blocker" is a regular file.
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "blocker").write_text("")
        lines = [f"{key} = {value}" for key, value in mapping.items()]
        lines.append(f"output_dir = {base / where}")
        data = ("\n".join(lines) + "\n").encode("utf-8")
        if invalid is not None:
            offset, byte = invalid
            data = data[:offset] + bytes([byte]) + data[offset:]
        cfg = base / "run.cfg"
        cfg.write_bytes(data)
        assert cli.main(["run", "--config", str(cfg)]) in (0, 2, 3)
