import math
import numbers
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgd import cli
from cgd._args import choice, scalar
from cgd.harness import ConfigError, ExperimentConfig, track_eigenvalues
from cgd.moments import ema_update
from cgd.optimizer import CgdConfig, normalize_preset_name, preset
from cgd.problems import MultiplyProblem, RosenbrockProblem, finite_diff_grad, sample_batch


@pytest.mark.parametrize("call, message", [
    (lambda: scalar("gamma", "0.1", above=0), "gamma: must be a number, got '0.1'"),
    (lambda: scalar("gamma", True, above=0), "gamma: must be a number, got True"),
    (lambda: scalar("gamma", 0.0, above=0), "gamma: must be finite and > 0, got 0.0"),
    (lambda: scalar("gamma", 10**400, above=0), f"gamma: must be finite and > 0, got {10**400}"),
    (lambda: scalar("tau", -0.5, low=0), "tau: must be finite and >= 0, got -0.5"),
    (lambda: scalar("power", math.nan), "power: must be finite, got nan"),
    (lambda: scalar("k", 2.0, int, low=1), "k: must be an integer, got 2.0"),
    (lambda: scalar("k", 4, int, low=1, high=3), "k: must be in [1, 3], got 4"),
    (lambda: scalar("steps", 0, int, low=1), "steps: must be an integer >= 1, got 0"),
    (lambda: choice("shape", "banded", ("diagonal", "full")),
     "shape: expected one of ('diagonal', 'full'), got 'banded'"),
    (lambda: choice("shape", [], ("diagonal", "full")),
     "shape: expected one of ('diagonal', 'full'), got []"),
    (lambda: choice("optimizer", "adamw", ("adam",), noun="preset"),
     "optimizer: unknown preset 'adamw'; expected one of ('adam',)"),
    # a config file, an override and a config built in Python meet the same rule
    (lambda: ExperimentConfig.from_mapping({"steps": "2.5"}),
     "steps: must be an integer, got '2.5'"),
    (lambda: ExperimentConfig(steps=2.5), "steps: must be an integer, got 2.5"),
    (lambda: ExperimentConfig(gamma="fast"), "gamma: must be a number, got 'fast'"),
    (lambda: ExperimentConfig(gamma=math.inf), "gamma: must be finite and > 0, got inf"),
])
def test_each_refusal_names_the_argument_in_one_wording(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_an_override_on_the_command_line_is_refused_in_the_same_wording(tmp_path, capsys):
    assert cli.main(["compare", "--suite", "rosenbrock", "--out", str(tmp_path / "cmp"),
                     "--steps", "2.5"]) == 2
    assert capsys.readouterr().err == "config error: steps: must be an integer, got '2.5'\n"


@pytest.mark.parametrize("value", [math.inf, -1, 0.5, True, "fast", 10**400])
@pytest.mark.parametrize("name", ["gamma", "tau1", "tau2", "power", "eps",
                                  "metric_update_interval"])
def test_a_preset_number_reads_alike_in_experiment_config_and_cgd_config(name, value):
    outcomes = []
    for build in (lambda: CgdConfig(**{**_CONFIG, name: value}),
                  lambda: ExperimentConfig(**{name: value})):
        try:
            build()
            outcomes.append("accepted")
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_a_refusal_takes_the_error_class_given():
    with pytest.raises(ConfigError, match="^seed: "):
        scalar("seed", -1, int, low=0, error=ConfigError)
    with pytest.raises(ConfigError, match="^suite: "):
        choice("suite", "x", ("rosenbrock",), error=ConfigError)


def test_an_accepted_value_comes_back_typed():
    assert type(scalar("gamma", 1)) is float and scalar("gamma", np.float32(0.1)) == float(
        np.float32(0.1))
    assert scalar("gamma", Fraction(1, 4), above=0) == 0.25
    assert type(scalar("k", np.int64(2), int, low=1)) is int
    assert scalar("k", 3, int, low=1, high=3) == 3
    assert choice("shape", "full", ("diagonal", "full")) == "full"


# a valid value of every choice argument, and some near misses
_WORDS = ("diagonal", "full", "second_moment", "covariance", "adam", "CGD-Full", " sgd ",
          "rosenbrock", "multiply", "quartic", "")

# any object a caller might pass: numbers of every kind, strings, containers and None
_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.fractions(), st.decimals(),
    st.complex_numbers(), st.text(max_size=6), st.sampled_from(_WORDS), st.binary(max_size=3),
    st.lists(st.floats(), max_size=2), st.sets(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.builds(np.float64, st.floats()), st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.array, st.floats()),
)
# a row count past this would allocate the batch it asks for
_ROWS = 10**4
_SMALL = _ANY.filter(lambda v: not (isinstance(v, numbers.Integral) and v > _ROWS))


class _Flat:
    """A problem whose loss is zero everywhere, so any finite step is accepted quietly."""

    def loss(self, q, batch):
        return 0.0


_CONFIG = dict(gamma=0.1, tau1=1.0, tau2=2.0, shape="full", statistic="covariance", power=0.5)
_OVERRIDES = ("gamma", "tau1", "tau2", "power", "eps", "statistic", "metric_update_interval")
_ENTRY_POINTS = [
    *[(key, lambda v, key=key: CgdConfig(**{**_CONFIG, key: v}))
      for key in (*_CONFIG, "eps", "metric_update_interval")],
    *[(key, lambda v, key=key: preset("cgd_full", **{key: v})) for key in _OVERRIDES],
    ("optimizer", preset),
    ("optimizer", normalize_preset_name),
    ("context", lambda v: preset("adam", context=v)),
    ("tau", lambda v: ema_update(1.0, 2.0, v)),
    ("k", lambda v: track_eigenvalues(np.ones(3), v)),
    ("dim", RosenbrockProblem),
    ("batch_size", MultiplyProblem),
    ("batch_size", lambda v: sample_batch(0, v)),
    ("seed", lambda v: sample_batch(v, 2)),
    ("h", lambda v: finite_diff_grad(_Flat(), np.zeros(2), h=v)),
    # an ExperimentConfig field is refused with ConfigError, a ValueError
    *[(key, lambda v, key=key: ExperimentConfig(**{"optimizer": "cgd_full", key: v}))
      for key in ("problem", "optimizer", *_OVERRIDES, "steps", "seed", "dim", "eig_track_k",
                  "eig_track_interval", "output_dir")],
    ("batch_size", lambda v: ExperimentConfig(problem="multiply", batch_size=v)),
]


@pytest.mark.parametrize("name, call", _ENTRY_POINTS,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(_ENTRY_POINTS)])
@settings(max_examples=60, deadline=None)
@given(value=_SMALL)
def test_any_argument_is_accepted_or_refused_with_its_name(name, call, value):
    # never a TypeError or AttributeError from deeper in, whatever is passed
    try:
        call(value)
    except ValueError as exc:
        assert str(exc).startswith(f"{name}: "), exc
