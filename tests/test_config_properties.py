"""Property gate over every config key: no single value of any key ends a subcommand with a traceback.

``cli.main`` maps every failure it knows onto an exit code (2 config, 3 precondition, 4 numeric, 1 a failed
``--gated`` gate); an exception that escapes it exits 1 too, so a script could not tell a crash from a
failed gate.  Each example sets one key, over a tiny base config, to one value from an adversarial alphabet
or a small generated number or list.  ``oracle`` is left out: one of its runs costs 0.6-0.8 s whatever
the config.
"""

import contextlib
import io
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spdelab.cli import main
from spdelab.config import DEFAULT_CONFIG, OPTIONAL_CONFIG, ExperimentConfig, parse_config_text

SUBCOMMANDS = ("regime", "noise-check", "simulate", "holder", "uniqueness", "small-value", "yw")
KEYS = parse_config_text(DEFAULT_CONFIG).keys() | parse_config_text(OPTIONAL_CONFIG).keys()

# zero, negatives, non-finite, empty, non-numeric, extreme magnitudes and malformed lists
ALPHABET = ("0", "-1", "nan", "inf", "", "abc", "1e-300", "1e300", "3", "0.5", ",", "2,3", "-0.5")

# Generated numbers stay small, so that no example runs long: at most 40 bounds grid.n, run.replicas,
# noise.steps and yw.n, and |x| >= 1/4 keeps grid.l and grid.dt from multiplying the step count.
NUMBERS = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(0.25, 4.0).map(repr),
    st.floats(-4.0, -0.25).map(repr),
)
VALUES = st.one_of(st.sampled_from(ALPHABET), NUMBERS, st.lists(NUMBERS, min_size=1, max_size=4).map(",".join))

# n = 16, 2 replicas and 51 steps, set through --set alone: a flag would override the key under test
BASE = ("grid.n=16", "grid.t_end=0.1", "run.replicas=2", "run.out=out", "holder.snap_every=2",
        "holder.lags=1,2,4,8", "holder.tsteps=2,4,8,16", "noise.lags=1,2,4", "noise.steps=4",
        "smallvalue.lags=1,2,4,8", "smallvalue.eps_cells=1,2", "yw.n=1")


def run(command, *items):
    argv = [command]
    for item in (*BASE, *items):
        argv += ["--set", item]
    # a fresh working directory per run: run.out and u0.path are relative to it
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def keys_read():
    """The keys each subcommand reads on the base config, which it runs to exit 0.  One key is set at a
    time, so a key the base run never reads cannot change the run: examples draw only from these."""
    reads = {}
    for command in SUBCOMMANDS:
        with mock.patch.object(ExperimentConfig, "_parse", autospec=True, side_effect=ExperimentConfig._parse) as spy:
            assert run(command) == 0, command
        reads[command] = sorted({call.args[1] for call in spy.call_args_list})
        assert set(reads[command]) <= KEYS
    return reads


@settings(max_examples=600, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_no_config_value_escapes_main(keys_read, data):
    command = data.draw(st.sampled_from(SUBCOMMANDS), label="command")
    key = data.draw(st.sampled_from(keys_read[command]), label="key")
    value = data.draw(VALUES, label="value")
    assert run(command, f"{key}={value}") in (0, 1, 2, 3, 4)

