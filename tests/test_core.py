import contextlib
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import zvnav
from zvnav.cli import main
from zvnav.core import NoiseModel, Recording, validate_stream
from zvnav.detectors import shoe_log_lr, shoe_log_lr_trace
from zvnav.errors import StreamFormatError
from zvnav.ins import run_pipeline
from zvnav.threshold import ThresholdParams

from conftest import uniform_stream


def _stream(n, fs=250.0, seed=0):
    """A (t, accel, gyro) array triple."""
    return uniform_stream(np.random.default_rng(seed), n, fs)


class TestNoiseModel:
    def test_defaults(self):
        nm = NoiseModel(sigma_a=0.1, sigma_w=0.01)
        assert nm.gravity_mag == 9.81
        assert nm.sigma_zupt == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma_a=0.0, sigma_w=0.01),
            dict(sigma_a=0.1, sigma_w=-1.0),
            dict(sigma_a=0.1, sigma_w=0.01, gravity_mag=0.0),
            dict(sigma_a=0.1, sigma_w=0.01, sigma_zupt=0.0),
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            NoiseModel(**kwargs)


class TestSlidingWindows:
    """The causal stride-1 windows that a detector trace scores: entry k
    covers samples k-n+1 .. k, so m samples give m-n+1 windows and the
    first n-1 entries are NaN."""

    def test_exact_fit_single_window(self, noise):
        t, accel, gyro = _stream(5)
        trace = shoe_log_lr_trace(accel, gyro, 5, noise)
        assert np.isnan(trace[:4]).all()
        assert trace[4] == shoe_log_lr(accel, gyro, noise)

    def test_seven_samples_three_windows(self, noise):
        t, accel, gyro = _stream(7)
        trace = shoe_log_lr_trace(accel, gyro, 5, noise)
        assert np.flatnonzero(np.isfinite(trace)).tolist() == [4, 5, 6]

    def test_thousand_samples_at_250hz(self, noise):
        t, accel, gyro = _stream(1000, fs=250.0)
        scored = np.flatnonzero(np.isfinite(shoe_log_lr_trace(accel, gyro, 5, noise)))
        assert len(scored) == 996
        for k in (scored[0], scored[-1]):
            assert t[k] - t[k - 4] == pytest.approx(4 * 0.004, rel=1e-12)

    def test_count_invariant(self, noise):
        for n in range(1, 30, 7):
            t, accel, gyro = _stream(n)
            trace = shoe_log_lr_trace(accel, gyro, 5, noise)
            assert np.isfinite(trace).sum() == max(0, n - 5 + 1)

    def test_reconstruction_property(self, noise):
        # entry k is the statistic of the window of samples k-4 .. k alone
        t, accel, gyro = _stream(23)
        trace = shoe_log_lr_trace(accel, gyro, 5, noise)
        for k in range(4, 23):
            window = shoe_log_lr(accel[k - 4 : k + 1], gyro[k - 4 : k + 1], noise)
            assert trace[k] == pytest.approx(window, rel=1e-12)

    def test_short_stream_raises(self, noise):
        t, accel, gyro = _stream(4)
        assert np.isnan(shoe_log_lr_trace(accel, gyro, 5, noise)).all()
        for n in (0, 1):  # and the filter needs two samples
            with pytest.raises(StreamFormatError):
                run_pipeline(Recording("r0", *_stream(n)), "shoe", ThresholdParams(-10.0),
                             noise)

    def test_nonmonotone_raises(self, noise):
        t, accel, gyro = _stream(6)
        t[[3, 4]] = t[[4, 3]]
        with pytest.raises(StreamFormatError) as err:
            run_pipeline(Recording("r0", t, accel, gyro), "shoe", ThresholdParams(-10.0), noise)
        assert err.value.index == 4

    def test_bad_window_length(self, noise):
        t, accel, gyro = _stream(5)
        with pytest.raises(ValueError):
            shoe_log_lr_trace(accel, gyro, 0, noise)


class TestValidateStream:
    """The stream checks: Recording checks values and time order,
    validate_stream the sampling period; each names the first bad sample."""

    def test_uniform_stream_ok(self):
        validate_stream(Recording("r0", *_stream(100, fs=250.0)))

    def test_nan_component_flagged(self):
        t = np.arange(10) / 250.0
        accel = np.tile([0.0, 0.0, 9.81], (10, 1))
        gyro = np.zeros((10, 3))
        accel[4, 1] = np.nan
        with pytest.raises(StreamFormatError,
                           match="^recording r0: non-finite value at sample 4$") as err:
            Recording("r0", t, accel, gyro)
        assert err.value.index == 4

    def test_duplicate_timestamp_flagged(self):
        t = np.arange(10) / 250.0
        t[6] = t[5]
        accel = np.tile([0.0, 0.0, 9.81], (10, 1))
        gyro = np.zeros((10, 3))
        with pytest.raises(StreamFormatError,
                           match="^recording r0: non-increasing time at sample 6$") as err:
            Recording("r0", t, accel, gyro)
        assert err.value.index == 6

    def test_rate_gap_flagged(self):
        t = np.arange(20) / 250.0
        t[10:] += 0.05  # dropped packets
        accel = np.tile([0.0, 0.0, 9.81], (20, 1))
        gyro = np.zeros((20, 3))
        with pytest.raises(StreamFormatError, match="from median 0.004 s at sample 10$") as err:
            validate_stream(Recording("r0", t, accel, gyro))
        assert err.value.index == 10

    def test_empty_stream(self):
        with pytest.raises(StreamFormatError, match="^recording r0: empty stream$") as err:
            Recording("r0", *_stream(0))
        assert err.value.index is None


def test_readme_quickstart_runs():
    # the README's "Library quickstart" block runs as written, so a change
    # to the public names or signatures it uses fails here
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    closure, updates = out.getvalue().split()
    assert float(closure) == pytest.approx(0.0340, abs=5e-5)
    assert int(updates) == 2047


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # each `zvnav ...` line of the README's "Command line" block exits 0 when
    # the block runs in order in one directory, so a removed subcommand or
    # flag, or a line naming a file the block never writes, fails here
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("zvnav ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_package_exports_resolve():
    # every exported name exists, so no export outlives its definition
    assert len(set(zvnav.__all__)) == len(zvnav.__all__)
    for name in zvnav.__all__:
        getattr(zvnav, name)


class TestRecording:
    def test_basic(self):
        t, accel, gyro = _stream(10)
        rec = Recording("r0", t, accel, gyro, gait_tag="normal", loop_length_m=84.0)
        assert len(rec) == 10

    def test_rejects_mismatched_labels(self):
        t, accel, gyro = _stream(10)
        with pytest.raises(ValueError):
            Recording("r0", t, accel, gyro, stationary=np.zeros(9, dtype=bool))

    def test_rejects_nonmonotone_time(self):
        t, accel, gyro = _stream(10)
        t[5] = t[4]
        with pytest.raises(ValueError):
            Recording("r0", t, accel, gyro)

    @pytest.mark.parametrize("field, row", [("t", 3), ("accel", 7), ("gyro", 2)])
    def test_nonfinite_value_names_its_sample(self, field, row):
        stream = dict(zip(("t", "accel", "gyro"), _stream(10)))
        stream[field][row] = np.inf
        stream["gyro"][8, 1] = np.nan  # a later bad sample is not the one named
        with pytest.raises(StreamFormatError,
                           match=f"^recording r0: non-finite value at sample {row}$") as err:
            Recording("r0", **stream)
        assert err.value.index == row
