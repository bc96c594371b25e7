"""Golden bytes: every file and stdout text the CLI writes for a seeded
20 s walk, pinned as sha256 digests.

A change to how any output is formatted, or to any number in it, shows up
here as a digest mismatch. Like the other sha256 pins, the digests hold
for the numpy build they were recorded with; float results may differ in
the last bit elsewhere.
"""

import contextlib
import hashlib
import io

import pytest

from zvnav.cli import main

GOLDEN = {
    "simulate.csv":
        "103f9135fd7924811d1d5889b7221f02a79b8ab749a31fb16a71c7c024c4c694",
    "simulate.labels.csv":
        "b8f428dce2959360550e4bd8343f4c55979f6c5f69c9ad35a42c27d6229b2854",
    "simulate.meta":
        "0d55bb664df9df39e3905ab42b819eab680a49c945564b412c670c69bb420582",
    "calibrate.uninformative":
        "c86a301bb9117489829b781ab4c1d20a5f4bab29dc9341cd27bb4f1fef5a50ed",
    "calibrate.informative":
        "80e1087b0ca2515fc3aff12707119244c56512644d721aec6885bba02745001f",
    "run.report":
        "203eecfa9431418c91f9403d364c8b5491ef631742f077d714ccb58e75c9ed72",
    "run.trace":
        "a18814bd965ed32cfcf3e4c1fbb14ad0b58caad663a0361fa77084107254a32a",
    "sweep":
        "9249e2b0a78887f481d47710a2843a5a842378342ac216b682c4a4b77d055a85",
    "print-config":
        "2f97c64f7086880dd97119e45cebc67ba124bd5dc13990b2dcf738a2aba03574",
    "concat.report":
        "4716d90cae87e46922409ceb44cf8d8bdeec9e8ee065565623c9e86bdb4ce61a",
    "concat.trace":
        "e7ffc9d551b7dab257e6cda4aa6fbdf9bcb153b46463a013b1a661e7bc1b56e4",
}


def _stdout(args) -> bytes:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert main(args) == 0
    return sink.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    walk = str(root / "walk")
    csv, labels, fit = walk + ".csv", walk + ".labels.csv", str(root / "fit.cfg")
    _stdout(["simulate", "--gait", "normal", "--duration", "20", "--seed", "7",
             "--out", walk])
    out = {
        "simulate.csv": (root / "walk.csv").read_bytes(),
        "simulate.labels.csv": (root / "walk.labels.csv").read_bytes(),
        "simulate.meta": (root / "walk.meta").read_bytes(),
        "calibrate.uninformative": _stdout(["calibrate", csv, "--labels", labels]),
    }
    assert main(["calibrate", csv, "--labels", labels, "--prior", "informative",
                 "--out", fit]) == 0
    out["calibrate.informative"] = (root / "fit.cfg").read_bytes()
    assert main(["run", csv, "--config", fit, "--report", str(root / "run.report"),
                 "--trace", str(root / "run.tsv")]) == 0
    out["run.report"] = (root / "run.report").read_bytes()
    out["run.trace"] = (root / "run.tsv").read_bytes()
    out["sweep"] = _stdout(["sweep", csv, "--config", fit, "--grid=-20,-200,-2000"])
    out["print-config"] = _stdout(["run", csv, "--config", fit, "--print-config",
                                   "--detector", "are", "--window-samples", "7",
                                   "--accel-psd", "0.01", "--gyro-psd", "1e-3"])
    assert main(["concat", csv, csv, "--report", str(root / "concat.report"),
                 "--trace", str(root / "concat.tsv")]) == 0
    out["concat.report"] = (root / "concat.report").read_bytes()
    out["concat.trace"] = (root / "concat.tsv").read_bytes()
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_bytes_are_pinned(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN[name]
