"""Command-line harness: ingest, reports, sweep, joined runs, calibrate, exit codes."""

import contextlib
import dataclasses
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zvnav.cli import (
    MAX_GRID_POINTS,
    STANDARD_GRAVITY,
    attach_labels,
    build_parser,
    cmd_calibrate,
    cmd_run,
    cmd_simulate,
    cmd_sweep,
    concat_recordings,
    format_calibration,
    format_report,
    format_sweep_table,
    format_trace,
    ingest_csv,
    ingest_labels,
    main,
    parse_report,
    read_meta,
    write_labels_csv,
    write_recording_csv,
    write_meta,
    _rmse,
)
from zvnav.config import (
    SCHEMA,
    default_config,
    format_config,
    load_config,
    merge_config,
    parse_config_text,
)
from zvnav.core import NoiseModel, Recording
from zvnav.detectors import shoe_log_lr, shoe_log_lr_trace
from zvnav.errors import CalibrationDataError, ConfigError, InputFormatError, NumericalError
from zvnav.gaitsim import extract_calibration_sets, normal_profile, simulate
from zvnav.threshold import calibrate


NM = NoiseModel(sigma_a=0.2, sigma_w=0.02)


@pytest.fixture(scope="module")
def walk_rec():
    lab = simulate(normal_profile(NM, seed=41), 12.0)
    return lab.to_recording("walk-41", "normal")


@pytest.fixture(scope="module")
def still_rec():
    profile = dataclasses.replace(
        normal_profile(NM, seed=9), speed=0.0, step_length=0.0
    )
    return simulate(profile, 6.0).to_recording("still-9", "still")


@pytest.fixture()
def walk_files(walk_rec, tmp_path):
    csv = tmp_path / "walk-41.csv"
    labels = tmp_path / "walk-41.labels.csv"
    write_recording_csv(str(csv), walk_rec)
    write_labels_csv(str(labels), walk_rec.t, walk_rec.stationary)
    write_meta(str(tmp_path / "walk-41.meta"), walk_rec)
    return csv, labels


class TestCsvIngest:
    def test_write_read_round_trip_is_exact(self, walk_rec, tmp_path):
        path = tmp_path / "rt.csv"
        write_recording_csv(str(path), walk_rec)
        back = ingest_csv(str(path))
        assert np.array_equal(back.t, walk_rec.t)
        assert np.array_equal(back.accel, walk_rec.accel)
        assert np.array_equal(back.gyro, walk_rec.gyro)
        assert back.id == "rt"

    def test_three_rows_give_three_samples(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n"
            "0.0,0,0,9.81,0,0,0\n"
            "0.004,0,0,9.81,0,0,0\n"
            "0.008,0,0,9.81,0,0,0\n"
        )
        assert len(ingest_csv(str(path))) == 3

    def test_malformed_field_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n0.0,0,0,9.81,0,0,0\n0.004,0,oops,9.81,0,0,0\n"
        )
        with pytest.raises(InputFormatError, match="row 2.*'oops'"):
            ingest_csv(str(path))

    def test_wrong_field_count_names_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t,ax,ay,az,gx,gy,gz\n0.0,0,0,9.81,0,0\n")
        with pytest.raises(InputFormatError, match="row 1.*got 6"):
            ingest_csv(str(path))

    def test_shuffled_timestamps_name_first_offender(self, tmp_path):
        path = tmp_path / "shuf.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n"
            "0.0,0,0,9.81,0,0,0\n"
            "0.008,0,0,9.81,0,0,0\n"
            "0.004,0,0,9.81,0,0,0\n"
            "0.012,0,0,9.81,0,0,0\n"
        )
        with pytest.raises(InputFormatError, match="row 3: timestamp 0.004"):
            ingest_csv(str(path))

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("time,ax,ay,az,gx,gy,gz\n0.0,0,0,9.81,0,0,0\n")
        with pytest.raises(InputFormatError, match="column 1"):
            ingest_csv(str(path))

    def test_empty_and_headerless_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(InputFormatError, match="empty"):
            ingest_csv(str(empty))
        headless = tmp_path / "nodata.csv"
        headless.write_text("t,ax,ay,az,gx,gy,gz\n")
        with pytest.raises(InputFormatError, match="no data rows"):
            ingest_csv(str(headless))

    def test_deg_flag_converts_gyro(self, tmp_path):
        path = tmp_path / "deg.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n0.0,0,0,9.81,90,0,0\n0.004,0,0,9.81,90,0,0\n"
        )
        rec = ingest_csv(str(path), gyro_unit="deg")
        assert rec.gyro[0, 0] == pytest.approx(math.pi / 2, rel=1e-12)
        si = ingest_csv(str(path))
        assert si.gyro[0, 0] == 90.0

    def test_g_flag_converts_accel(self, tmp_path):
        path = tmp_path / "gee.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n0.0,0,0,1.0,0,0,0\n0.004,0,0,1.0,0,0,0\n"
        )
        rec = ingest_csv(str(path), accel_unit="g")
        assert rec.accel[0, 2] == STANDARD_GRAVITY

    def test_header_annotation_sets_units(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text(
            "t,ax,ay,az(g),gx_deg,gy[deg/s],gz (deg/s)\n"
            "0.0,0,0,1.0,90,0,0\n0.004,0,0,1.0,90,0,0\n"
        )
        rec = ingest_csv(str(path))
        assert rec.accel[0, 2] == STANDARD_GRAVITY
        assert rec.gyro[0, 0] == pytest.approx(math.pi / 2, rel=1e-12)

    def test_annotation_conflicting_with_flag_rejected(self, tmp_path):
        path = tmp_path / "conf.csv"
        path.write_text("t,ax,ay,az,gx_deg,gy,gz\n0.0,0,0,9.81,0,0,0\n")
        with pytest.raises(InputFormatError, match="deg but --gyro-unit=rad"):
            ingest_csv(str(path), gyro_unit="rad")

    def test_mixed_annotations_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("t,ax,ay,az,gx_deg,gy_rad,gz\n0.0,0,0,9.81,0,0,0\n")
        with pytest.raises(InputFormatError, match="conflicting gyro unit"):
            ingest_csv(str(path))

    def test_unreadable_annotation_needs_flag(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("t,ax,ay,az,gx[furlong],gy,gz\n0.0,0,0,9.81,0,0,0\n")
        with pytest.raises(InputFormatError, match="pass --gyro-unit"):
            ingest_csv(str(path))
        rec = ingest_csv(str(path), gyro_unit="rad")
        assert len(rec) == 1


    def test_byte_order_mark_header_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufefft,ax,ay,az,gx,gy,gz\n0.0,0,0,9.81,0,0,0\n", encoding="utf-8")
        assert len(ingest_csv(str(path))) == 1

    def test_trailing_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "tail.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n0.0,0,0,9.81,0,0,0\n0.004,0,0,9.81,0,0,0\n\n \n\n"
        )
        assert len(ingest_csv(str(path))) == 2

    def test_interior_blank_row_names_row(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "t,ax,ay,az,gx,gy,gz\n0.0,0,0,9.81,0,0,0\n\n0.008,0,0,9.81,0,0,0\n"
        )
        with pytest.raises(InputFormatError, match="row 2: expected 7 fields, got 1"):
            ingest_csv(str(path))


_CSV_HEADERS = ("t,ax,ay,az,gx,gy,gz\n", "t,stationary\n", "\ufefft,stationary\n")
_ARBITRARY_TEXT = st.one_of(
    st.text(),
    st.tuples(
        st.sampled_from(_CSV_HEADERS),
        st.text(alphabet="0123456789.,-+eEnaif \t\r\n\ufeff"),
    ).map("".join),
)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("arbitrary") / "input.csv"


@pytest.mark.parametrize("parse", [ingest_csv, ingest_labels])
@given(text=_ARBITRARY_TEXT)
@settings(max_examples=200, deadline=None)
def test_arbitrary_text_parses_or_raises_input_error(parse, input_file, text):
    input_file.write_text(text, encoding="utf-8")
    try:
        parse(str(input_file))
    except InputFormatError:
        pass


_BAD_FIELDS = ("", " ", "x", "nan", "-inf", "1e999", "0x1p3", "1_0", " 2 ", "1.0", "00",
               "+1", "\u00a01", "1\x1c")


@st.composite
def _csv_text(draw, width):
    """A table of `width` columns: increasing times, finite values, and now
    and then a bad field, a wrong field count, a blank or a repeated row."""
    n = draw(st.integers(0, 6))
    values = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = []
    for r in range(n):
        fields = [repr(0.004 * r)]
        if width == 2:
            fields.append(draw(st.sampled_from(["0", "1"])))
        else:
            fields += [draw(values) for _ in range(width - 1)]
        if draw(st.integers(0, 4)) == 0:
            fields[draw(st.integers(0, width - 1))] = draw(st.sampled_from(_BAD_FIELDS))
        rows.append(",".join(fields))
    if rows and draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(i, draw(st.sampled_from(["", rows[i], rows[i] + ",0", "0"])))
    header = "t,ax,ay,az,gx,gy,gz" if width == 7 else "t,stationary"
    return "\n".join([header, *rows]) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _ingest_outcome(parse, path):
    """The arrays a parse returns, as bytes, or the message it raises."""
    try:
        out = parse(path)
    except InputFormatError as exc:
        return str(exc)
    if isinstance(out, Recording):
        out = (out.t, out.accel, out.gyro)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in out]


@pytest.mark.parametrize("parse, width", [(ingest_csv, 7), (ingest_labels, 2)])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fast_ingest_matches_row_by_row(parse, width, input_file, data):
    """The streaming parse returns the arrays of the row-by-row parser bit
    for bit, or the same row-numbered error."""
    text = data.draw(st.one_of(_csv_text(width), _ARBITRARY_TEXT))
    input_file.write_text(text, encoding="utf-8")
    fast = _ingest_outcome(parse, str(input_file))
    with mock.patch("zvnav.cli._fast_rows", return_value=None):
        slow = _ingest_outcome(parse, str(input_file))
    assert fast == slow


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Tiny inputs for the exit-code property: a 2 s slice of a walk with
    labels and meta, the same walk at one sample per 5.5e306 s (where a
    sigma of 6 has no finite process-noise density), malformed, undecodable
    and missing files, and a directory where an output file would go."""
    root = tmp_path_factory.mktemp("argv")
    lab = simulate(normal_profile(NM, seed=43), 4.5)
    n = 500
    rec = dataclasses.replace(
        lab.to_recording("good", "normal"),
        t=lab.t[:n], accel=lab.accel[:n], gyro=lab.gyro[:n], stationary=lab.stationary[:n],
    )
    write_recording_csv(str(root / "good.csv"), rec)
    write_labels_csv(str(root / "good.labels.csv"), rec.t, rec.stationary)
    write_meta(str(root / "good.meta"), rec)
    write_recording_csv(str(root / "slow.csv"), dataclasses.replace(
        rec, t=np.arange(30) * 5.5e306, accel=rec.accel[:30], gyro=rec.gyro[:30],
        stationary=None))
    write_recording_csv(str(root / "badmeta.csv"), rec)
    (root / "badmeta.meta").write_bytes(b"\xff\xfeloop_length_m=x\n")
    (root / "bad.csv").write_text("t,ax\n1,2\n", encoding="utf-8")
    (root / "binary.bin").write_bytes(b"\x00\xff\xfe\x80garbage")
    (root / "good.cfg").write_text("c1=-50\nthreshold_mode=fixed\n", encoding="utf-8")
    (root / "bad.cfg").write_text("c1=abc\n", encoding="utf-8")
    (root / "outdir").mkdir()
    return root


_ARGV_FILES = ("good.csv", "good.labels.csv", "slow.csv", "badmeta.csv", "bad.csv",
               "binary.bin", "good.cfg", "bad.cfg", "missing.csv", "outdir", "out.txt")
_NUMBERS = ("0", "-1", "0.5", "6", "-50", "1e308", "-1e308", "nan", "inf", "abc")
_ARGV_OPTION = st.one_of(
    st.tuples(st.sampled_from(["--labels", "--config", "--report", "--trace", "--out"]),
              st.sampled_from(_ARGV_FILES)),
    st.tuples(st.sampled_from(["--c1", "--c2", "--c3", "--log-gamma", "--epsilon", "--dtau",
                               "--sigma-a", "--sigma-w", "--gravity-mag", "--sigma-zupt",
                               "--accel-psd", "--gyro-psd", "--noise-scale", "--duration"]),
              st.sampled_from(_NUMBERS)),
    st.tuples(st.sampled_from(["--window-samples", "--seed"]),
              st.sampled_from(["0", "-1", "1", "5", "1000000000", "x"])),
    st.tuples(st.just("--grid"), st.sampled_from(["-20,-200", ",", "nan", "x", "-1e308"])),
    st.tuples(st.sampled_from(["--detector", "--prior", "--threshold-mode", "--gait", "--path",
                               "--gyro-unit", "--accel-unit"]),
              st.sampled_from(["shoe", "are", "informative", "fixed", "fast", "straight",
                               "deg", "g", "x"])),
    st.sampled_from([("--print-config",), ("--help",), ("--bogus",)]),
)
_ARGV = st.tuples(
    st.sampled_from(["run", "sweep", "calibrate", "simulate", "bogus"]),
    st.lists(st.sampled_from(_ARGV_FILES), max_size=2),
    st.lists(_ARGV_OPTION, max_size=3),
)


@given(argv=_ARGV)
@settings(max_examples=60, deadline=None)
def test_main_exit_code_is_documented(argv_files, argv):
    """Whatever the argv, main() returns 0, 2, 3 or 4 (an argparse exit
    counts as its code) and never raises. The only warnings it emits are
    the documented UserWarnings: a sweep recording without a loop length,
    and a config with c2 > 0."""
    command, operands, options = argv
    args = [command] + [str(argv_files / name) for name in operands]
    for option in options:
        args.append(option[0])
        if len(option) > 1:
            value = option[1]
            args.append(str(argv_files / value) if value in _ARGV_FILES else value)
    if command == "simulate" and "--out" not in args:
        args += ["--out", str(argv_files / "sim")]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (args, sink.getvalue()[-500:])
    for w in caught:
        assert w.category is UserWarning, (args, w)
        assert ("declares no loop_length_m" in str(w.message)
                or str(w.message).startswith("c2 > 0")), (args, w)


def _schema_value(kind):
    if kind.startswith("choice:"):
        return st.sampled_from(kind.split(":", 1)[1].split(","))
    if kind == "int":
        return st.integers()
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.none() | finite if kind == "float?" else finite


_CONFIGS = st.fixed_dictionaries({key: _schema_value(kind) for key, (kind, _) in SCHEMA.items()})
# text a key=value line carries unchanged: no line breaks, no outer whitespace
_VALUE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                      min_size=1).map(str.strip).filter(bool)


@given(cfg=_CONFIGS)
@settings(max_examples=100, deadline=None)
def test_config_text_round_trips(cfg):
    text = format_config(cfg)
    assert parse_config_text(text) == cfg
    assert format_config(parse_config_text(text)) == text


@given(rec_id=_VALUE_TEXT, gait_tag=st.none() | _VALUE_TEXT,
       loop_length_m=st.none() | st.floats(min_value=0.0, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_meta_round_trips(input_file, rec_id, gait_tag, loop_length_m):
    rec = Recording(id=rec_id, t=np.zeros(1), accel=np.zeros((1, 3)), gyro=np.zeros((1, 3)),
                    gait_tag=gait_tag, loop_length_m=loop_length_m)
    path = str(input_file.with_suffix(".meta"))
    write_meta(path, rec)
    written = {"id": rec_id, "gait_tag": gait_tag, "loop_length_m": loop_length_m}
    assert read_meta(path) == {k: v for k, v in written.items() if v is not None}


class TestLabels:
    def test_labels_round_trip(self, walk_rec, tmp_path):
        csv = tmp_path / "w.csv"
        labels = tmp_path / "w.labels.csv"
        write_recording_csv(str(csv), walk_rec)
        write_labels_csv(str(labels), walk_rec.t, walk_rec.stationary)
        rec = attach_labels(ingest_csv(str(csv)), *ingest_labels(str(labels)))
        assert np.array_equal(rec.stationary, walk_rec.stationary)

    def test_row_by_row_parse_matches_streaming_on_a_walk(self, walk_rec, tmp_path):
        labels = tmp_path / "w.labels.csv"
        write_labels_csv(str(labels), walk_rec.t, walk_rec.stationary)
        times, flags = ingest_labels(str(labels))
        with mock.patch("zvnav.cli._fast_rows", return_value=None):
            slow_times, slow_flags = ingest_labels(str(labels))
        assert np.array_equal(times, slow_times) and np.array_equal(times, walk_rec.t)
        assert np.array_equal(flags, slow_flags) and np.array_equal(flags, walk_rec.stationary)

    def test_length_mismatch_rejected(self, walk_rec, tmp_path):
        labels = tmp_path / "short.labels.csv"
        write_labels_csv(str(labels), walk_rec.t[:-1], walk_rec.stationary[:-1])
        csv = tmp_path / "w.csv"
        write_recording_csv(str(csv), walk_rec)
        with pytest.raises(InputFormatError, match="carry 3000 rows"):
            attach_labels(ingest_csv(str(csv)), *ingest_labels(str(labels)))

    def test_time_base_mismatch_rejected(self, walk_rec, tmp_path):
        labels = tmp_path / "off.labels.csv"
        write_labels_csv(str(labels), walk_rec.t + 0.002, walk_rec.stationary)
        csv = tmp_path / "w.csv"
        write_recording_csv(str(csv), walk_rec)
        with pytest.raises(InputFormatError, match="labels row 1"):
            attach_labels(ingest_csv(str(csv)), *ingest_labels(str(labels)))

    def test_nonbinary_label_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("t,stationary\n0.0,1\n0.004,2\n")
        with pytest.raises(InputFormatError, match="row 2.*0 or 1"):
            ingest_labels(str(path))

    def test_nonfinite_time_names_row(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("\ufefft,stationary\n0.0,1\nnan,0\n\n")
        with pytest.raises(InputFormatError, match="row 2: non-finite value 'nan'"):
            ingest_labels(str(path))

    def test_nan_time_is_a_mismatch(self, walk_rec):
        times = walk_rec.t.copy()
        times[7] = np.nan
        with pytest.raises(InputFormatError, match="labels row 8"):
            attach_labels(walk_rec, times, walk_rec.stationary)


class TestConfig:
    def test_defaults_cover_schema(self):
        cfg = default_config()
        assert cfg["detector"] == "shoe"
        assert cfg["threshold_mode"] == "adaptive"
        assert cfg["epsilon"] == 0.05

    def test_parse_skips_comments_and_blanks(self):
        cfg = parse_config_text("# c\n\nc1=-30\n detector = are \n")
        assert cfg == {"c1": -30.0, "detector": "are"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("volume=11\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config_text("c1=loud\n")
        with pytest.raises(ConfigError, match="not one of"):
            parse_config_text("detector=magic\n")

    def test_merge_precedence(self):
        cfg = merge_config({"c1": -30.0, "c2": -10.0}, {"c1": -40.0})
        assert cfg["c1"] == -40.0
        assert cfg["c2"] == -10.0
        assert cfg["c3"] == 0.0

    def test_format_parse_round_trip(self):
        cfg = merge_config({"c1": -123.456, "detector": "are"})
        again = merge_config(parse_config_text(format_config(cfg)))
        assert again == cfg

    @pytest.mark.parametrize("command", ["run", "sweep", "calibrate", "simulate"])
    def test_schema_keys_are_flags(self, command):
        """Each SCHEMA key is the flag --key-with-dashes, parsed to dest key
        with the key's type or choices; nothing else sets a config key."""
        operands = {"run": ["x.csv"], "sweep": ["x.csv"], "calibrate": ["x.csv", "--labels",
                    "y.csv"], "simulate": ["--out", "p"]}[command]
        parser = build_parser()
        defaults = vars(parser.parse_args([command] + operands))
        assert all(defaults[key] is None for key in SCHEMA)
        for key, (kind, _) in SCHEMA.items():
            flag = "--" + key.replace("_", "-")
            if kind.startswith("choice:"):
                values = kind.split(":", 1)[1].split(",")
                for value in values:
                    assert getattr(parser.parse_args([command, *operands, flag, value]),
                                   key) == value
                with pytest.raises(SystemExit) as exc, \
                        contextlib.redirect_stderr(io.StringIO()):
                    parser.parse_args([command, *operands, flag, "bogus"])
                assert exc.value.code == 3
            else:
                parsed = getattr(parser.parse_args([command, *operands, flag, "7"]), key)
                assert parsed == 7 and type(parsed) is (int if kind == "int" else float)

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("sigma_a=0.5\n")
        assert load_config(str(path)) == {"sigma_a": 0.5}
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.cfg"))


class TestRunAndReport:
    def test_stationary_recording_closes_loop(self, still_rec):
        report = cmd_run(still_rec, default_config())
        assert report.loop_closure_error_m < 0.05
        assert report.zupt_count > 0.9 * len(still_rec)

    def test_report_round_trips(self, walk_rec):
        report = cmd_run(walk_rec, default_config())
        text = format_report(report)
        parsed = parse_report(text)
        assert parsed["recording_id"] == "walk-41"
        assert parsed["loop_closure_error_m"] == report.loop_closure_error_m
        assert parsed["n_samples"] == len(walk_rec)
        assert parsed["zupt_count"] == report.zupt_count
        assert parsed["params.c1"] == report.params_used["c1"]
        assert parsed["final_position_m"] == tuple(report.trajectory[-1])

    def test_parse_rejects_foreign_text(self):
        with pytest.raises(InputFormatError, match="not a zvnav-report"):
            parse_report("hello=world\n")

    def test_parse_names_line_of_malformed_value(self, walk_rec):
        lines = format_report(cmd_run(walk_rec, default_config())).splitlines()
        assert lines[5].startswith("final_position_m=")
        lines[5] = "final_position_m=1,x"
        with pytest.raises(InputFormatError, match="report:6: final_position_m .*'1,x'"):
            parse_report("\n".join(lines))
        with pytest.raises(InputFormatError, match="report:2: expected key=value"):
            parse_report("format=zvnav-report-v1\nfinal_position_m\n")
        with pytest.raises(InputFormatError, match="report:2: zupt_count is not a number: 'x'"):
            parse_report("format=zvnav-report-v1\nzupt_count=x\n")

    def test_runs_are_deterministic(self, walk_rec):
        cfg = default_config()
        a = format_report(cmd_run(walk_rec, cfg))
        b = format_report(cmd_run(walk_rec, cfg))
        assert a == b

    def test_fixed_mode_matches_degenerate_adaptive(self, walk_rec):
        adaptive = merge_config({"c1": -35.0, "c2": 0.0, "c3": 0.0})
        fixed = merge_config({"threshold_mode": "fixed", "log_gamma": -35.0})
        ra = cmd_run(walk_rec, adaptive)
        rf = cmd_run(walk_rec, fixed)
        assert np.array_equal(ra.decisions, rf.decisions)
        assert ra.loop_closure_error_m == rf.loop_closure_error_m

    def test_fixed_mode_survives_underflowing_gamma(self, still_rec):
        # gamma = exp(-900) is not representable; the log-domain compare is
        report = cmd_run(
            still_rec, merge_config({"threshold_mode": "fixed", "log_gamma": -900.0})
        )
        assert report.zupt_count > 0

    def test_trace_table_shape(self, still_rec):
        cfg = default_config()
        report = cmd_run(still_rec, cfg)
        lines = format_trace(report, still_rec.t).splitlines()
        assert lines[0].split("\t") == [
            "t", "logl", "log_gamma", "decision", "px", "py", "pz",
        ]
        assert len(lines) == len(still_rec) + 1
        warm = lines[1].split("\t")
        assert warm[1] == "nan" and warm[2] == "nan"
        first_full = lines[cfg["window_samples"]].split("\t")
        assert first_full[1] != "nan"

    def test_writers_match_per_element_formatting(self, walk_rec, tmp_path):
        """The one-pass writers give the bytes of the per-element repr
        formatting they replaced, NaN warm-up rows and signed zeros included."""
        def fmt(x):
            return repr(float(x))

        rec = dataclasses.replace(walk_rec, accel=walk_rec.accel.copy())
        rec.accel[len(rec) // 2] = [-0.0, 5e-324, 12.5]
        report = cmd_run(rec, default_config())
        expected = ["t\tlogl\tlog_gamma\tdecision\tpx\tpy\tpz"]
        for k in range(len(rec)):
            expected.append("\t".join([
                fmt(rec.t[k]), fmt(report.logl_trace[k]), fmt(report.log_gamma_trace[k]),
                str(int(report.decisions[k])), *(fmt(x) for x in report.trajectory[k]),
            ]))
        trace = format_trace(report, rec.t)
        assert trace == "\n".join(expected) + "\n"
        assert trace.splitlines()[1].split("\t")[1:3] == ["nan", "nan"]

        write_recording_csv(str(tmp_path / "r.csv"), rec)
        expected = ["t,ax,ay,az,gx,gy,gz"]
        for i in range(len(rec)):
            expected.append(",".join(fmt(x) for x in [rec.t[i], *rec.accel[i], *rec.gyro[i]]))
        assert (tmp_path / "r.csv").read_bytes() == ("\n".join(expected) + "\n").encode()

        write_labels_csv(str(tmp_path / "l.csv"), rec.t, rec.stationary)
        expected = ["t,stationary"]
        expected += [f"{fmt(ti)},{1 if si else 0}" for ti, si in zip(rec.t, rec.stationary)]
        assert (tmp_path / "l.csv").read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_bad_window_rejected(self, still_rec):
        with pytest.raises(ConfigError, match="window_samples"):
            cmd_run(still_rec, merge_config({"window_samples": 0}))


class TestSweep:
    def test_row_count_and_columns(self, walk_rec, still_rec):
        rows = cmd_sweep([walk_rec, still_rec], default_config(), [-20.0, -200.0])
        subsets = {r["subset"] for r in rows}
        assert subsets == {"normal", "still", "all"}
        for subset in subsets:
            sub = [r for r in rows if r["subset"] == subset]
            assert len(sub) == 3  # grid + adaptive
            assert [r["threshold_mode"] for r in sub] == ["fixed", "fixed", "adaptive"]
        table = format_sweep_table(rows)
        assert table.splitlines()[0] == "threshold_mode\tc1\tsubset\trmse_m\tn_recordings"
        assert len(table.splitlines()) == len(rows) + 1

    def test_recording_without_loop_length_excluded_with_warning(self, walk_rec):
        bare = dataclasses.replace(walk_rec, id="bare", loop_length_m=None)
        with pytest.warns(UserWarning, match="bare.*excluded"):
            rows = cmd_sweep([walk_rec, bare], default_config(), [-20.0])
        for row in rows:
            assert row["n_recordings"] == 1

    def test_single_recording_single_point_grid(self, walk_rec):
        bare = dataclasses.replace(walk_rec, gait_tag=None)
        rows = cmd_sweep([bare], default_config(), [-50.0])
        assert [(r["threshold_mode"], r["subset"]) for r in rows] == [
            ("fixed", "all"),
            ("adaptive", "all"),
        ]

    def test_rmse_of_zero_errors_is_zero(self):
        assert _rmse([0.0, 0.0, 0.0]) == 0.0
        assert _rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
        assert math.isnan(_rmse([]))

    def test_grid_points_above_maximum_exit_3(self, walk_files, capsys):
        csv, _ = walk_files
        grid = ",".join(["-20"] * (MAX_GRID_POINTS + 1))
        assert main(["sweep", str(csv), f"--grid={grid}"]) == 3
        assert f"--grid has at most {MAX_GRID_POINTS} values" in capsys.readouterr().err

    def test_nonfinite_grid_endpoint_exits_3(self, walk_files, capsys):
        csv, _ = walk_files
        for value in ("nan", "-inf"):
            assert main(["sweep", str(csv), f"--grid=-20,{value}"]) == 3
            assert f"c1 must be finite, got {float(value)}" in capsys.readouterr().err

    def test_stream_errors_name_their_recording(self, walk_rec, walk_files, tmp_path, capsys):
        csv, _ = walk_files
        t = walk_rec.t.copy()
        t[800:] += 0.05  # dropped packets
        gap, one = tmp_path / "gap.csv", tmp_path / "one.csv"
        write_recording_csv(str(gap), dataclasses.replace(walk_rec, t=t))
        write_recording_csv(str(one), dataclasses.replace(
            walk_rec, t=t[:1], accel=walk_rec.accel[:1], gyro=walk_rec.gyro[:1], stationary=None))
        for bad in (gap, one):
            write_meta(str(bad.with_suffix(".meta")), walk_rec)
        for bad, message in ((gap, "recording gap: sampling period deviates 1250.0% from "
                                   "median 0.004 s at sample 800"),
                             (one, "recording one: pipeline needs at least 2 samples")):
            assert main(["sweep", str(csv), str(bad), "--grid=-20"]) == 2
            assert message in capsys.readouterr().err

    def test_recordings_sharing_an_id_keep_their_own_closures(self, walk_rec, still_rec):
        # two files of one name in different directories share an id
        twin = dataclasses.replace(still_rec, id=walk_rec.id)
        grid = [-20.0, -200.0]
        assert cmd_sweep([walk_rec, twin], default_config(), grid) == cmd_sweep(
            [walk_rec, still_rec], default_config(), grid)

    def test_empty_grid_rejected(self, walk_rec):
        with pytest.raises(ConfigError, match="non-empty"):
            cmd_sweep([walk_rec], default_config(), [])


class TestConcat:
    def test_concat_of_one_equals_run(self, walk_rec):
        cfg = default_config()
        assert concat_recordings([walk_rec]) is walk_rec
        assert format_report(cmd_run(concat_recordings([walk_rec]), cfg)) == format_report(
            cmd_run(walk_rec, cfg)
        )

    def test_two_stationary_copies_stay_put(self, still_rec):
        report = cmd_run(concat_recordings([still_rec, still_rec]), default_config())
        assert report.loop_closure_error_m < 0.1
        assert len(report.decisions) == 2 * len(still_rec)

    def test_seam_carries_sample_period(self, still_rec, walk_rec):
        merged = concat_recordings([still_rec, walk_rec])
        n = len(still_rec)
        assert len(merged) == n + len(walk_rec)
        seam_dt = merged.t[n] - merged.t[n - 1]
        assert seam_dt == pytest.approx(walk_rec.t[1] - walk_rec.t[0], rel=1e-12)
        assert (np.diff(merged.t) > 0).all()
        assert np.array_equal(
            merged.stationary, np.concatenate([still_rec.stationary, walk_rec.stationary])
        )

    def test_labels_dropped_unless_everywhere(self, still_rec, walk_rec):
        bare = dataclasses.replace(walk_rec, stationary=None)
        assert concat_recordings([still_rec, bare]).stationary is None

    def test_mixed_rate_concat_exits_2_naming_parts(self, walk_rec, tmp_path, capsys):
        fast, slow = tmp_path / "fast250.csv", tmp_path / "slow100.csv"
        write_recording_csv(str(fast), walk_rec)
        write_recording_csv(str(slow), dataclasses.replace(walk_rec, t=walk_rec.t * 2.5))
        assert main(["run", str(fast), str(slow)]) == 2
        err = capsys.readouterr().err
        assert "part 1 (fast250, median period 0.004 s)" in err
        assert "part 2 (slow100, median period 0.01 s)" in err

    def test_time_overflow_exits_2_naming_part_and_seam(self, walk_rec, tmp_path, capsys):
        slow = tmp_path / "slow.csv"
        write_recording_csv(str(slow), dataclasses.replace(
            walk_rec, t=np.arange(30) * 5.5e306, accel=walk_rec.accel[:30],
            gyro=walk_rec.gyro[:30], stationary=None))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(slow), str(slow)]) == 2
        err = capsys.readouterr().err
        assert "part 2 (slow) after part 1 (slow)" in err
        assert "seam at 1.595e+308 s" in err

    def test_empty_concat_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            concat_recordings([])


class TestCalibrate:
    def test_uninformative_prior_zeroes_speed_term(self, walk_rec):
        params = cmd_calibrate(walk_rec, default_config())
        assert params.c2 < 0.0
        assert params.c3 == 0.0

    def test_informative_prior_engages_speed_term(self, walk_rec):
        params = cmd_calibrate(walk_rec, merge_config({"prior": "informative"}))
        assert params.c3 != 0.0

    def test_missing_labels_rejected(self, walk_rec):
        bare = dataclasses.replace(walk_rec, stationary=None)
        with pytest.raises(CalibrationDataError, match="no stationary labels"):
            cmd_calibrate(bare, default_config())

    def test_out_of_range_epsilon_rejected(self, walk_rec):
        with pytest.raises(ConfigError, match="epsilon"):
            cmd_calibrate(walk_rec, merge_config({"epsilon": 0.6}))

    @pytest.mark.parametrize("prior", ["uninformative", "informative"])
    def test_irregular_period_exits_2_as_for_run(self, walk_rec, tmp_path, capsys, prior):
        """A stream that run rejects for its sampling period is rejected by
        calibrate too, under either prior, with the same message."""
        rec = dataclasses.replace(walk_rec, t=walk_rec.t.copy())
        rec.t[1500:] += 0.05
        csv, labels = tmp_path / "gap.csv", tmp_path / "gap.labels.csv"
        write_recording_csv(str(csv), rec)
        write_labels_csv(str(labels), rec.t, rec.stationary)
        message = "sampling period deviates 1250.0% from median 0.004 s at sample 1500"
        assert main(["run", str(csv)]) == 2
        assert message in capsys.readouterr().err
        assert main(["calibrate", str(csv), "--labels", str(labels), "--prior", prior]) == 2
        assert message in capsys.readouterr().err

    def test_calibration_output_merges_into_config(self, walk_rec):
        params = cmd_calibrate(walk_rec, default_config())
        cfg = merge_config(parse_config_text(format_calibration(params)))
        assert cfg["c1"] == params.c1
        assert cfg["c2"] == params.c2
        assert cfg["threshold_mode"] == "adaptive"
        report = cmd_run(walk_rec, cfg)
        assert report.loop_closure_error_m < 0.01 * walk_rec.loop_length_m

    def test_trace_scores_match_per_window_on_acceptance_walk(self):
        """Every calibration window scored from the detector trace equals its
        per-window SHOE statistic, and the fit keeps the coefficients that
        per-window scoring gave on the seed-777 walk."""
        lab = simulate(normal_profile(NM, seed=777), 30.0)
        rec = lab.to_recording("walk-777", "normal")
        n = 5
        sets = extract_calibration_sets(rec, n, noise=NM)
        trace = shoe_log_lr_trace(rec.accel, rec.gyro, n, NM)
        starts = np.concatenate([sets.stationary, sets.midstance, sets.swing])
        assert len(starts) > 3000
        for s in starts.tolist():
            expected = shoe_log_lr(rec.accel[s : s + n], rec.gyro[s : s + n], NM)
            assert trace[s + n - 1] == pytest.approx(expected, rel=1e-12, abs=0.0)
        params = cmd_calibrate(rec, merge_config({"prior": "informative"}))
        pinned = (-79.49285067236112, -1586.497541086487, -0.003617487866149121)
        for got, want in zip((params.c1, params.c2, params.c3), pinned):
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_uninformative_fit_skips_reference_pass(self, walk_rec, walk_files, tmp_path,
                                                    monkeypatch):
        """The uninformative prior never reads xi*, so the label-driven
        reference pass does not run, and the fit is the one computed with it
        (and thrown away) before."""
        n = 5
        sets = extract_calibration_sets(walk_rec, n, noise=NM)
        assert sets.xi_star > 0.0
        logl = shoe_log_lr_trace(walk_rec.accel, walk_rec.gyro, n, NM)
        cfg = default_config()
        expected = format_calibration(calibrate(
            logl[sets.stationary + n - 1], logl[sets.midstance + n - 1],
            logl[sets.swing + n - 1], None, dtau=cfg["dtau"], epsilon=cfg["epsilon"]))

        def refuse(*args):
            raise AssertionError("reference pass ran for the uninformative prior")

        monkeypatch.setattr("zvnav.gaitsim._reference_xi_median", refuse)
        csv, labels = walk_files
        out = tmp_path / "fit.cfg"
        assert main(["calibrate", str(csv), "--labels", str(labels),
                     "--prior", "uninformative", "--out", str(out)]) == 0
        assert out.read_text() == expected
        with pytest.raises(AssertionError, match="reference pass ran"):
            cmd_calibrate(walk_rec, merge_config({"prior": "informative"}))

    def test_degenerate_window_in_swing_exits_4(self, walk_rec, walk_files, tmp_path,
                                                capsys):
        """A zero-accelerometer window inside swing has no gravity direction:
        SHOE calibration fails on it, though the trace would carry the last
        direction across it. ARE does not use the accelerometer."""
        s = int(np.flatnonzero(~walk_rec.stationary[600:])[0]) + 610  # inside a swing
        assert not walk_rec.stationary[s - 5 : s + 10].any()
        rec = dataclasses.replace(walk_rec, accel=walk_rec.accel.copy())
        rec.accel[s : s + 5] = 0.0
        csv = tmp_path / "degenerate.csv"
        write_recording_csv(str(csv), rec)
        _, labels = walk_files
        args = ["calibrate", str(csv), "--labels", str(labels)]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert f"window at index {s}: mean accelerometer norm is zero" in err
        assert main(args + ["--detector", "are"]) == 0


class TestMainEntry:
    def test_run_writes_report_and_trace(self, walk_files, tmp_path, capsys):
        csv, _ = walk_files
        report_path = tmp_path / "out.report"
        trace_path = tmp_path / "out.tsv"
        code = main([
            "run", str(csv),
            "--report", str(report_path), "--trace", str(trace_path),
        ])
        assert code == 0
        parsed = parse_report(report_path.read_text())
        assert parsed["recording_id"] == "walk-41"
        assert len(trace_path.read_text().splitlines()) == parsed["n_samples"] + 1

    def test_run_prints_report_to_stdout(self, walk_files, capsys):
        csv, _ = walk_files
        assert main(["run", str(csv)]) == 0
        out = capsys.readouterr().out
        assert parse_report(out)["recording_id"] == "walk-41"

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "/no/such/file.csv"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_bad_config_value_exits_3(self, walk_files, capsys):
        csv, labels = walk_files
        code = main([
            "calibrate", str(csv), "--labels", str(labels), "--epsilon", "0.6",
        ])
        assert code == 3
        assert "config error" in capsys.readouterr().err

    def test_numerical_failure_exits_4(self, walk_files, capsys, monkeypatch):
        csv, _ = walk_files
        def boom(rec, cfg):
            raise NumericalError("synthetic failure")
        monkeypatch.setattr("zvnav.cli.cmd_run", boom)
        assert main(["run", str(csv)]) == 4
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [{}, {"c1": -79.49285067236112,
                                               "c2": -1586.497541086487,
                                               "c3": -0.003617487866149121}])
    def test_huge_finite_input_exits_4_naming_sample(self, walk_rec, tmp_path, capsys,
                                                     config):
        """A finite 1e300 in one accelerometer row passes ingest; the filter
        overflows one step later. No warning escapes (warnings raise here), and
        the error names the recording and the sample."""
        bad = 1500  # sample index; data row 1501 of the CSV
        rec = dataclasses.replace(walk_rec, accel=walk_rec.accel.copy())
        rec.accel[bad, 0] = 1e300
        csv = tmp_path / "huge.csv"
        write_recording_csv(str(csv), rec)
        for name in ("huge", "fine"):  # the sweep's loop lengths
            write_meta(str(tmp_path / f"{name}.meta"), walk_rec)
        args = [f"--{key}={value!r}" for key, value in config.items()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(csv), *args]) == 4
            err = capsys.readouterr().err
            assert "numerical error: recording huge: filter failed at sample" in err
            sample = int(err.split("at sample ")[1].split(":")[0])
            assert abs(sample - (bad + 1)) <= 1
            # in a sweep, the recording that fails on its own is the one named
            write_recording_csv(str(tmp_path / "fine.csv"), walk_rec)
            assert main(["sweep", str(tmp_path / "fine.csv"), str(csv), *args]) == 4
            assert "recording huge: filter failed at sample" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "calibrate"])
    @pytest.mark.parametrize("flags, key", [
        (["--accel-psd", "1e200", "--gyro-psd", "1"], "accel_psd"),
        (["--accel-psd", "1", "--gyro-psd", "1e200"], "gyro_psd"),
        (["--sigma-zupt", "1e200"], "sigma_zupt"),
    ])
    def test_value_with_infinite_square_exits_3_naming_key(self, walk_files, capsys,
                                                           command, flags, key):
        """A finite value the filter squares to infinity is a config error."""
        csv, labels = walk_files
        inputs = [str(csv), "--labels", str(labels)] if command == "calibrate" else [str(csv)]
        assert main([command, *inputs, *flags]) == 3
        err = capsys.readouterr().err
        assert f"config error: {key} must be" in err and "finite square" in err

    @pytest.mark.parametrize("command, key", [("run", "sigma_a"), ("sweep", "sigma_a"),
                                              ("run", "sigma_w"), ("calibrate", "sigma_a")])
    def test_sigma_without_finite_density_at_low_rate_exits_3(self, walk_rec, tmp_path,
                                                               capsys, command, key):
        """At 0.5 Hz the process-noise density derived from a sigma of 1e154
        has no finite square: a config error naming the sigma and the rate,
        for run and sweep and for calibrate's reference pass."""
        slow = dataclasses.replace(walk_rec, t=walk_rec.t * 500.0)
        csv, labels = tmp_path / "slow.csv", tmp_path / "slow.labels.csv"
        write_recording_csv(str(csv), slow)
        write_labels_csv(str(labels), slow.t, slow.stationary)
        inputs = [str(csv)]
        if command == "calibrate":
            inputs += ["--labels", str(labels), "--prior", "informative"]
        argv = [command, *inputs, "--" + key.replace("_", "-"), "1e154"]
        if command == "sweep":  # slow.csv has no metadata, so no loop length
            with pytest.warns(UserWarning, match="slow declares no loop_length_m"):
                assert main(argv) == 3
        else:
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"config error: {key}=1e+154 at the median sample rate 0.5 Hz" in err

    def test_usage_error_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # missing recording operand
        assert exc.value.code == 3

    def test_print_config_echoes_overrides_and_skips_input(self, capsys):
        code = main([
            "run", "/no/such/file.csv", "--print-config", "--c1", "-33.5",
            "--detector", "are",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "c1=-33.5" in out
        assert "detector=are" in out
        cfg = parse_config_text(out)
        assert cfg["window_samples"] == 5

    def test_config_file_read_like_the_csvs(self, walk_files, tmp_path, capsys):
        """A byte-order mark is dropped and trailing blank lines are ignored."""
        csv, _ = walk_files
        cfg_file = tmp_path / "bom.cfg"
        cfg_file.write_text("\ufeffc1=-50\nsigma_a=0.3\n\n \n", encoding="utf-8")
        assert main(["run", str(csv), "--config", str(cfg_file), "--print-config"]) == 0
        cfg = parse_config_text(capsys.readouterr().out)
        assert (cfg["c1"], cfg["sigma_a"]) == (-50.0, 0.3)

    def test_config_file_and_override_precedence(self, walk_files, tmp_path, capsys):
        csv, _ = walk_files
        cfg_file = tmp_path / "pipe.cfg"
        cfg_file.write_text("c1=-50\nsigma_a=0.3\n")
        code = main([
            "run", str(csv), "--config", str(cfg_file), "--c1", "-60",
            "--print-config",
        ])
        assert code == 0
        cfg = parse_config_text(capsys.readouterr().out)
        assert cfg["c1"] == -60.0
        assert cfg["sigma_a"] == 0.3

    def test_simulate_then_calibrate_then_run(self, tmp_path, capsys):
        prefix = str(tmp_path / "sim")
        assert main(["simulate", "--gait", "normal", "--duration", "12",
                     "--seed", "4", "--out", prefix]) == 0
        params_path = tmp_path / "fit.cfg"
        assert main(["calibrate", prefix + ".csv",
                     "--labels", prefix + ".labels.csv",
                     "--out", str(params_path)]) == 0
        capsys.readouterr()  # drop the simulate banner
        assert main(["run", prefix + ".csv",
                     "--config", str(params_path)]) == 0
        parsed = parse_report(capsys.readouterr().out)
        meta = read_meta(prefix + ".meta")
        assert meta["gait_tag"] == "normal"
        assert parsed["loop_closure_error_m"] < 0.01 * meta["loop_length_m"]

    def test_sweep_uses_meta_tags(self, walk_files, tmp_path, capsys):
        csv, _ = walk_files
        out = tmp_path / "table.tsv"
        code = main(["sweep", str(csv), "--grid=-20,-200", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold_mode\tc1\tsubset\trmse_m\tn_recordings"
        assert len(lines) == 1 + 2 * 3  # subsets normal + all, grid 2 + adaptive
        assert any("\tnormal\t" in line for line in lines[1:])

    def test_meta_file_read_like_the_csvs(self, walk_rec, walk_files, tmp_path, capsys):
        """A meta file that starts with a byte-order mark keeps its first key,
        so the sweep still puts the recording in its gait subset."""
        csv, _ = walk_files
        (tmp_path / "walk-41.meta").write_text(
            f"\ufeffgait_tag = normal\nloop_length_m={walk_rec.loop_length_m!r}\n\n",
            encoding="utf-8")
        assert read_meta(str(tmp_path / "walk-41.meta")) == {
            "gait_tag": "normal", "loop_length_m": walk_rec.loop_length_m}
        assert main(["sweep", str(csv), "--grid=-20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[2] for line in lines[1:]] == ["normal"] * 2 + ["all"] * 2

    def test_bad_loop_length_exits_2_naming_meta(self, walk_files, capsys):
        csv, _ = walk_files
        meta = csv.with_suffix(".meta")
        for value in ("nan", "inf", "-1.0", "x"):
            meta.write_text(f"loop_length_m={value}\n", encoding="utf-8")
            assert main(["sweep", str(csv), "--grid=-20"]) == 2
            err = capsys.readouterr().err
            assert f"{meta}: loop_length_m must be a finite number >= 0, got {value!r}" in err

    def test_nan_label_time_exits_2(self, walk_files, capsys):
        csv, labels = walk_files
        lines = labels.read_text().splitlines()
        lines[5] = "nan,0"
        labels.write_text("\n".join(lines) + "\n")
        assert main(["calibrate", str(csv), "--labels", str(labels)]) == 2
        assert "row 5: non-finite value" in capsys.readouterr().err

    def test_concat_trace_covers_joined_time_base(self, walk_rec, walk_files, tmp_path,
                                                   capsys):
        csv, _ = walk_files
        trace = tmp_path / "joined.tsv"
        assert main(["run", str(csv), str(csv), "--trace", str(trace)]) == 0
        t = np.loadtxt(trace, delimiter="\t", skiprows=1, ndmin=2)[:, 0]
        assert len(t) == 2 * len(walk_rec)
        assert (np.diff(t) > 0).all()

    def test_straight_path_simulation_has_no_loop_length(self, tmp_path, capsys):
        prefix = str(tmp_path / "line")
        assert main(["simulate", "--gait", "normal", "--duration", "12",
                     "--path", "straight", "--out", prefix]) == 0
        meta = read_meta(prefix + ".meta")
        assert "loop_length_m" not in meta
