"""Gait generator: exactness of labels and ground truth, calibration splits."""

import dataclasses
import warnings

import numpy as np
import pytest

from conftest import psd_at
from zvnav.core import NoiseModel
from zvnav.errors import CalibrationDataError, ConfigError, NumericalError
from zvnav.gaitsim import (
    PHASE_STANCE,
    PHASE_STANDSTILL,
    PHASE_SWING,
    GaitProfile,
    LabeledRecording,
    _reference_xi_median,
    extract_calibration_sets,
    fast_profile,
    make_corpus,
    normal_profile,
    simulate,
)
from zvnav.detectors import shoe_log_lr_trace
from zvnav.ins import (
    _process_rate,
    _propagate,
    _step_inputs,
    default_initial_covariance,
)
from zvnav.quat import quat_from_rotvec


NM = NoiseModel(sigma_a=0.2, sigma_w=0.02)


def standstill_profile(seed=0):
    return GaitProfile(
        speed=0.0,
        step_length=0.0,
        stance_fraction=0.55,
        cadence=1.4,
        sample_rate=250.0,
        noise=NM,
        seed=seed,
    )


class TestGaitProfile:
    def test_constructors_are_self_consistent(self):
        for prof in (normal_profile(), fast_profile()):
            assert abs(prof.speed - prof.step_length * prof.cadence) <= (
                0.1 * prof.step_length * prof.cadence
            )

    def test_rejects_inconsistent_speed(self):
        with pytest.raises(ConfigError):
            GaitProfile(2.0, 0.992, 0.55, 1.4, 250.0, NM, 0)

    def test_rejects_zero_speed_with_nonzero_step(self):
        with pytest.raises(ConfigError):
            GaitProfile(0.0, 0.992, 0.55, 1.4, 250.0, NM, 0)

    def test_rejects_bad_stance_fraction(self):
        for frac in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigError):
                GaitProfile(1.389, 0.992, frac, 1.4, 250.0, NM, 0)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ConfigError):
            GaitProfile(1.389, 0.992, 0.55, 0.0, 250.0, NM, 0)
        with pytest.raises(ConfigError):
            GaitProfile(1.389, 0.992, 0.55, 1.4, -250.0, NM, 0)


class TestStandstill:
    def test_zero_speed_all_stationary(self):
        rec = simulate(standstill_profile(), duration=5.0)
        assert rec.stationary.all()
        assert (rec.phase == PHASE_STANDSTILL).all()
        assert np.array_equal(rec.true_positions, np.zeros_like(rec.true_positions))

    def test_zero_speed_accel_is_gravity_plus_noise(self):
        rec = simulate(standstill_profile(seed=3), duration=20.0)
        mean = rec.accel.mean(axis=0)
        assert np.allclose(mean, [0.0, 0.0, 9.81], atol=0.02)
        spread = rec.accel.std(axis=0)
        assert np.allclose(spread, NM.sigma_a, rtol=0.1)
        assert np.allclose(rec.gyro.std(axis=0), NM.sigma_w, rtol=0.1)


class TestWalkingTrajectory:
    def test_closed_loop_returns_exactly(self):
        rec = simulate(normal_profile(seed=1), duration=60.0, path="closed-loop")
        assert np.array_equal(rec.true_positions[-1], rec.true_positions[0])
        assert np.array_equal(rec.true_positions[-1], np.zeros(3))

    def test_stationary_labels_mark_exactly_zero_velocity(self):
        rec = simulate(normal_profile(seed=2), duration=30.0)
        p = rec.true_positions
        dts = np.diff(rec.t)
        v = np.zeros_like(p)
        v[1:] = (p[1:] - p[:-1]) / dts[:, None]
        speeds = np.linalg.norm(v, axis=1)
        assert (speeds[rec.stationary] == 0.0).all()
        assert (speeds[~rec.stationary] > 0.0).all()

    def test_contains_both_moving_and_stationary_samples(self):
        rec = simulate(normal_profile(seed=2), duration=30.0)
        assert rec.stationary.any() and (~rec.stationary).any()
        for code in (PHASE_STANDSTILL, PHASE_STANCE, PHASE_SWING):
            assert (rec.phase == code).any()

    def test_stance_samples_are_stationary_and_swing_moves(self):
        rec = simulate(fast_profile(seed=5), duration=30.0)
        assert rec.stationary[rec.phase == PHASE_STANCE].all()
        assert not rec.stationary[rec.phase == PHASE_SWING].any()

    def test_straight_path_does_not_return(self):
        rec = simulate(normal_profile(seed=1), duration=30.0, path="straight")
        end = rec.true_positions[-1]
        assert end[0] > 10.0
        assert rec.path_length_m > 10.0

    def test_gyro_active_during_stance(self):
        # ground contact keeps rocking; that overlap is the point of the corpus
        rec = simulate(normal_profile(seed=4), duration=30.0, noise_scale=0.0)
        stance_rate = np.abs(rec.gyro[rec.phase == PHASE_STANCE, 1])
        assert np.median(stance_rate) > 0.05

    def test_rejects_unknown_path(self):
        with pytest.raises(ConfigError):
            simulate(normal_profile(), duration=30.0, path="circle")

    def test_rejects_too_short_duration(self):
        with pytest.raises(ConfigError):
            simulate(normal_profile(), duration=3.0)

    def test_rejects_infeasible_stance(self):
        prof = GaitProfile(1.389, 0.992, 0.005, 1.4, 250.0, NM, 0)
        with pytest.raises(ConfigError):
            simulate(prof, duration=30.0)


class TestRoundTrip:
    def test_noiseless_round_trip_recovers_truth(self):
        rec = simulate(normal_profile(seed=7), duration=10.0, noise_scale=0.0)
        p, v, q, P = (x[None, None] for x in (np.zeros(3), np.zeros(3),
                                              np.array([1.0, 0.0, 0.0, 0.0]),
                                              default_initial_covariance()))
        q_rate = _process_rate(psd_at(NM))[None, None]
        g_vec = np.array([0.0, 0.0, -NM.gravity_mag])
        worst = 0.0
        for k in range(1, len(rec)):
            dt = rec.t[k] - rec.t[k - 1]
            step = next(_step_inputs(rec.accel[None, k - 1:k],
                                     quat_from_rotvec(rec.gyro[None, k - 1:k] * dt),
                                     np.array([[dt]]), q_rate))
            p, v, q, P = _propagate(p, v, q, P, step, g_vec)
            err = np.linalg.norm(p[0, 0] - rec.true_positions[k])
            worst = max(worst, err)
        assert worst < 1e-3
        # the discrete inverse is exact, so the slack is purely float noise
        assert worst < 1e-6


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        a = simulate(normal_profile(seed=11), duration=20.0)
        b = simulate(normal_profile(seed=11), duration=20.0)
        assert np.array_equal(a.accel, b.accel)
        assert np.array_equal(a.gyro, b.gyro)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.stationary, b.stationary)

    def test_different_seed_differs(self):
        a = simulate(normal_profile(seed=11), duration=20.0)
        b = simulate(normal_profile(seed=12), duration=20.0)
        assert not np.array_equal(a.accel, b.accel)


class TestLabeledRecording:
    def test_rejects_mismatched_lengths(self):
        n = 10
        with pytest.raises(ValueError):
            LabeledRecording(
                t=np.arange(n) / 250.0,
                accel=np.zeros((n, 3)),
                gyro=np.zeros((n, 3)),
                stationary=np.zeros(n - 1, dtype=bool),
                true_positions=np.zeros((n, 3)),
                phase=np.zeros(n, dtype=np.int8),
            )

    def test_to_recording_carries_metadata(self):
        lab = simulate(normal_profile(seed=1), duration=20.0)
        rec = lab.to_recording("walk-01", "normal")
        assert rec.id == "walk-01"
        assert rec.gait_tag == "normal"
        assert rec.loop_length_m == pytest.approx(lab.path_length_m)
        assert np.array_equal(rec.stationary, lab.stationary)


class TestCalibrationSets:
    def test_midstance_count_equals_step_count(self):
        rec = simulate(normal_profile(seed=21), duration=30.0)
        sets = extract_calibration_sets(rec, 5, noise=NM)
        n_steps = len(
            [1 for s, e in _runs(rec.phase == PHASE_STANCE)]
        )
        assert len(sets.midstance) == n_steps
        assert n_steps > 10

    def test_sets_are_nonempty_and_ordered_by_loglr(self):
        rec = simulate(normal_profile(seed=22), duration=30.0)
        sets = extract_calibration_sets(rec, 5, noise=NM)
        logl = shoe_log_lr_trace(rec.accel, rec.gyro, 5, NM)
        med = {
            name: np.median(logl[starts + 4])
            for name, starts in (
                ("stationary", sets.stationary),
                ("midstance", sets.midstance),
                ("swing", sets.swing),
            )
        }
        assert med["stationary"] > med["midstance"] > med["swing"]
        assert sets.xi_star > 0.0

    def test_windows_respect_their_labels(self):
        rec = simulate(fast_profile(seed=23), duration=30.0)
        sets = extract_calibration_sets(rec, 5, noise=NM)
        for starts in (sets.stationary, sets.midstance, sets.swing):
            assert starts.dtype.kind == "i"
            assert (np.diff(starts) > 0).all()  # ascending, no duplicates
        for s in np.concatenate([sets.stationary, sets.midstance]):
            assert rec.stationary[s : s + 5].all()
        for s in sets.swing:
            assert not rec.stationary[s : s + 5].any()
            assert (rec.phase[s : s + 5] == PHASE_SWING).all()

    def test_all_stationary_recording_rejected(self):
        rec = simulate(standstill_profile(), duration=10.0)
        with pytest.raises(CalibrationDataError):
            extract_calibration_sets(rec, 5, noise=NM)

    def test_missing_labels_rejected(self):
        lab = simulate(normal_profile(seed=1), duration=20.0)
        rec = lab.to_recording("x", "normal")
        object.__setattr__(rec, "stationary", None)
        with pytest.raises(CalibrationDataError):
            extract_calibration_sets(rec, 5, noise=NM)

    def test_reference_xi_median_pinned(self):
        """The label-driven pass on the acceptance calibration walk gives the
        median swing xi of the unbatched loop at commit 70c23b0, to rounding.
        Threshold calibration with the informative prior anchors c3 on it."""
        lab = simulate(normal_profile(NM, seed=777), duration=30.0)
        xi_star = _reference_xi_median(lab, NM, lab.phase == PHASE_SWING)
        assert xi_star == pytest.approx(413306.7185063072, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("bad", [3704, 3740])
    def test_reference_pass_names_sample_of_huge_value_in_coast(self, bad):
        """A finite 1e300 in one accelerometer row inside a swing coast (walk
        777's coast over samples 3704 .. 3783) fails the closed-form coast at
        the step that reads it, as a step-by-step pass would, and no
        floating-point warning escapes."""
        lab = simulate(normal_profile(NM, seed=777), 30.0)
        assert lab.stationary[3703] and not lab.stationary[3704:3784].any()
        accel = lab.accel.copy()
        accel[bad, 0] = 1e300
        rec = dataclasses.replace(lab, accel=accel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="filter failed at sample") as exc:
                _reference_xi_median(rec, NM, rec.phase == PHASE_SWING)
        sample = int(str(exc.value).split("at sample ")[1].split(":")[0])
        assert abs(sample - (bad + 1)) <= 1

    def test_recording_without_phase_uses_run_heuristic(self):
        lab = simulate(normal_profile(seed=24), duration=30.0)
        rec = lab.to_recording("x", "normal")  # drops the phase array
        sets_rec = extract_calibration_sets(rec, 5, noise=NM)
        sets_lab = extract_calibration_sets(lab, 5, noise=NM)
        # the run heuristic folds the final stance into the tail standstill,
        # so it may come up exactly one short
        assert len(sets_lab.midstance) - len(sets_rec.midstance) in (0, 1)
        assert len(sets_rec.midstance) >= 30


def _runs(mask):
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return [(int(edges[i]), int(edges[i + 1])) for i in range(0, len(edges), 2)]


class TestCorpus:
    def test_make_corpus_shapes_and_tags(self):
        recs = make_corpus(n_normal=2, n_fast=2, duration=15.0)
        assert len(recs) == 4
        tags = [r.gait_tag for r in recs]
        assert tags.count("normal") == 2 and tags.count("fast") == 2
        ids = {r.id for r in recs}
        assert len(ids) == 4
        for r in recs:
            assert r.loop_length_m > 5.0
            assert r.stationary is not None
