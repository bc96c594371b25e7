"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines live;
the default ``-rA`` summary shows them after the fact. Every criterion is
self-contained and fully seeded, so the numbers printed here are stable
across machines and runs.
"""

import math
import time

import numpy as np
import pytest

from conftest import psd_at
from zvnav.cli import cmd_sweep
from zvnav.config import merge_config
from zvnav.core import NoiseModel
from zvnav.detectors import are_log_lr, shoe_log_lr, shoe_log_lr_trace
from zvnav.gaitsim import extract_calibration_sets, make_corpus, normal_profile, simulate
from zvnav.ins import (
    _process_rate,
    _propagate,
    _step_inputs,
    _zupt,
    default_initial_covariance,
    run_pipeline,
)
from zvnav.quat import quat_from_rotvec
from zvnav.threshold import (
    LossParams,
    PriorParams,
    ThresholdParams,
    calibrate,
    hypothesis_prior,
    log_threshold,
    loss_factor,
    params_from_bayes,
)

NM = NoiseModel(sigma_a=0.2, sigma_w=0.02)
WINDOW = 5
DTAU = 0.7
EPSILON = 0.05
CALIBRATION_SEED = 777  # calibration walk, distinct from every corpus seed
CORPUS_BASE_SEED = 1000


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(10, 10, 30.0, noise=NM, base_seed=CORPUS_BASE_SEED)


@pytest.fixture(scope="module")
def calibration():
    """Calibration walk, its window sets, detector values, fitted params."""
    lab = simulate(normal_profile(NM, seed=CALIBRATION_SEED), 30.0)
    rec = lab.to_recording(f"calibration-{CALIBRATION_SEED}", "normal")
    sets = extract_calibration_sets(rec, WINDOW, noise=NM)
    logl = shoe_log_lr_trace(rec.accel, rec.gyro, WINDOW, NM)
    stat, mid, swing = (
        logl[starts + WINDOW - 1] for starts in (sets.stationary, sets.midstance, sets.swing)
    )
    params = calibrate(stat, mid, swing, None, dtau=DTAU, epsilon=EPSILON)
    return rec, stat, params


class TestAcceptance:
    def test_criterion_1_threshold_composition_identity(self):
        """The composed coefficients reproduce log((1-p)/p * eta) exactly.

        10^4 seeded draws. The draw ranges keep
        both computation routes well-conditioned: the direct route loses
        precision once the prior saturates (1 - p cancels when
        |beta1 * xi + beta2| grows past ~9, pushing its error above the
        1e-12 gate even though the identity is exact in reals).
        """
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(10_000):
            alpha = math.exp(rng.uniform(-6.0, 6.0))
            theta = rng.uniform(0.0, 3.0)
            beta1 = rng.uniform(-1.5, 1.5)
            beta2 = rng.uniform(-2.0, 2.0)
            dt = rng.uniform(0.0, 4.0)
            xi = rng.uniform(0.0, 4.0)
            loss = LossParams(alpha=alpha, theta=theta)
            prior = PriorParams(beta1=beta1, beta2=beta2)
            eta = loss_factor(loss, dt)
            p = hypothesis_prior(prior, xi)
            direct = math.log((1.0 - p) / p * eta)
            composed = log_threshold(params_from_bayes(loss, prior), dt, xi)
            worst = max(worst, abs(direct - composed))
        _verdict(1, worst < 1e-12, f"max |direct - composed| = {worst:.3e}")

    def test_criterion_2_degenerate_adaptive_equals_fixed(self, corpus, calibration):
        """With c2 = c3 = 0 the pipeline's decisions match an independent
        fixed-threshold comparator on all 20 recordings, bit for bit.

        The comparator works in the log domain: decide stationary iff
        log L > c1, which is the fixed rule with gamma = e^{c1} without
        ever forming e^{c1} (it underflows for c1 below about -745).
        """
        _, _, fitted = calibration
        c1 = fitted.c1
        params = ThresholdParams(c1, 0.0, 0.0)
        start = time.perf_counter()
        mismatches = 0
        fired_total = 0
        for rec in corpus:
            report = run_pipeline(rec, "shoe", params, NM, window_samples=WINDOW)
            logl = shoe_log_lr_trace(rec.accel, rec.gyro, WINDOW, NM)
            fixed_decisions = logl > c1  # NaN warm-up compares False
            if not np.array_equal(report.decisions, fixed_decisions):
                mismatches += 1
            fired_total += int(fixed_decisions.sum())
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and fired_total > 0 and elapsed < 60.0
        _verdict(
            2,
            ok,
            f"{len(corpus)} recordings, {mismatches} trace mismatches, "
            f"{elapsed:.1f} s",
        )

    def test_criterion_3_detectors_match_brute_force(self):
        """Vectorized detector statistics vs naive per-sample sums."""

        def brute_shoe(accel, gyro, noise):
            mean = accel.mean(axis=0)
            u = mean / math.sqrt(float(mean @ mean))
            total = 0.0
            for a, w in zip(accel, gyro):
                fa = a - noise.gravity_mag * u
                total += float(fa @ fa) / noise.sigma_a**2
                total += float(w @ w) / noise.sigma_w**2
            return -0.5 * total

        def brute_are(accel, gyro, noise):
            total = 0.0
            for w in gyro:
                total += float(w @ w) / noise.sigma_w**2
            return -0.5 * total

        rng = np.random.default_rng(3033)
        worst = 0.0
        for _ in range(1000):
            accel = np.array([0.0, 0.0, NM.gravity_mag]) + rng.normal(0.0, 4.0, (5, 3))
            gyro = rng.normal(0.0, 2.0, (5, 3))
            for fast, brute in (
                (shoe_log_lr, brute_shoe),
                (are_log_lr, brute_are),
            ):
                a = fast(accel, gyro, NM)
                b = brute(accel, gyro, NM)
                worst = max(worst, abs(a - b) / abs(b))
        _verdict(3, worst < 1e-12, f"max relative deviation = {worst:.3e}")

    def test_criterion_4_filter_fuzz_stays_sane(self):
        """10^5 random propagate steps with occasional updates, on a one-lane
        stack: covariance stays symmetric positive semidefinite, quaternion
        stays unit."""
        rng = np.random.default_rng(404)
        q_rate = _process_rate(psd_at(NM))[None, None]
        g_vec = np.array([0.0, 0.0, -NM.gravity_mag])
        p, v, q, P = (x[None, None] for x in (np.zeros(3), np.zeros(3),
                                              np.array([1.0, 0.0, 0.0, 0.0]),
                                              default_initial_covariance()))
        start = time.perf_counter()
        worst_eig_ratio = 0.0
        worst_qnorm = 0.0
        for _ in range(100_000):
            dt = float(rng.uniform(1e-3, 1e-2))
            accel, gyro = rng.normal(0.0, 8.0, 3), rng.normal(0.0, 3.0, 3)
            step = next(_step_inputs(accel[None, None], quat_from_rotvec(gyro * dt)[None, None],
                                     np.array([[dt]]), q_rate))
            p, v, q, P = _propagate(p, v, q, P, step, g_vec)
            if rng.random() < 0.02:
                p, v, q, P = _zupt(p, v, q, P, NM.sigma_zupt**2)
            lane_P = P[0, 0]
            assert np.array_equal(lane_P, lane_P.T)
            trace = float(np.trace(lane_P))
            eig_min = float(np.linalg.eigvalsh(lane_P)[0])
            if eig_min < 0.0:
                worst_eig_ratio = max(worst_eig_ratio, -eig_min / trace)
            worst_qnorm = max(
                worst_qnorm, abs(float(np.linalg.norm(q[0, 0])) - 1.0)
            )
        elapsed = time.perf_counter() - start
        ok = worst_eig_ratio < 1e-12 and worst_qnorm < 1e-9 and elapsed < 60.0
        _verdict(
            4,
            ok,
            f"min eig >= -{worst_eig_ratio:.2e} * trace, "
            f"|q|-1 within {worst_qnorm:.2e}, {elapsed:.1f} s",
        )

    def test_criterion_5_calibration_pins_stationary_rate(self, calibration):
        """c1 sits at the stationary epsilon-quantile: the observed
        fraction below it lands inside the exact 95% binomial band, and
        the fitted decay slope c2 is negative."""
        _, stat, fitted = calibration
        n = len(stat)
        below = int(sum(1 for v in stat if v < fitted.c1))

        def binom_quantile(q: float) -> int:
            pmf = (1.0 - EPSILON) ** n
            cdf = pmf
            k = 0
            while cdf < q and k < n:
                pmf *= (n - k) / (k + 1) * (EPSILON / (1.0 - EPSILON))
                cdf += pmf
                k += 1
            return k

        k_lo = binom_quantile(0.025)
        k_hi = binom_quantile(0.975)
        ok = k_lo <= below <= k_hi and fitted.c2 < 0.0
        _verdict(
            5,
            ok,
            f"{below}/{n} stationary windows below c1, band [{k_lo}, {k_hi}], "
            f"c2 = {fitted.c2:.1f}",
        )

    def test_criterion_6_minute_walk_closes_loop(self, calibration):
        """60 s closed loop at the default walking profile (seed 2026):
        the calibrated adaptive detector closes the loop within 1% of the
        traveled distance."""
        _, _, fitted = calibration
        lab = simulate(normal_profile(NM, seed=2026), 60.0)
        rec = lab.to_recording("minute-walk-2026", "normal")
        report = run_pipeline(rec, "shoe", fitted, NM, window_samples=WINDOW)
        traveled = lab.path_length_m
        ratio = report.loop_closure_error_m / traveled
        _verdict(
            6,
            ratio < 0.01,
            f"closure {report.loop_closure_error_m:.3f} m over {traveled:.1f} m "
            f"({100.0 * ratio:.2f}%)",
        )

    def test_criterion_7_adaptive_beats_fixed_grid(self, corpus, calibration):
        """Calibrated adaptive vs a 20-point fixed grid on 10 normal + 10
        fast recordings: adaptive wins combined RMSE outright and stays
        within 1.25x of the best per-gait fixed threshold on each subset."""
        _, _, fitted = calibration
        cfg = merge_config(
            {"c1": fitted.c1, "c2": fitted.c2, "c3": fitted.c3}
        )
        grid = list(-np.geomspace(8.0, 6000.0, 20))
        start = time.perf_counter()
        rows = cmd_sweep(corpus, cfg, grid)
        elapsed = time.perf_counter() - start

        def rmse(subset: str, mode: str) -> float:
            vals = [
                r["rmse_m"]
                for r in rows
                if r["subset"] == subset and r["threshold_mode"] == mode
            ]
            return min(vals)

        adaptive_all = rmse("all", "adaptive")
        best_fixed_all = rmse("all", "fixed")
        checks = [adaptive_all <= best_fixed_all]
        detail = [
            f"combined adaptive {adaptive_all:.3f} vs best fixed "
            f"{best_fixed_all:.3f}"
        ]
        for subset in ("normal", "fast"):
            adaptive_sub = rmse(subset, "adaptive")
            bound = 1.25 * rmse(subset, "fixed")
            checks.append(adaptive_sub <= bound)
            detail.append(f"{subset} {adaptive_sub:.3f} <= {bound:.3f}")
        checks.append(elapsed < 300.0)
        detail.append(f"{elapsed:.0f} s")
        _verdict(7, all(checks), "; ".join(detail))

    def test_criterion_8_real_sensor_dataset(self):
        print("criterion 8: SKIP (no real-sensor dataset in this environment; "
              "criteria 1-7 stand alone)")
        pytest.skip("real-sensor dataset not available in this environment")
