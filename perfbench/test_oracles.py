"""Each oracle agrees with a small hand-worked case and rejects a perturbed
output. Run with: python3 -m pytest perfbench/test_oracles.py"""

from __future__ import annotations

import datetime as dt
import math
from types import SimpleNamespace as NS

import numpy as np
import pytest

import oracles

START, END, MINUTES = dt.time(9, 30), dt.time(9, 40), 5
D1, D2 = dt.date(2024, 3, 4), dt.date(2024, 3, 5)

# Day 1: mids 100, 101, 102 at the three grid points. The 09:34 mid comes
# from three quotes at one timestamp (median bid 100.9, ask 101.1); a
# crossed quote at 09:34:30 and a spread of 24 at 09:39:30 must go.
# Day 2: first tick after 09:30, so its grid is [103, 99].
TICKS = """timestamp,bid,ask
2024-03-04T09:30:00,99.9,100.1
2024-03-04T09:34:00,100.8,101.0
2024-03-04T09:34:00,100.9,101.1
2024-03-04T09:34:00,101.0,101.2
2024-03-04T09:34:30,120.0,119.0
2024-03-04T09:39:00,101.9,102.1
2024-03-04T09:39:30,100.0,124.0
2024-03-05T09:31:00,102.9,103.1
2024-03-05T09:36:00,98.9,99.1
"""
FAULTS = ((dt.datetime(2024, 3, 4, 9, 34, 30), "crossed"), (dt.datetime(2024, 3, 4, 9, 39, 30), "wide"))
LOWER = math.log(99) - math.log(102)
UPPER = math.log(103) - math.log(100)
RV1 = (math.log(101) - math.log(100)) ** 2 + (math.log(102) - math.log(101)) ** 2
RV2 = (math.log(99) - math.log(103)) ** 2


def _tick_file(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text(TICKS)
    clean_range = {D1: (100.0, 102.0), D2: (99.0, 103.0)}
    return NS(path=str(path), faults=FAULTS, clean_range=clean_range)


def _write_outputs(tmp_path, upper=UPPER):
    intervals = tmp_path / "intervals.csv"
    intervals.write_text(
        "# ticks_in = 9\n# ticks_clean = 5\n# days = 2\n# intervals = 1\n"
        f"date,low,high\n2024-03-05,{LOWER!r},{upper!r}\n"
    )
    bars = tmp_path / "bars.csv"
    bars.write_text(
        "date,min_log,max_log,rv\n"
        f"2024-03-04,{math.log(100)!r},{math.log(102)!r},{RV1!r}\n"
        f"2024-03-05,{math.log(99)!r},{math.log(103)!r},{RV2!r}\n"
    )
    return str(intervals), str(bars)


def test_reference_prepare_matches_hand_worked_case(tmp_path):
    ref = oracles.reference_prepare(_tick_file(tmp_path).path, START, END, MINUTES)
    assert (ref["ticks_in"], ref["ticks_clean"], ref["dates"]) == (9, 5, [D1, D2])
    assert ref["lowers"] == pytest.approx([LOWER], abs=1e-15)
    assert ref["uppers"] == pytest.approx([UPPER], abs=1e-15)
    assert ref["rv"] == pytest.approx([RV1, RV2], abs=1e-15)


def test_check_prepare_accepts_the_right_output_and_rejects_a_perturbed_one(tmp_path):
    tick_file = _tick_file(tmp_path)
    assert oracles.check_prepare(tick_file, *_write_outputs(tmp_path), START, END, MINUTES) == []
    bad = oracles.check_prepare(tick_file, *_write_outputs(tmp_path, UPPER + 1e-9), START, END, MINUTES)
    assert any("intervals differ" in p for p in bad)


def test_rule4_drops_a_lone_outlier():
    mids = np.ones(12)
    mids[6] = 5.0  # deviation 4 against a mean deviation of 4/12
    keep = oracles._rule4_keep(mids)
    assert keep.tolist() == [i != 6 for i in range(12)]
    assert oracles._rule4_keep(mids[:10]).all()  # 9 neighbours: nobody tested


K, THETA = 1.0, (0.5, 0.1, 0.25, 0.25)
CENTERS, RADII = np.array([2.0, 0.0]), np.array([2.0, 1.0])


def _hand_loglik():
    level = 0.5 / (1 - 0.1 * math.sqrt(2 / math.pi) - 0.25 - 0.25)
    h1 = 0.5 + 0.1 * 0.0 + 0.25 * level + 0.25 * level
    h2 = 0.5 + 0.1 * 2.0 + 0.25 * 2.0 + 0.25 * h1
    ll = (-2 * math.log(h1) - 4 / (2 * h1 * h1) - 2 / h1) + (-2 * math.log(h2) - 0 - 1 / h2)
    return ll, h1, h2


def test_interval_loglik_and_forecast_match_hand_worked_case():
    ll, h1, h2 = _hand_loglik()
    got, h = oracles.interval_loglik(K, THETA, CENTERS, RADII)
    assert got == pytest.approx(ll, rel=1e-14)
    assert h.tolist() == pytest.approx([h1, h2], rel=1e-14)
    one = 0.5 + 0.1 * 0.0 + 0.25 * 1.0 + 0.25 * h2
    two = 0.5 + (0.1 * math.sqrt(2 / math.pi) + 0.25 + 0.25) * one
    want = [(1 + 1 / 3) * one**2, (1 + 1 / 3) * two**2]
    assert oracles.interval_forecast(K, THETA, CENTERS, RADII, 2).tolist() == pytest.approx(want, rel=1e-14)


def _fit_at(k, theta, centers, radii, boundary=()):
    ll, _ = oracles.interval_loglik(k, theta, centers, radii)
    return NS(params=NS(k=k, theta=np.array(theta)), loglik=ll, boundary=boundary)


def _maximize(k, centers, radii, fixed_alpha=None):
    from scipy.optimize import minimize
    free = [0, 2, 3] if fixed_alpha is not None else [0, 1, 2, 3]

    def full(x):
        theta = np.zeros(4) if fixed_alpha is None else np.array([0.0, fixed_alpha, 0.0, 0.0])
        theta[free] = x
        return theta

    start = np.array(oracles.start_theta(k, radii))[free]
    res = minimize(lambda x: -oracles.interval_loglik(k, full(x), centers, radii)[0], start,
                   method="L-BFGS-B", bounds=[(1e-6, None)] + [(0, 0.9)] * (len(free) - 1),
                   options={"ftol": 1e-15, "gtol": 1e-9, "maxiter": 2000})
    return tuple(full(res.x))


def test_check_interval_fit_accepts_an_optimum_and_rejects_other_points():
    rng = np.random.default_rng(3)
    truth = (0.1, 0.2, 0.3, 0.1)
    centers, radii, _ = oracles.scale_path(1.5, truth, rng.standard_normal(400), rng.gamma(1.5, 1.0, 400))
    k = oracles.moment_k(centers, radii)
    assert k == pytest.approx(math.sqrt(2 / math.pi) * radii.mean() / np.abs(centers).mean())
    best = _maximize(k, centers, radii)
    assert oracles.check_interval_fit(_fit_at(k, best, centers, radii), centers, radii, truth) == []
    fit = _fit_at(k, best, centers, radii)
    fit.loglik *= 1 + 1e-8
    assert oracles.check_interval_fit(fit, centers, radii, truth)
    start = oracles.start_theta(k, radii)  # not stationary: the score is far from 0
    problems = oracles.check_interval_fit(_fit_at(k, start, centers, radii), centers, radii, truth)
    assert problems and not any(p.startswith(oracles.KNOWN_FAULT) for p in problems)

def test_check_interval_fit_names_a_frozen_coefficient_and_still_compares_it(monkeypatch):
    rng = np.random.default_rng(3)
    truth = (0.1, 0.2, 0.3, 0.1)
    centers, radii, _ = oracles.scale_path(1.5, truth, rng.standard_normal(400), rng.gamma(1.5, 1.0, 400))
    k = oracles.moment_k(centers, radii)
    # alpha1 held at 0 although its score points inward: the best point
    # of its face scores below the truth, but above the truth projected
    # onto the face; a known fault only when fit_mle froze it
    held = _maximize(k, centers, radii, fixed_alpha=0.0)
    assert oracles.loglik_gradient(k, held, centers, radii)[1] > oracles.KKT_TOL
    frozen = _fit_at(k, held, centers, radii, ("alpha1",))
    assert oracles.check_interval_fit(frozen, centers, radii, truth) == [oracles.FROZEN_INWARD]
    problems = oracles.check_interval_fit(_fit_at(k, held, centers, radii), centers, radii, truth)
    assert problems and oracles.FROZEN_INWARD not in problems
    # the start-point comparison still holds a frozen fit
    monkeypatch.setattr(oracles, "start_theta", lambda k, radii: truth)
    problems = oracles.check_interval_fit(frozen, centers, radii, truth)
    assert any("below the start point" in p for p in problems)


def test_excess_known_faults():
    limit = oracles.KNOWN_FAULT_LIMITS[oracles.FROZEN_INWARD]
    assert oracles.excess_known_faults({oracles.FROZEN_INWARD: limit}) == []
    assert len(oracles.excess_known_faults({oracles.FROZEN_INWARD: limit + 1})) == 1


def test_garch_loglik_and_forecast_match_hand_worked_case():
    r = np.array([1.0, -1.0, 2.0])
    s1 = 14 / 9  # population variance of r
    s2 = 0.5 + 0.25 * 1 + 0.5 * s1
    s3 = 0.5 + 0.25 * 1 + 0.5 * s2
    ll = -0.5 * sum(math.log(2 * math.pi) + math.log(s) + x * x / s for s, x in zip((s1, s2, s3), r))
    got, path = oracles.garch_loglik(0.5, 0.25, 0.5, r)
    assert got == pytest.approx(ll, rel=1e-14)
    assert path.tolist() == pytest.approx([s1, s2, s3], rel=1e-14)
    f1 = 0.5 + 0.25 * 4 + 0.5 * s3
    assert oracles.garch_forecast(0.5, 0.25, 0.5, r, 2).tolist() == pytest.approx([f1, 0.5 + 0.75 * f1])


def test_check_garch_fit_names_the_cap_penalty_and_rejects_other_differences():
    r = np.array([1.0, -1.0, 2.0, 0.5])
    ll, _ = oracles.garch_loglik(0.1, 0.2, 0.7, r)
    assert oracles.check_garch_fit(NS(params=NS(omega=0.1, a=0.2, b=0.7), loglik=ll), r) == []
    bad = oracles.check_garch_fit(NS(params=NS(omega=0.1, a=0.2, b=0.7), loglik=ll + 1e-6), r)
    assert bad and not bad[0].startswith(oracles.KNOWN_FAULT)
    capped, _ = oracles.garch_loglik(0.1, 0.2991, 0.7, r)  # a + b = 0.9991
    fit = NS(params=NS(omega=0.1, a=0.2991, b=0.7), loglik=capped - 1e8 * 1e-8)
    (note,) = oracles.check_garch_fit(fit, r)
    assert note.startswith(oracles.KNOWN_FAULT)


def test_check_reports():
    reports = [NS(model=m, horizon=h, n=8 - h, r2=0.5) for m in ("intgarch", "garch11") for h in (1, 5)]
    assert oracles.check_reports(reports, (1, 5), 8, 0) == []
    reports[0].r2 = 1.5
    assert len(oracles.check_reports(reports[1:] + [reports[0]], (1, 5), 8, 0)) == 1
    assert len(oracles.check_reports(reports[1:], (1, 5), 8, 0)) == 1


def test_scale_path_matches_hand_worked_case():
    theta = (0.5, 0.0, 0.25, 0.25)  # weight sum 0.5, E(h) = 1
    centers, radii, h = oracles.scale_path(1.0, theta, [2.0, -1.0], [1.0, 0.5])
    h1 = 0.5 + 0.25 * 1.0 + 0.25 * 0.0  # radius lag k E(h), h lag 0
    h2 = 0.5 + 0.25 * h1 + 0.25 * h1
    assert h.tolist() == [h1, h2]
    assert centers.tolist() == [2 * h1, -h2] and radii.tolist() == [h1, 0.5 * h2]


def test_check_study_accepts_its_own_paths_and_rejects_perturbed_ones():
    design = (1.8147, 0.0906, 0.0318, 0.374, 0.1265)
    paths = oracles.study_paths(design, seed=7, replications=2, length=50)
    fits = [NS(params=NS(k=1.0 + i, theta=np.array([0.1, 0.02, 0.3, 0.1 + i]))) for i in range(2)]
    est = [[1.0, 0.1, 0.02, 0.3, 0.1], [2.0, 0.1, 0.02, 0.3, 1.1]]
    cells = [
        NS(param=p, true=t, mean_est=(a + b) / 2, mae=(abs(a - t) + abs(b - t)) / 2,
           empirical_se=abs(a - b) / math.sqrt(2), n_fits=2)
        for p, t, a, b in zip(("k", "mu", "alpha1", "beta1", "gamma1"), design, *est)
    ]
    assert oracles.check_study(design, 7, 2, 50, paths, fits, cells) == []
    c, r, h = paths[1]
    bent = [paths[0], (c, r, h * (1 + 1e-9))]
    assert oracles.check_study(design, 7, 2, 50, bent, fits, cells)
    cells[4].mean_est = 0.6 + 1e-9
    assert oracles.check_study(design, 7, 2, 50, paths, fits, cells)
