"""Acceptance gate: the full criteria list at stated tolerances.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure); the heavy scenario runs are shared module-scoped fixtures.  The
whole module is plain pytest, so ``pytest tests/test_acceptance.py -v -s``
is the acceptance report.
"""

import time

import numpy as np
import pytest

from ringswarm import (
    GridFunction,
    MorseKernel,
    grid_nodes,
    integrate,
    l2_norm,
    microscopic_rhs,
    run_continuum,
    step_swarm,
    velocity_field,
    von_mises_density,
    wrap_angle,
)
from ringswarm.cli import main as cli_main
from ringswarm.scenarios import (
    bimodal_config,
    monomodal_config,
    open_loop_config,
    run_continuum_scenario,
    run_microscopic,
    run_noise_sweep,
    run_scalability_sweep,
)

from kernel_norms import derivative_l2_norm
from loop_parts import continuum_control

pytestmark = pytest.mark.acceptance

KL_LANDMARK = 0.2


def check(num, name, passed, detail):
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'}: {name} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def mono_run():
    t0 = time.perf_counter()
    record = run_microscopic(monomodal_config(record_density=False))
    return record, time.perf_counter() - t0


@pytest.fixture(scope="module")
def continuum_mono_run():
    return run_continuum_scenario(monomodal_config(record_density=False))


@pytest.fixture(scope="module")
def bimodal_run():
    return run_microscopic(bimodal_config(record_agents=False))


def test_criterion_1_monomodal_regulation(mono_run, continuum_mono_run):
    record, wall = mono_run
    final_kl = record.final_kl()
    e_l2 = [row[2] for row in continuum_mono_run.metrics if row[0] <= 1.0 + 1e-9]
    drops = np.diff(e_l2)
    ok = final_kl < KL_LANDMARK and bool(np.all(drops < 0.0)) and wall < 60.0
    check(1, "monomodal regulation", ok,
          f"final d_kl={final_kl:.4f} (<0.2), continuum ||e|| strictly decreasing "
          f"on [0,1]: {bool(np.all(drops < 0.0))}, wall={wall:.1f}s (<60)")


def test_criterion_2_bimodal_regulation(bimodal_run):
    record = bimodal_run
    final_kl = record.final_kl()
    t_final, rho, _ = record.density[-1]
    assert t_final == record.metrics[-1][0]
    angles = record.node_angles
    m = rho.size
    spacing = 2 * np.pi / m
    peaks = [angles[j] for j in range(m)
             if rho[j] > rho[j - 1] and rho[j] > rho[(j + 1) % m]
             and rho[j] > 0.25 * rho.max()]
    near = sorted(float(wrap_angle(p - np.sign(p) * np.pi / 2)) for p in peaks)
    two_modes = (len(peaks) == 2
                 and all(abs(d) <= 2 * spacing + 1e-12 for d in near))
    ok = final_kl < KL_LANDMARK and two_modes
    check(2, "bimodal regulation", ok,
          f"final d_kl={final_kl:.4f} (<0.2), modes at {[round(p, 4) for p in peaks]} "
          f"within 2 spacings of +-pi/2: {two_modes}")


def test_criterion_3_error_decay_bound():
    # continuum with a small mass-preserving perturbation of a reference
    # density that satisfies its own transport law exactly (the uniform
    # profile: the odd kernel produces zero self-velocity).  The Morse
    # kernel jumps by 2s(1-G) = 1/N at 0, and derivative_l2_norm leaves that
    # jump out; the missing term, (1/N)*||e0||_inf = 1e-3, is far inside the
    # bound's slack of about 2
    x = grid_nodes(256)
    n, kp = 50.0, 10.0
    kernel = MorseKernel(0.5, 0.5, strength=1.0 / n)
    rho_d = von_mises_density(0.0, 0.0, n, x)
    control = continuum_control(rho_d, kernel, kp)

    rho0 = rho_d + 0.05 * np.sin(x)
    assert abs(integrate(rho0) - n) < 1e-12  # mass-preserving perturbation
    e0 = l2_norm(rho_d - rho0)
    run = run_continuum(rho0, 0.0, kernel.sample_on_grid(x.size), control, 0.1,
                        dt_max=1e-3, sample_every=0.005)
    ts = np.array(run.times)
    els = np.array([l2_norm(rho_d - rho) for rho in run.densities])
    slope = float(np.polyfit(ts, np.log(els**2), 1)[0])
    bound = -2.0 * kp + derivative_l2_norm(kernel, x.size) * e0
    allowed = bound + 0.1 * abs(bound)
    check(3, "error-norm decay bound", slope <= allowed,
          f"d/dt log||e||^2 = {slope:.2f} <= {allowed:.2f} "
          f"(bound {bound:.2f} + 10% slack)")


def test_criterion_4_conservation_suite(mono_run, continuum_mono_run):
    record, _ = mono_run
    q_micro = record.metadata["q_integral_worst"]
    q_cont = continuum_mono_run.metadata["q_integral_worst"]
    drift = continuum_mono_run.metadata["mass_drift"]
    rng = np.random.default_rng(1234)
    kernel = MorseKernel(0.5, 0.5)
    worst_momentum = 0.0
    for _ in range(100):
        rates = microscopic_rhs(rng.uniform(-np.pi, np.pi, 50), kernel, None)
        worst_momentum = max(worst_momentum, abs(float(rates.sum())))
    ok = drift < 1e-9 and q_micro < 1e-9 and q_cont < 1e-9 and worst_momentum < 1e-10
    check(4, "conservation suite", ok,
          f"continuum mass drift={drift:.2e} (<1e-9), worst |int q| micro={q_micro:.2e} "
          f"continuum={q_cont:.2e} (<1e-9), worst |sum xdot|={worst_momentum:.2e} (<1e-10)")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for m in (16, 64, 256):
        x = grid_nodes(m)

        def trig_kernel(z):
            return 0.9 * np.sin(z) - 0.4 * np.sin(2 * z) + 0.2 * np.cos(3 * z)

        kernel = GridFunction(trig_kernel(x))
        density = rng.normal(size=m)
        fast = velocity_field(kernel, density)
        d = (x[:, None] - x[None, :] + np.pi) % (2 * np.pi) - np.pi
        direct = (2.0 * np.pi / m) * (trig_kernel(d) @ density)
        worst = max(worst, float(np.abs(fast - direct).max() / np.abs(direct).max()))

    kernel = MorseKernel(2.0, 2.0, strength=2.0)
    pos0 = np.array([-1.0, 1.0])

    def integrate_positions(dt):
        x = pos0
        for _ in range(int(round(0.35 / dt))):
            x = step_swarm(x, kernel, None, dt)
        return x

    ref = integrate_positions(0.35 / 2800)
    dts = [1.4e-2, 7e-3, 3.5e-3]
    errs = [np.abs(integrate_positions(dt) - ref).max() for dt in dts]
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = worst < 1e-10 and order >= 3.8
    check(5, "oracle equivalence", ok,
          f"fft-vs-direct worst rel err={worst:.2e} (<1e-10), "
          f"rk4 empirical order={order:.2f} (>=3.8)")


@pytest.fixture(scope="module")
def sweep_result():
    t0 = time.perf_counter()
    rows = run_scalability_sweep(monomodal_config())
    return rows, time.perf_counter() - t0


def test_criterion_6_scalability_sweep(sweep_result):
    rows, wall = sweep_result
    by_param = {p: kl for p, kl, status in rows}
    statuses = [status for _, _, status in rows]
    finite = [(int(p), kl) for p, kl, _ in rows if p != "inf"]
    landmark_ok = all(kl < KL_LANDMARK for n, kl in finite if n >= 5)
    kls = [kl for _, kl in finite]
    trend_ok = all(b <= a + 0.05 for a, b in zip(kls, kls[1:]))
    continuum_ok = by_param["inf"] <= min(kl for _, kl in finite)
    ok = (all(s == "ok" for s in statuses) and landmark_ok and trend_ok
          and continuum_ok and wall < 900.0)
    table = {p: round(kl, 4) for p, kl, _ in rows}
    check(6, "scalability sweep", ok,
          f"{table}; d_kl<0.2 for N>=5: {landmark_ok}, non-increasing(0.05): "
          f"{trend_ok}, inf<=min finite: {continuum_ok}, wall={wall:.0f}s (<900)")


def test_criterion_7_noise_degradation():
    rows = run_noise_sweep(monomodal_config(record_agents=False, record_density=False),
                           p_list=[20.0, 80.0], n_seeds=5)
    by_p = {p: kl for p, kl, status in rows}
    ok = all(status == "ok" for _, _, status in rows) and by_p[80.0] > by_p[20.0]
    check(7, "noise degradation", ok,
          f"mean d_kl at 80 dBW={by_p[80.0]:.4f} > at 20 dBW={by_p[20.0]:.4f} "
          f"over 5 seeds")


def test_criterion_8_open_loop_spreading():
    record = run_microscopic(open_loop_config(record_agents=False, record_density=False))
    final_kl = record.final_kl()
    check(8, "open-loop spreading", final_kl < 0.05,
          f"final KDE-vs-uniform d_kl={final_kl:.4f} (<0.05)")


def test_criterion_9_determinism(tmp_path):
    args = ["regulate-mono", "--seed", "7"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    names = ("metrics.csv", "agents.csv", "density.csv", "metadata.txt")
    same = {name: (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in names}
    check(9, "byte-identical replay", all(same.values()),
          f"identical outputs for rerun with same config+seed: {same}")
