"""Tests of the benchmark itself: the reference, the output checks, the tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import reference
import tracing
import workloads as W

from fastslow import diffusion, srb_cache, standard_pairs, systems, ulam


# -- reference ------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 0.3, 0.77])
def test_reference_closed_forms(theta):
    assert reference.frozen_solve("LIN", theta)[1] == pytest.approx(0.5, abs=1e-12)
    assert abs(reference.frozen_solve("CBD", theta)[1]) <= 1e-12
    assert abs(reference.frozen_solve("LIN", theta)[0]) <= 1e-12


def test_reference_cpl_value():
    assert reference.frozen_solve("CPL", 0.25)[1] == pytest.approx(0.617342037, abs=1e-9)


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.6, 0.93])
def test_reference_converged_in_modes(theta):
    coarse = np.array(reference.frozen_solve("CPL", theta, K=16))
    fine = np.array(reference.frozen_solve("CPL", theta, K=32))
    assert np.abs(coarse - fine).max() <= 1e-12


def test_reference_table_converged():
    coarse = reference.Reference("CPL", n_theta=33, K=16)
    fine = reference.Reference("CPL", n_theta=65, K=32)
    th = np.linspace(0.0, 1.0, 97)
    assert np.abs(coarse.omega_bar(th) - fine.omega_bar(th)).max() <= 1e-10
    assert np.abs(coarse.sigma2(th) - fine.sigma2(th)).max() <= 1e-10
    assert np.abs(coarse.d_omega_bar(th) - fine.d_omega_bar(th)).max() <= 1e-8


def test_reference_path_values():
    _, theta, sigma = reference.path(reference.Reference("CPL"), 0.25, 1.0)
    assert theta[-1] == pytest.approx(0.4993959, abs=1e-7)
    assert sigma[-1] == pytest.approx(0.0397939, abs=1e-7)


# -- checks reject outputs just beyond their tolerance -----------------------------

def bump(value, scale, tol, factor):
    return value + factor * tol * scale


@pytest.mark.parametrize("key,tol", [("theta_bar", W.PATH_THETA_TOL), ("Sigma", W.PATH_SIGMA_TOL)])
def test_check_path(key, tol):
    exp = W.PathCPL(0).prepare()
    assert W.check_path(dict(exp), exp) == []
    for factor, ok in ((0.99, True), (1.01, False), (-1.01, False)):
        out = dict(exp, **{key: bump(exp[key], abs(exp[key]), tol, factor)})
        assert (W.check_path(out, exp) == []) is ok


def sweep_outputs(work, exp):
    return {
        "CPL": [dict(r, theta=float(t)) for r, t in zip(exp["CPL"], work.thetas["CPL"])],
        "LIN": [{"theta": float(t), "omega_bar": 0.0, "D_omega_bar": 0.0, "sigma2": 0.5,
                 "coboundary": False} for t in work.thetas["LIN"]],
        "CBD": [{"theta": float(t), "omega_bar": 0.0, "D_omega_bar": 0.0, "sigma2": 0.0,
                 "coboundary": True} for t in work.thetas["CBD"]],
    }


def test_check_sweep():
    work = W.SweepTheta(3)
    exp = work.prepare()
    assert W.check_sweep(sweep_outputs(work, exp), exp) == []
    for key, tol in W.SWEEP_TOL.items():
        for factor, ok in ((0.99, True), (1.01, False)):
            out = sweep_outputs(work, exp)
            out["CPL"][5][key] = bump(out["CPL"][5][key], exp["sup"][key], tol, factor)
            assert (W.check_sweep(out, exp) == []) is ok
    cases = [("LIN", "sigma2", 0.5 + 1.01 * W.LIN_SIGMA2_TOL),
             ("LIN", "omega_bar", 1.01 * W.ZERO_TOL),
             ("LIN", "D_omega_bar", -1.01 * W.ZERO_TOL),
             ("CBD", "sigma2", 1.01 * W.CBD_SIGMA2_MAX),
             ("CBD", "coboundary", False)]
    for name, key, value in cases:
        out = sweep_outputs(work, exp)
        out[name][1][key] = value
        assert W.check_sweep(out, exp) != []


def ensemble_outputs(var):
    return {"var_T": var, "mean_consistent": True, "charfn_consistent": True,
            "martingale": [("z0|conditioning 0", True)]}


def test_check_ensemble():
    exp = {"Sigma": 0.0397939}
    s = exp["Sigma"]
    assert W.check_ensemble(ensemble_outputs(s), exp) == []
    assert W.check_ensemble(ensemble_outputs(bump(s, s, W.ENS_VAR_TOL, 0.99)), exp) == []
    assert W.check_ensemble(ensemble_outputs(bump(s, s, W.ENS_VAR_TOL, 1.01)), exp) != []
    assert W.check_ensemble(ensemble_outputs(bump(s, s, W.ENS_VAR_TOL, -1.01)), exp) != []
    for key in ("mean_consistent", "charfn_consistent"):
        assert W.check_ensemble(dict(ensemble_outputs(s), **{key: False}), exp) != []
    out = dict(ensemble_outputs(s), martingale=[("z0|conditioning 0", False)])
    assert W.check_ensemble(out, exp) != []


def decompose_outputs(exp):
    return {"steps": [{"pairs": 3, "mass_defect": 0.0, "weight_sum": 1.0, "invalid": "",
                       "integrals": list(ref)} for ref in exp["integrals"]]}


def test_check_decompose():
    exp = {"integrals": [[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]]}
    assert W.check_decompose(decompose_outputs(exp), exp) == []
    cases = [("integrals", lambda v: [v[0], v[1] + 1.01 * W.DEC_INTEGRAL_TOL, v[2]], False),
             ("integrals", lambda v: [v[0], v[1] - 0.99 * W.DEC_INTEGRAL_TOL, v[2]], True),
             ("mass_defect", lambda v: 1.01 * W.DEC_DEFECT_MAX, False),
             ("mass_defect", lambda v: 0.99 * W.DEC_DEFECT_MAX, True),
             ("weight_sum", lambda v: 1.0 + 1.01 * W.DEC_WEIGHT_TOL, False),
             ("invalid", lambda v: "|G'| too large", False)]
    for key, change, ok in cases:
        out = decompose_outputs(exp)
        out["steps"][1][key] = change(out["steps"][1][key])
        assert (W.check_decompose(out, exp) == []) is ok


def test_family_integrals_of_a_flat_pair():
    pair = standard_pairs.constant_pair([0.3], 0.2, 0.3, 1e-3)
    family = standard_pairs.as_family(pair, standard_pairs.default_constants(systems.fixture("CPL")))
    funcs = W.probe_functions(5)
    got = W.family_integrals(family.to_dict(), funcs)
    x = np.linspace(0.2, 0.3, 200_001)
    want = [np.trapezoid(g(x, np.full_like(x, 0.3)), x) / 0.1 for g in funcs]
    assert np.allclose(got, want, atol=1e-10)


# -- tracer ---------------------------------------------------------------------------

def test_self_times_subtract_union_of_children():
    spans = [["a", 0, 100, None, 1, None],
             ["b", 10, 40, 0, 1, None],
             ["c", 30, 60, 0, 2, None],      # overlaps b, as a second thread would
             ["d", 70, 80, 0, 1, None],
             ["e", 15, 20, 1, 1, None]]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 10, 5]


def test_install_wraps_every_binding_and_uninstall_restores():
    cpl = systems.fixture("CPL")
    original = ulam.ulam_operator
    tracer = tracing.Tracer()
    tracer.install([cpl])
    try:
        assert srb_cache.ulam_operator is ulam.ulam_operator is diffusion.ulam_operator
        assert ulam.ulam_operator is not original
        tracer.active = True
        ctx = diffusion.diffusion_matrix(cpl, [0.3], 64)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert srb_cache.ulam_operator is original and diffusion.ulam_operator is original
    assert "f_lift" not in vars(cpl) and "ulam_operator" in vars(ulam)
    m = tracing.layer_metrics(tracer.spans, 0)
    assert m["diffusion.matrix_calls"] == 1 and m["diffusion.jacobian_calls"] == 1
    assert m["ulam.operator_calls"] == 3 and m["ulam.distinct_theta_ratio"] == 1.0
    assert m["diffusion.autocov_steps"] == ctx.M
    assert m["systems.eval_calls"] > 0 and m["srb_cache.queries"] == 0


def test_tracer_is_thread_safe_and_adopts_pool_workers():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("rng.leaf", lambda i: i)

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(leaf, i) for i in range(n)]
            return [f.result(timeout=60) for f in futures]

    fan = tracer.wrap("experiments.fan_out", fan_out)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer.active = True
        assert fan(4000) == list(range(4000))
    finally:
        tracer.active = False
        sys.setswitchinterval(old)
    assert len(tracer.spans) == 4001 and tracer.spans[0][0] == "experiments.fan_out"
    leaves = tracer.spans[1:]
    assert all(s[3] == 0 and s[2] >= s[1] > 0 for s in leaves)
    assert len({s[4] for s in leaves}) > 1
