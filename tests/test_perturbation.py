import pathlib
import re

import numpy as np
import pytest

from bqci import iteration as it
from bqci import partition as pt
from bqci import perturbation as pb
from bqci import stress_update as su
from bqci import torus_field as tf
from conftest import mini_start
from oracles import AmplitudeSet, active_cells, gradient_3d
from test_partition import offset_order_corner_alphas

KAPPA = 0.1


def make_engine(n=1, lam=8, mu=2, N=16, nt=9, temp=True, static=False):
    grid = tf.Grid3(N, N, N)
    tgrid = tf.TimeGrid(0.0, 1.0, nt)
    X, Y, Z = grid.meshes()
    t = tgrid.times().reshape(-1, 1, 1, 1)
    wob = np.zeros_like(t) if static else 0.3 * t
    a_n = KAPPA * (0.3 * np.sin(X) * np.cos(Y) + 0.1 * np.cos(Z)) * (1.0 + wob)
    c_n = KAPPA * 0.2 * np.cos(Y) * (1.0 + wob) if temp else None
    e_vals = np.full(tgrid.nt, 10 * KAPPA)
    base = 0.45 * np.stack([np.sin(Y), np.cos(Z), np.sin(X + Y)])
    v_ell = base[None] * (1.0 + wob)[:, None]
    eng = pb.WaveEngine(n, lam, mu, grid, tgrid, a_n, c_n, e_vals, v_ell, KAPPA)
    return eng


def per_cell_sum(eng, j, term, cells=None):
    """2 Re sum_l term(l, xi_l) e^{i (xi_l . x - omega_l t_j)} over the
    cells active at sample j (or the given cells), one cell at a time."""
    X, Y, Z = eng.grid.meshes()
    t = eng.tgrid.times()[j]
    if cells is None:
        cells = active_cells(eng.mu * eng.v_ell[j], eng.pou)
    out = 0.0
    for l in cells:
        c = pt.parity_index(l)
        xi = eng.lam * (2 ** int(c)) * eng.carrier
        omega = (eng.lam / eng.mu) * (2 ** int(c)) * float(np.dot(eng.carrier, l))
        ph = np.exp(1j * (xi[0] * X + xi[1] * Y + xi[2] * Z - omega * t))
        out = out + 2.0 * (term(l, xi) * ph).real
    return out


def cell_amplitude(eng, kind):
    """The per-cell wave coefficient of kind: g_{nl} or h_{nl}, (l, j) -> field."""
    amps = AmplitudeSet(eng)
    return {"w": amps.g, "chi": amps.h}[kind]


def brute_wave(eng, j, kind):
    amp = cell_amplitude(eng, kind)
    return per_cell_sum(eng, j, lambda l, xi: amp(l, j, +1))


def test_velocity_matches_per_cell_oracle():
    eng = make_engine()
    for j in (0, 4, 8):
        w = sum(eng.wave_parts(j, "w"))
        ref = brute_wave(eng, j, "w")
        assert np.max(np.abs(w - ref)) < 1e-11 * max(np.max(np.abs(ref)), 1.0)


def test_temperature_matches_per_cell_oracle():
    eng = make_engine()
    for j in (0, 4):
        chi = sum(eng.wave_parts(j, "chi"))
        ref = brute_wave(eng, j, "chi")
        assert np.max(np.abs(chi - ref)) < 1e-11 * max(np.max(np.abs(ref)), 1.0)


def test_main_plus_correction_split():
    eng = make_engine()
    wo, wc = eng.wave_parts(3, "w")
    # the parts sum to the wave materialized from the summed spectra
    assert np.allclose(wo + wc, eng.assemble_hat(sum(eng.wave_hats(3, "w")),
                                                 eng.classes(3)))
    # correction is 1/lam small relative to the main part
    assert np.max(np.abs(wc)) < np.max(np.abs(wo))


def test_cancellation_identities():
    eng = make_engine()
    for j in range(eng.tgrid.nt):
        r1, r2 = eng.cancellation_residual(j)
        assert r1 <= 1e-10 * KAPPA
        assert r2 <= 1e-10 * KAPPA


def test_wave_divergence_is_roundoff():
    eng = make_engine()
    for j in (2, 6):
        div = eng.wave_divergence(j)
        grad = sum(eng.wave_gradient_parts(j, "w"))
        assert np.max(np.abs(div)) <= 1e-8 * np.max(np.abs(grad))


def test_wave_means_vanish():
    eng = make_engine()
    for j in (0, 4, 8):
        assert np.max(np.abs(eng.wave_mean(j, "w"))) <= 1e-10
        assert abs(eng.wave_mean(j, "chi")) <= 1e-10


def check_gradient_matches_oracle(kind):
    eng = make_engine()
    j = 4
    grad = sum(eng.wave_gradient_parts(j, kind))
    # finite difference in x on a resolved-carrier configuration is not
    # available; instead compare against the per-cell symbolic gradient
    amp = cell_amplitude(eng, kind)
    grid = eng.grid

    def term(l, xi):
        g = amp(l, j, +1)
        gg = gradient_3d(g, grid)
        return np.stack([gg[d] + 1j * xi[d] * g for d in range(3)])
    ref = per_cell_sum(eng, j, term)
    assert np.max(np.abs(grad - ref)) < 1e-10 * max(np.max(np.abs(ref)), 1.0)


def test_velocity_gradient_matches_oracle():
    check_gradient_matches_oracle("w")


def test_temperature_gradient_matches_oracle():
    check_gradient_matches_oracle("chi")


def check_transport_matches_oracle(kind):
    eng = make_engine()
    j = 4
    got = eng.assemble_hat(eng.transport_hat(j, kind), eng.classes(j))
    amp = cell_amplitude(eng, kind)
    grid, tgrid = eng.grid, eng.tgrid
    W = tf.time_derivative_weights(tgrid.nt, tgrid.dt)
    S = tf.time_derivative_support(tgrid.nt)
    cells = set()
    for m in range(5):
        cells.update(active_cells(eng.mu * eng.v_ell[int(S[j, m])], eng.pou))

    def term(l, xi):
        dtg = sum(W[j, m] * amp(l, int(S[j, m]), +1) for m in range(5))
        g = amp(l, j, +1)
        adv = sum((l[d] / eng.mu) * gradient_3d(g, grid)[d] for d in range(3))
        return dtg + adv
    ref = per_cell_sum(eng, j, term, cells=sorted(cells))
    assert np.max(np.abs(got - ref)) < 1e-9 * max(np.max(np.abs(ref)), 1.0)


def test_transport_matches_oracle():
    check_transport_matches_oracle("w")


def test_temperature_transport_matches_oracle():
    check_transport_matches_oracle("chi")


def test_amplitude_value_at_lattice_point():
    # zero stress, carrier velocity zero: alpha_(0,0,0) = 1 everywhere the
    # point mu*v = 0, so b = sqrt(e/2) = sqrt(5 kappa)
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.0, 1.0, 9)
    shape = (tgrid.nt,) + grid.shape
    eng = pb.WaveEngine(1, 8, 2, grid, tgrid, np.zeros(shape), np.zeros(shape),
                        np.full(tgrid.nt, 10 * KAPPA), np.zeros((tgrid.nt, 3) + grid.shape),
                        KAPPA)
    amps = AmplitudeSet(eng)
    b = amps.b((0, 0, 0), 4)
    assert np.allclose(b, np.sqrt(5 * KAPPA), atol=1e-12)


def test_no_temperature_wave_for_late_substeps(monkeypatch):
    # flux blocks exist for substeps 1-3 only (BLOCKS["f"]'s basis), so
    # run_substep hands the engines of substeps 4-6 no c_n
    engines = []

    class Recording(pb.WaveEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)
    monkeypatch.setattr(su, "WaveEngine", Recording)
    state = mini_start()
    it.begin_step(state, 0.9, 0.9)
    for n in range(1, 7):
        su.run_substep(state, n, 16, 0.9, 0.9)
    assert [eng.n for eng in engines] == list(range(1, 7))
    for eng in engines[3:]:
        assert eng.c_n is None and eng.kinds == ("w",), eng.n
        assert np.array_equal(AmplitudeSet(eng).beta((0, 0, 0), 3), np.zeros(eng.grid.shape))


def test_zero_amplitudes_give_zero_waves():
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.0, 1.0, 9)
    shape = (tgrid.nt,) + grid.shape
    eng = pb.WaveEngine(2, 8, 2, grid, tgrid, np.zeros(shape), np.zeros(shape),
                        np.zeros(tgrid.nt), np.zeros((tgrid.nt, 3) + grid.shape), KAPPA)
    # a zero flux block carries no temperature wave
    assert eng.c_n is None and "chi" not in eng.kinds
    assert np.allclose(sum(eng.wave_parts(0, "w")), 0.0)


def test_parameter_validation():
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.0, 1.0, 9)
    shape = (tgrid.nt,) + grid.shape
    zeros = np.zeros(shape)
    v = np.zeros((tgrid.nt, 3) + grid.shape)
    with pytest.raises(pb.ParameterError):
        pb.WaveEngine(1, 7, 2, grid, tgrid, zeros, None, np.zeros(tgrid.nt), v, KAPPA)
    with pytest.raises(pb.ParameterError):
        pb.WaveEngine(1, 8, 3, grid, tgrid, zeros, None, np.zeros(tgrid.nt), v, KAPPA)


@pytest.mark.parametrize("name, value", [("e_vals", np.nan), ("a_n", np.nan),
                                         ("c_n", np.inf)])
def test_non_finite_engine_input_is_refused(name, value):
    # NaN fails every comparison, so the radicand check alone would pass it
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.0, 1.0, 9)
    X, Y, Z = grid.meshes()
    args = {"a_n": np.broadcast_to(KAPPA * np.sin(X), (9,) + grid.shape).copy(),
            "c_n": np.broadcast_to(KAPPA * np.cos(Y), (9,) + grid.shape).copy(),
            "e_vals": np.full(9, 10 * KAPPA)}
    v = np.zeros((9, 3) + grid.shape)
    pb.WaveEngine(1, 8, 2, grid, tgrid, args["a_n"], args["c_n"], args["e_vals"], v, KAPPA)
    if name == "e_vals":
        args[name][4] = value
    else:
        args[name][4, 3, 3, 3] = value
    with pytest.raises(pb.AmplitudeError, match=f"{name} is not finite at sample 4 "
                       rf"\(t = {tgrid.times()[4]:.4f}\)"):
        pb.WaveEngine(1, 8, 2, grid, tgrid, args["a_n"], args["c_n"], args["e_vals"], v, KAPPA)


def test_radicand_contract_breach_raises():
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.0, 1.0, 9)
    shape = (tgrid.nt,) + grid.shape
    a_big = np.full(shape, 20 * KAPPA)  # stress way over budget
    v = np.zeros((tgrid.nt, 3) + grid.shape)
    with pytest.raises(pb.AmplitudeError):
        pb.WaveEngine(1, 8, 2, grid, tgrid, a_big, None,
                      np.full(tgrid.nt, 10 * KAPPA), v, KAPPA)


def sorted_binning(eng, j):
    """The former slot gather, kept as the oracle of the binned-by-
    construction one: offset-order corners, slot parities argsorted
    pointwise into classes, omega gathered, and phases evaluated on
    np.unique(omega) (returned as a function of t)."""
    corners, alphas = offset_order_corner_alphas(eng.pou, eng.mu * eng.v_ell[j])
    rad = np.maximum(eng.e_vals[j] - eng.a_n[j], 0.0)
    b = np.sqrt(rad / 2.0) * alphas
    safe = np.sqrt(2.0 * np.maximum(rad, 1e-300))
    beta = np.where(rad > 0, -eng.c_n[j] / safe, 0.0) * alphas
    even = (corners % 2 == 0).astype(np.int64)
    pc = even[:, 0] + 2 * even[:, 1] + 4 * even[:, 2]
    kp_dot = sum(eng.carrier[d] * corners[:, d] for d in range(3)).astype(np.float64)
    omega = (eng.lam / eng.mu) * np.ldexp(1.0, pc) * kp_dot
    lmu = corners.astype(np.float64) / eng.mu
    npts, shape = eng.grid.npts, eng.grid.shape
    perm = np.argsort(pc.reshape(8, npts), axis=0, kind="stable")
    b_bin = np.take_along_axis(b.reshape(8, npts), perm, axis=0)
    cls = np.flatnonzero(np.any(b_bin != 0.0, axis=1))
    rows = perm[cls]

    def gather(x):
        return np.take_along_axis(x.reshape(8, npts), rows, axis=0).reshape(
            (len(cls),) + shape)

    omega_rows = gather(omega)
    uq, inv = np.unique(omega_rows.ravel(), return_inverse=True)
    return {
        "classes": cls,
        "b": b_bin[cls].reshape((len(cls),) + shape),
        "beta": gather(beta),
        "lmu": np.stack([gather(lmu[:, d]) for d in range(3)], axis=1),
        "kdot": gather(kp_dot),
        "phase": lambda t: np.exp(-1j * t * uq)[inv].reshape(omega_rows.shape),
    }


@pytest.mark.parametrize("lam, mu", [(8, 2), (32, 8)])
def test_binned_rows_match_sorted_gather(lam, mu):
    eng = make_engine(lam=lam, mu=mu)
    for j in (0, 4, 8):
        bn, ref = eng._binned(j), sorted_binning(eng, j)
        assert np.array_equal(bn["classes"], ref["classes"])
        assert np.array_equal(bn["kdot"], ref["kdot"])
        assert np.array_equal(bn["lmu"], ref["lmu"])
        flat = ref["kdot"].reshape(len(ref["classes"]), -1)
        assert np.array_equal(bn["range"], np.stack([flat.min(1), flat.max(1)], 1))
        for key in ("b", "beta"):
            scale = np.max(np.abs(ref[key]))
            assert np.max(np.abs(bn[key] - ref[key])) <= 4e-16 * scale
        for t in eng.tgrid.times()[[0, j, -1]]:
            assert np.array_equal(eng._phase_factor(j, t), ref["phase"](t))


def drifting_engines():
    """(fine, halved): an engine on 17 samples whose carrier drifts through
    the lattice, and one on tgrid.halved() with every input sampled [::2].
    mu v_x is near 0 (even cells only) at samples 6..10 and 1 (odd cells
    only) at samples 4 and 12, so at j = 8 the stride-2 stencil reaches
    classes outside classes(j)."""
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.0, 1.0, 17)
    X, Y, Z = grid.meshes()
    t = tgrid.times().reshape(-1, 1, 1, 1)
    drift = ((np.arange(17) - 8) / 4.0) ** 4 / 2
    v_ell = np.stack(np.broadcast_arrays(
        drift.reshape(-1, 1, 1, 1) + 0.01 * np.sin(Y),
        0.15 + 0.01 * np.cos(Z), 0.15 + 0.01 * np.sin(X)), axis=1)
    a_n = KAPPA * 0.3 * np.sin(X) * np.cos(Y) * (1.0 + 0.3 * t)
    c_n = KAPPA * 0.2 * np.cos(Y) * (1.0 + 0.3 * t)
    e_vals = np.full(17, 10 * KAPPA)
    fine = pb.WaveEngine(1, 8, 2, grid, tgrid, a_n, c_n, e_vals, v_ell, KAPPA)
    half = pb.WaveEngine(1, 8, 2, grid, tgrid.halved(), a_n[::2], c_n[::2],
                         e_vals[::2], v_ell[::2], KAPPA)
    return fine, half


def test_stride2_dt_is_the_halved_grid_dt():
    # the Richardson companion is the stride-1 d_t of the halved problem,
    # also where its stencil reaches classes the slice's own rows lack
    fine, half = drifting_engines()
    widened = [j for j in range(0, 17, 2)
               if not np.isin(fine.classes(j, 2), fine.classes(j)).all()]
    assert 8 in widened
    for j in range(0, 17, 2):
        for kind in ("w", "chi"):
            got = fine.assemble_hat(fine.dt_hat(j, kind, stride=2), fine.classes(j, 2))
            want = half.assemble_hat(half.dt_hat(j // 2, kind), half.classes(j // 2))
            assert np.any(want)
            assert np.array_equal(got, want), (j, kind)


def test_no_other_module_reads_the_engine_privates():
    # the engine's data (tables, per-sample window, per-slice value) is
    # reached through its public methods only: no module but perturbation
    # names an underscore attribute of an engine
    pattern = re.compile(r"(?:\.e|\bengine)\._\w")
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(pathlib.Path(pb.__file__).parent.glob("*.py"))
            if path.name != "perturbation.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []
