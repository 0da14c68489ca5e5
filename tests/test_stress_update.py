import numpy as np
import pytest

from bqci import algebra
from bqci import inverse_div as idv
from bqci import partition as pt
from bqci import perturbation as pb
from bqci import stress_update as su
from bqci import torus_field as tf

KAPPA = 0.1


def make_engine(n=1, lam=8, mu=2, N=16, nt=9, temp=True):
    grid = tf.Grid3(N, N, N)
    tgrid = tf.TimeGrid(0.0, 1.0, nt)
    X, Y, Z = grid.meshes()
    t = tgrid.times().reshape(-1, 1, 1, 1)
    wob = 0.3 * t
    a_n = KAPPA * (0.3 * np.sin(X) * np.cos(Y) + 0.1 * np.cos(Z)) * (1.0 + wob)
    c_n = KAPPA * 0.2 * np.cos(Y) * (1.0 + wob) if temp else None
    e_vals = np.full(tgrid.nt, 10 * KAPPA)
    base = 0.45 * np.stack([np.sin(Y), np.cos(Z), np.sin(X + Y)])
    v_ell = base[None] * (1.0 + wob)[:, None]
    return pb.WaveEngine(n, lam, mu, grid, tgrid, a_n, c_n, e_vals, v_ell, KAPPA)


def make_assembler(eng):
    grid, nt = eng.grid, eng.tgrid.nt
    X, Y, Z = grid.meshes()
    v_prev = np.stack([
        0.2 * np.cos(Y) + 0.05 * np.sin(Z),
        0.1 * np.sin(X),
        0.15 * np.cos(X + Y),
    ])[None].repeat(nt, axis=0)
    grad_v_prev = np.stack([
        np.stack([
            np.stack([tf.derivative(v_prev[j, a], "xyz"[b], grid) for a in range(3)])
            for b in range(3)
        ])
        for j in range(nt)
    ])
    theta_prev = (0.3 * np.cos(X) * np.sin(Y))[None].repeat(nt, axis=0)
    grad_theta_prev = np.stack([tf.gradient(theta_prev[j], grid) for j in range(nt)])
    theta_ell = (0.2 * np.sin(Z) + 0.1 * np.cos(X))[None].repeat(nt, axis=0)
    return su.SubstepAssembler(eng, v_prev, grad_v_prev, theta_prev,
                               grad_theta_prev, theta_ell)


def mode_field(grid, modes, carrier):
    x, y, z = grid.axes()
    dot = (carrier[0] * x[:, None, None] + carrier[1] * y[None, :, None]
           + carrier[2] * z[None, None, :])
    out = np.zeros(grid.shape)
    for q, amp in modes.items():
        out += 2.0 * (amp * np.exp(1j * q * dot)).real
    return out


def test_oscillation_modes_rebuild_main_wave_square():
    eng = make_engine()
    asm = make_assembler(eng)
    j = 4
    U = eng.base_rows(j)["U"]
    S = eng.assemble_hat(tf.fft3(U), eng.classes(j))  # scalar main-wave sum
    dc = 2.0 * np.sum(np.abs(U) ** 2, axis=0)
    rebuilt = mode_field(eng.grid, asm.oscillation_modes(j, "w"), eng.carrier) + dc
    assert np.max(np.abs(rebuilt - S * S)) < 1e-10 * max(np.max(S * S), 1.0)


def test_flux_oscillation_modes_rebuild_cross_product():
    eng = make_engine()
    asm = make_assembler(eng)
    j = 2
    bf = eng.base_rows(j)
    Sw = eng.assemble_hat(tf.fft3(bf["U"]), eng.classes(j))
    Sx = eng.assemble_hat(tf.fft3(bf["V"]), eng.classes(j))
    dc = 2.0 * np.sum((bf["U"] * bf["V"].conj()).real, axis=0)
    rebuilt = mode_field(eng.grid, asm.oscillation_modes(j, "chi"), eng.carrier) + dc
    scale = max(np.max(np.abs(Sw * Sx)), 1.0)
    assert np.max(np.abs(rebuilt - Sw * Sx)) < 1e-10 * scale


def test_oscillation_dc_matches_cancelled_block():
    # the removed zero mode is exactly the block being cancelled
    eng = make_engine()
    j = 3
    U = eng.base_rows(j)["U"]
    dc = 2.0 * np.sum(np.abs(U) ** 2, axis=0)
    rad = eng.e_vals[j] - eng.a_n[j]
    assert np.max(np.abs(dc - rad)) < 1e-10 * KAPPA


def test_mode_keys_are_positive_multiples():
    eng = make_engine()
    asm = make_assembler(eng)
    modes = asm.oscillation_modes(5, "w")
    assert all(isinstance(q, int) and q > 0 for q in modes)


def test_inverse_div_symbol_exactness_resolved_mode():
    # on a fully resolved synthetic mode, div(R(F)) == F - mean(F) holds to
    # spectral accuracy for the materialized fields
    grid = tf.Grid3(24, 24, 24)
    rng = np.random.default_rng(3)
    xi = np.array([0, 3, 0])
    amp = tf.dealias(rng.standard_normal((3,) + grid.shape), grid).astype(complex)
    K = tf.shifted_k(grid, xi)
    Rh6, mean = idv.r_hat(tf.fft3(amp), K, grid.npts)
    x, y, z = grid.axes()
    E = np.exp(1j * 3 * y)[None, :, None]
    R6 = 2.0 * (tf.ifft3(Rh6) * E).real
    T = tf.sym_unpack(R6)
    div = np.stack([
        sum(tf.derivative(T[a, b], "xyz"[b], grid) for b in range(3))
        for a in range(3)
    ])
    F = 2.0 * (amp * E).real
    claim = F - 2.0 * mean.real.reshape(3, 1, 1, 1)
    scale = max(np.max(np.abs(F)), 1.0)
    assert np.max(np.abs(div - claim)) < 1e-9 * scale
    # symmetry of the packed output comes with the representation
    assert np.max(np.abs(T - np.swapaxes(T, 0, 1))) == 0.0


def test_gradient_inverse_laplacian_exactness_resolved_mode():
    grid = tf.Grid3(24, 24, 24)
    rng = np.random.default_rng(4)
    xi = np.array([2, -2, 0])
    amp = tf.dealias(rng.standard_normal(grid.shape), grid).astype(complex)
    K = tf.shifted_k(grid, xi)
    Gh3, mean = idv.g_hat(tf.fft3(amp), K, grid.npts)
    x, y, z = grid.axes()
    E = np.exp(1j * (2 * x[:, None, None] - 2 * y[None, :, None]))
    G3 = 2.0 * (tf.ifft3(Gh3) * E).real
    div = sum(tf.derivative(G3[b], "xyz"[b], grid) for b in range(3))
    claim = 2.0 * (amp * E).real - 2.0 * np.real(mean)
    assert np.max(np.abs(div - claim)) < 1e-9 * max(np.max(np.abs(claim)), 1.0)


def brute_wave(eng, j, weight=None):
    """Per-cell wave sum; weight(l) scales each cell (for momentum sums)."""
    amps = pb.AmplitudeSet(eng)
    X, Y, Z = eng.grid.meshes()
    t = eng.tgrid.times()[j]
    out = np.zeros((3,) + eng.grid.shape)
    for l in pt.active_cells(eng.mu * eng.v_ell[j], eng.pou):
        g = amps.g(l, j, +1)
        c = pt.parity_index(l)
        xi = eng.lam * (2 ** int(c)) * eng.carrier
        omega = (eng.lam / eng.mu) * (2 ** int(c)) * float(np.dot(eng.carrier, l))
        ph = np.exp(1j * (xi[0] * X + xi[1] * Y + xi[2] * Z - omega * t))
        scale = 1.0 if weight is None else weight(l)
        out += scale * 2.0 * (g * ph).real
    return out


def test_N_field_matches_per_cell_oracle():
    eng = make_engine()
    asm = make_assembler(eng)
    j = 4
    N6, _ = asm.N_field(j)
    w = brute_wave(eng, j)
    v = asm.v_prev[j]
    Q = np.stack([
        brute_wave(eng, j, weight=lambda l, b=b: l[b] / eng.mu) for b in range(3)
    ], axis=1)  # Q[a, b] = sum_l w_a l_b / mu
    ref = (w[:, None] * v[None, :] + v[:, None] * w[None, :]
           - Q - np.swapaxes(Q, 0, 1))
    scale = max(np.max(np.abs(ref)), 1.0)
    assert np.max(np.abs(tf.sym_unpack(N6) - ref)) < 1e-10 * scale


def test_delta_parts_sum_to_total():
    eng = make_engine()
    asm = make_assembler(eng)
    for j in (1, 4):
        d6, _, parts = asm.delta_R_slice(j)
        total = sum(parts.values())
        assert np.max(np.abs(d6 - total)) < 1e-10 * max(np.max(np.abs(d6)), 1.0)
        f3, _, fparts = asm.delta_f_slice(j)
        ftotal = sum(fparts.values())
        assert np.max(np.abs(f3 - ftotal)) < 1e-10 * max(np.max(np.abs(f3)), 1.0)


def test_delta_R_is_finite_and_symmetric_pack():
    eng = make_engine()
    asm = make_assembler(eng)
    d6, dv3, _ = asm.delta_R_slice(3)
    assert np.all(np.isfinite(d6)) and np.all(np.isfinite(dv3))
    assert d6.shape == (6,) + eng.grid.shape


def test_cancel_block_within_budget():
    eng = make_engine()
    for j in range(eng.tgrid.nt):
        r1, r2 = eng.cancellation_residual(j)
        assert r1 <= 1e-10 * KAPPA
        assert r2 <= 1e-10 * KAPPA


def test_assemble_interactions_api():
    eng = make_engine()
    asm = make_assembler(eng)
    M = asm.oscillation_modes(4, "w")
    N6, _ = asm.N_field(4)
    K = asm.oscillation_modes(4, "chi")
    assert isinstance(M, dict) and len(M) > 0
    assert isinstance(K, dict) and len(K) > 0
    assert N6.shape == (6,) + eng.grid.shape


# ---------------------------------------------------------------------------
# full substep on a miniature state


def make_state(N=16, nt=9, mu=2):
    grid = tf.Grid3(N, N, N)
    tgrid = tf.TimeGrid(0.0, 1.0, nt)
    X, Y, Z = grid.meshes()
    t = tgrid.times().reshape(-1, 1, 1, 1)
    a = np.zeros((nt, 6) + grid.shape)
    a[:, 0] = KAPPA * (0.3 * np.sin(X) * np.cos(Y) + 0.1 * np.cos(Z)) * (1 + 0.3 * t)
    a[:, 1] = KAPPA * 0.05 * np.cos(X) * (1 + 0.3 * t)
    c = np.zeros((nt, 3) + grid.shape)
    c[:, 0] = KAPPA * 0.2 * np.cos(Y) * (1 + 0.3 * t)
    e_vals = np.full(nt, 10 * KAPPA)
    R0 = np.einsum("ji...,im->jm...", a, su._DYADS6)
    f0 = np.einsum("ji...,ia->ja...", c, su._KVECS[:3])
    div_R0 = np.zeros((nt, 3) + grid.shape)
    div_f0 = np.zeros((nt,) + grid.shape)
    for j in range(nt):
        T = tf.sym_unpack(R0[j])
        for aa in range(3):
            div_R0[j, aa] = sum(
                tf.derivative(T[aa, b], "xyz"[b], grid) for b in range(3))
        div_f0[j] = sum(tf.derivative(f0[j, b], "xyz"[b], grid) for b in range(3))
    zeros3 = np.zeros((nt, 3) + grid.shape)
    nt_c = (nt - 1) // 2 + 1
    state = su.StepState(
        grid, tgrid, mu, KAPPA, e_vals, pt.PartitionOfUnity(),
        v=np.zeros((nt, 3) + grid.shape),
        theta=np.zeros((nt,) + grid.shape),
        p=np.zeros((nt,) + grid.shape),
        grad_v=np.zeros((nt, 3, 3) + grid.shape),
        grad_theta=zeros3.copy(),
        dt_v=np.zeros((nt, 3) + grid.shape),
        dt_theta=np.zeros((nt,) + grid.shape),
        dzz_v=np.zeros((nt, 3) + grid.shape),
        dzz_theta=np.zeros((nt,) + grid.shape),
        R0=R0, f0=f0, div_R0_store=div_R0, div_f0_store=div_f0, a=a, c=c,
        dt_v_coarse=np.zeros((nt_c, 3) + grid.shape),
        dt_theta_coarse=np.zeros((nt_c,) + grid.shape),
    )
    return state


def test_run_substep_mini_step():
    state = make_state()
    report = su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
    assert state.completed == 1
    assert report["w_sup"] > 0
    assert report["chi_sup"] > 0
    assert report["cancel_r1"] <= 1e-10 * KAPPA
    assert report["cancel_r2"] <= 1e-10 * KAPPA
    # mollification residual vanishes when R0 is exactly the block sum
    assert report["parts_R"]["mollification"] <= 1e-12
    # velocity stays divergence-free: trace of the exact gradient store
    j = 4
    div = state.grad_v[j, 0, 0] + state.grad_v[j, 1, 1] + state.grad_v[j, 2, 2]
    assert np.max(np.abs(div)) <= 1e-8 * max(np.max(np.abs(state.grad_v[j])), 1.0)
    # fields actually moved
    assert np.max(np.abs(state.v)) > 0
    assert np.max(np.abs(state.theta)) > 0
    assert np.max(np.abs(state.dt_v_coarse)) > 0


def test_structured_blocks_after_substep():
    state = make_state()
    su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
    S = state.stress_field()
    j = 4
    gam = algebra.decompose_sym(tf.sym_unpack(S[j] - state.delta_R[j]))
    # cancelled block projects to zero; remaining blocks carry -(e - a_i)
    assert np.max(np.abs(gam[0])) < 1e-10
    for i in range(1, 6):
        ref = -(state.e_vals[j] - state.a[j, i])
        assert np.max(np.abs(gam[i] - ref)) < 1e-10
    F = state.flux_field()
    bvec = algebra.decompose_vec(F[j] - state.delta_f[j])
    assert np.max(np.abs(bvec[0])) < 1e-10
    for i in range(1, 3):
        assert np.max(np.abs(bvec[i] - state.c[j, i])) < 1e-10


def test_substep_order_enforced():
    state = make_state()
    with pytest.raises(ValueError):
        su.run_substep(state, 2, lam=8, ell=1.0, ell_z=1.0)


def test_negative_control_corrupts_store_only(corrupt_transport):
    clean = make_state()
    bad = make_state()
    su.run_substep(clean, 1, lam=8, ell=1.0, ell_z=1.0)
    corrupt_transport(1.1)
    su.run_substep(bad, 1, lam=8, ell=1.0, ell_z=1.0)
    assert np.allclose(clean.delta_R, bad.delta_R, atol=1e-13)
    diff = np.max(np.abs(clean.div_R_store - bad.div_R_store))
    assert diff > 1e-8 * max(np.max(np.abs(clean.div_R_store)), 1e-30)


def test_run_substep_is_deterministic():
    reports, states = [], []
    for _ in range(2):
        state = make_state()
        report = su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
        report.pop("wall_time")
        reports.append(report)
        states.append(state)
    assert reports[0] == reports[1]
    for name, store in vars(states[0]).items():
        if isinstance(store, np.ndarray):
            assert np.array_equal(store, getattr(states[1], name)), name


@pytest.mark.parametrize("term, name", [("N_field", "delta_R"),
                                        ("flux_theta_drift", "delta_f")])
def test_non_finite_slice_is_refused(monkeypatch, term, name):
    clean = getattr(su.SubstepAssembler, term)

    def poisoned(self, j):
        field, div = clean(self, j)
        return field * np.nan, div
    monkeypatch.setattr(su.SubstepAssembler, term, poisoned)
    state = make_state()
    with pytest.raises(ValueError, match=rf"substep 1: {name} is not finite "
                                         rf"at slice 0 \(t = 0\.0000\)"):
        su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)


def test_non_finite_wave_is_refused(monkeypatch):
    clean = pb.WaveEngine.wave_parts

    def poisoned(self, j, kind):
        main, corr = clean(self, j, kind)
        return (main, corr * np.nan) if (kind, j) == ("chi", 2) else (main, corr)

    def finite_slice(ncomp, div_shape):
        # zero slices, so that only the wave increment can trip the check
        return lambda self, j: (np.zeros((ncomp,) + self.grid.shape),
                                np.zeros(div_shape + self.grid.shape), {})
    monkeypatch.setattr(pb.WaveEngine, "wave_parts", poisoned)
    monkeypatch.setattr(su.SubstepAssembler, "delta_R_slice", finite_slice(6, (3,)))
    monkeypatch.setattr(su.SubstepAssembler, "delta_f_slice", finite_slice(3, ()))
    state = make_state()
    with pytest.raises(ValueError, match=r"substep 1: the chi wave is not finite "
                                         r"at slice 2 \(t = 0\.2500\)"):
        su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)


def test_refused_slice_marks_state_failed(monkeypatch):
    clean = su.SubstepAssembler.N_field

    def poisoned(self, j):
        field, div = clean(self, j)
        return (field * np.nan if j == 3 else field), div
    monkeypatch.setattr(su.SubstepAssembler, "N_field", poisoned)
    state = make_state()
    with pytest.raises(ValueError, match=r"substep 1: delta_R is not finite at slice 3 "
                                         r"\(t = 0\.3750\); .* marked failed"):
        su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
    # slices 0-2 are already accumulated: a rerun would add them twice
    assert state.completed == 0
    assert np.max(np.abs(state.delta_R[0])) > 0
    assert state.failed == "substep 1: delta_R is not finite at slice 3 (t = 0.3750)"
    monkeypatch.undo()
    delta_R = state.delta_R.copy()
    with pytest.raises(ValueError, match=r"substep 1 on a failed state \(substep 1: "
                                         r"delta_R is not finite at slice 3"):
        su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
    assert np.array_equal(state.delta_R, delta_R)


def test_substep_stores_gain_the_materialized_chi_wave(monkeypatch):
    # at 24^3, lam = 16 the temperature wave's correction is resolved (on the
    # 16^3, lam = 8 states it is roundoff), so this store run exercises it
    engines = []

    class Recording(pb.WaveEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)
    monkeypatch.setattr(su, "WaveEngine", Recording)
    state = make_state(N=24)
    report = su.run_substep(state, 1, lam=16, ell=1.0, ell_z=1.0)
    eng, = engines
    assert report["chi_corr_sup"] > 1e-6
    corr_sup = grad_corr_sup = 0.0
    for j in range(state.tgrid.nt):
        # the stores start at zero, so each holds exactly what it gained
        main, corr = eng.wave_parts(j, "chi")
        go, gc = eng.wave_gradient_parts(j, "chi")
        dzz = eng.assemble_hat(eng.dzz_hat(j, "chi"), eng.classes(j))
        assert np.array_equal(state.theta[j], main + corr)
        assert np.array_equal(state.grad_theta[j], go + gc)
        assert np.array_equal(state.dzz_theta[j], dzz)
        corr_sup = max(corr_sup, tf.sup_norm(corr))
        grad_corr_sup = max(grad_corr_sup, tf.sup_norm(gc))
    assert corr_sup == report["chi_corr_sup"]
    assert grad_corr_sup > 1e-6
