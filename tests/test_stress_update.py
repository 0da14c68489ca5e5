import dataclasses
import os

import numpy as np
import pytest

from bqci import algebra
from bqci import inverse_div as idv
from bqci import iteration as it
from bqci import partition as pt
from bqci import perturbation as pb
from bqci import stress_update as su
from bqci import torus_field as tf
from conftest import mini_start, mini_step
from oracles import AmplitudeSet, active_cells, dealias, ordered_pair_modes, shifted_wavenumbers
from test_parallel import assert_no_child_left, bits
from test_inverse_div import reference_g_hat, reference_r_hat

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


@pytest.mark.parametrize("kind", ["w", "chi"])
def test_oscillation_modes_match_the_ordered_pair_loop(kind):
    # the same modes as the loop over every ordered pair of class rows, each
    # within roundoff (the velocity wave sums its pairs in another order)
    eng = make_engine()
    asm = make_assembler(eng)
    for j in (0, 4, 8):
        got, want = asm.oscillation_modes(j, kind), ordered_pair_modes(asm, j, kind)
        assert len(want) > 1 and set(got) == set(want)
        for q, amp in want.items():
            assert np.max(np.abs(got[q] - amp)) <= 1e-13 * np.max(np.abs(amp)), (j, q)


def per_mode_oscillation(asm, j, kind):
    """The oscillation term as _oscillation summed it before the real mode
    symbol: for every mode, r_hat ('w') or g_hat ('chi') on
    polarize(i (k . K) A-hat)."""
    eng, grid = asm.e, asm.grid
    sym, ncomp = (reference_r_hat, 6) if kind == "w" else (reference_g_hat, 3)
    acc = np.zeros((ncomp,) + grid.shape, dtype=complex)
    k = eng.k.astype(np.float64)
    for q, A in asm.oscillation_modes(j, kind).items():
        xi = q * eng.carrier
        K = shifted_wavenumbers(grid, xi)
        dh = 1j * (k[0] * K[0] + k[1] * K[1] + k[2] * K[2]) * tf.fft3(A)
        out, _ = sym(eng.polarize(dh, kind), K, grid.npts)
        tf.add_shifted(acc, out, xi)
    return tf.twice_real_ifft3(acc)


def class_qs(eng, js):
    """The q = lam 2^c of the classes the slices js carry."""
    return {eng.lam * 2 ** int(c) for j in js for c in eng.classes(j)}


def test_oscillation_matches_the_per_mode_antidivergence():
    # every block frame: frames 1/3, 2/5 and 4/6 share k_h-perp, one of each
    # pair with k_z = 1, which the diagonal term -(k . g) I of mode_stress reads
    for n in range(1, 7):
        eng = make_engine(n=n, temp=n <= 3)
        asm = make_assembler(eng)
        qs = set()
        for j in (0, 4, 8):
            for kind in eng.kinds:
                slow = per_mode_oscillation(asm, j, kind)
                fast = asm._oscillation(j, kind)[0]
                assert np.max(np.abs(fast - slow)) <= 1e-13 * np.max(np.abs(slow))
                qs |= set(asm.oscillation_modes(j, kind))
        # one table entry per shift, shared by both kinds: the modes, the
        # classes of the materialized waves and the unshifted base scalars
        # (q = 0), each the 1-D wavenumber broadcasts and one real grid array
        assert set(eng._shifts) == {0} | qs | class_qs(eng, (0, 4, 8))
        for q, entry in eng._shifts.items():
            assert entry.xi == tuple(int(x) for x in q * eng.carrier)
            assert [x.size for x in entry.K] == list(eng.grid.shape)
            assert entry.inv.shape == eng.grid.shape and entry.inv.dtype == np.float64


def per_class_modes(asm, j, kind, hats, field):
    """R ('w') or G ('chi') of class spectra as _class_modes summed them
    before the shift table: per class, the shifted wavenumbers, the symbol
    with its own |K|^2, mask and dropped mean, and its own shift."""
    eng, grid = asm.e, asm.grid
    sym, ncomp = (reference_r_hat, 6) if kind == "w" else (reference_g_hat, 3)
    acc = np.zeros((ncomp,) + grid.shape, dtype=complex)
    mean = 0.0
    for row, c in enumerate(eng.classes(j)):
        if not np.any(hats[row]):
            continue
        xi = tuple(int(v) for v in eng.lam * (2 ** int(c)) * eng.carrier)
        out, m = sym(hats[row], shifted_wavenumbers(grid, xi), grid.npts)
        tf.add_shifted(acc, out, xi)
        mean = mean + m.real
    return (tf.twice_real_ifft3(acc),
            field - 2.0 * np.reshape(mean, np.shape(mean) + (1, 1, 1)))


def test_class_terms_match_the_per_class_loop():
    eng = make_engine()
    asm = make_assembler(eng)
    js = (0, 4, 8)
    # make_engine's class 0 shift (0, 8, 0) on 16^3 puts K = 0 on the grid;
    # random spectra give its dropped mean O(1) weight in the divergence
    rng = np.random.default_rng(0)
    na = len(eng.classes(4))
    for kind, comps in (("w", (3,)), ("chi", ())):
        hats = tf.fft3(rng.standard_normal((na,) + comps + eng.grid.shape))
        field = rng.standard_normal(comps + eng.grid.shape)
        slow = per_class_modes(asm, 4, kind, hats, field)
        assert np.max(np.abs(slow[1] - field)) > 1e-3
        for f, s in zip(asm._class_modes(4, kind, hats, field), slow):
            assert np.max(np.abs(f - s)) <= 1e-13 * np.max(np.abs(s))
    for j in js:
        chi = eng.wave_hats(j, "chi")
        buoy_hats = eng.dzz_hat(j, "w").copy()
        buoy_hats[:, 2] += sum(chi)
        buoy_field = eng.field(j, "dzz", "w").copy()
        buoy_field[2] += sum(eng.wave_parts(j, "chi"))
        cases = [
            (asm.transport_R(j), "w", eng.transport_hat(j, "w"),
             eng.field(j, "transport", "w")),
            (asm.transport_f(j), "chi", eng.transport_hat(j, "chi"),
             eng.field(j, "transport", "chi")),
            (asm.r_dzz_and_buoyancy(j), "w", buoy_hats, buoy_field),
        ]
        for fast, kind, hats, field in cases:
            slow = per_class_modes(asm, j, kind, hats, field)
            for f, s in zip(fast, slow):
                assert np.max(np.abs(f - s)) <= 1e-13 * np.max(np.abs(s))
    # the table holds exactly the class shifts and the unshifted entry; the
    # oscillation modes then add theirs and reuse the class entries they share
    table = dict(eng._shifts)
    assert set(table) == {0} | class_qs(eng, js)
    modes = set()
    for j in js:
        for kind in ("w", "chi"):
            asm._oscillation(j, kind)
            modes |= set(asm.oscillation_modes(j, kind))
    assert modes & set(table)
    assert set(eng._shifts) == set(table) | modes
    assert all(eng._shifts[q] is entry for q, entry in table.items())


def test_inverse_div_symbol_exactness_resolved_mode():
    # on a fully resolved synthetic mode, div(R(F)) == F - mean(F) holds to
    # spectral accuracy for the materialized fields
    grid = tf.Grid3(24, 24, 24)
    rng = np.random.default_rng(3)
    xi = np.array([0, 3, 0])
    amp = dealias(rng.standard_normal((3,) + grid.shape), grid).astype(complex)
    entry = tf.shift_entry(grid, xi)
    ah = tf.fft3(amp)
    Rh6, mean = idv.r_hat(ah, entry), entry.dropped_mean(ah)
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
    amp = dealias(rng.standard_normal(grid.shape), grid).astype(complex)
    entry = tf.shift_entry(grid, xi)
    ah = tf.fft3(amp)
    Gh3, mean = idv.g_hat(ah, entry), entry.dropped_mean(ah)
    x, y, z = grid.axes()
    E = np.exp(1j * (2 * x[:, None, None] - 2 * y[None, :, None]))
    G3 = 2.0 * (tf.ifft3(Gh3) * E).real
    div = sum(tf.derivative(G3[b], "xyz"[b], grid) for b in range(3))
    claim = 2.0 * (amp * E).real - 2.0 * np.real(mean)
    assert np.max(np.abs(div - claim)) < 1e-9 * max(np.max(np.abs(claim)), 1.0)


def brute_wave(eng, j, weight=None):
    """Per-cell wave sum; weight(l) scales each cell (for momentum sums)."""
    amps = AmplitudeSet(eng)
    X, Y, Z = eng.grid.meshes()
    t = eng.tgrid.times()[j]
    out = np.zeros((3,) + eng.grid.shape)
    for l in active_cells(eng.mu * eng.v_ell[j], eng.pou):
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
        grid, tgrid, mu, KAPPA, e_vals,
        v=np.zeros((nt, 3) + grid.shape),
        theta=np.zeros((nt,) + grid.shape),
        p_factor=np.zeros(nt), grad_p_profile=np.zeros((3,) + grid.shape),
        grad_v=np.zeros((nt, 3, 3) + grid.shape),
        grad_theta=zeros3.copy(),
        dt_v=np.zeros((nt, 3) + grid.shape),
        dt_theta=np.zeros((nt,) + grid.shape),
        dzz_v=np.zeros((nt, 3) + grid.shape),
        dzz_theta=np.zeros((nt,) + grid.shape),
        R=R0, f=f0, div_R_store=div_R0, div_f_store=div_f0, a=a, c=c,
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


def _record_slices(monkeypatch):
    """Wrap delta_R_slice / delta_f_slice; the returned {kind: {j: (delta,
    div, mollification part)}} holds each kind's latest slices (of this
    process: run_substep with one worker)."""
    record = {kind: {} for kind in su.BLOCKS}
    for kind, blk in su.BLOCKS.items():
        def recording(self, j, clean=getattr(su.SubstepAssembler, blk.slice), kind=kind):
            delta, div, parts = clean(self, j)
            record[kind][j] = (delta.copy(), div.copy(), parts["mollification"].copy())
            return delta, div, parts
        monkeypatch.setattr(su.SubstepAssembler, blk.slice, recording)
    return record


def test_structured_blocks_after_substep(monkeypatch, workers):
    workers(1)
    record = _record_slices(monkeypatch)
    state = make_state()
    su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
    j = 4
    # the store minus its slice update: the cancelled block projects to zero,
    # the remaining blocks keep a_i (e k_i (x) k_i, divergence-free, is not
    # stored); make_state's stress is its block sum, so the mollification
    # residual is roundoff
    gam = algebra.decompose_sym(tf.sym_unpack(state.R[j] - record["R"][j][0]))
    assert np.max(np.abs(gam[0])) < 1e-10
    for i in range(1, 6):
        assert np.max(np.abs(gam[i] - state.a[j, i])) < 1e-10
    bvec = algebra.decompose_vec(state.f[j] - record["f"][j][0])
    assert np.max(np.abs(bvec[0])) < 1e-10
    for i in range(1, 3):
        assert np.max(np.abs(bvec[i] - state.c[j, i])) < 1e-10


# whole-array reference bodies of the carried stress / flux and their
# divergences after `completed` substeps: the summed slice updates plus the
# blocks not yet cancelled, each block differentiated by tf.divergence

def _blocks(st, kind, first):
    """(nt, ...) sum of the blocks first.. of kind and their divergences."""
    blk = su.BLOCKS[kind]
    coef = getattr(st, blk.coef)
    field = np.zeros_like(getattr(st, blk.store))
    div = np.zeros_like(getattr(st, blk.div_store))
    for i in range(first, len(blk.basis)):
        field += coef[:, i : i + 1] * blk.basis[i].reshape(1, -1, 1, 1, 1)
        k = su._KVECS[i].reshape(3, 1, 1, 1)
        for j in range(st.tgrid.nt):
            d = tf.divergence(coef[j, i] * k, st.grid)
            div[j] += d * k if blk.rank == 2 else d
    return field, div


def test_block_path_matches_whole_array_bodies(monkeypatch, workers):
    workers(1)
    # mini_stepped's step, substep by substep: each store equals the summed
    # slice updates plus the blocks not yet cancelled, and each divergence
    # store the summed slice divergences plus those blocks'
    record = _record_slices(monkeypatch)
    state = mini_start()
    it.begin_step(state, 0.9, 0.9)
    acc = {}
    for kind, blk in su.BLOCKS.items():
        blocks, block_divs = _blocks(state, kind, 0)
        # the mollification residual is the carried stress minus every
        # block, its divergence the carried store's minus every block's
        acc[kind] = (np.zeros_like(blocks), getattr(state, blk.div_store) - block_divs,
                     getattr(state, blk.store) - blocks)
    for n in range(1, 7):
        su.run_substep(state, n, 16, 0.9, 0.9)
        for kind, blk in su.BLOCKS.items():
            delta_sum, div_sum, moll = acc[kind]
            for j, (delta, div, moll_j) in record[kind].items():
                delta_sum[j] += delta
                div_sum[j] += div
                want = moll[j] if n == 1 else 0.0
                assert np.max(np.abs(moll_j - want)) <= 1e-13 * np.max(np.abs(moll))
            blocks, block_divs = _blocks(state, kind, n)
            for got, want in ((getattr(state, blk.store), delta_sum + blocks),
                              (getattr(state, blk.div_store), div_sum + block_divs)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, kind)


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
    assert np.allclose(clean.R, bad.R, atol=1e-13)
    diff = np.max(np.abs(clean.div_R_store - bad.div_R_store))
    assert diff > 1e-8 * max(np.max(np.abs(clean.div_R_store)), 1e-30)


def test_run_substep_is_deterministic(workers):
    # two serial runs and one on two workers give the same bits in every
    # store and report value; nt = 9 and 11 split into uneven ranges (5 + 4,
    # 6 + 5 slices)
    for nt in (9, 11):
        reports, states = [], []
        for count in (1, 1, 2):
            workers(count)
            state = make_state(nt=nt)
            report = su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
            report.pop("wall_time")
            reports.append(report)
            states.append(state)
        for report, state in zip(reports[1:], states[1:]):
            assert bits(report) == bits(reports[0])
            for name, store in vars(states[0]).items():
                if isinstance(store, np.ndarray):
                    assert np.array_equal(store, getattr(state, name)), (nt, name)
    assert_no_child_left()


def test_slice_refused_in_a_worker_marks_state_failed(monkeypatch, workers):
    # slice 7 of nt = 9 lies in the second worker's range (5..8): the state
    # is marked failed with the serial path's message, and no child is left
    clean = su.SubstepAssembler.N_field

    def poisoned(self, j):
        field, div = clean(self, j)
        return (field * np.nan if j == 7 else field), div
    monkeypatch.setattr(su.SubstepAssembler, "N_field", poisoned)
    messages = []
    for count in (1, 2):
        workers(count)
        state = make_state()
        with pytest.raises(ValueError, match=r"substep 1: delta_R is not finite at slice 7 "
                                             r"\(t = 0\.8750\); .* marked failed"):
            su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
        assert state.completed == 0
        messages.append(state.failed)
    assert messages == ["substep 1: delta_R is not finite at slice 7 (t = 0.8750)"] * 2
    assert_no_child_left()
    with pytest.raises(ValueError, match=r"substep 1 on a failed state"):
        su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)


def test_worker_that_dies_mid_range_marks_state_failed(monkeypatch, workers):
    # the second worker of nt = 9 (slices 5..8) exits at slice 7, after
    # writing slices 5 and 6: the error reaches the caller, the state is
    # marked failed and a rerun, which would update those slices twice, is
    # refused
    workers(2)
    here, clean = os.getpid(), su.SubstepAssembler.N_field

    def dying(self, j):
        if j == 7 and os.getpid() != here:
            os._exit(3)
        return clean(self, j)
    monkeypatch.setattr(su.SubstepAssembler, "N_field", dying)
    state = make_state()
    R = state.R.copy()
    with pytest.raises(RuntimeError, match=r"^worker [0-9]+ ended without a result$"):
        su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
    assert_no_child_left()
    assert state.completed == 0
    assert state.failed.startswith("substep 1 stopped: RuntimeError: worker ")
    # the parent's range and the child's first two slices are written
    assert [np.array_equal(state.R[j], R[j]) for j in range(9)] == [False] * 7 + [True] * 2
    with pytest.raises(ValueError, match=r"substep 1 on a failed state \(substep 1 stopped"):
        su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)


def _slices_in_order(order):
    """Every per-slice output of a fresh make_engine / make_assembler pair,
    its slices visited in the given order: {j: (delta_R_slice, delta_f_slice,
    wave_parts per kind, dt_hat(j, kind, 2) per kind at even j)}."""
    eng = make_engine()
    asm = make_assembler(eng)
    return {j: (asm.delta_R_slice(j), asm.delta_f_slice(j),
                [eng.wave_parts(j, kind) for kind in ("w", "chi")],
                [eng.dt_hat(j, kind, 2) for kind in ("w", "chi") if j % 2 == 0])
            for j in order}


def _assert_bitwise_equal(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        a, b = list(a.values()), [b[k] for k in a]
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_bitwise_equal(x, y)
    else:
        assert np.array_equal(a, b)


def test_slice_outputs_do_not_depend_on_the_visiting_order():
    # in order, in reverse and as two interleaved halves (a worker's halo
    # and the probe slices visit out of order): the per-sample window and
    # the per-slice value rebuild what they dropped, bit for bit
    nt = make_engine().tgrid.nt
    half = (nt + 1) // 2
    interleaved = [j for pair in zip(range(half), range(half, nt)) for j in pair]
    interleaved += list(range(len(interleaved) // 2, half))
    assert sorted(interleaved) == list(range(nt))
    ref = _slices_in_order(range(nt))
    for order in (range(nt - 1, -1, -1), interleaved):
        got = _slices_in_order(order)
        for j in range(nt):
            _assert_bitwise_equal(got[j], ref[j])


@pytest.mark.parametrize("nt, coarse", [(33, True), (16, False)])
def test_substep_bins_each_sample_once_in_a_stencil_wide_window(monkeypatch, workers, nt,
                                                                coarse):
    workers(1)  # the calls are counted in this process
    # a slice-by-slice pass gathers each sample's slot data once, and the
    # window never holds more samples than one slice's time stencils span
    # (5 samples at stride 1, 9 with the stride-2 companion)
    calls, sizes = [], []
    clean = pb.WaveEngine.slot_data

    def recording(self, j):
        calls.append(j)
        sizes.append(len(self._window) + 1)  # with the sample being binned
        return clean(self, j)
    monkeypatch.setattr(pb.WaveEngine, "slot_data", recording)
    state = make_state(nt=nt)
    if not coarse:
        state.dt_v_coarse = state.dt_theta_coarse = None
    assert (state.tgrid.halved() is not None) == coarse
    strides = [(1, state.tgrid)] + ([(2, state.tgrid.halved())] if coarse else [])
    span = max(stride * np.ptp(tf.time_derivative_support(tg.nt), axis=1).max() + 1
               for stride, tg in strides)
    assert span == (9 if coarse else 5)
    su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
    assert sorted(calls) == list(range(nt))
    assert max(sizes) <= span


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
        def zero(self, j):
            delta = np.zeros((ncomp,) + self.grid.shape)
            return (delta, np.zeros(div_shape + self.grid.shape),
                    dict.fromkeys(su.CATEGORIES, delta))
        return zero
    monkeypatch.setattr(pb.WaveEngine, "wave_parts", poisoned)
    monkeypatch.setattr(su.SubstepAssembler, "delta_R_slice", finite_slice(6, (3,)))
    monkeypatch.setattr(su.SubstepAssembler, "delta_f_slice", finite_slice(3, ()))
    state = make_state()
    with pytest.raises(ValueError, match=r"substep 1: the chi wave is not finite "
                                         r"at slice 2 \(t = 0\.2500\)"):
        su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)


def test_nan_cancellation_residual_reaches_the_report(monkeypatch):
    # a NaN at a middle slice survives the running maximum
    clean = pb.WaveEngine.cancellation_residual

    def poisoned(self, j):
        r1, r2 = clean(self, j)
        return (np.nan, r2) if j == 4 else (r1, r2)
    monkeypatch.setattr(pb.WaveEngine, "cancellation_residual", poisoned)
    report = su.run_substep(make_state(), 1, lam=8, ell=1.0, ell_z=1.0)
    assert np.isnan(report["cancel_r1"]) and np.isfinite(report["cancel_r2"])


def test_refused_slice_marks_state_failed(monkeypatch, workers):
    workers(1)
    clean = su.SubstepAssembler.N_field

    def poisoned(self, j):
        field, div = clean(self, j)
        return (field * np.nan if j == 3 else field), div
    monkeypatch.setattr(su.SubstepAssembler, "N_field", poisoned)
    state = make_state()
    R = state.R.copy()
    with pytest.raises(ValueError, match=r"substep 1: delta_R is not finite at slice 3 "
                                         r"\(t = 0\.3750\); .* marked failed"):
        su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
    # serially, slices 0-2 are already updated: a rerun would update them twice
    assert state.completed == 0
    assert not np.array_equal(state.R[:3], R[:3]) and np.array_equal(state.R[3:], R[3:])
    assert state.failed == "substep 1: delta_R is not finite at slice 3 (t = 0.3750)"
    monkeypatch.undo()
    R = state.R.copy()
    with pytest.raises(ValueError, match=r"substep 1 on a failed state \(substep 1: "
                                         r"delta_R is not finite at slice 3"):
        su.run_substep(state, 1, lam=8, ell=1.0, ell_z=1.0)
    assert np.array_equal(state.R, R)


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


def test_zero_flux_block_skips_the_temperature_wave(monkeypatch):
    # the start tuple's flux has only its y-component, so c_1 = 0: substep 1
    # carries no temperature wave, and an engine forced to build the all-zero
    # one gives the same stores
    def substep_1(force):
        engines = []

        class Recording(pb.WaveEngine):
            def __init__(self, n, lam, mu, grid, tgrid, a_n, c_n, *rest):
                super().__init__(n, lam, mu, grid, tgrid, a_n, c_n, *rest)
                if force:
                    self.c_n, self.kinds = np.asarray(c_n), ("w", "chi")
                engines.append(self)
        monkeypatch.setattr(su, "WaveEngine", Recording)
        state = mini_start()
        it.begin_step(state, 0.9, 0.9)
        assert not np.any(state.c[:, 0])
        report = su.run_substep(state, 1, 16, 0.9, 0.9)
        report.pop("wall_time")
        return state, report, engines[0]

    (skipped, rep_skipped, eng), (forced, rep_forced, eng_forced) = (
        substep_1(False), substep_1(True))
    assert eng.kinds == ("w",) and eng_forced.kinds == ("w", "chi")
    assert rep_skipped == rep_forced
    for field in dataclasses.fields(su.StepState):
        a, b = getattr(skipped, field.name), getattr(forced, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name


# ---------------------------------------------------------------------------
# the stress oscillation from the rank-1 mode symbol and the per-engine
# amplitude symbols, against the paths they replaced (copied here as
# reference_*)

FAST_OSCILLATION = su.SubstepAssembler._oscillation


def reference_oscillation(self, j, kind):
    """SubstepAssembler._oscillation with its field summed per mode as
    before the real mode symbol (per_mode_oscillation); the divergence is
    the unchanged pointwise one."""
    out = FAST_OSCILLATION(self, j, kind)
    return per_mode_oscillation(self, j, kind), out[1]


def reference_amp_hat(self, Sh, cls, kind, main=True):
    """WaveEngine._amp_hat rebuilding the symbol on every call."""
    pol = self._pol[kind]
    q = np.asarray(self.class_q)[cls].reshape((len(cls),) + (1,) * (3 + pol.ndim))
    sym = self._corr_sym[kind] * (1.0 / q)
    if main:
        sym = sym + pol.reshape(pol.shape + (1, 1, 1))
    return Sh.reshape(Sh.shape[:1] + (1,) * pol.ndim + Sh.shape[1:]) * sym


def reference_transport_hat(self, j, kind):
    """WaveEngine.transport_hat as the amplitude symbol of d_t plus the slow
    divergence of the polarized momentum stack, rebuilt on every call."""
    kx, ky, kz = self.grid.wavenumbers()
    Mh = self.momentum_hat(j, kind)
    return (self._amp_hat(self.base_hat(j, self.KEYS[kind].dt), self.classes(j), kind)
            + 1j * (kx * Mh[:, 0] + ky * Mh[:, 1] + kz * Mh[:, 2]))


def reference_packed_momentum(self, j):
    """WaveEngine.packed_momentum_hat as N_field summed it, from the
    (class, 3, 3) stack momentum_hat(j, "w")."""
    mh = self.momentum_hat(j, "w")  # (class, d, comp, grid)
    return np.stack([mh[:, b, a] + mh[:, a, b] for a, b in tf.PACK], axis=1)


def reference_total(terms):
    """stress_update._total building a new array per term."""
    terms = [(cat, term) for cat, term in terms if term is not None]
    zero = np.zeros_like(terms[0][1][0])
    parts = dict.fromkeys(su.CATEGORIES, zero)
    delta, div = zero, np.zeros_like(terms[0][1][1])
    for cat, (field, dv) in terms:
        parts[cat] = parts[cat] + field
        delta = delta + field
        div = div if dv is None else div + dv
    return delta, div, parts


def test_amplitude_symbol_table_is_the_per_call_symbol():
    eng = make_engine()
    rng = np.random.default_rng(5)
    for cls in (np.arange(8), np.array([1, 4, 6]), np.array([3])):
        Sh = tf.fft3(rng.standard_normal((len(cls),) + eng.grid.shape)
                     + 1j * rng.standard_normal((len(cls),) + eng.grid.shape))
        for kind in ("w", "chi"):
            for main in (True, False):
                assert np.array_equal(eng._amp_hat(Sh, cls, kind, main),
                                      reference_amp_hat(eng, Sh, cls, kind, main))
    # one symbol per (kind, main, class), built once and reused
    assert len(eng._amp_syms) == 2 * 2 * 8
    sym = eng._amp_sym("w", True, 4)
    eng._amp_hat(Sh[:1], np.array([4]), "w")
    assert eng._amp_sym("w", True, 4) is sym


def test_transport_symbol_matches_the_momentum_divergence():
    eng = make_engine()
    for j in (0, 3, 8):
        for kind in ("w", "chi"):
            fast = eng.transport_hat(j, kind)
            slow = reference_transport_hat(eng, j, kind)
            assert fast.shape == slow.shape
            assert np.max(np.abs(fast - slow)) <= 1e-13 * np.max(np.abs(slow))


def test_packed_momentum_is_the_packed_momentum_stack():
    eng = make_engine()
    for j in (0, 3, 8):
        assert np.array_equal(eng.packed_momentum_hat(j),
                              reference_packed_momentum(eng, j))


def test_assembler_fields_share_the_engine_slice_memo():
    eng = make_engine()
    asm = make_assembler(eng)
    field = eng.field(3, "transport", "w")
    # the engine's spectra under the same (op, kind) stay spectra
    assert eng.transport_hat(3, "w").shape == (len(eng.classes(3)), 3) + eng.grid.shape
    assert eng.field(3, "transport", "w") is field
    # the assembler keeps its own field, grad theta_ell, in the engine's
    # per-slice value too: visiting another slice drops it with the rest
    grad = asm._grad_theta_ell(3)
    assert asm._grad_theta_ell(3) is grad
    assert eng.field(4, "transport", "w") is not field
    assert asm._grad_theta_ell(3) is not grad


def _stores_and_values(state, report):
    stores = {name: v for name, v in vars(state).items() if isinstance(v, np.ndarray)}
    values = {}

    def walk(path, x):
        if isinstance(x, dict):
            for key, val in x.items():
                walk(f"{path}.{key}", val)
        elif isinstance(x, list):
            for i, val in enumerate(x):
                walk(f"{path}[{i}]", val)
        elif isinstance(x, (int, float)) and "wall_time" not in path:
            values[path] = x
    walk("", report)
    return stores, values


def test_desk_step_matches_the_reference_paths(mini_stepped, monkeypatch):
    fast = _stores_and_values(*mini_stepped)
    monkeypatch.setattr(su.SubstepAssembler, "_oscillation", reference_oscillation)
    monkeypatch.setattr(pb.WaveEngine, "_amp_hat", reference_amp_hat)
    monkeypatch.setattr(pb.WaveEngine, "transport_hat", reference_transport_hat)
    monkeypatch.setattr(pb.WaveEngine, "packed_momentum_hat", reference_packed_momentum)
    monkeypatch.setattr(su, "_total", reference_total)
    state = mini_start()
    slow = _stores_and_values(state, mini_step(state))
    for got, want in zip(fast, slow):
        assert got.keys() == want.keys()
        for name, val in want.items():
            scale = np.max(np.abs(val)) if np.size(val) else 0.0
            diff = np.max(np.abs(got[name] - val)) if np.size(val) else 0.0
            assert diff <= 1e-13 * scale, (name, diff, scale)
