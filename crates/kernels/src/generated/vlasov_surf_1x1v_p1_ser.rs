// Surface kernels for the Vlasov phase-space advection, 1x1v p=1 Serendipity basis.
// Auto-generated from exact integral tables — do not edit by hand.
// One lane-generic body per face-normal phase direction (configuration
// first) behind a scalar, a `_b4`, a `_b4_avx2` and a `_b8_avx512` entry
// point; see `crate::dispatch::SurfaceKernelFn` for the calling convention.

/// Streaming surface kernel, faces normal to x0 (α̂ = v0).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x1v_p1_ser_x0(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_1x1v_p1_ser_x0_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_1x1v_p1_ser_x0`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x1v_p1_ser_x0_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_1x1v_p1_ser_x0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_1x1v_p1_ser_x0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x1v_p1_ser_x0_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_1x1v_p1_ser_x0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_1x1v_p1_ser_x0`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x1v_p1_ser_x0_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_1x1v_p1_ser_x0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_1x1v_p1_ser_x0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_1x1v_p1_ser_x0_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 2] = w.first_chunk().expect("w: 2 coefficients");
    let f_lo: &[[f64; L]; 4] = f_lo.first_chunk().expect("f_lo: 4 coefficients");
    let f_hi: &[[f64; L]; 4] = f_hi.first_chunk().expect("f_hi: 4 coefficients");
    let out_lo: &mut [[f64; L]; 4] = out_lo.first_chunk_mut().expect("out_lo: 4 coefficients");
    let out_hi: &mut [[f64; L]; 4] = out_hi.first_chunk_mut().expect("out_hi: 4 coefficients");
    let rd = 2.0 / dxv[0];
    let mut alpha = [[0.0f64; L]; 2];
    let mut lam = [0.0f64; L];
    let _ = (qm, em);
    for k in 0..L {
        alpha[0][k] = w[1][k] * 1.4142135623730951;
        alpha[1][k] += 0.5 * dxv[1] * 0.816496580927726;
        lam[k] = if penalty { w[1][k].abs() + 0.5 * dxv[1].abs() } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 2];
    let mut fp = [[0.0f64; L]; 2];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[2]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[3]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[2]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[3]);
    let mut favg = [[0.0f64; L]; 2];
    let mut ghat = [[0.0f64; L]; 2];
    for k in 0..L {
        favg[0][k] = 0.5 * (fm[0][k] + fp[0][k]);
        ghat[0][k] = -0.5 * lam[k] * (fp[0][k] - fm[0][k]);
        favg[1][k] = 0.5 * (fm[1][k] + fp[1][k]);
        ghat[1][k] = -0.5 * lam[k] * (fp[1][k] - fm[1][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.7071067811865476 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.7071067811865475 * alpha[1][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.7071067811865475 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.7071067811865475 * alpha[1][k] * favg[0][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[3], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[3], rd * -1.224744871391589, &ghat[1]);
}

/// Acceleration surface kernel, faces normal to v0 (α̂ = q/m (E + v×B)_0).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x1v_p1_ser_v0(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_1x1v_p1_ser_v0_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_1x1v_p1_ser_v0`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x1v_p1_ser_v0_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_1x1v_p1_ser_v0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_1x1v_p1_ser_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x1v_p1_ser_v0_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_1x1v_p1_ser_v0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_1x1v_p1_ser_v0`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x1v_p1_ser_v0_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_1x1v_p1_ser_v0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_1x1v_p1_ser_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_1x1v_p1_ser_v0_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 2] = w.first_chunk().expect("w: 2 coefficients");
    let f_lo: &[[f64; L]; 4] = f_lo.first_chunk().expect("f_lo: 4 coefficients");
    let f_hi: &[[f64; L]; 4] = f_hi.first_chunk().expect("f_hi: 4 coefficients");
    let out_lo: &mut [[f64; L]; 4] = out_lo.first_chunk_mut().expect("out_lo: 4 coefficients");
    let out_hi: &mut [[f64; L]; 4] = out_hi.first_chunk_mut().expect("out_hi: 4 coefficients");
    let rd = 2.0 / dxv[1];
    let mut alpha = [[0.0f64; L]; 2];
    let mut lam = [0.0f64; L];
    let _ = w;
    for k in 0..L {
        alpha[0][k] += qm * 1.0 * (em[0]);
        alpha[1][k] += qm * 1.0 * (em[1]);
        lam[k] = if penalty { alpha[0][k].abs() * 0.7071067811865476 + alpha[1][k].abs() * 1.224744871391589 } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 2];
    let mut fp = [[0.0f64; L]; 2];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[1]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[3]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[1]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[3]);
    let mut favg = [[0.0f64; L]; 2];
    let mut ghat = [[0.0f64; L]; 2];
    for k in 0..L {
        favg[0][k] = 0.5 * (fm[0][k] + fp[0][k]);
        ghat[0][k] = -0.5 * lam[k] * (fp[0][k] - fm[0][k]);
        favg[1][k] = 0.5 * (fm[1][k] + fp[1][k]);
        ghat[1][k] = -0.5 * lam[k] * (fp[1][k] - fm[1][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.7071067811865476 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.7071067811865475 * alpha[1][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.7071067811865475 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.7071067811865475 * alpha[1][k] * favg[0][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[3], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[2], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[3], rd * -1.224744871391589, &ghat[1]);
}
