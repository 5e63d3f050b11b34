// Surface kernels for the Vlasov phase-space advection, 2x2v p=1 Serendipity basis.
// Auto-generated from exact integral tables — do not edit by hand.
// One lane-generic body per face-normal phase direction (configuration
// first) behind a scalar, a `_b4`, a `_b4_avx2` and a `_b8_avx512` entry
// point; see `crate::dispatch::SurfaceKernelFn` for the calling convention.

/// Streaming surface kernel, faces normal to x0 (α̂ = v0).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x0(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_2x2v_p1_ser_x0_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_2x2v_p1_ser_x0`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x0_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x2v_p1_ser_x0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_x0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x0_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x2v_p1_ser_x0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_x0`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x0_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_2x2v_p1_ser_x0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_2x2v_p1_ser_x0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x2v_p1_ser_x0_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 4] = w.first_chunk().expect("w: 4 coefficients");
    let f_lo: &[[f64; L]; 16] = f_lo.first_chunk().expect("f_lo: 16 coefficients");
    let f_hi: &[[f64; L]; 16] = f_hi.first_chunk().expect("f_hi: 16 coefficients");
    let out_lo: &mut [[f64; L]; 16] = out_lo.first_chunk_mut().expect("out_lo: 16 coefficients");
    let out_hi: &mut [[f64; L]; 16] = out_hi.first_chunk_mut().expect("out_hi: 16 coefficients");
    let rd = 2.0 / dxv[0];
    let mut alpha = [[0.0f64; L]; 8];
    let mut lam = [0.0f64; L];
    let _ = (qm, em);
    for k in 0..L {
        alpha[0][k] = w[2][k] * 2.8284271247461903;
        alpha[2][k] += 0.5 * dxv[2] * 1.632993161855452;
        lam[k] = if penalty { w[2][k].abs() + 0.5 * dxv[2].abs() } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 8];
    let mut fp = [[0.0f64; L]; 8];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[4]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[6]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[7]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[8]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[9]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[10]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[11]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[12]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[13]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[14]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[15]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[4]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[6]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[7]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[8]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[9]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[10]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[11]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[12]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[13]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[14]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[15]);
    let mut favg = [[0.0f64; L]; 8];
    let mut ghat = [[0.0f64; L]; 8];
    for k in 0..L {
        favg[0][k] = 0.5 * (fm[0][k] + fp[0][k]);
        ghat[0][k] = -0.5 * lam[k] * (fp[0][k] - fm[0][k]);
        favg[1][k] = 0.5 * (fm[1][k] + fp[1][k]);
        ghat[1][k] = -0.5 * lam[k] * (fp[1][k] - fm[1][k]);
        favg[2][k] = 0.5 * (fm[2][k] + fp[2][k]);
        ghat[2][k] = -0.5 * lam[k] * (fp[2][k] - fm[2][k]);
        favg[3][k] = 0.5 * (fm[3][k] + fp[3][k]);
        ghat[3][k] = -0.5 * lam[k] * (fp[3][k] - fm[3][k]);
        favg[4][k] = 0.5 * (fm[4][k] + fp[4][k]);
        ghat[4][k] = -0.5 * lam[k] * (fp[4][k] - fm[4][k]);
        favg[5][k] = 0.5 * (fm[5][k] + fp[5][k]);
        ghat[5][k] = -0.5 * lam[k] * (fp[5][k] - fm[5][k]);
        favg[6][k] = 0.5 * (fm[6][k] + fp[6][k]);
        ghat[6][k] = -0.5 * lam[k] * (fp[6][k] - fm[6][k]);
        favg[7][k] = 0.5 * (fm[7][k] + fp[7][k]);
        ghat[7][k] = -0.5 * lam[k] * (fp[7][k] - fm[7][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.3535533905932738 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.35355339059327373 * alpha[2][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.35355339059327373 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.35355339059327373 * alpha[2][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.35355339059327373 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.35355339059327373 * alpha[2][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.35355339059327373 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.35355339059327373 * alpha[2][k] * favg[6][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.35355339059327373 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.35355339059327373 * alpha[2][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.35355339059327373 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.3535533905932738 * alpha[2][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.35355339059327373 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.35355339059327373 * alpha[2][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.3535533905932738 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.3535533905932738 * alpha[2][k] * favg[5][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[4], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[5], -rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], -rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[7], -rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[8], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[9], -rd * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[10], -rd * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[11], -rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[12], -rd * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[13], -rd * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[14], -rd * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[15], -rd * 1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[3], rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[4], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[5], rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[7], rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[8], rd * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[9], rd * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[10], rd * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[11], rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[12], rd * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[13], rd * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[14], rd * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[15], rd * -1.224744871391589, &ghat[7]);
}

/// Streaming surface kernel, faces normal to x1 (α̂ = v1).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x1(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_2x2v_p1_ser_x1_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_2x2v_p1_ser_x1`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x1_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x2v_p1_ser_x1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_x1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x1_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x2v_p1_ser_x1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_x1`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x1_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_2x2v_p1_ser_x1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_2x2v_p1_ser_x1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x2v_p1_ser_x1_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 4] = w.first_chunk().expect("w: 4 coefficients");
    let f_lo: &[[f64; L]; 16] = f_lo.first_chunk().expect("f_lo: 16 coefficients");
    let f_hi: &[[f64; L]; 16] = f_hi.first_chunk().expect("f_hi: 16 coefficients");
    let out_lo: &mut [[f64; L]; 16] = out_lo.first_chunk_mut().expect("out_lo: 16 coefficients");
    let out_hi: &mut [[f64; L]; 16] = out_hi.first_chunk_mut().expect("out_hi: 16 coefficients");
    let rd = 2.0 / dxv[1];
    let mut alpha = [[0.0f64; L]; 8];
    let mut lam = [0.0f64; L];
    let _ = (qm, em);
    for k in 0..L {
        alpha[0][k] = w[3][k] * 2.8284271247461903;
        alpha[1][k] += 0.5 * dxv[3] * 1.632993161855452;
        lam[k] = if penalty { w[3][k].abs() + 0.5 * dxv[3].abs() } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 8];
    let mut fp = [[0.0f64; L]; 8];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[3]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[6]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[7]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[8]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[9]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[10]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[11]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[12]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[13]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[14]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[15]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[3]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[6]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[7]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[8]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[9]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[10]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[11]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[12]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[13]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[14]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[15]);
    let mut favg = [[0.0f64; L]; 8];
    let mut ghat = [[0.0f64; L]; 8];
    for k in 0..L {
        favg[0][k] = 0.5 * (fm[0][k] + fp[0][k]);
        ghat[0][k] = -0.5 * lam[k] * (fp[0][k] - fm[0][k]);
        favg[1][k] = 0.5 * (fm[1][k] + fp[1][k]);
        ghat[1][k] = -0.5 * lam[k] * (fp[1][k] - fm[1][k]);
        favg[2][k] = 0.5 * (fm[2][k] + fp[2][k]);
        ghat[2][k] = -0.5 * lam[k] * (fp[2][k] - fm[2][k]);
        favg[3][k] = 0.5 * (fm[3][k] + fp[3][k]);
        ghat[3][k] = -0.5 * lam[k] * (fp[3][k] - fm[3][k]);
        favg[4][k] = 0.5 * (fm[4][k] + fp[4][k]);
        ghat[4][k] = -0.5 * lam[k] * (fp[4][k] - fm[4][k]);
        favg[5][k] = 0.5 * (fm[5][k] + fp[5][k]);
        ghat[5][k] = -0.5 * lam[k] * (fp[5][k] - fm[5][k]);
        favg[6][k] = 0.5 * (fm[6][k] + fp[6][k]);
        ghat[6][k] = -0.5 * lam[k] * (fp[6][k] - fm[6][k]);
        favg[7][k] = 0.5 * (fm[7][k] + fp[7][k]);
        ghat[7][k] = -0.5 * lam[k] * (fp[7][k] - fm[7][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.3535533905932738 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.35355339059327373 * alpha[1][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.35355339059327373 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.35355339059327373 * alpha[1][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.35355339059327373 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.35355339059327373 * alpha[1][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.35355339059327373 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.35355339059327373 * alpha[1][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.35355339059327373 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.35355339059327373 * alpha[1][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.35355339059327373 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.35355339059327373 * alpha[1][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.35355339059327373 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.3535533905932738 * alpha[1][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.3535533905932738 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.3535533905932738 * alpha[1][k] * favg[6][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[3], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[7], -rd * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[8], -rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[9], -rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[10], -rd * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[11], -rd * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[12], -rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[13], -rd * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[14], -rd * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[15], -rd * 1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[3], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[4], rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], rd * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[7], rd * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[8], rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[9], rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[10], rd * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[11], rd * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[12], rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[13], rd * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[14], rd * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[15], rd * -1.224744871391589, &ghat[7]);
}

/// Acceleration surface kernel, faces normal to v0 (α̂ = q/m (E + v×B)_0).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v0(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_2x2v_p1_ser_v0_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_2x2v_p1_ser_v0`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v0_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x2v_p1_ser_v0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v0_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x2v_p1_ser_v0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_v0`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v0_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_2x2v_p1_ser_v0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_2x2v_p1_ser_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x2v_p1_ser_v0_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 4] = w.first_chunk().expect("w: 4 coefficients");
    let f_lo: &[[f64; L]; 16] = f_lo.first_chunk().expect("f_lo: 16 coefficients");
    let f_hi: &[[f64; L]; 16] = f_hi.first_chunk().expect("f_hi: 16 coefficients");
    let out_lo: &mut [[f64; L]; 16] = out_lo.first_chunk_mut().expect("out_lo: 16 coefficients");
    let out_hi: &mut [[f64; L]; 16] = out_hi.first_chunk_mut().expect("out_hi: 16 coefficients");
    let rd = 2.0 / dxv[2];
    let mut alpha = [[0.0f64; L]; 8];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] += qm * 1.4142135623730951 * (em[0] + w[3][k] * em[20]);
        alpha[1][k] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[20];
        alpha[2][k] += qm * 1.4142135623730951 * (em[1] + w[3][k] * em[21]);
        alpha[4][k] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[21];
        alpha[3][k] += qm * 1.4142135623730951 * (em[2] + w[3][k] * em[22]);
        alpha[5][k] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[22];
        alpha[6][k] += qm * 1.4142135623730951 * (em[3] + w[3][k] * em[23]);
        alpha[7][k] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[23];
        lam[k] = if penalty { alpha[0][k].abs() * 0.35355339059327384 + alpha[1][k].abs() * 0.6123724356957946 + alpha[2][k].abs() * 0.6123724356957946 + alpha[3][k].abs() * 0.6123724356957946 + alpha[4][k].abs() * 1.0606601717798212 + alpha[5][k].abs() * 1.0606601717798212 + alpha[6][k].abs() * 1.0606601717798212 + alpha[7][k].abs() * 1.8371173070873832 } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 8];
    let mut fp = [[0.0f64; L]; 8];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[2]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[5]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[6]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[7]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[8]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[9]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[10]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[11]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[12]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[13]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[14]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[15]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[2]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[5]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[6]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[7]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[8]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[9]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[10]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[11]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[12]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[13]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[14]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[15]);
    let mut favg = [[0.0f64; L]; 8];
    let mut ghat = [[0.0f64; L]; 8];
    for k in 0..L {
        favg[0][k] = 0.5 * (fm[0][k] + fp[0][k]);
        ghat[0][k] = -0.5 * lam[k] * (fp[0][k] - fm[0][k]);
        favg[1][k] = 0.5 * (fm[1][k] + fp[1][k]);
        ghat[1][k] = -0.5 * lam[k] * (fp[1][k] - fm[1][k]);
        favg[2][k] = 0.5 * (fm[2][k] + fp[2][k]);
        ghat[2][k] = -0.5 * lam[k] * (fp[2][k] - fm[2][k]);
        favg[3][k] = 0.5 * (fm[3][k] + fp[3][k]);
        ghat[3][k] = -0.5 * lam[k] * (fp[3][k] - fm[3][k]);
        favg[4][k] = 0.5 * (fm[4][k] + fp[4][k]);
        ghat[4][k] = -0.5 * lam[k] * (fp[4][k] - fm[4][k]);
        favg[5][k] = 0.5 * (fm[5][k] + fp[5][k]);
        ghat[5][k] = -0.5 * lam[k] * (fp[5][k] - fm[5][k]);
        favg[6][k] = 0.5 * (fm[6][k] + fp[6][k]);
        ghat[6][k] = -0.5 * lam[k] * (fp[6][k] - fm[6][k]);
        favg[7][k] = 0.5 * (fm[7][k] + fp[7][k]);
        ghat[7][k] = -0.5 * lam[k] * (fp[7][k] - fm[7][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.3535533905932738 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.35355339059327373 * alpha[1][k] * favg[1][k];
        ghat[0][k] += 0.35355339059327373 * alpha[2][k] * favg[2][k];
        ghat[0][k] += 0.35355339059327373 * alpha[3][k] * favg[3][k];
        ghat[0][k] += 0.35355339059327373 * alpha[4][k] * favg[4][k];
        ghat[0][k] += 0.35355339059327373 * alpha[5][k] * favg[5][k];
        ghat[0][k] += 0.35355339059327373 * alpha[6][k] * favg[6][k];
        ghat[0][k] += 0.3535533905932738 * alpha[7][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.35355339059327373 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.35355339059327373 * alpha[1][k] * favg[0][k];
        ghat[1][k] += 0.35355339059327373 * alpha[2][k] * favg[4][k];
        ghat[1][k] += 0.35355339059327373 * alpha[3][k] * favg[5][k];
        ghat[1][k] += 0.35355339059327373 * alpha[4][k] * favg[2][k];
        ghat[1][k] += 0.35355339059327373 * alpha[5][k] * favg[3][k];
        ghat[1][k] += 0.3535533905932738 * alpha[6][k] * favg[7][k];
        ghat[1][k] += 0.3535533905932738 * alpha[7][k] * favg[6][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.35355339059327373 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.35355339059327373 * alpha[1][k] * favg[4][k];
        ghat[2][k] += 0.35355339059327373 * alpha[2][k] * favg[0][k];
        ghat[2][k] += 0.35355339059327373 * alpha[3][k] * favg[6][k];
        ghat[2][k] += 0.35355339059327373 * alpha[4][k] * favg[1][k];
        ghat[2][k] += 0.3535533905932738 * alpha[5][k] * favg[7][k];
        ghat[2][k] += 0.35355339059327373 * alpha[6][k] * favg[3][k];
        ghat[2][k] += 0.3535533905932738 * alpha[7][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.35355339059327373 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.35355339059327373 * alpha[1][k] * favg[5][k];
        ghat[3][k] += 0.35355339059327373 * alpha[2][k] * favg[6][k];
        ghat[3][k] += 0.35355339059327373 * alpha[3][k] * favg[0][k];
        ghat[3][k] += 0.3535533905932738 * alpha[4][k] * favg[7][k];
        ghat[3][k] += 0.35355339059327373 * alpha[5][k] * favg[1][k];
        ghat[3][k] += 0.35355339059327373 * alpha[6][k] * favg[2][k];
        ghat[3][k] += 0.3535533905932738 * alpha[7][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.35355339059327373 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.35355339059327373 * alpha[1][k] * favg[2][k];
        ghat[4][k] += 0.35355339059327373 * alpha[2][k] * favg[1][k];
        ghat[4][k] += 0.3535533905932738 * alpha[3][k] * favg[7][k];
        ghat[4][k] += 0.35355339059327373 * alpha[4][k] * favg[0][k];
        ghat[4][k] += 0.3535533905932738 * alpha[5][k] * favg[6][k];
        ghat[4][k] += 0.3535533905932738 * alpha[6][k] * favg[5][k];
        ghat[4][k] += 0.3535533905932738 * alpha[7][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.35355339059327373 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.35355339059327373 * alpha[1][k] * favg[3][k];
        ghat[5][k] += 0.3535533905932738 * alpha[2][k] * favg[7][k];
        ghat[5][k] += 0.35355339059327373 * alpha[3][k] * favg[1][k];
        ghat[5][k] += 0.3535533905932738 * alpha[4][k] * favg[6][k];
        ghat[5][k] += 0.35355339059327373 * alpha[5][k] * favg[0][k];
        ghat[5][k] += 0.3535533905932738 * alpha[6][k] * favg[4][k];
        ghat[5][k] += 0.3535533905932738 * alpha[7][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.35355339059327373 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.3535533905932738 * alpha[1][k] * favg[7][k];
        ghat[6][k] += 0.35355339059327373 * alpha[2][k] * favg[3][k];
        ghat[6][k] += 0.35355339059327373 * alpha[3][k] * favg[2][k];
        ghat[6][k] += 0.3535533905932738 * alpha[4][k] * favg[5][k];
        ghat[6][k] += 0.3535533905932738 * alpha[5][k] * favg[4][k];
        ghat[6][k] += 0.35355339059327373 * alpha[6][k] * favg[0][k];
        ghat[6][k] += 0.3535533905932738 * alpha[7][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.3535533905932738 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.3535533905932738 * alpha[1][k] * favg[6][k];
        ghat[7][k] += 0.3535533905932738 * alpha[2][k] * favg[5][k];
        ghat[7][k] += 0.3535533905932738 * alpha[3][k] * favg[4][k];
        ghat[7][k] += 0.3535533905932738 * alpha[4][k] * favg[3][k];
        ghat[7][k] += 0.3535533905932738 * alpha[5][k] * favg[2][k];
        ghat[7][k] += 0.3535533905932738 * alpha[6][k] * favg[1][k];
        ghat[7][k] += 0.3535533905932738 * alpha[7][k] * favg[0][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[6], -rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[7], -rd * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[8], -rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[9], -rd * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[10], -rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[11], -rd * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[12], -rd * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[13], -rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[14], -rd * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[15], -rd * 1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[3], rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], rd * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[6], rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[7], rd * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[8], rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[9], rd * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[10], rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[11], rd * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[12], rd * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[13], rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[14], rd * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[15], rd * -1.224744871391589, &ghat[7]);
}

/// Acceleration surface kernel, faces normal to v1 (α̂ = q/m (E + v×B)_1).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v1(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_2x2v_p1_ser_v1_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_2x2v_p1_ser_v1`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v1_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x2v_p1_ser_v1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v1_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x2v_p1_ser_v1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_v1`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v1_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_2x2v_p1_ser_v1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_2x2v_p1_ser_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x2v_p1_ser_v1_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 4] = w.first_chunk().expect("w: 4 coefficients");
    let f_lo: &[[f64; L]; 16] = f_lo.first_chunk().expect("f_lo: 16 coefficients");
    let f_hi: &[[f64; L]; 16] = f_hi.first_chunk().expect("f_hi: 16 coefficients");
    let out_lo: &mut [[f64; L]; 16] = out_lo.first_chunk_mut().expect("out_lo: 16 coefficients");
    let out_hi: &mut [[f64; L]; 16] = out_hi.first_chunk_mut().expect("out_hi: 16 coefficients");
    let rd = 2.0 / dxv[3];
    let mut alpha = [[0.0f64; L]; 8];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] += qm * 1.4142135623730951 * (em[4] - w[2][k] * em[20]);
        alpha[1][k] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[20];
        alpha[2][k] += qm * 1.4142135623730951 * (em[5] - w[2][k] * em[21]);
        alpha[4][k] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[21];
        alpha[3][k] += qm * 1.4142135623730951 * (em[6] - w[2][k] * em[22]);
        alpha[5][k] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[22];
        alpha[6][k] += qm * 1.4142135623730951 * (em[7] - w[2][k] * em[23]);
        alpha[7][k] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[23];
        lam[k] = if penalty { alpha[0][k].abs() * 0.35355339059327384 + alpha[1][k].abs() * 0.6123724356957946 + alpha[2][k].abs() * 0.6123724356957946 + alpha[3][k].abs() * 0.6123724356957946 + alpha[4][k].abs() * 1.0606601717798212 + alpha[5][k].abs() * 1.0606601717798212 + alpha[6][k].abs() * 1.0606601717798212 + alpha[7][k].abs() * 1.8371173070873832 } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 8];
    let mut fp = [[0.0f64; L]; 8];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[1]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[5]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[6]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[7]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[8]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[9]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[10]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[11]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[12]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[13]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[14]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[15]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[1]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[5]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[6]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[7]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[8]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[9]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[10]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[11]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[12]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[13]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[14]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[15]);
    let mut favg = [[0.0f64; L]; 8];
    let mut ghat = [[0.0f64; L]; 8];
    for k in 0..L {
        favg[0][k] = 0.5 * (fm[0][k] + fp[0][k]);
        ghat[0][k] = -0.5 * lam[k] * (fp[0][k] - fm[0][k]);
        favg[1][k] = 0.5 * (fm[1][k] + fp[1][k]);
        ghat[1][k] = -0.5 * lam[k] * (fp[1][k] - fm[1][k]);
        favg[2][k] = 0.5 * (fm[2][k] + fp[2][k]);
        ghat[2][k] = -0.5 * lam[k] * (fp[2][k] - fm[2][k]);
        favg[3][k] = 0.5 * (fm[3][k] + fp[3][k]);
        ghat[3][k] = -0.5 * lam[k] * (fp[3][k] - fm[3][k]);
        favg[4][k] = 0.5 * (fm[4][k] + fp[4][k]);
        ghat[4][k] = -0.5 * lam[k] * (fp[4][k] - fm[4][k]);
        favg[5][k] = 0.5 * (fm[5][k] + fp[5][k]);
        ghat[5][k] = -0.5 * lam[k] * (fp[5][k] - fm[5][k]);
        favg[6][k] = 0.5 * (fm[6][k] + fp[6][k]);
        ghat[6][k] = -0.5 * lam[k] * (fp[6][k] - fm[6][k]);
        favg[7][k] = 0.5 * (fm[7][k] + fp[7][k]);
        ghat[7][k] = -0.5 * lam[k] * (fp[7][k] - fm[7][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.3535533905932738 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.35355339059327373 * alpha[1][k] * favg[1][k];
        ghat[0][k] += 0.35355339059327373 * alpha[2][k] * favg[2][k];
        ghat[0][k] += 0.35355339059327373 * alpha[3][k] * favg[3][k];
        ghat[0][k] += 0.35355339059327373 * alpha[4][k] * favg[4][k];
        ghat[0][k] += 0.35355339059327373 * alpha[5][k] * favg[5][k];
        ghat[0][k] += 0.35355339059327373 * alpha[6][k] * favg[6][k];
        ghat[0][k] += 0.3535533905932738 * alpha[7][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.35355339059327373 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.35355339059327373 * alpha[1][k] * favg[0][k];
        ghat[1][k] += 0.35355339059327373 * alpha[2][k] * favg[4][k];
        ghat[1][k] += 0.35355339059327373 * alpha[3][k] * favg[5][k];
        ghat[1][k] += 0.35355339059327373 * alpha[4][k] * favg[2][k];
        ghat[1][k] += 0.35355339059327373 * alpha[5][k] * favg[3][k];
        ghat[1][k] += 0.3535533905932738 * alpha[6][k] * favg[7][k];
        ghat[1][k] += 0.3535533905932738 * alpha[7][k] * favg[6][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.35355339059327373 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.35355339059327373 * alpha[1][k] * favg[4][k];
        ghat[2][k] += 0.35355339059327373 * alpha[2][k] * favg[0][k];
        ghat[2][k] += 0.35355339059327373 * alpha[3][k] * favg[6][k];
        ghat[2][k] += 0.35355339059327373 * alpha[4][k] * favg[1][k];
        ghat[2][k] += 0.3535533905932738 * alpha[5][k] * favg[7][k];
        ghat[2][k] += 0.35355339059327373 * alpha[6][k] * favg[3][k];
        ghat[2][k] += 0.3535533905932738 * alpha[7][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.35355339059327373 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.35355339059327373 * alpha[1][k] * favg[5][k];
        ghat[3][k] += 0.35355339059327373 * alpha[2][k] * favg[6][k];
        ghat[3][k] += 0.35355339059327373 * alpha[3][k] * favg[0][k];
        ghat[3][k] += 0.3535533905932738 * alpha[4][k] * favg[7][k];
        ghat[3][k] += 0.35355339059327373 * alpha[5][k] * favg[1][k];
        ghat[3][k] += 0.35355339059327373 * alpha[6][k] * favg[2][k];
        ghat[3][k] += 0.3535533905932738 * alpha[7][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.35355339059327373 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.35355339059327373 * alpha[1][k] * favg[2][k];
        ghat[4][k] += 0.35355339059327373 * alpha[2][k] * favg[1][k];
        ghat[4][k] += 0.3535533905932738 * alpha[3][k] * favg[7][k];
        ghat[4][k] += 0.35355339059327373 * alpha[4][k] * favg[0][k];
        ghat[4][k] += 0.3535533905932738 * alpha[5][k] * favg[6][k];
        ghat[4][k] += 0.3535533905932738 * alpha[6][k] * favg[5][k];
        ghat[4][k] += 0.3535533905932738 * alpha[7][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.35355339059327373 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.35355339059327373 * alpha[1][k] * favg[3][k];
        ghat[5][k] += 0.3535533905932738 * alpha[2][k] * favg[7][k];
        ghat[5][k] += 0.35355339059327373 * alpha[3][k] * favg[1][k];
        ghat[5][k] += 0.3535533905932738 * alpha[4][k] * favg[6][k];
        ghat[5][k] += 0.35355339059327373 * alpha[5][k] * favg[0][k];
        ghat[5][k] += 0.3535533905932738 * alpha[6][k] * favg[4][k];
        ghat[5][k] += 0.3535533905932738 * alpha[7][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.35355339059327373 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.3535533905932738 * alpha[1][k] * favg[7][k];
        ghat[6][k] += 0.35355339059327373 * alpha[2][k] * favg[3][k];
        ghat[6][k] += 0.35355339059327373 * alpha[3][k] * favg[2][k];
        ghat[6][k] += 0.3535533905932738 * alpha[4][k] * favg[5][k];
        ghat[6][k] += 0.3535533905932738 * alpha[5][k] * favg[4][k];
        ghat[6][k] += 0.35355339059327373 * alpha[6][k] * favg[0][k];
        ghat[6][k] += 0.3535533905932738 * alpha[7][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.3535533905932738 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.3535533905932738 * alpha[1][k] * favg[6][k];
        ghat[7][k] += 0.3535533905932738 * alpha[2][k] * favg[5][k];
        ghat[7][k] += 0.3535533905932738 * alpha[3][k] * favg[4][k];
        ghat[7][k] += 0.3535533905932738 * alpha[4][k] * favg[3][k];
        ghat[7][k] += 0.3535533905932738 * alpha[5][k] * favg[2][k];
        ghat[7][k] += 0.3535533905932738 * alpha[6][k] * favg[1][k];
        ghat[7][k] += 0.3535533905932738 * alpha[7][k] * favg[0][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[6], -rd * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[7], -rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[8], -rd * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[9], -rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[10], -rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[11], -rd * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[12], -rd * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[13], -rd * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[14], -rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[15], -rd * 1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[2], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[3], rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], rd * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[6], rd * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[7], rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[8], rd * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[9], rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[10], rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[11], rd * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[12], rd * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[13], rd * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[14], rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[15], rd * -1.224744871391589, &ghat[7]);
}
