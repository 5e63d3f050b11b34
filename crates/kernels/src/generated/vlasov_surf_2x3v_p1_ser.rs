// Surface kernels for the Vlasov phase-space advection, 2x3v p=1 Serendipity basis.
// Auto-generated from exact integral tables — do not edit by hand.
// One lane-generic body per face-normal phase direction (configuration
// first) behind a scalar, a `_b4`, a `_b4_avx2` and a `_b8_avx512` entry
// point; see `crate::dispatch::SurfaceKernelFn` for the calling convention.

/// Streaming surface kernel, faces normal to x0 (α̂ = v0).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_x0(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_2x3v_p1_ser_x0_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_2x3v_p1_ser_x0`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_x0_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x3v_p1_ser_x0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x3v_p1_ser_x0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_x0_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x3v_p1_ser_x0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x3v_p1_ser_x0`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_x0_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_2x3v_p1_ser_x0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_2x3v_p1_ser_x0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x3v_p1_ser_x0_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 5] = w.first_chunk().expect("w: 5 coefficients");
    let f_lo: &[[f64; L]; 32] = f_lo.first_chunk().expect("f_lo: 32 coefficients");
    let f_hi: &[[f64; L]; 32] = f_hi.first_chunk().expect("f_hi: 32 coefficients");
    let out_lo: &mut [[f64; L]; 32] = out_lo.first_chunk_mut().expect("out_lo: 32 coefficients");
    let out_hi: &mut [[f64; L]; 32] = out_hi.first_chunk_mut().expect("out_hi: 32 coefficients");
    let rd = 2.0 / dxv[0];
    let mut alpha = [[0.0f64; L]; 16];
    let mut lam = [0.0f64; L];
    let _ = (qm, em);
    for k in 0..L {
        alpha[0][k] = w[2][k] * 4.0;
        alpha[3][k] += 0.5 * dxv[2] * 2.3094010767585034;
        lam[k] = if penalty { w[2][k].abs() + 0.5 * dxv[2].abs() } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 16];
    let mut fp = [[0.0f64; L]; 16];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[4]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[5]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[6]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[7]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[8]);
    sxn(&mut fm[8], 0.7071067811865476, &f_lo[9]);
    sxn(&mut fm[9], 0.7071067811865476, &f_lo[10]);
    sxn(&mut fm[10], 0.7071067811865476, &f_lo[11]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[12]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[13]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[14]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[15]);
    sxn(&mut fm[11], 0.7071067811865476, &f_lo[16]);
    sxn(&mut fm[12], 0.7071067811865476, &f_lo[17]);
    sxn(&mut fm[13], 0.7071067811865476, &f_lo[18]);
    sxn(&mut fm[14], 0.7071067811865476, &f_lo[19]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[20]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[21]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[22]);
    sxn(&mut fm[8], 1.224744871391589, &f_lo[23]);
    sxn(&mut fm[9], 1.224744871391589, &f_lo[24]);
    sxn(&mut fm[10], 1.224744871391589, &f_lo[25]);
    sxn(&mut fm[15], 0.7071067811865476, &f_lo[26]);
    sxn(&mut fm[11], 1.224744871391589, &f_lo[27]);
    sxn(&mut fm[12], 1.224744871391589, &f_lo[28]);
    sxn(&mut fm[13], 1.224744871391589, &f_lo[29]);
    sxn(&mut fm[14], 1.224744871391589, &f_lo[30]);
    sxn(&mut fm[15], 1.224744871391589, &f_lo[31]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[4]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[5]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[6]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[7]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[8]);
    sxn(&mut fp[8], 0.7071067811865476, &f_hi[9]);
    sxn(&mut fp[9], 0.7071067811865476, &f_hi[10]);
    sxn(&mut fp[10], 0.7071067811865476, &f_hi[11]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[12]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[13]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[14]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[15]);
    sxn(&mut fp[11], 0.7071067811865476, &f_hi[16]);
    sxn(&mut fp[12], 0.7071067811865476, &f_hi[17]);
    sxn(&mut fp[13], 0.7071067811865476, &f_hi[18]);
    sxn(&mut fp[14], 0.7071067811865476, &f_hi[19]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[20]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[21]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[22]);
    sxn(&mut fp[8], -1.224744871391589, &f_hi[23]);
    sxn(&mut fp[9], -1.224744871391589, &f_hi[24]);
    sxn(&mut fp[10], -1.224744871391589, &f_hi[25]);
    sxn(&mut fp[15], 0.7071067811865476, &f_hi[26]);
    sxn(&mut fp[11], -1.224744871391589, &f_hi[27]);
    sxn(&mut fp[12], -1.224744871391589, &f_hi[28]);
    sxn(&mut fp[13], -1.224744871391589, &f_hi[29]);
    sxn(&mut fp[14], -1.224744871391589, &f_hi[30]);
    sxn(&mut fp[15], -1.224744871391589, &f_hi[31]);
    let mut favg = [[0.0f64; L]; 16];
    let mut ghat = [[0.0f64; L]; 16];
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
        favg[8][k] = 0.5 * (fm[8][k] + fp[8][k]);
        ghat[8][k] = -0.5 * lam[k] * (fp[8][k] - fm[8][k]);
        favg[9][k] = 0.5 * (fm[9][k] + fp[9][k]);
        ghat[9][k] = -0.5 * lam[k] * (fp[9][k] - fm[9][k]);
        favg[10][k] = 0.5 * (fm[10][k] + fp[10][k]);
        ghat[10][k] = -0.5 * lam[k] * (fp[10][k] - fm[10][k]);
        favg[11][k] = 0.5 * (fm[11][k] + fp[11][k]);
        ghat[11][k] = -0.5 * lam[k] * (fp[11][k] - fm[11][k]);
        favg[12][k] = 0.5 * (fm[12][k] + fp[12][k]);
        ghat[12][k] = -0.5 * lam[k] * (fp[12][k] - fm[12][k]);
        favg[13][k] = 0.5 * (fm[13][k] + fp[13][k]);
        ghat[13][k] = -0.5 * lam[k] * (fp[13][k] - fm[13][k]);
        favg[14][k] = 0.5 * (fm[14][k] + fp[14][k]);
        ghat[14][k] = -0.5 * lam[k] * (fp[14][k] - fm[14][k]);
        favg[15][k] = 0.5 * (fm[15][k] + fp[15][k]);
        ghat[15][k] = -0.5 * lam[k] * (fp[15][k] - fm[15][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.25 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.25 * alpha[3][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.25 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.25 * alpha[3][k] * favg[6][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.25 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.25 * alpha[3][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.25 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.25 * alpha[3][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.25 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.25 * alpha[3][k] * favg[10][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.25 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.25 * alpha[3][k] * favg[11][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.25 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.25 * alpha[3][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.25 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.25 * alpha[3][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.25 * alpha[0][k] * favg[8][k];
        ghat[8][k] += 0.25 * alpha[3][k] * favg[13][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.25 * alpha[0][k] * favg[9][k];
        ghat[9][k] += 0.25 * alpha[3][k] * favg[14][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.25 * alpha[0][k] * favg[10][k];
        ghat[10][k] += 0.25 * alpha[3][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.25 * alpha[0][k] * favg[11][k];
        ghat[11][k] += 0.25 * alpha[3][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.25 * alpha[0][k] * favg[12][k];
        ghat[12][k] += 0.25 * alpha[3][k] * favg[15][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.25 * alpha[0][k] * favg[13][k];
        ghat[13][k] += 0.25 * alpha[3][k] * favg[8][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.25 * alpha[0][k] * favg[14][k];
        ghat[14][k] += 0.25 * alpha[3][k] * favg[9][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.25 * alpha[0][k] * favg[15][k];
        ghat[15][k] += 0.25 * alpha[3][k] * favg[12][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[5], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[6], -rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[7], -rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[8], -rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[9], -rd * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[10], -rd * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[11], -rd * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[12], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[13], -rd * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[14], -rd * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[15], -rd * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[16], -rd * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[17], -rd * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[18], -rd * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[19], -rd * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[20], -rd * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[21], -rd * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[22], -rd * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[23], -rd * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[24], -rd * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[25], -rd * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[26], -rd * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[27], -rd * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[28], -rd * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[29], -rd * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[30], -rd * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[31], -rd * 1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[3], rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[4], rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[5], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[6], rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[7], rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[8], rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[9], rd * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[10], rd * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[11], rd * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[12], rd * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[13], rd * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[14], rd * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[15], rd * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[16], rd * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[17], rd * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[18], rd * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[19], rd * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[20], rd * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[21], rd * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[22], rd * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[23], rd * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[24], rd * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[25], rd * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[26], rd * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[27], rd * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[28], rd * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[29], rd * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[30], rd * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[31], rd * -1.224744871391589, &ghat[15]);
}

/// Streaming surface kernel, faces normal to x1 (α̂ = v1).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_x1(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_2x3v_p1_ser_x1_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_2x3v_p1_ser_x1`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_x1_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x3v_p1_ser_x1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x3v_p1_ser_x1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_x1_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x3v_p1_ser_x1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x3v_p1_ser_x1`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_x1_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_2x3v_p1_ser_x1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_2x3v_p1_ser_x1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x3v_p1_ser_x1_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 5] = w.first_chunk().expect("w: 5 coefficients");
    let f_lo: &[[f64; L]; 32] = f_lo.first_chunk().expect("f_lo: 32 coefficients");
    let f_hi: &[[f64; L]; 32] = f_hi.first_chunk().expect("f_hi: 32 coefficients");
    let out_lo: &mut [[f64; L]; 32] = out_lo.first_chunk_mut().expect("out_lo: 32 coefficients");
    let out_hi: &mut [[f64; L]; 32] = out_hi.first_chunk_mut().expect("out_hi: 32 coefficients");
    let rd = 2.0 / dxv[1];
    let mut alpha = [[0.0f64; L]; 16];
    let mut lam = [0.0f64; L];
    let _ = (qm, em);
    for k in 0..L {
        alpha[0][k] = w[3][k] * 4.0;
        alpha[2][k] += 0.5 * dxv[3] * 2.3094010767585034;
        lam[k] = if penalty { w[3][k].abs() + 0.5 * dxv[3].abs() } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 16];
    let mut fp = [[0.0f64; L]; 16];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[4]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[6]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[7]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[8]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[9]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[10]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[11]);
    sxn(&mut fm[8], 0.7071067811865476, &f_lo[12]);
    sxn(&mut fm[9], 0.7071067811865476, &f_lo[13]);
    sxn(&mut fm[10], 0.7071067811865476, &f_lo[14]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[15]);
    sxn(&mut fm[11], 0.7071067811865476, &f_lo[16]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[17]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[18]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[19]);
    sxn(&mut fm[12], 0.7071067811865476, &f_lo[20]);
    sxn(&mut fm[13], 0.7071067811865476, &f_lo[21]);
    sxn(&mut fm[14], 0.7071067811865476, &f_lo[22]);
    sxn(&mut fm[8], 1.224744871391589, &f_lo[23]);
    sxn(&mut fm[9], 1.224744871391589, &f_lo[24]);
    sxn(&mut fm[10], 1.224744871391589, &f_lo[25]);
    sxn(&mut fm[11], 1.224744871391589, &f_lo[26]);
    sxn(&mut fm[15], 0.7071067811865476, &f_lo[27]);
    sxn(&mut fm[12], 1.224744871391589, &f_lo[28]);
    sxn(&mut fm[13], 1.224744871391589, &f_lo[29]);
    sxn(&mut fm[14], 1.224744871391589, &f_lo[30]);
    sxn(&mut fm[15], 1.224744871391589, &f_lo[31]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[4]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[6]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[7]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[8]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[9]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[10]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[11]);
    sxn(&mut fp[8], 0.7071067811865476, &f_hi[12]);
    sxn(&mut fp[9], 0.7071067811865476, &f_hi[13]);
    sxn(&mut fp[10], 0.7071067811865476, &f_hi[14]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[15]);
    sxn(&mut fp[11], 0.7071067811865476, &f_hi[16]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[17]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[18]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[19]);
    sxn(&mut fp[12], 0.7071067811865476, &f_hi[20]);
    sxn(&mut fp[13], 0.7071067811865476, &f_hi[21]);
    sxn(&mut fp[14], 0.7071067811865476, &f_hi[22]);
    sxn(&mut fp[8], -1.224744871391589, &f_hi[23]);
    sxn(&mut fp[9], -1.224744871391589, &f_hi[24]);
    sxn(&mut fp[10], -1.224744871391589, &f_hi[25]);
    sxn(&mut fp[11], -1.224744871391589, &f_hi[26]);
    sxn(&mut fp[15], 0.7071067811865476, &f_hi[27]);
    sxn(&mut fp[12], -1.224744871391589, &f_hi[28]);
    sxn(&mut fp[13], -1.224744871391589, &f_hi[29]);
    sxn(&mut fp[14], -1.224744871391589, &f_hi[30]);
    sxn(&mut fp[15], -1.224744871391589, &f_hi[31]);
    let mut favg = [[0.0f64; L]; 16];
    let mut ghat = [[0.0f64; L]; 16];
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
        favg[8][k] = 0.5 * (fm[8][k] + fp[8][k]);
        ghat[8][k] = -0.5 * lam[k] * (fp[8][k] - fm[8][k]);
        favg[9][k] = 0.5 * (fm[9][k] + fp[9][k]);
        ghat[9][k] = -0.5 * lam[k] * (fp[9][k] - fm[9][k]);
        favg[10][k] = 0.5 * (fm[10][k] + fp[10][k]);
        ghat[10][k] = -0.5 * lam[k] * (fp[10][k] - fm[10][k]);
        favg[11][k] = 0.5 * (fm[11][k] + fp[11][k]);
        ghat[11][k] = -0.5 * lam[k] * (fp[11][k] - fm[11][k]);
        favg[12][k] = 0.5 * (fm[12][k] + fp[12][k]);
        ghat[12][k] = -0.5 * lam[k] * (fp[12][k] - fm[12][k]);
        favg[13][k] = 0.5 * (fm[13][k] + fp[13][k]);
        ghat[13][k] = -0.5 * lam[k] * (fp[13][k] - fm[13][k]);
        favg[14][k] = 0.5 * (fm[14][k] + fp[14][k]);
        ghat[14][k] = -0.5 * lam[k] * (fp[14][k] - fm[14][k]);
        favg[15][k] = 0.5 * (fm[15][k] + fp[15][k]);
        ghat[15][k] = -0.5 * lam[k] * (fp[15][k] - fm[15][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.25 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.25 * alpha[2][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.25 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.25 * alpha[2][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.25 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.25 * alpha[2][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.25 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.25 * alpha[2][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.25 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.25 * alpha[2][k] * favg[9][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.25 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.25 * alpha[2][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.25 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.25 * alpha[2][k] * favg[11][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.25 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.25 * alpha[2][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.25 * alpha[0][k] * favg[8][k];
        ghat[8][k] += 0.25 * alpha[2][k] * favg[12][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.25 * alpha[0][k] * favg[9][k];
        ghat[9][k] += 0.25 * alpha[2][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.25 * alpha[0][k] * favg[10][k];
        ghat[10][k] += 0.25 * alpha[2][k] * favg[14][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.25 * alpha[0][k] * favg[11][k];
        ghat[11][k] += 0.25 * alpha[2][k] * favg[6][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.25 * alpha[0][k] * favg[12][k];
        ghat[12][k] += 0.25 * alpha[2][k] * favg[8][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.25 * alpha[0][k] * favg[13][k];
        ghat[13][k] += 0.25 * alpha[2][k] * favg[15][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.25 * alpha[0][k] * favg[14][k];
        ghat[14][k] += 0.25 * alpha[2][k] * favg[10][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.25 * alpha[0][k] * favg[15][k];
        ghat[15][k] += 0.25 * alpha[2][k] * favg[13][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[4], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[5], -rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], -rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[7], -rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[8], -rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[9], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[10], -rd * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[11], -rd * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[12], -rd * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[13], -rd * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[14], -rd * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[15], -rd * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[16], -rd * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[17], -rd * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[18], -rd * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[19], -rd * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[20], -rd * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[21], -rd * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[22], -rd * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[23], -rd * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[24], -rd * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[25], -rd * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[26], -rd * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[27], -rd * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[28], -rd * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[29], -rd * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[30], -rd * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[31], -rd * 1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[3], rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[4], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[5], rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[7], rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[8], rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[9], rd * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[10], rd * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[11], rd * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[12], rd * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[13], rd * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[14], rd * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[15], rd * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[16], rd * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[17], rd * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[18], rd * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[19], rd * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[20], rd * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[21], rd * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[22], rd * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[23], rd * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[24], rd * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[25], rd * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[26], rd * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[27], rd * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[28], rd * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[29], rd * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[30], rd * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[31], rd * -1.224744871391589, &ghat[15]);
}

/// Acceleration surface kernel, faces normal to v0 (α̂ = q/m (E + v×B)_0).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v0(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_2x3v_p1_ser_v0_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_2x3v_p1_ser_v0`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v0_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x3v_p1_ser_v0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x3v_p1_ser_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v0_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x3v_p1_ser_v0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x3v_p1_ser_v0`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v0_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_2x3v_p1_ser_v0_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_2x3v_p1_ser_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x3v_p1_ser_v0_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 5] = w.first_chunk().expect("w: 5 coefficients");
    let f_lo: &[[f64; L]; 32] = f_lo.first_chunk().expect("f_lo: 32 coefficients");
    let f_hi: &[[f64; L]; 32] = f_hi.first_chunk().expect("f_hi: 32 coefficients");
    let out_lo: &mut [[f64; L]; 32] = out_lo.first_chunk_mut().expect("out_lo: 32 coefficients");
    let out_hi: &mut [[f64; L]; 32] = out_hi.first_chunk_mut().expect("out_hi: 32 coefficients");
    let rd = 2.0 / dxv[2];
    let mut alpha = [[0.0f64; L]; 16];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] += qm * 2.0 * (em[0] + w[3][k] * em[20] - w[4][k] * em[16]);
        alpha[2][k] += qm * 1.1547005383792517 * (0.5 * dxv[3]) * em[20];
        alpha[1][k] += qm * -1.1547005383792517 * (0.5 * dxv[4]) * em[16];
        alpha[3][k] += qm * 2.0 * (em[1] + w[3][k] * em[21] - w[4][k] * em[17]);
        alpha[7][k] += qm * 1.1547005383792517 * (0.5 * dxv[3]) * em[21];
        alpha[6][k] += qm * -1.1547005383792517 * (0.5 * dxv[4]) * em[17];
        alpha[4][k] += qm * 2.0 * (em[2] + w[3][k] * em[22] - w[4][k] * em[18]);
        alpha[9][k] += qm * 1.1547005383792517 * (0.5 * dxv[3]) * em[22];
        alpha[8][k] += qm * -1.1547005383792517 * (0.5 * dxv[4]) * em[18];
        alpha[10][k] += qm * 2.0 * (em[3] + w[3][k] * em[23] - w[4][k] * em[19]);
        alpha[14][k] += qm * 1.1547005383792517 * (0.5 * dxv[3]) * em[23];
        alpha[13][k] += qm * -1.1547005383792517 * (0.5 * dxv[4]) * em[19];
        lam[k] = if penalty { alpha[0][k].abs() * 0.25000000000000006 + alpha[1][k].abs() * 0.4330127018922194 + alpha[2][k].abs() * 0.4330127018922194 + alpha[3][k].abs() * 0.4330127018922194 + alpha[4][k].abs() * 0.4330127018922194 + alpha[6][k].abs() * 0.75 + alpha[7][k].abs() * 0.75 + alpha[8][k].abs() * 0.75 + alpha[9][k].abs() * 0.75 + alpha[10][k].abs() * 0.75 + alpha[13][k].abs() * 1.2990381056766578 + alpha[14][k].abs() * 1.2990381056766578 } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 16];
    let mut fp = [[0.0f64; L]; 16];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[3]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[6]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[7]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[8]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[9]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[10]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[11]);
    sxn(&mut fm[8], 0.7071067811865476, &f_lo[12]);
    sxn(&mut fm[9], 0.7071067811865476, &f_lo[13]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[14]);
    sxn(&mut fm[10], 0.7071067811865476, &f_lo[15]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[16]);
    sxn(&mut fm[11], 0.7071067811865476, &f_lo[17]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[18]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[19]);
    sxn(&mut fm[12], 0.7071067811865476, &f_lo[20]);
    sxn(&mut fm[8], 1.224744871391589, &f_lo[21]);
    sxn(&mut fm[9], 1.224744871391589, &f_lo[22]);
    sxn(&mut fm[13], 0.7071067811865476, &f_lo[23]);
    sxn(&mut fm[14], 0.7071067811865476, &f_lo[24]);
    sxn(&mut fm[10], 1.224744871391589, &f_lo[25]);
    sxn(&mut fm[11], 1.224744871391589, &f_lo[26]);
    sxn(&mut fm[12], 1.224744871391589, &f_lo[27]);
    sxn(&mut fm[15], 0.7071067811865476, &f_lo[28]);
    sxn(&mut fm[13], 1.224744871391589, &f_lo[29]);
    sxn(&mut fm[14], 1.224744871391589, &f_lo[30]);
    sxn(&mut fm[15], 1.224744871391589, &f_lo[31]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[3]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[6]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[7]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[8]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[9]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[10]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[11]);
    sxn(&mut fp[8], 0.7071067811865476, &f_hi[12]);
    sxn(&mut fp[9], 0.7071067811865476, &f_hi[13]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[14]);
    sxn(&mut fp[10], 0.7071067811865476, &f_hi[15]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[16]);
    sxn(&mut fp[11], 0.7071067811865476, &f_hi[17]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[18]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[19]);
    sxn(&mut fp[12], 0.7071067811865476, &f_hi[20]);
    sxn(&mut fp[8], -1.224744871391589, &f_hi[21]);
    sxn(&mut fp[9], -1.224744871391589, &f_hi[22]);
    sxn(&mut fp[13], 0.7071067811865476, &f_hi[23]);
    sxn(&mut fp[14], 0.7071067811865476, &f_hi[24]);
    sxn(&mut fp[10], -1.224744871391589, &f_hi[25]);
    sxn(&mut fp[11], -1.224744871391589, &f_hi[26]);
    sxn(&mut fp[12], -1.224744871391589, &f_hi[27]);
    sxn(&mut fp[15], 0.7071067811865476, &f_hi[28]);
    sxn(&mut fp[13], -1.224744871391589, &f_hi[29]);
    sxn(&mut fp[14], -1.224744871391589, &f_hi[30]);
    sxn(&mut fp[15], -1.224744871391589, &f_hi[31]);
    let mut favg = [[0.0f64; L]; 16];
    let mut ghat = [[0.0f64; L]; 16];
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
        favg[8][k] = 0.5 * (fm[8][k] + fp[8][k]);
        ghat[8][k] = -0.5 * lam[k] * (fp[8][k] - fm[8][k]);
        favg[9][k] = 0.5 * (fm[9][k] + fp[9][k]);
        ghat[9][k] = -0.5 * lam[k] * (fp[9][k] - fm[9][k]);
        favg[10][k] = 0.5 * (fm[10][k] + fp[10][k]);
        ghat[10][k] = -0.5 * lam[k] * (fp[10][k] - fm[10][k]);
        favg[11][k] = 0.5 * (fm[11][k] + fp[11][k]);
        ghat[11][k] = -0.5 * lam[k] * (fp[11][k] - fm[11][k]);
        favg[12][k] = 0.5 * (fm[12][k] + fp[12][k]);
        ghat[12][k] = -0.5 * lam[k] * (fp[12][k] - fm[12][k]);
        favg[13][k] = 0.5 * (fm[13][k] + fp[13][k]);
        ghat[13][k] = -0.5 * lam[k] * (fp[13][k] - fm[13][k]);
        favg[14][k] = 0.5 * (fm[14][k] + fp[14][k]);
        ghat[14][k] = -0.5 * lam[k] * (fp[14][k] - fm[14][k]);
        favg[15][k] = 0.5 * (fm[15][k] + fp[15][k]);
        ghat[15][k] = -0.5 * lam[k] * (fp[15][k] - fm[15][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.25 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.25 * alpha[1][k] * favg[1][k];
        ghat[0][k] += 0.25 * alpha[2][k] * favg[2][k];
        ghat[0][k] += 0.25 * alpha[3][k] * favg[3][k];
        ghat[0][k] += 0.25 * alpha[4][k] * favg[4][k];
        ghat[0][k] += 0.25 * alpha[6][k] * favg[6][k];
        ghat[0][k] += 0.25 * alpha[7][k] * favg[7][k];
        ghat[0][k] += 0.25 * alpha[8][k] * favg[8][k];
        ghat[0][k] += 0.25 * alpha[9][k] * favg[9][k];
        ghat[0][k] += 0.25 * alpha[10][k] * favg[10][k];
        ghat[0][k] += 0.25 * alpha[13][k] * favg[13][k];
        ghat[0][k] += 0.25 * alpha[14][k] * favg[14][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.25 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.25 * alpha[1][k] * favg[0][k];
        ghat[1][k] += 0.25 * alpha[2][k] * favg[5][k];
        ghat[1][k] += 0.25 * alpha[3][k] * favg[6][k];
        ghat[1][k] += 0.25 * alpha[4][k] * favg[8][k];
        ghat[1][k] += 0.25 * alpha[6][k] * favg[3][k];
        ghat[1][k] += 0.25 * alpha[7][k] * favg[11][k];
        ghat[1][k] += 0.25 * alpha[8][k] * favg[4][k];
        ghat[1][k] += 0.25 * alpha[9][k] * favg[12][k];
        ghat[1][k] += 0.25 * alpha[10][k] * favg[13][k];
        ghat[1][k] += 0.25 * alpha[13][k] * favg[10][k];
        ghat[1][k] += 0.25 * alpha[14][k] * favg[15][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.25 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.25 * alpha[1][k] * favg[5][k];
        ghat[2][k] += 0.25 * alpha[2][k] * favg[0][k];
        ghat[2][k] += 0.25 * alpha[3][k] * favg[7][k];
        ghat[2][k] += 0.25 * alpha[4][k] * favg[9][k];
        ghat[2][k] += 0.25 * alpha[6][k] * favg[11][k];
        ghat[2][k] += 0.25 * alpha[7][k] * favg[3][k];
        ghat[2][k] += 0.25 * alpha[8][k] * favg[12][k];
        ghat[2][k] += 0.25 * alpha[9][k] * favg[4][k];
        ghat[2][k] += 0.25 * alpha[10][k] * favg[14][k];
        ghat[2][k] += 0.25 * alpha[13][k] * favg[15][k];
        ghat[2][k] += 0.25 * alpha[14][k] * favg[10][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.25 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.25 * alpha[1][k] * favg[6][k];
        ghat[3][k] += 0.25 * alpha[2][k] * favg[7][k];
        ghat[3][k] += 0.25 * alpha[3][k] * favg[0][k];
        ghat[3][k] += 0.25 * alpha[4][k] * favg[10][k];
        ghat[3][k] += 0.25 * alpha[6][k] * favg[1][k];
        ghat[3][k] += 0.25 * alpha[7][k] * favg[2][k];
        ghat[3][k] += 0.25 * alpha[8][k] * favg[13][k];
        ghat[3][k] += 0.25 * alpha[9][k] * favg[14][k];
        ghat[3][k] += 0.25 * alpha[10][k] * favg[4][k];
        ghat[3][k] += 0.25 * alpha[13][k] * favg[8][k];
        ghat[3][k] += 0.25 * alpha[14][k] * favg[9][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.25 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.25 * alpha[1][k] * favg[8][k];
        ghat[4][k] += 0.25 * alpha[2][k] * favg[9][k];
        ghat[4][k] += 0.25 * alpha[3][k] * favg[10][k];
        ghat[4][k] += 0.25 * alpha[4][k] * favg[0][k];
        ghat[4][k] += 0.25 * alpha[6][k] * favg[13][k];
        ghat[4][k] += 0.25 * alpha[7][k] * favg[14][k];
        ghat[4][k] += 0.25 * alpha[8][k] * favg[1][k];
        ghat[4][k] += 0.25 * alpha[9][k] * favg[2][k];
        ghat[4][k] += 0.25 * alpha[10][k] * favg[3][k];
        ghat[4][k] += 0.25 * alpha[13][k] * favg[6][k];
        ghat[4][k] += 0.25 * alpha[14][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.25 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.25 * alpha[1][k] * favg[2][k];
        ghat[5][k] += 0.25 * alpha[2][k] * favg[1][k];
        ghat[5][k] += 0.25 * alpha[3][k] * favg[11][k];
        ghat[5][k] += 0.25 * alpha[4][k] * favg[12][k];
        ghat[5][k] += 0.25 * alpha[6][k] * favg[7][k];
        ghat[5][k] += 0.25 * alpha[7][k] * favg[6][k];
        ghat[5][k] += 0.25 * alpha[8][k] * favg[9][k];
        ghat[5][k] += 0.25 * alpha[9][k] * favg[8][k];
        ghat[5][k] += 0.25 * alpha[10][k] * favg[15][k];
        ghat[5][k] += 0.25 * alpha[13][k] * favg[14][k];
        ghat[5][k] += 0.25 * alpha[14][k] * favg[13][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.25 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.25 * alpha[1][k] * favg[3][k];
        ghat[6][k] += 0.25 * alpha[2][k] * favg[11][k];
        ghat[6][k] += 0.25 * alpha[3][k] * favg[1][k];
        ghat[6][k] += 0.25 * alpha[4][k] * favg[13][k];
        ghat[6][k] += 0.25 * alpha[6][k] * favg[0][k];
        ghat[6][k] += 0.25 * alpha[7][k] * favg[5][k];
        ghat[6][k] += 0.25 * alpha[8][k] * favg[10][k];
        ghat[6][k] += 0.25 * alpha[9][k] * favg[15][k];
        ghat[6][k] += 0.25 * alpha[10][k] * favg[8][k];
        ghat[6][k] += 0.25 * alpha[13][k] * favg[4][k];
        ghat[6][k] += 0.25 * alpha[14][k] * favg[12][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.25 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.25 * alpha[1][k] * favg[11][k];
        ghat[7][k] += 0.25 * alpha[2][k] * favg[3][k];
        ghat[7][k] += 0.25 * alpha[3][k] * favg[2][k];
        ghat[7][k] += 0.25 * alpha[4][k] * favg[14][k];
        ghat[7][k] += 0.25 * alpha[6][k] * favg[5][k];
        ghat[7][k] += 0.25 * alpha[7][k] * favg[0][k];
        ghat[7][k] += 0.25 * alpha[8][k] * favg[15][k];
        ghat[7][k] += 0.25 * alpha[9][k] * favg[10][k];
        ghat[7][k] += 0.25 * alpha[10][k] * favg[9][k];
        ghat[7][k] += 0.25 * alpha[13][k] * favg[12][k];
        ghat[7][k] += 0.25 * alpha[14][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.25 * alpha[0][k] * favg[8][k];
        ghat[8][k] += 0.25 * alpha[1][k] * favg[4][k];
        ghat[8][k] += 0.25 * alpha[2][k] * favg[12][k];
        ghat[8][k] += 0.25 * alpha[3][k] * favg[13][k];
        ghat[8][k] += 0.25 * alpha[4][k] * favg[1][k];
        ghat[8][k] += 0.25 * alpha[6][k] * favg[10][k];
        ghat[8][k] += 0.25 * alpha[7][k] * favg[15][k];
        ghat[8][k] += 0.25 * alpha[8][k] * favg[0][k];
        ghat[8][k] += 0.25 * alpha[9][k] * favg[5][k];
        ghat[8][k] += 0.25 * alpha[10][k] * favg[6][k];
        ghat[8][k] += 0.25 * alpha[13][k] * favg[3][k];
        ghat[8][k] += 0.25 * alpha[14][k] * favg[11][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.25 * alpha[0][k] * favg[9][k];
        ghat[9][k] += 0.25 * alpha[1][k] * favg[12][k];
        ghat[9][k] += 0.25 * alpha[2][k] * favg[4][k];
        ghat[9][k] += 0.25 * alpha[3][k] * favg[14][k];
        ghat[9][k] += 0.25 * alpha[4][k] * favg[2][k];
        ghat[9][k] += 0.25 * alpha[6][k] * favg[15][k];
        ghat[9][k] += 0.25 * alpha[7][k] * favg[10][k];
        ghat[9][k] += 0.25 * alpha[8][k] * favg[5][k];
        ghat[9][k] += 0.25 * alpha[9][k] * favg[0][k];
        ghat[9][k] += 0.25 * alpha[10][k] * favg[7][k];
        ghat[9][k] += 0.25 * alpha[13][k] * favg[11][k];
        ghat[9][k] += 0.25 * alpha[14][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.25 * alpha[0][k] * favg[10][k];
        ghat[10][k] += 0.25 * alpha[1][k] * favg[13][k];
        ghat[10][k] += 0.25 * alpha[2][k] * favg[14][k];
        ghat[10][k] += 0.25 * alpha[3][k] * favg[4][k];
        ghat[10][k] += 0.25 * alpha[4][k] * favg[3][k];
        ghat[10][k] += 0.25 * alpha[6][k] * favg[8][k];
        ghat[10][k] += 0.25 * alpha[7][k] * favg[9][k];
        ghat[10][k] += 0.25 * alpha[8][k] * favg[6][k];
        ghat[10][k] += 0.25 * alpha[9][k] * favg[7][k];
        ghat[10][k] += 0.25 * alpha[10][k] * favg[0][k];
        ghat[10][k] += 0.25 * alpha[13][k] * favg[1][k];
        ghat[10][k] += 0.25 * alpha[14][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.25 * alpha[0][k] * favg[11][k];
        ghat[11][k] += 0.25 * alpha[1][k] * favg[7][k];
        ghat[11][k] += 0.25 * alpha[2][k] * favg[6][k];
        ghat[11][k] += 0.25 * alpha[3][k] * favg[5][k];
        ghat[11][k] += 0.25 * alpha[4][k] * favg[15][k];
        ghat[11][k] += 0.25 * alpha[6][k] * favg[2][k];
        ghat[11][k] += 0.25 * alpha[7][k] * favg[1][k];
        ghat[11][k] += 0.25 * alpha[8][k] * favg[14][k];
        ghat[11][k] += 0.25 * alpha[9][k] * favg[13][k];
        ghat[11][k] += 0.25 * alpha[10][k] * favg[12][k];
        ghat[11][k] += 0.25 * alpha[13][k] * favg[9][k];
        ghat[11][k] += 0.25 * alpha[14][k] * favg[8][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.25 * alpha[0][k] * favg[12][k];
        ghat[12][k] += 0.25 * alpha[1][k] * favg[9][k];
        ghat[12][k] += 0.25 * alpha[2][k] * favg[8][k];
        ghat[12][k] += 0.25 * alpha[3][k] * favg[15][k];
        ghat[12][k] += 0.25 * alpha[4][k] * favg[5][k];
        ghat[12][k] += 0.25 * alpha[6][k] * favg[14][k];
        ghat[12][k] += 0.25 * alpha[7][k] * favg[13][k];
        ghat[12][k] += 0.25 * alpha[8][k] * favg[2][k];
        ghat[12][k] += 0.25 * alpha[9][k] * favg[1][k];
        ghat[12][k] += 0.25 * alpha[10][k] * favg[11][k];
        ghat[12][k] += 0.25 * alpha[13][k] * favg[7][k];
        ghat[12][k] += 0.25 * alpha[14][k] * favg[6][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.25 * alpha[0][k] * favg[13][k];
        ghat[13][k] += 0.25 * alpha[1][k] * favg[10][k];
        ghat[13][k] += 0.25 * alpha[2][k] * favg[15][k];
        ghat[13][k] += 0.25 * alpha[3][k] * favg[8][k];
        ghat[13][k] += 0.25 * alpha[4][k] * favg[6][k];
        ghat[13][k] += 0.25 * alpha[6][k] * favg[4][k];
        ghat[13][k] += 0.25 * alpha[7][k] * favg[12][k];
        ghat[13][k] += 0.25 * alpha[8][k] * favg[3][k];
        ghat[13][k] += 0.25 * alpha[9][k] * favg[11][k];
        ghat[13][k] += 0.25 * alpha[10][k] * favg[1][k];
        ghat[13][k] += 0.25 * alpha[13][k] * favg[0][k];
        ghat[13][k] += 0.25 * alpha[14][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.25 * alpha[0][k] * favg[14][k];
        ghat[14][k] += 0.25 * alpha[1][k] * favg[15][k];
        ghat[14][k] += 0.25 * alpha[2][k] * favg[10][k];
        ghat[14][k] += 0.25 * alpha[3][k] * favg[9][k];
        ghat[14][k] += 0.25 * alpha[4][k] * favg[7][k];
        ghat[14][k] += 0.25 * alpha[6][k] * favg[12][k];
        ghat[14][k] += 0.25 * alpha[7][k] * favg[4][k];
        ghat[14][k] += 0.25 * alpha[8][k] * favg[11][k];
        ghat[14][k] += 0.25 * alpha[9][k] * favg[3][k];
        ghat[14][k] += 0.25 * alpha[10][k] * favg[2][k];
        ghat[14][k] += 0.25 * alpha[13][k] * favg[5][k];
        ghat[14][k] += 0.25 * alpha[14][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.25 * alpha[0][k] * favg[15][k];
        ghat[15][k] += 0.25 * alpha[1][k] * favg[14][k];
        ghat[15][k] += 0.25 * alpha[2][k] * favg[13][k];
        ghat[15][k] += 0.25 * alpha[3][k] * favg[12][k];
        ghat[15][k] += 0.25 * alpha[4][k] * favg[11][k];
        ghat[15][k] += 0.25 * alpha[6][k] * favg[9][k];
        ghat[15][k] += 0.25 * alpha[7][k] * favg[8][k];
        ghat[15][k] += 0.25 * alpha[8][k] * favg[7][k];
        ghat[15][k] += 0.25 * alpha[9][k] * favg[6][k];
        ghat[15][k] += 0.25 * alpha[10][k] * favg[5][k];
        ghat[15][k] += 0.25 * alpha[13][k] * favg[2][k];
        ghat[15][k] += 0.25 * alpha[14][k] * favg[1][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[3], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], -rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[7], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[8], -rd * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[9], -rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[10], -rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[11], -rd * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[12], -rd * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[13], -rd * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[14], -rd * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[15], -rd * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[16], -rd * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[17], -rd * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[18], -rd * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[19], -rd * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[20], -rd * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[21], -rd * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[22], -rd * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[23], -rd * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[24], -rd * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[25], -rd * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[26], -rd * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[27], -rd * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[28], -rd * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[29], -rd * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[30], -rd * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[31], -rd * 1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[3], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[4], rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[7], rd * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[8], rd * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[9], rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[10], rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[11], rd * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[12], rd * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[13], rd * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[14], rd * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[15], rd * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[16], rd * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[17], rd * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[18], rd * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[19], rd * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[20], rd * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[21], rd * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[22], rd * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[23], rd * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[24], rd * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[25], rd * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[26], rd * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[27], rd * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[28], rd * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[29], rd * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[30], rd * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[31], rd * -1.224744871391589, &ghat[15]);
}

/// Acceleration surface kernel, faces normal to v1 (α̂ = q/m (E + v×B)_1).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v1(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_2x3v_p1_ser_v1_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_2x3v_p1_ser_v1`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v1_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x3v_p1_ser_v1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x3v_p1_ser_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v1_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x3v_p1_ser_v1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x3v_p1_ser_v1`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v1_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_2x3v_p1_ser_v1_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_2x3v_p1_ser_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x3v_p1_ser_v1_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 5] = w.first_chunk().expect("w: 5 coefficients");
    let f_lo: &[[f64; L]; 32] = f_lo.first_chunk().expect("f_lo: 32 coefficients");
    let f_hi: &[[f64; L]; 32] = f_hi.first_chunk().expect("f_hi: 32 coefficients");
    let out_lo: &mut [[f64; L]; 32] = out_lo.first_chunk_mut().expect("out_lo: 32 coefficients");
    let out_hi: &mut [[f64; L]; 32] = out_hi.first_chunk_mut().expect("out_hi: 32 coefficients");
    let rd = 2.0 / dxv[3];
    let mut alpha = [[0.0f64; L]; 16];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] += qm * 2.0 * (em[4] + w[4][k] * em[12] - w[2][k] * em[20]);
        alpha[1][k] += qm * 1.1547005383792517 * (0.5 * dxv[4]) * em[12];
        alpha[2][k] += qm * -1.1547005383792517 * (0.5 * dxv[2]) * em[20];
        alpha[3][k] += qm * 2.0 * (em[5] + w[4][k] * em[13] - w[2][k] * em[21]);
        alpha[6][k] += qm * 1.1547005383792517 * (0.5 * dxv[4]) * em[13];
        alpha[7][k] += qm * -1.1547005383792517 * (0.5 * dxv[2]) * em[21];
        alpha[4][k] += qm * 2.0 * (em[6] + w[4][k] * em[14] - w[2][k] * em[22]);
        alpha[8][k] += qm * 1.1547005383792517 * (0.5 * dxv[4]) * em[14];
        alpha[9][k] += qm * -1.1547005383792517 * (0.5 * dxv[2]) * em[22];
        alpha[10][k] += qm * 2.0 * (em[7] + w[4][k] * em[15] - w[2][k] * em[23]);
        alpha[13][k] += qm * 1.1547005383792517 * (0.5 * dxv[4]) * em[15];
        alpha[14][k] += qm * -1.1547005383792517 * (0.5 * dxv[2]) * em[23];
        lam[k] = if penalty { alpha[0][k].abs() * 0.25000000000000006 + alpha[1][k].abs() * 0.4330127018922194 + alpha[2][k].abs() * 0.4330127018922194 + alpha[3][k].abs() * 0.4330127018922194 + alpha[4][k].abs() * 0.4330127018922194 + alpha[6][k].abs() * 0.75 + alpha[7][k].abs() * 0.75 + alpha[8][k].abs() * 0.75 + alpha[9][k].abs() * 0.75 + alpha[10][k].abs() * 0.75 + alpha[13][k].abs() * 1.2990381056766578 + alpha[14][k].abs() * 1.2990381056766578 } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 16];
    let mut fp = [[0.0f64; L]; 16];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[2]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[6]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[7]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[8]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[9]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[10]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[11]);
    sxn(&mut fm[8], 0.7071067811865476, &f_lo[12]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[13]);
    sxn(&mut fm[9], 0.7071067811865476, &f_lo[14]);
    sxn(&mut fm[10], 0.7071067811865476, &f_lo[15]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[16]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[17]);
    sxn(&mut fm[11], 0.7071067811865476, &f_lo[18]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[19]);
    sxn(&mut fm[8], 1.224744871391589, &f_lo[20]);
    sxn(&mut fm[12], 0.7071067811865476, &f_lo[21]);
    sxn(&mut fm[9], 1.224744871391589, &f_lo[22]);
    sxn(&mut fm[13], 0.7071067811865476, &f_lo[23]);
    sxn(&mut fm[10], 1.224744871391589, &f_lo[24]);
    sxn(&mut fm[14], 0.7071067811865476, &f_lo[25]);
    sxn(&mut fm[11], 1.224744871391589, &f_lo[26]);
    sxn(&mut fm[12], 1.224744871391589, &f_lo[27]);
    sxn(&mut fm[13], 1.224744871391589, &f_lo[28]);
    sxn(&mut fm[15], 0.7071067811865476, &f_lo[29]);
    sxn(&mut fm[14], 1.224744871391589, &f_lo[30]);
    sxn(&mut fm[15], 1.224744871391589, &f_lo[31]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[2]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[6]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[7]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[8]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[9]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[10]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[11]);
    sxn(&mut fp[8], 0.7071067811865476, &f_hi[12]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[13]);
    sxn(&mut fp[9], 0.7071067811865476, &f_hi[14]);
    sxn(&mut fp[10], 0.7071067811865476, &f_hi[15]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[16]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[17]);
    sxn(&mut fp[11], 0.7071067811865476, &f_hi[18]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[19]);
    sxn(&mut fp[8], -1.224744871391589, &f_hi[20]);
    sxn(&mut fp[12], 0.7071067811865476, &f_hi[21]);
    sxn(&mut fp[9], -1.224744871391589, &f_hi[22]);
    sxn(&mut fp[13], 0.7071067811865476, &f_hi[23]);
    sxn(&mut fp[10], -1.224744871391589, &f_hi[24]);
    sxn(&mut fp[14], 0.7071067811865476, &f_hi[25]);
    sxn(&mut fp[11], -1.224744871391589, &f_hi[26]);
    sxn(&mut fp[12], -1.224744871391589, &f_hi[27]);
    sxn(&mut fp[13], -1.224744871391589, &f_hi[28]);
    sxn(&mut fp[15], 0.7071067811865476, &f_hi[29]);
    sxn(&mut fp[14], -1.224744871391589, &f_hi[30]);
    sxn(&mut fp[15], -1.224744871391589, &f_hi[31]);
    let mut favg = [[0.0f64; L]; 16];
    let mut ghat = [[0.0f64; L]; 16];
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
        favg[8][k] = 0.5 * (fm[8][k] + fp[8][k]);
        ghat[8][k] = -0.5 * lam[k] * (fp[8][k] - fm[8][k]);
        favg[9][k] = 0.5 * (fm[9][k] + fp[9][k]);
        ghat[9][k] = -0.5 * lam[k] * (fp[9][k] - fm[9][k]);
        favg[10][k] = 0.5 * (fm[10][k] + fp[10][k]);
        ghat[10][k] = -0.5 * lam[k] * (fp[10][k] - fm[10][k]);
        favg[11][k] = 0.5 * (fm[11][k] + fp[11][k]);
        ghat[11][k] = -0.5 * lam[k] * (fp[11][k] - fm[11][k]);
        favg[12][k] = 0.5 * (fm[12][k] + fp[12][k]);
        ghat[12][k] = -0.5 * lam[k] * (fp[12][k] - fm[12][k]);
        favg[13][k] = 0.5 * (fm[13][k] + fp[13][k]);
        ghat[13][k] = -0.5 * lam[k] * (fp[13][k] - fm[13][k]);
        favg[14][k] = 0.5 * (fm[14][k] + fp[14][k]);
        ghat[14][k] = -0.5 * lam[k] * (fp[14][k] - fm[14][k]);
        favg[15][k] = 0.5 * (fm[15][k] + fp[15][k]);
        ghat[15][k] = -0.5 * lam[k] * (fp[15][k] - fm[15][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.25 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.25 * alpha[1][k] * favg[1][k];
        ghat[0][k] += 0.25 * alpha[2][k] * favg[2][k];
        ghat[0][k] += 0.25 * alpha[3][k] * favg[3][k];
        ghat[0][k] += 0.25 * alpha[4][k] * favg[4][k];
        ghat[0][k] += 0.25 * alpha[6][k] * favg[6][k];
        ghat[0][k] += 0.25 * alpha[7][k] * favg[7][k];
        ghat[0][k] += 0.25 * alpha[8][k] * favg[8][k];
        ghat[0][k] += 0.25 * alpha[9][k] * favg[9][k];
        ghat[0][k] += 0.25 * alpha[10][k] * favg[10][k];
        ghat[0][k] += 0.25 * alpha[13][k] * favg[13][k];
        ghat[0][k] += 0.25 * alpha[14][k] * favg[14][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.25 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.25 * alpha[1][k] * favg[0][k];
        ghat[1][k] += 0.25 * alpha[2][k] * favg[5][k];
        ghat[1][k] += 0.25 * alpha[3][k] * favg[6][k];
        ghat[1][k] += 0.25 * alpha[4][k] * favg[8][k];
        ghat[1][k] += 0.25 * alpha[6][k] * favg[3][k];
        ghat[1][k] += 0.25 * alpha[7][k] * favg[11][k];
        ghat[1][k] += 0.25 * alpha[8][k] * favg[4][k];
        ghat[1][k] += 0.25 * alpha[9][k] * favg[12][k];
        ghat[1][k] += 0.25 * alpha[10][k] * favg[13][k];
        ghat[1][k] += 0.25 * alpha[13][k] * favg[10][k];
        ghat[1][k] += 0.25 * alpha[14][k] * favg[15][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.25 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.25 * alpha[1][k] * favg[5][k];
        ghat[2][k] += 0.25 * alpha[2][k] * favg[0][k];
        ghat[2][k] += 0.25 * alpha[3][k] * favg[7][k];
        ghat[2][k] += 0.25 * alpha[4][k] * favg[9][k];
        ghat[2][k] += 0.25 * alpha[6][k] * favg[11][k];
        ghat[2][k] += 0.25 * alpha[7][k] * favg[3][k];
        ghat[2][k] += 0.25 * alpha[8][k] * favg[12][k];
        ghat[2][k] += 0.25 * alpha[9][k] * favg[4][k];
        ghat[2][k] += 0.25 * alpha[10][k] * favg[14][k];
        ghat[2][k] += 0.25 * alpha[13][k] * favg[15][k];
        ghat[2][k] += 0.25 * alpha[14][k] * favg[10][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.25 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.25 * alpha[1][k] * favg[6][k];
        ghat[3][k] += 0.25 * alpha[2][k] * favg[7][k];
        ghat[3][k] += 0.25 * alpha[3][k] * favg[0][k];
        ghat[3][k] += 0.25 * alpha[4][k] * favg[10][k];
        ghat[3][k] += 0.25 * alpha[6][k] * favg[1][k];
        ghat[3][k] += 0.25 * alpha[7][k] * favg[2][k];
        ghat[3][k] += 0.25 * alpha[8][k] * favg[13][k];
        ghat[3][k] += 0.25 * alpha[9][k] * favg[14][k];
        ghat[3][k] += 0.25 * alpha[10][k] * favg[4][k];
        ghat[3][k] += 0.25 * alpha[13][k] * favg[8][k];
        ghat[3][k] += 0.25 * alpha[14][k] * favg[9][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.25 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.25 * alpha[1][k] * favg[8][k];
        ghat[4][k] += 0.25 * alpha[2][k] * favg[9][k];
        ghat[4][k] += 0.25 * alpha[3][k] * favg[10][k];
        ghat[4][k] += 0.25 * alpha[4][k] * favg[0][k];
        ghat[4][k] += 0.25 * alpha[6][k] * favg[13][k];
        ghat[4][k] += 0.25 * alpha[7][k] * favg[14][k];
        ghat[4][k] += 0.25 * alpha[8][k] * favg[1][k];
        ghat[4][k] += 0.25 * alpha[9][k] * favg[2][k];
        ghat[4][k] += 0.25 * alpha[10][k] * favg[3][k];
        ghat[4][k] += 0.25 * alpha[13][k] * favg[6][k];
        ghat[4][k] += 0.25 * alpha[14][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.25 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.25 * alpha[1][k] * favg[2][k];
        ghat[5][k] += 0.25 * alpha[2][k] * favg[1][k];
        ghat[5][k] += 0.25 * alpha[3][k] * favg[11][k];
        ghat[5][k] += 0.25 * alpha[4][k] * favg[12][k];
        ghat[5][k] += 0.25 * alpha[6][k] * favg[7][k];
        ghat[5][k] += 0.25 * alpha[7][k] * favg[6][k];
        ghat[5][k] += 0.25 * alpha[8][k] * favg[9][k];
        ghat[5][k] += 0.25 * alpha[9][k] * favg[8][k];
        ghat[5][k] += 0.25 * alpha[10][k] * favg[15][k];
        ghat[5][k] += 0.25 * alpha[13][k] * favg[14][k];
        ghat[5][k] += 0.25 * alpha[14][k] * favg[13][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.25 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.25 * alpha[1][k] * favg[3][k];
        ghat[6][k] += 0.25 * alpha[2][k] * favg[11][k];
        ghat[6][k] += 0.25 * alpha[3][k] * favg[1][k];
        ghat[6][k] += 0.25 * alpha[4][k] * favg[13][k];
        ghat[6][k] += 0.25 * alpha[6][k] * favg[0][k];
        ghat[6][k] += 0.25 * alpha[7][k] * favg[5][k];
        ghat[6][k] += 0.25 * alpha[8][k] * favg[10][k];
        ghat[6][k] += 0.25 * alpha[9][k] * favg[15][k];
        ghat[6][k] += 0.25 * alpha[10][k] * favg[8][k];
        ghat[6][k] += 0.25 * alpha[13][k] * favg[4][k];
        ghat[6][k] += 0.25 * alpha[14][k] * favg[12][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.25 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.25 * alpha[1][k] * favg[11][k];
        ghat[7][k] += 0.25 * alpha[2][k] * favg[3][k];
        ghat[7][k] += 0.25 * alpha[3][k] * favg[2][k];
        ghat[7][k] += 0.25 * alpha[4][k] * favg[14][k];
        ghat[7][k] += 0.25 * alpha[6][k] * favg[5][k];
        ghat[7][k] += 0.25 * alpha[7][k] * favg[0][k];
        ghat[7][k] += 0.25 * alpha[8][k] * favg[15][k];
        ghat[7][k] += 0.25 * alpha[9][k] * favg[10][k];
        ghat[7][k] += 0.25 * alpha[10][k] * favg[9][k];
        ghat[7][k] += 0.25 * alpha[13][k] * favg[12][k];
        ghat[7][k] += 0.25 * alpha[14][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.25 * alpha[0][k] * favg[8][k];
        ghat[8][k] += 0.25 * alpha[1][k] * favg[4][k];
        ghat[8][k] += 0.25 * alpha[2][k] * favg[12][k];
        ghat[8][k] += 0.25 * alpha[3][k] * favg[13][k];
        ghat[8][k] += 0.25 * alpha[4][k] * favg[1][k];
        ghat[8][k] += 0.25 * alpha[6][k] * favg[10][k];
        ghat[8][k] += 0.25 * alpha[7][k] * favg[15][k];
        ghat[8][k] += 0.25 * alpha[8][k] * favg[0][k];
        ghat[8][k] += 0.25 * alpha[9][k] * favg[5][k];
        ghat[8][k] += 0.25 * alpha[10][k] * favg[6][k];
        ghat[8][k] += 0.25 * alpha[13][k] * favg[3][k];
        ghat[8][k] += 0.25 * alpha[14][k] * favg[11][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.25 * alpha[0][k] * favg[9][k];
        ghat[9][k] += 0.25 * alpha[1][k] * favg[12][k];
        ghat[9][k] += 0.25 * alpha[2][k] * favg[4][k];
        ghat[9][k] += 0.25 * alpha[3][k] * favg[14][k];
        ghat[9][k] += 0.25 * alpha[4][k] * favg[2][k];
        ghat[9][k] += 0.25 * alpha[6][k] * favg[15][k];
        ghat[9][k] += 0.25 * alpha[7][k] * favg[10][k];
        ghat[9][k] += 0.25 * alpha[8][k] * favg[5][k];
        ghat[9][k] += 0.25 * alpha[9][k] * favg[0][k];
        ghat[9][k] += 0.25 * alpha[10][k] * favg[7][k];
        ghat[9][k] += 0.25 * alpha[13][k] * favg[11][k];
        ghat[9][k] += 0.25 * alpha[14][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.25 * alpha[0][k] * favg[10][k];
        ghat[10][k] += 0.25 * alpha[1][k] * favg[13][k];
        ghat[10][k] += 0.25 * alpha[2][k] * favg[14][k];
        ghat[10][k] += 0.25 * alpha[3][k] * favg[4][k];
        ghat[10][k] += 0.25 * alpha[4][k] * favg[3][k];
        ghat[10][k] += 0.25 * alpha[6][k] * favg[8][k];
        ghat[10][k] += 0.25 * alpha[7][k] * favg[9][k];
        ghat[10][k] += 0.25 * alpha[8][k] * favg[6][k];
        ghat[10][k] += 0.25 * alpha[9][k] * favg[7][k];
        ghat[10][k] += 0.25 * alpha[10][k] * favg[0][k];
        ghat[10][k] += 0.25 * alpha[13][k] * favg[1][k];
        ghat[10][k] += 0.25 * alpha[14][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.25 * alpha[0][k] * favg[11][k];
        ghat[11][k] += 0.25 * alpha[1][k] * favg[7][k];
        ghat[11][k] += 0.25 * alpha[2][k] * favg[6][k];
        ghat[11][k] += 0.25 * alpha[3][k] * favg[5][k];
        ghat[11][k] += 0.25 * alpha[4][k] * favg[15][k];
        ghat[11][k] += 0.25 * alpha[6][k] * favg[2][k];
        ghat[11][k] += 0.25 * alpha[7][k] * favg[1][k];
        ghat[11][k] += 0.25 * alpha[8][k] * favg[14][k];
        ghat[11][k] += 0.25 * alpha[9][k] * favg[13][k];
        ghat[11][k] += 0.25 * alpha[10][k] * favg[12][k];
        ghat[11][k] += 0.25 * alpha[13][k] * favg[9][k];
        ghat[11][k] += 0.25 * alpha[14][k] * favg[8][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.25 * alpha[0][k] * favg[12][k];
        ghat[12][k] += 0.25 * alpha[1][k] * favg[9][k];
        ghat[12][k] += 0.25 * alpha[2][k] * favg[8][k];
        ghat[12][k] += 0.25 * alpha[3][k] * favg[15][k];
        ghat[12][k] += 0.25 * alpha[4][k] * favg[5][k];
        ghat[12][k] += 0.25 * alpha[6][k] * favg[14][k];
        ghat[12][k] += 0.25 * alpha[7][k] * favg[13][k];
        ghat[12][k] += 0.25 * alpha[8][k] * favg[2][k];
        ghat[12][k] += 0.25 * alpha[9][k] * favg[1][k];
        ghat[12][k] += 0.25 * alpha[10][k] * favg[11][k];
        ghat[12][k] += 0.25 * alpha[13][k] * favg[7][k];
        ghat[12][k] += 0.25 * alpha[14][k] * favg[6][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.25 * alpha[0][k] * favg[13][k];
        ghat[13][k] += 0.25 * alpha[1][k] * favg[10][k];
        ghat[13][k] += 0.25 * alpha[2][k] * favg[15][k];
        ghat[13][k] += 0.25 * alpha[3][k] * favg[8][k];
        ghat[13][k] += 0.25 * alpha[4][k] * favg[6][k];
        ghat[13][k] += 0.25 * alpha[6][k] * favg[4][k];
        ghat[13][k] += 0.25 * alpha[7][k] * favg[12][k];
        ghat[13][k] += 0.25 * alpha[8][k] * favg[3][k];
        ghat[13][k] += 0.25 * alpha[9][k] * favg[11][k];
        ghat[13][k] += 0.25 * alpha[10][k] * favg[1][k];
        ghat[13][k] += 0.25 * alpha[13][k] * favg[0][k];
        ghat[13][k] += 0.25 * alpha[14][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.25 * alpha[0][k] * favg[14][k];
        ghat[14][k] += 0.25 * alpha[1][k] * favg[15][k];
        ghat[14][k] += 0.25 * alpha[2][k] * favg[10][k];
        ghat[14][k] += 0.25 * alpha[3][k] * favg[9][k];
        ghat[14][k] += 0.25 * alpha[4][k] * favg[7][k];
        ghat[14][k] += 0.25 * alpha[6][k] * favg[12][k];
        ghat[14][k] += 0.25 * alpha[7][k] * favg[4][k];
        ghat[14][k] += 0.25 * alpha[8][k] * favg[11][k];
        ghat[14][k] += 0.25 * alpha[9][k] * favg[3][k];
        ghat[14][k] += 0.25 * alpha[10][k] * favg[2][k];
        ghat[14][k] += 0.25 * alpha[13][k] * favg[5][k];
        ghat[14][k] += 0.25 * alpha[14][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.25 * alpha[0][k] * favg[15][k];
        ghat[15][k] += 0.25 * alpha[1][k] * favg[14][k];
        ghat[15][k] += 0.25 * alpha[2][k] * favg[13][k];
        ghat[15][k] += 0.25 * alpha[3][k] * favg[12][k];
        ghat[15][k] += 0.25 * alpha[4][k] * favg[11][k];
        ghat[15][k] += 0.25 * alpha[6][k] * favg[9][k];
        ghat[15][k] += 0.25 * alpha[7][k] * favg[8][k];
        ghat[15][k] += 0.25 * alpha[8][k] * favg[7][k];
        ghat[15][k] += 0.25 * alpha[9][k] * favg[6][k];
        ghat[15][k] += 0.25 * alpha[10][k] * favg[5][k];
        ghat[15][k] += 0.25 * alpha[13][k] * favg[2][k];
        ghat[15][k] += 0.25 * alpha[14][k] * favg[1][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[7], -rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[8], -rd * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[9], -rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[10], -rd * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[11], -rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[12], -rd * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[13], -rd * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[14], -rd * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[15], -rd * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[16], -rd * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[17], -rd * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[18], -rd * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[19], -rd * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[20], -rd * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[21], -rd * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[22], -rd * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[23], -rd * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[24], -rd * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[25], -rd * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[26], -rd * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[27], -rd * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[28], -rd * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[29], -rd * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[30], -rd * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[31], -rd * 1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[3], rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], rd * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[7], rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[8], rd * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[9], rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[10], rd * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[11], rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[12], rd * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[13], rd * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[14], rd * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[15], rd * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[16], rd * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[17], rd * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[18], rd * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[19], rd * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[20], rd * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[21], rd * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[22], rd * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[23], rd * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[24], rd * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[25], rd * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[26], rd * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[27], rd * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[28], rd * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[29], rd * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[30], rd * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[31], rd * -1.224744871391589, &ghat[15]);
}

/// Acceleration surface kernel, faces normal to v2 (α̂ = q/m (E + v×B)_2).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v2(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    vlasov_surf_2x3v_p1_ser_v2_body::<1>(w.as_chunks().0, dxv, qm, em, penalty, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`vlasov_surf_2x3v_p1_ser_v2`] over `LANES` faces: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v2_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x3v_p1_ser_v2_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x3v_p1_ser_v2_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v2_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    vlasov_surf_2x3v_p1_ser_v2_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x3v_p1_ser_v2`] over 8 faces, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x3v_p1_ser_v2_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; 8]], f_hi: &[[f64; 8]], out_lo: &mut [[f64; 8]], out_hi: &mut [[f64; 8]]) {
    vlasov_surf_2x3v_p1_ser_v2_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`vlasov_surf_2x3v_p1_ser_v2`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x3v_p1_ser_v2_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let w: &[[f64; L]; 5] = w.first_chunk().expect("w: 5 coefficients");
    let f_lo: &[[f64; L]; 32] = f_lo.first_chunk().expect("f_lo: 32 coefficients");
    let f_hi: &[[f64; L]; 32] = f_hi.first_chunk().expect("f_hi: 32 coefficients");
    let out_lo: &mut [[f64; L]; 32] = out_lo.first_chunk_mut().expect("out_lo: 32 coefficients");
    let out_hi: &mut [[f64; L]; 32] = out_hi.first_chunk_mut().expect("out_hi: 32 coefficients");
    let rd = 2.0 / dxv[4];
    let mut alpha = [[0.0f64; L]; 16];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] += qm * 2.0 * (em[8] + w[2][k] * em[16] - w[3][k] * em[12]);
        alpha[2][k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[16];
        alpha[1][k] += qm * -1.1547005383792517 * (0.5 * dxv[3]) * em[12];
        alpha[3][k] += qm * 2.0 * (em[9] + w[2][k] * em[17] - w[3][k] * em[13]);
        alpha[7][k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[17];
        alpha[6][k] += qm * -1.1547005383792517 * (0.5 * dxv[3]) * em[13];
        alpha[4][k] += qm * 2.0 * (em[10] + w[2][k] * em[18] - w[3][k] * em[14]);
        alpha[9][k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[18];
        alpha[8][k] += qm * -1.1547005383792517 * (0.5 * dxv[3]) * em[14];
        alpha[10][k] += qm * 2.0 * (em[11] + w[2][k] * em[19] - w[3][k] * em[15]);
        alpha[14][k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[19];
        alpha[13][k] += qm * -1.1547005383792517 * (0.5 * dxv[3]) * em[15];
        lam[k] = if penalty { alpha[0][k].abs() * 0.25000000000000006 + alpha[1][k].abs() * 0.4330127018922194 + alpha[2][k].abs() * 0.4330127018922194 + alpha[3][k].abs() * 0.4330127018922194 + alpha[4][k].abs() * 0.4330127018922194 + alpha[6][k].abs() * 0.75 + alpha[7][k].abs() * 0.75 + alpha[8][k].abs() * 0.75 + alpha[9][k].abs() * 0.75 + alpha[10][k].abs() * 0.75 + alpha[13][k].abs() * 1.2990381056766578 + alpha[14][k].abs() * 1.2990381056766578 } else { 0.0 };
    }
    let mut fm = [[0.0f64; L]; 16];
    let mut fp = [[0.0f64; L]; 16];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[1]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[6]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[7]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[8]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[9]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[10]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[11]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[12]);
    sxn(&mut fm[8], 0.7071067811865476, &f_lo[13]);
    sxn(&mut fm[9], 0.7071067811865476, &f_lo[14]);
    sxn(&mut fm[10], 0.7071067811865476, &f_lo[15]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[16]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[17]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[18]);
    sxn(&mut fm[11], 0.7071067811865476, &f_lo[19]);
    sxn(&mut fm[8], 1.224744871391589, &f_lo[20]);
    sxn(&mut fm[9], 1.224744871391589, &f_lo[21]);
    sxn(&mut fm[12], 0.7071067811865476, &f_lo[22]);
    sxn(&mut fm[10], 1.224744871391589, &f_lo[23]);
    sxn(&mut fm[13], 0.7071067811865476, &f_lo[24]);
    sxn(&mut fm[14], 0.7071067811865476, &f_lo[25]);
    sxn(&mut fm[11], 1.224744871391589, &f_lo[26]);
    sxn(&mut fm[12], 1.224744871391589, &f_lo[27]);
    sxn(&mut fm[13], 1.224744871391589, &f_lo[28]);
    sxn(&mut fm[14], 1.224744871391589, &f_lo[29]);
    sxn(&mut fm[15], 0.7071067811865476, &f_lo[30]);
    sxn(&mut fm[15], 1.224744871391589, &f_lo[31]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[1]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[6]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[7]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[8]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[9]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[10]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[11]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[12]);
    sxn(&mut fp[8], 0.7071067811865476, &f_hi[13]);
    sxn(&mut fp[9], 0.7071067811865476, &f_hi[14]);
    sxn(&mut fp[10], 0.7071067811865476, &f_hi[15]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[16]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[17]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[18]);
    sxn(&mut fp[11], 0.7071067811865476, &f_hi[19]);
    sxn(&mut fp[8], -1.224744871391589, &f_hi[20]);
    sxn(&mut fp[9], -1.224744871391589, &f_hi[21]);
    sxn(&mut fp[12], 0.7071067811865476, &f_hi[22]);
    sxn(&mut fp[10], -1.224744871391589, &f_hi[23]);
    sxn(&mut fp[13], 0.7071067811865476, &f_hi[24]);
    sxn(&mut fp[14], 0.7071067811865476, &f_hi[25]);
    sxn(&mut fp[11], -1.224744871391589, &f_hi[26]);
    sxn(&mut fp[12], -1.224744871391589, &f_hi[27]);
    sxn(&mut fp[13], -1.224744871391589, &f_hi[28]);
    sxn(&mut fp[14], -1.224744871391589, &f_hi[29]);
    sxn(&mut fp[15], 0.7071067811865476, &f_hi[30]);
    sxn(&mut fp[15], -1.224744871391589, &f_hi[31]);
    let mut favg = [[0.0f64; L]; 16];
    let mut ghat = [[0.0f64; L]; 16];
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
        favg[8][k] = 0.5 * (fm[8][k] + fp[8][k]);
        ghat[8][k] = -0.5 * lam[k] * (fp[8][k] - fm[8][k]);
        favg[9][k] = 0.5 * (fm[9][k] + fp[9][k]);
        ghat[9][k] = -0.5 * lam[k] * (fp[9][k] - fm[9][k]);
        favg[10][k] = 0.5 * (fm[10][k] + fp[10][k]);
        ghat[10][k] = -0.5 * lam[k] * (fp[10][k] - fm[10][k]);
        favg[11][k] = 0.5 * (fm[11][k] + fp[11][k]);
        ghat[11][k] = -0.5 * lam[k] * (fp[11][k] - fm[11][k]);
        favg[12][k] = 0.5 * (fm[12][k] + fp[12][k]);
        ghat[12][k] = -0.5 * lam[k] * (fp[12][k] - fm[12][k]);
        favg[13][k] = 0.5 * (fm[13][k] + fp[13][k]);
        ghat[13][k] = -0.5 * lam[k] * (fp[13][k] - fm[13][k]);
        favg[14][k] = 0.5 * (fm[14][k] + fp[14][k]);
        ghat[14][k] = -0.5 * lam[k] * (fp[14][k] - fm[14][k]);
        favg[15][k] = 0.5 * (fm[15][k] + fp[15][k]);
        ghat[15][k] = -0.5 * lam[k] * (fp[15][k] - fm[15][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.25 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.25 * alpha[1][k] * favg[1][k];
        ghat[0][k] += 0.25 * alpha[2][k] * favg[2][k];
        ghat[0][k] += 0.25 * alpha[3][k] * favg[3][k];
        ghat[0][k] += 0.25 * alpha[4][k] * favg[4][k];
        ghat[0][k] += 0.25 * alpha[6][k] * favg[6][k];
        ghat[0][k] += 0.25 * alpha[7][k] * favg[7][k];
        ghat[0][k] += 0.25 * alpha[8][k] * favg[8][k];
        ghat[0][k] += 0.25 * alpha[9][k] * favg[9][k];
        ghat[0][k] += 0.25 * alpha[10][k] * favg[10][k];
        ghat[0][k] += 0.25 * alpha[13][k] * favg[13][k];
        ghat[0][k] += 0.25 * alpha[14][k] * favg[14][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.25 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.25 * alpha[1][k] * favg[0][k];
        ghat[1][k] += 0.25 * alpha[2][k] * favg[5][k];
        ghat[1][k] += 0.25 * alpha[3][k] * favg[6][k];
        ghat[1][k] += 0.25 * alpha[4][k] * favg[8][k];
        ghat[1][k] += 0.25 * alpha[6][k] * favg[3][k];
        ghat[1][k] += 0.25 * alpha[7][k] * favg[11][k];
        ghat[1][k] += 0.25 * alpha[8][k] * favg[4][k];
        ghat[1][k] += 0.25 * alpha[9][k] * favg[12][k];
        ghat[1][k] += 0.25 * alpha[10][k] * favg[13][k];
        ghat[1][k] += 0.25 * alpha[13][k] * favg[10][k];
        ghat[1][k] += 0.25 * alpha[14][k] * favg[15][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.25 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.25 * alpha[1][k] * favg[5][k];
        ghat[2][k] += 0.25 * alpha[2][k] * favg[0][k];
        ghat[2][k] += 0.25 * alpha[3][k] * favg[7][k];
        ghat[2][k] += 0.25 * alpha[4][k] * favg[9][k];
        ghat[2][k] += 0.25 * alpha[6][k] * favg[11][k];
        ghat[2][k] += 0.25 * alpha[7][k] * favg[3][k];
        ghat[2][k] += 0.25 * alpha[8][k] * favg[12][k];
        ghat[2][k] += 0.25 * alpha[9][k] * favg[4][k];
        ghat[2][k] += 0.25 * alpha[10][k] * favg[14][k];
        ghat[2][k] += 0.25 * alpha[13][k] * favg[15][k];
        ghat[2][k] += 0.25 * alpha[14][k] * favg[10][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.25 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.25 * alpha[1][k] * favg[6][k];
        ghat[3][k] += 0.25 * alpha[2][k] * favg[7][k];
        ghat[3][k] += 0.25 * alpha[3][k] * favg[0][k];
        ghat[3][k] += 0.25 * alpha[4][k] * favg[10][k];
        ghat[3][k] += 0.25 * alpha[6][k] * favg[1][k];
        ghat[3][k] += 0.25 * alpha[7][k] * favg[2][k];
        ghat[3][k] += 0.25 * alpha[8][k] * favg[13][k];
        ghat[3][k] += 0.25 * alpha[9][k] * favg[14][k];
        ghat[3][k] += 0.25 * alpha[10][k] * favg[4][k];
        ghat[3][k] += 0.25 * alpha[13][k] * favg[8][k];
        ghat[3][k] += 0.25 * alpha[14][k] * favg[9][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.25 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.25 * alpha[1][k] * favg[8][k];
        ghat[4][k] += 0.25 * alpha[2][k] * favg[9][k];
        ghat[4][k] += 0.25 * alpha[3][k] * favg[10][k];
        ghat[4][k] += 0.25 * alpha[4][k] * favg[0][k];
        ghat[4][k] += 0.25 * alpha[6][k] * favg[13][k];
        ghat[4][k] += 0.25 * alpha[7][k] * favg[14][k];
        ghat[4][k] += 0.25 * alpha[8][k] * favg[1][k];
        ghat[4][k] += 0.25 * alpha[9][k] * favg[2][k];
        ghat[4][k] += 0.25 * alpha[10][k] * favg[3][k];
        ghat[4][k] += 0.25 * alpha[13][k] * favg[6][k];
        ghat[4][k] += 0.25 * alpha[14][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.25 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.25 * alpha[1][k] * favg[2][k];
        ghat[5][k] += 0.25 * alpha[2][k] * favg[1][k];
        ghat[5][k] += 0.25 * alpha[3][k] * favg[11][k];
        ghat[5][k] += 0.25 * alpha[4][k] * favg[12][k];
        ghat[5][k] += 0.25 * alpha[6][k] * favg[7][k];
        ghat[5][k] += 0.25 * alpha[7][k] * favg[6][k];
        ghat[5][k] += 0.25 * alpha[8][k] * favg[9][k];
        ghat[5][k] += 0.25 * alpha[9][k] * favg[8][k];
        ghat[5][k] += 0.25 * alpha[10][k] * favg[15][k];
        ghat[5][k] += 0.25 * alpha[13][k] * favg[14][k];
        ghat[5][k] += 0.25 * alpha[14][k] * favg[13][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.25 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.25 * alpha[1][k] * favg[3][k];
        ghat[6][k] += 0.25 * alpha[2][k] * favg[11][k];
        ghat[6][k] += 0.25 * alpha[3][k] * favg[1][k];
        ghat[6][k] += 0.25 * alpha[4][k] * favg[13][k];
        ghat[6][k] += 0.25 * alpha[6][k] * favg[0][k];
        ghat[6][k] += 0.25 * alpha[7][k] * favg[5][k];
        ghat[6][k] += 0.25 * alpha[8][k] * favg[10][k];
        ghat[6][k] += 0.25 * alpha[9][k] * favg[15][k];
        ghat[6][k] += 0.25 * alpha[10][k] * favg[8][k];
        ghat[6][k] += 0.25 * alpha[13][k] * favg[4][k];
        ghat[6][k] += 0.25 * alpha[14][k] * favg[12][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.25 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.25 * alpha[1][k] * favg[11][k];
        ghat[7][k] += 0.25 * alpha[2][k] * favg[3][k];
        ghat[7][k] += 0.25 * alpha[3][k] * favg[2][k];
        ghat[7][k] += 0.25 * alpha[4][k] * favg[14][k];
        ghat[7][k] += 0.25 * alpha[6][k] * favg[5][k];
        ghat[7][k] += 0.25 * alpha[7][k] * favg[0][k];
        ghat[7][k] += 0.25 * alpha[8][k] * favg[15][k];
        ghat[7][k] += 0.25 * alpha[9][k] * favg[10][k];
        ghat[7][k] += 0.25 * alpha[10][k] * favg[9][k];
        ghat[7][k] += 0.25 * alpha[13][k] * favg[12][k];
        ghat[7][k] += 0.25 * alpha[14][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.25 * alpha[0][k] * favg[8][k];
        ghat[8][k] += 0.25 * alpha[1][k] * favg[4][k];
        ghat[8][k] += 0.25 * alpha[2][k] * favg[12][k];
        ghat[8][k] += 0.25 * alpha[3][k] * favg[13][k];
        ghat[8][k] += 0.25 * alpha[4][k] * favg[1][k];
        ghat[8][k] += 0.25 * alpha[6][k] * favg[10][k];
        ghat[8][k] += 0.25 * alpha[7][k] * favg[15][k];
        ghat[8][k] += 0.25 * alpha[8][k] * favg[0][k];
        ghat[8][k] += 0.25 * alpha[9][k] * favg[5][k];
        ghat[8][k] += 0.25 * alpha[10][k] * favg[6][k];
        ghat[8][k] += 0.25 * alpha[13][k] * favg[3][k];
        ghat[8][k] += 0.25 * alpha[14][k] * favg[11][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.25 * alpha[0][k] * favg[9][k];
        ghat[9][k] += 0.25 * alpha[1][k] * favg[12][k];
        ghat[9][k] += 0.25 * alpha[2][k] * favg[4][k];
        ghat[9][k] += 0.25 * alpha[3][k] * favg[14][k];
        ghat[9][k] += 0.25 * alpha[4][k] * favg[2][k];
        ghat[9][k] += 0.25 * alpha[6][k] * favg[15][k];
        ghat[9][k] += 0.25 * alpha[7][k] * favg[10][k];
        ghat[9][k] += 0.25 * alpha[8][k] * favg[5][k];
        ghat[9][k] += 0.25 * alpha[9][k] * favg[0][k];
        ghat[9][k] += 0.25 * alpha[10][k] * favg[7][k];
        ghat[9][k] += 0.25 * alpha[13][k] * favg[11][k];
        ghat[9][k] += 0.25 * alpha[14][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.25 * alpha[0][k] * favg[10][k];
        ghat[10][k] += 0.25 * alpha[1][k] * favg[13][k];
        ghat[10][k] += 0.25 * alpha[2][k] * favg[14][k];
        ghat[10][k] += 0.25 * alpha[3][k] * favg[4][k];
        ghat[10][k] += 0.25 * alpha[4][k] * favg[3][k];
        ghat[10][k] += 0.25 * alpha[6][k] * favg[8][k];
        ghat[10][k] += 0.25 * alpha[7][k] * favg[9][k];
        ghat[10][k] += 0.25 * alpha[8][k] * favg[6][k];
        ghat[10][k] += 0.25 * alpha[9][k] * favg[7][k];
        ghat[10][k] += 0.25 * alpha[10][k] * favg[0][k];
        ghat[10][k] += 0.25 * alpha[13][k] * favg[1][k];
        ghat[10][k] += 0.25 * alpha[14][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.25 * alpha[0][k] * favg[11][k];
        ghat[11][k] += 0.25 * alpha[1][k] * favg[7][k];
        ghat[11][k] += 0.25 * alpha[2][k] * favg[6][k];
        ghat[11][k] += 0.25 * alpha[3][k] * favg[5][k];
        ghat[11][k] += 0.25 * alpha[4][k] * favg[15][k];
        ghat[11][k] += 0.25 * alpha[6][k] * favg[2][k];
        ghat[11][k] += 0.25 * alpha[7][k] * favg[1][k];
        ghat[11][k] += 0.25 * alpha[8][k] * favg[14][k];
        ghat[11][k] += 0.25 * alpha[9][k] * favg[13][k];
        ghat[11][k] += 0.25 * alpha[10][k] * favg[12][k];
        ghat[11][k] += 0.25 * alpha[13][k] * favg[9][k];
        ghat[11][k] += 0.25 * alpha[14][k] * favg[8][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.25 * alpha[0][k] * favg[12][k];
        ghat[12][k] += 0.25 * alpha[1][k] * favg[9][k];
        ghat[12][k] += 0.25 * alpha[2][k] * favg[8][k];
        ghat[12][k] += 0.25 * alpha[3][k] * favg[15][k];
        ghat[12][k] += 0.25 * alpha[4][k] * favg[5][k];
        ghat[12][k] += 0.25 * alpha[6][k] * favg[14][k];
        ghat[12][k] += 0.25 * alpha[7][k] * favg[13][k];
        ghat[12][k] += 0.25 * alpha[8][k] * favg[2][k];
        ghat[12][k] += 0.25 * alpha[9][k] * favg[1][k];
        ghat[12][k] += 0.25 * alpha[10][k] * favg[11][k];
        ghat[12][k] += 0.25 * alpha[13][k] * favg[7][k];
        ghat[12][k] += 0.25 * alpha[14][k] * favg[6][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.25 * alpha[0][k] * favg[13][k];
        ghat[13][k] += 0.25 * alpha[1][k] * favg[10][k];
        ghat[13][k] += 0.25 * alpha[2][k] * favg[15][k];
        ghat[13][k] += 0.25 * alpha[3][k] * favg[8][k];
        ghat[13][k] += 0.25 * alpha[4][k] * favg[6][k];
        ghat[13][k] += 0.25 * alpha[6][k] * favg[4][k];
        ghat[13][k] += 0.25 * alpha[7][k] * favg[12][k];
        ghat[13][k] += 0.25 * alpha[8][k] * favg[3][k];
        ghat[13][k] += 0.25 * alpha[9][k] * favg[11][k];
        ghat[13][k] += 0.25 * alpha[10][k] * favg[1][k];
        ghat[13][k] += 0.25 * alpha[13][k] * favg[0][k];
        ghat[13][k] += 0.25 * alpha[14][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.25 * alpha[0][k] * favg[14][k];
        ghat[14][k] += 0.25 * alpha[1][k] * favg[15][k];
        ghat[14][k] += 0.25 * alpha[2][k] * favg[10][k];
        ghat[14][k] += 0.25 * alpha[3][k] * favg[9][k];
        ghat[14][k] += 0.25 * alpha[4][k] * favg[7][k];
        ghat[14][k] += 0.25 * alpha[6][k] * favg[12][k];
        ghat[14][k] += 0.25 * alpha[7][k] * favg[4][k];
        ghat[14][k] += 0.25 * alpha[8][k] * favg[11][k];
        ghat[14][k] += 0.25 * alpha[9][k] * favg[3][k];
        ghat[14][k] += 0.25 * alpha[10][k] * favg[2][k];
        ghat[14][k] += 0.25 * alpha[13][k] * favg[5][k];
        ghat[14][k] += 0.25 * alpha[14][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.25 * alpha[0][k] * favg[15][k];
        ghat[15][k] += 0.25 * alpha[1][k] * favg[14][k];
        ghat[15][k] += 0.25 * alpha[2][k] * favg[13][k];
        ghat[15][k] += 0.25 * alpha[3][k] * favg[12][k];
        ghat[15][k] += 0.25 * alpha[4][k] * favg[11][k];
        ghat[15][k] += 0.25 * alpha[6][k] * favg[9][k];
        ghat[15][k] += 0.25 * alpha[7][k] * favg[8][k];
        ghat[15][k] += 0.25 * alpha[8][k] * favg[7][k];
        ghat[15][k] += 0.25 * alpha[9][k] * favg[6][k];
        ghat[15][k] += 0.25 * alpha[10][k] * favg[5][k];
        ghat[15][k] += 0.25 * alpha[13][k] * favg[2][k];
        ghat[15][k] += 0.25 * alpha[14][k] * favg[1][k];
    }
    sxn(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -rd * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], -rd * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[7], -rd * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[8], -rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[9], -rd * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[10], -rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[11], -rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[12], -rd * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[13], -rd * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[14], -rd * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[15], -rd * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[16], -rd * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[17], -rd * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[18], -rd * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[19], -rd * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[20], -rd * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[21], -rd * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[22], -rd * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[23], -rd * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[24], -rd * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[25], -rd * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[26], -rd * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[27], -rd * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[28], -rd * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[29], -rd * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[30], -rd * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[31], -rd * 1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], rd * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[2], rd * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[3], rd * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], rd * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], rd * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], rd * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[7], rd * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[8], rd * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[9], rd * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[10], rd * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[11], rd * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[12], rd * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[13], rd * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[14], rd * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[15], rd * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[16], rd * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[17], rd * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[18], rd * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[19], rd * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[20], rd * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[21], rd * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[22], rd * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[23], rd * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[24], rd * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[25], rd * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[26], rd * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[27], rd * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[28], rd * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[29], rd * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[30], rd * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[31], rd * -1.224744871391589, &ghat[15]);
}
