/// Volume kernel for the Vlasov phase-space advection, 2x2v p=1 Serendipity basis.
/// Auto-generated from exact integral tables — do not edit by hand.
///
/// * `w`   — phase-space cell center, `[x…, v…]`, length 4
/// * `dxv` — phase-space cell size, length 4
/// * `qm`  — charge-to-mass ratio q/m
/// * `em`  — E/B conf-space coefficients, 6 components × 4
/// * `f`   — distribution coefficients, length 16
/// * `out` — RHS increment, length 16
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_2x2v_p1_ser(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], f: &[f64], out: &mut [f64]) {
    vlasov_vol_2x2v_p1_ser_body::<1>(w.as_chunks().0, dxv, qm, em, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`vlasov_vol_2x2v_p1_ser`] over `LANES` cells: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_2x2v_p1_ser_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    vlasov_vol_2x2v_p1_ser_body(w, dxv, qm, em, f, out)
}

/// [`vlasov_vol_2x2v_p1_ser_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_2x2v_p1_ser_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    vlasov_vol_2x2v_p1_ser_body(w, dxv, qm, em, f, out)
}

/// [`vlasov_vol_2x2v_p1_ser`] over 8 cells, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_2x2v_p1_ser_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; 8]], out: &mut [[f64; 8]]) {
    vlasov_vol_2x2v_p1_ser_body(w, dxv, qm, em, f, out)
}

/// Shared lane-generic body of [`vlasov_vol_2x2v_p1_ser`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_2x2v_p1_ser_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let w: &[[f64; L]; 4] = w.first_chunk().expect("w: 4 coefficients");
    let f: &[[f64; L]; 16] = f.first_chunk().expect("f: 16 coefficients");
    let out: &mut [[f64; L]; 16] = out.first_chunk_mut().expect("out: 16 coefficients");
    vlasov_vol_2x2v_p1_ser_stream0(w, dxv, f, out);
    vlasov_vol_2x2v_p1_ser_stream1(w, dxv, f, out);
    vlasov_vol_2x2v_p1_ser_accel0(w, dxv, qm, em, f, out);
    vlasov_vol_2x2v_p1_ser_accel1(w, dxv, qm, em, f, out);
}

/// Streaming `∂/∂x0 (v0 f)` term of [`vlasov_vol_2x2v_p1_ser`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_2x2v_p1_ser_stream0<const L: usize>(w: &[[f64; L]; 4], dxv: &[f64], f: &[[f64; L]; 16], out: &mut [[f64; L]; 16]) {
    let rd0 = 2.0 / dxv[0];
    let mut a0_0 = [0.0f64; L];
    for k in 0..L {
        a0_0[k] = 4.0 * w[2][k] * rd0;
    }
    let a1_0 = 2.3094010767585034 * 0.5 * dxv[2] * rd0;
    for k in 0..L {
        out[4][k] += 0.4330127018922193 * a0_0[k] * f[0][k];
    }
    for k in 0..L {
        out[8][k] += 0.4330127018922193 * a0_0[k] * f[1][k];
    }
    for k in 0..L {
        out[9][k] += 0.4330127018922193 * a0_0[k] * f[2][k];
    }
    for k in 0..L {
        out[10][k] += 0.4330127018922193 * a0_0[k] * f[3][k];
    }
    for k in 0..L {
        out[12][k] += 0.4330127018922193 * a0_0[k] * f[5][k];
    }
    for k in 0..L {
        out[13][k] += 0.4330127018922193 * a0_0[k] * f[6][k];
    }
    for k in 0..L {
        out[14][k] += 0.4330127018922193 * a0_0[k] * f[7][k];
    }
    for k in 0..L {
        out[15][k] += 0.4330127018922193 * a0_0[k] * f[11][k];
    }
    sxn(&mut out[4], 0.4330127018922193 * a1_0, &f[2]);
    sxn(&mut out[8], 0.4330127018922193 * a1_0, &f[5]);
    sxn(&mut out[9], 0.4330127018922193 * a1_0, &f[0]);
    sxn(&mut out[10], 0.4330127018922193 * a1_0, &f[7]);
    sxn(&mut out[12], 0.4330127018922193 * a1_0, &f[1]);
    sxn(&mut out[13], 0.4330127018922193 * a1_0, &f[11]);
    sxn(&mut out[14], 0.4330127018922193 * a1_0, &f[3]);
    sxn(&mut out[15], 0.4330127018922193 * a1_0, &f[6]);
}

/// Streaming `∂/∂x1 (v1 f)` term of [`vlasov_vol_2x2v_p1_ser`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_2x2v_p1_ser_stream1<const L: usize>(w: &[[f64; L]; 4], dxv: &[f64], f: &[[f64; L]; 16], out: &mut [[f64; L]; 16]) {
    let rd1 = 2.0 / dxv[1];
    let mut a0_1 = [0.0f64; L];
    for k in 0..L {
        a0_1[k] = 4.0 * w[3][k] * rd1;
    }
    let a1_1 = 2.3094010767585034 * 0.5 * dxv[3] * rd1;
    for k in 0..L {
        out[3][k] += 0.4330127018922193 * a0_1[k] * f[0][k];
    }
    for k in 0..L {
        out[6][k] += 0.4330127018922193 * a0_1[k] * f[1][k];
    }
    for k in 0..L {
        out[7][k] += 0.4330127018922193 * a0_1[k] * f[2][k];
    }
    for k in 0..L {
        out[10][k] += 0.4330127018922193 * a0_1[k] * f[4][k];
    }
    for k in 0..L {
        out[11][k] += 0.4330127018922193 * a0_1[k] * f[5][k];
    }
    for k in 0..L {
        out[13][k] += 0.4330127018922193 * a0_1[k] * f[8][k];
    }
    for k in 0..L {
        out[14][k] += 0.4330127018922193 * a0_1[k] * f[9][k];
    }
    for k in 0..L {
        out[15][k] += 0.4330127018922193 * a0_1[k] * f[12][k];
    }
    sxn(&mut out[3], 0.4330127018922193 * a1_1, &f[1]);
    sxn(&mut out[6], 0.4330127018922193 * a1_1, &f[0]);
    sxn(&mut out[7], 0.4330127018922193 * a1_1, &f[5]);
    sxn(&mut out[10], 0.4330127018922193 * a1_1, &f[8]);
    sxn(&mut out[11], 0.4330127018922193 * a1_1, &f[2]);
    sxn(&mut out[13], 0.4330127018922193 * a1_1, &f[4]);
    sxn(&mut out[14], 0.4330127018922193 * a1_1, &f[12]);
    sxn(&mut out[15], 0.4330127018922193 * a1_1, &f[9]);
}

/// Acceleration `∂/∂v0 (q/m (E + v×B)_0 f)` term of [`vlasov_vol_2x2v_p1_ser`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_2x2v_p1_ser_accel0<const L: usize>(w: &[[f64; L]; 4], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]; 16], out: &mut [[f64; L]; 16]) {
    let rv0 = 2.0 / dxv[2];
    let mut alpha0 = [[0.0f64; L]; 16];
    for k in 0..L {
        alpha0[0][k] += qm * 2.0 * (em[0] + w[3][k] * em[20]);
        alpha0[1][k] += qm * 1.1547005383792517 * (0.5 * dxv[3]) * em[20];
        alpha0[3][k] += qm * 2.0 * (em[1] + w[3][k] * em[21]);
        alpha0[6][k] += qm * 1.1547005383792517 * (0.5 * dxv[3]) * em[21];
        alpha0[4][k] += qm * 2.0 * (em[2] + w[3][k] * em[22]);
        alpha0[8][k] += qm * 1.1547005383792517 * (0.5 * dxv[3]) * em[22];
        alpha0[10][k] += qm * 2.0 * (em[3] + w[3][k] * em[23]);
        alpha0[13][k] += qm * 1.1547005383792517 * (0.5 * dxv[3]) * em[23];
    }
    for k in 0..L {
        out[2][k] += 0.4330127018922193 * rv0 * alpha0[0][k] * f[0][k];
        out[2][k] += 0.4330127018922193 * rv0 * alpha0[1][k] * f[1][k];
        out[2][k] += 0.4330127018922193 * rv0 * alpha0[3][k] * f[3][k];
        out[2][k] += 0.4330127018922193 * rv0 * alpha0[4][k] * f[4][k];
        out[2][k] += 0.4330127018922193 * rv0 * alpha0[6][k] * f[6][k];
        out[2][k] += 0.4330127018922193 * rv0 * alpha0[8][k] * f[8][k];
        out[2][k] += 0.4330127018922193 * rv0 * alpha0[10][k] * f[10][k];
        out[2][k] += 0.4330127018922193 * rv0 * alpha0[13][k] * f[13][k];
    }
    for k in 0..L {
        out[5][k] += 0.4330127018922193 * rv0 * alpha0[0][k] * f[1][k];
        out[5][k] += 0.4330127018922193 * rv0 * alpha0[1][k] * f[0][k];
        out[5][k] += 0.4330127018922193 * rv0 * alpha0[3][k] * f[6][k];
        out[5][k] += 0.4330127018922193 * rv0 * alpha0[4][k] * f[8][k];
        out[5][k] += 0.4330127018922193 * rv0 * alpha0[6][k] * f[3][k];
        out[5][k] += 0.4330127018922193 * rv0 * alpha0[8][k] * f[4][k];
        out[5][k] += 0.4330127018922193 * rv0 * alpha0[10][k] * f[13][k];
        out[5][k] += 0.4330127018922193 * rv0 * alpha0[13][k] * f[10][k];
    }
    for k in 0..L {
        out[7][k] += 0.4330127018922193 * rv0 * alpha0[0][k] * f[3][k];
        out[7][k] += 0.4330127018922193 * rv0 * alpha0[1][k] * f[6][k];
        out[7][k] += 0.4330127018922193 * rv0 * alpha0[3][k] * f[0][k];
        out[7][k] += 0.4330127018922193 * rv0 * alpha0[4][k] * f[10][k];
        out[7][k] += 0.4330127018922193 * rv0 * alpha0[6][k] * f[1][k];
        out[7][k] += 0.4330127018922193 * rv0 * alpha0[8][k] * f[13][k];
        out[7][k] += 0.4330127018922193 * rv0 * alpha0[10][k] * f[4][k];
        out[7][k] += 0.4330127018922193 * rv0 * alpha0[13][k] * f[8][k];
    }
    for k in 0..L {
        out[9][k] += 0.4330127018922193 * rv0 * alpha0[0][k] * f[4][k];
        out[9][k] += 0.4330127018922193 * rv0 * alpha0[1][k] * f[8][k];
        out[9][k] += 0.4330127018922193 * rv0 * alpha0[3][k] * f[10][k];
        out[9][k] += 0.4330127018922193 * rv0 * alpha0[4][k] * f[0][k];
        out[9][k] += 0.4330127018922193 * rv0 * alpha0[6][k] * f[13][k];
        out[9][k] += 0.4330127018922193 * rv0 * alpha0[8][k] * f[1][k];
        out[9][k] += 0.4330127018922193 * rv0 * alpha0[10][k] * f[3][k];
        out[9][k] += 0.4330127018922193 * rv0 * alpha0[13][k] * f[6][k];
    }
    for k in 0..L {
        out[11][k] += 0.4330127018922193 * rv0 * alpha0[0][k] * f[6][k];
        out[11][k] += 0.4330127018922193 * rv0 * alpha0[1][k] * f[3][k];
        out[11][k] += 0.4330127018922193 * rv0 * alpha0[3][k] * f[1][k];
        out[11][k] += 0.4330127018922193 * rv0 * alpha0[4][k] * f[13][k];
        out[11][k] += 0.4330127018922193 * rv0 * alpha0[6][k] * f[0][k];
        out[11][k] += 0.4330127018922193 * rv0 * alpha0[8][k] * f[10][k];
        out[11][k] += 0.4330127018922193 * rv0 * alpha0[10][k] * f[8][k];
        out[11][k] += 0.4330127018922193 * rv0 * alpha0[13][k] * f[4][k];
    }
    for k in 0..L {
        out[12][k] += 0.4330127018922193 * rv0 * alpha0[0][k] * f[8][k];
        out[12][k] += 0.4330127018922193 * rv0 * alpha0[1][k] * f[4][k];
        out[12][k] += 0.4330127018922193 * rv0 * alpha0[3][k] * f[13][k];
        out[12][k] += 0.4330127018922193 * rv0 * alpha0[4][k] * f[1][k];
        out[12][k] += 0.4330127018922193 * rv0 * alpha0[6][k] * f[10][k];
        out[12][k] += 0.4330127018922193 * rv0 * alpha0[8][k] * f[0][k];
        out[12][k] += 0.4330127018922193 * rv0 * alpha0[10][k] * f[6][k];
        out[12][k] += 0.4330127018922193 * rv0 * alpha0[13][k] * f[3][k];
    }
    for k in 0..L {
        out[14][k] += 0.4330127018922193 * rv0 * alpha0[0][k] * f[10][k];
        out[14][k] += 0.4330127018922193 * rv0 * alpha0[1][k] * f[13][k];
        out[14][k] += 0.4330127018922193 * rv0 * alpha0[3][k] * f[4][k];
        out[14][k] += 0.4330127018922193 * rv0 * alpha0[4][k] * f[3][k];
        out[14][k] += 0.4330127018922193 * rv0 * alpha0[6][k] * f[8][k];
        out[14][k] += 0.4330127018922193 * rv0 * alpha0[8][k] * f[6][k];
        out[14][k] += 0.4330127018922193 * rv0 * alpha0[10][k] * f[0][k];
        out[14][k] += 0.4330127018922193 * rv0 * alpha0[13][k] * f[1][k];
    }
    for k in 0..L {
        out[15][k] += 0.4330127018922193 * rv0 * alpha0[0][k] * f[13][k];
        out[15][k] += 0.4330127018922193 * rv0 * alpha0[1][k] * f[10][k];
        out[15][k] += 0.4330127018922193 * rv0 * alpha0[3][k] * f[8][k];
        out[15][k] += 0.4330127018922193 * rv0 * alpha0[4][k] * f[6][k];
        out[15][k] += 0.4330127018922193 * rv0 * alpha0[6][k] * f[4][k];
        out[15][k] += 0.4330127018922193 * rv0 * alpha0[8][k] * f[3][k];
        out[15][k] += 0.4330127018922193 * rv0 * alpha0[10][k] * f[1][k];
        out[15][k] += 0.4330127018922193 * rv0 * alpha0[13][k] * f[0][k];
    }
}

/// Acceleration `∂/∂v1 (q/m (E + v×B)_1 f)` term of [`vlasov_vol_2x2v_p1_ser`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_2x2v_p1_ser_accel1<const L: usize>(w: &[[f64; L]; 4], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]; 16], out: &mut [[f64; L]; 16]) {
    let rv1 = 2.0 / dxv[3];
    let mut alpha1 = [[0.0f64; L]; 16];
    for k in 0..L {
        alpha1[0][k] += qm * 2.0 * (em[4] - w[2][k] * em[20]);
        alpha1[2][k] += qm * -1.1547005383792517 * (0.5 * dxv[2]) * em[20];
        alpha1[3][k] += qm * 2.0 * (em[5] - w[2][k] * em[21]);
        alpha1[7][k] += qm * -1.1547005383792517 * (0.5 * dxv[2]) * em[21];
        alpha1[4][k] += qm * 2.0 * (em[6] - w[2][k] * em[22]);
        alpha1[9][k] += qm * -1.1547005383792517 * (0.5 * dxv[2]) * em[22];
        alpha1[10][k] += qm * 2.0 * (em[7] - w[2][k] * em[23]);
        alpha1[14][k] += qm * -1.1547005383792517 * (0.5 * dxv[2]) * em[23];
    }
    for k in 0..L {
        out[1][k] += 0.4330127018922193 * rv1 * alpha1[0][k] * f[0][k];
        out[1][k] += 0.4330127018922193 * rv1 * alpha1[2][k] * f[2][k];
        out[1][k] += 0.4330127018922193 * rv1 * alpha1[3][k] * f[3][k];
        out[1][k] += 0.4330127018922193 * rv1 * alpha1[4][k] * f[4][k];
        out[1][k] += 0.4330127018922193 * rv1 * alpha1[7][k] * f[7][k];
        out[1][k] += 0.4330127018922193 * rv1 * alpha1[9][k] * f[9][k];
        out[1][k] += 0.4330127018922193 * rv1 * alpha1[10][k] * f[10][k];
        out[1][k] += 0.4330127018922193 * rv1 * alpha1[14][k] * f[14][k];
    }
    for k in 0..L {
        out[5][k] += 0.4330127018922193 * rv1 * alpha1[0][k] * f[2][k];
        out[5][k] += 0.4330127018922193 * rv1 * alpha1[2][k] * f[0][k];
        out[5][k] += 0.4330127018922193 * rv1 * alpha1[3][k] * f[7][k];
        out[5][k] += 0.4330127018922193 * rv1 * alpha1[4][k] * f[9][k];
        out[5][k] += 0.4330127018922193 * rv1 * alpha1[7][k] * f[3][k];
        out[5][k] += 0.4330127018922193 * rv1 * alpha1[9][k] * f[4][k];
        out[5][k] += 0.4330127018922193 * rv1 * alpha1[10][k] * f[14][k];
        out[5][k] += 0.4330127018922193 * rv1 * alpha1[14][k] * f[10][k];
    }
    for k in 0..L {
        out[6][k] += 0.4330127018922193 * rv1 * alpha1[0][k] * f[3][k];
        out[6][k] += 0.4330127018922193 * rv1 * alpha1[2][k] * f[7][k];
        out[6][k] += 0.4330127018922193 * rv1 * alpha1[3][k] * f[0][k];
        out[6][k] += 0.4330127018922193 * rv1 * alpha1[4][k] * f[10][k];
        out[6][k] += 0.4330127018922193 * rv1 * alpha1[7][k] * f[2][k];
        out[6][k] += 0.4330127018922193 * rv1 * alpha1[9][k] * f[14][k];
        out[6][k] += 0.4330127018922193 * rv1 * alpha1[10][k] * f[4][k];
        out[6][k] += 0.4330127018922193 * rv1 * alpha1[14][k] * f[9][k];
    }
    for k in 0..L {
        out[8][k] += 0.4330127018922193 * rv1 * alpha1[0][k] * f[4][k];
        out[8][k] += 0.4330127018922193 * rv1 * alpha1[2][k] * f[9][k];
        out[8][k] += 0.4330127018922193 * rv1 * alpha1[3][k] * f[10][k];
        out[8][k] += 0.4330127018922193 * rv1 * alpha1[4][k] * f[0][k];
        out[8][k] += 0.4330127018922193 * rv1 * alpha1[7][k] * f[14][k];
        out[8][k] += 0.4330127018922193 * rv1 * alpha1[9][k] * f[2][k];
        out[8][k] += 0.4330127018922193 * rv1 * alpha1[10][k] * f[3][k];
        out[8][k] += 0.4330127018922193 * rv1 * alpha1[14][k] * f[7][k];
    }
    for k in 0..L {
        out[11][k] += 0.4330127018922193 * rv1 * alpha1[0][k] * f[7][k];
        out[11][k] += 0.4330127018922193 * rv1 * alpha1[2][k] * f[3][k];
        out[11][k] += 0.4330127018922193 * rv1 * alpha1[3][k] * f[2][k];
        out[11][k] += 0.4330127018922193 * rv1 * alpha1[4][k] * f[14][k];
        out[11][k] += 0.4330127018922193 * rv1 * alpha1[7][k] * f[0][k];
        out[11][k] += 0.4330127018922193 * rv1 * alpha1[9][k] * f[10][k];
        out[11][k] += 0.4330127018922193 * rv1 * alpha1[10][k] * f[9][k];
        out[11][k] += 0.4330127018922193 * rv1 * alpha1[14][k] * f[4][k];
    }
    for k in 0..L {
        out[12][k] += 0.4330127018922193 * rv1 * alpha1[0][k] * f[9][k];
        out[12][k] += 0.4330127018922193 * rv1 * alpha1[2][k] * f[4][k];
        out[12][k] += 0.4330127018922193 * rv1 * alpha1[3][k] * f[14][k];
        out[12][k] += 0.4330127018922193 * rv1 * alpha1[4][k] * f[2][k];
        out[12][k] += 0.4330127018922193 * rv1 * alpha1[7][k] * f[10][k];
        out[12][k] += 0.4330127018922193 * rv1 * alpha1[9][k] * f[0][k];
        out[12][k] += 0.4330127018922193 * rv1 * alpha1[10][k] * f[7][k];
        out[12][k] += 0.4330127018922193 * rv1 * alpha1[14][k] * f[3][k];
    }
    for k in 0..L {
        out[13][k] += 0.4330127018922193 * rv1 * alpha1[0][k] * f[10][k];
        out[13][k] += 0.4330127018922193 * rv1 * alpha1[2][k] * f[14][k];
        out[13][k] += 0.4330127018922193 * rv1 * alpha1[3][k] * f[4][k];
        out[13][k] += 0.4330127018922193 * rv1 * alpha1[4][k] * f[3][k];
        out[13][k] += 0.4330127018922193 * rv1 * alpha1[7][k] * f[9][k];
        out[13][k] += 0.4330127018922193 * rv1 * alpha1[9][k] * f[7][k];
        out[13][k] += 0.4330127018922193 * rv1 * alpha1[10][k] * f[0][k];
        out[13][k] += 0.4330127018922193 * rv1 * alpha1[14][k] * f[2][k];
    }
    for k in 0..L {
        out[15][k] += 0.4330127018922193 * rv1 * alpha1[0][k] * f[14][k];
        out[15][k] += 0.4330127018922193 * rv1 * alpha1[2][k] * f[10][k];
        out[15][k] += 0.4330127018922193 * rv1 * alpha1[3][k] * f[9][k];
        out[15][k] += 0.4330127018922193 * rv1 * alpha1[4][k] * f[7][k];
        out[15][k] += 0.4330127018922193 * rv1 * alpha1[7][k] * f[4][k];
        out[15][k] += 0.4330127018922193 * rv1 * alpha1[9][k] * f[3][k];
        out[15][k] += 0.4330127018922193 * rv1 * alpha1[10][k] * f[2][k];
        out[15][k] += 0.4330127018922193 * rv1 * alpha1[14][k] * f[0][k];
    }
}
