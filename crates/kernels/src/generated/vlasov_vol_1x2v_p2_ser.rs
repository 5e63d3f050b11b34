/// Volume kernel for the Vlasov phase-space advection, 1x2v p=2 Serendipity basis.
/// Auto-generated from exact integral tables — do not edit by hand.
///
/// * `w`   — phase-space cell center, `[x…, v…]`, length 3
/// * `dxv` — phase-space cell size, length 3
/// * `qm`  — charge-to-mass ratio q/m
/// * `em`  — E/B conf-space coefficients, 6 components × 3
/// * `f`   — distribution coefficients, length 20
/// * `out` — RHS increment, length 20
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x2v_p2_ser(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], f: &[f64], out: &mut [f64]) {
    vlasov_vol_1x2v_p2_ser_body::<1>(w.as_chunks().0, dxv, qm, em, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`vlasov_vol_1x2v_p2_ser`] over `LANES` cells: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x2v_p2_ser_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    vlasov_vol_1x2v_p2_ser_body(w, dxv, qm, em, f, out)
}

/// [`vlasov_vol_1x2v_p2_ser_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x2v_p2_ser_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    vlasov_vol_1x2v_p2_ser_body(w, dxv, qm, em, f, out)
}

/// [`vlasov_vol_1x2v_p2_ser`] over 8 cells, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x2v_p2_ser_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; 8]], out: &mut [[f64; 8]]) {
    vlasov_vol_1x2v_p2_ser_body(w, dxv, qm, em, f, out)
}

/// Shared lane-generic body of [`vlasov_vol_1x2v_p2_ser`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p2_ser_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let w: &[[f64; L]; 3] = w.first_chunk().expect("w: 3 coefficients");
    let f: &[[f64; L]; 20] = f.first_chunk().expect("f: 20 coefficients");
    let out: &mut [[f64; L]; 20] = out.first_chunk_mut().expect("out: 20 coefficients");
    vlasov_vol_1x2v_p2_ser_stream0(w, dxv, f, out);
    vlasov_vol_1x2v_p2_ser_accel0(w, dxv, qm, em, f, out);
    vlasov_vol_1x2v_p2_ser_accel1(w, dxv, qm, em, f, out);
}

/// Streaming `∂/∂x0 (v0 f)` term of [`vlasov_vol_1x2v_p2_ser`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p2_ser_stream0<const L: usize>(w: &[[f64; L]; 3], dxv: &[f64], f: &[[f64; L]; 20], out: &mut [[f64; L]; 20]) {
    let rd0 = 2.0 / dxv[0];
    let mut a0_0 = [0.0f64; L];
    for k in 0..L {
        a0_0[k] = 2.8284271247461903 * w[1][k] * rd0;
    }
    let a1_0 = 1.632993161855452 * 0.5 * dxv[1] * rd0;
    for k in 0..L {
        out[3][k] += 0.6123724356957945 * a0_0[k] * f[0][k];
    }
    for k in 0..L {
        out[7][k] += 0.6123724356957945 * a0_0[k] * f[1][k];
    }
    for k in 0..L {
        out[8][k] += 0.6123724356957945 * a0_0[k] * f[2][k];
    }
    for k in 0..L {
        out[9][k] += 1.3693063937629153 * a0_0[k] * f[3][k];
    }
    for k in 0..L {
        out[12][k] += 0.6123724356957946 * a0_0[k] * f[4][k];
    }
    for k in 0..L {
        out[13][k] += 0.6123724356957945 * a0_0[k] * f[5][k];
    }
    for k in 0..L {
        out[14][k] += 0.6123724356957946 * a0_0[k] * f[6][k];
    }
    for k in 0..L {
        out[15][k] += 1.369306393762915 * a0_0[k] * f[7][k];
    }
    for k in 0..L {
        out[16][k] += 1.369306393762915 * a0_0[k] * f[8][k];
    }
    for k in 0..L {
        out[17][k] += 0.6123724356957946 * a0_0[k] * f[10][k];
    }
    for k in 0..L {
        out[18][k] += 0.6123724356957946 * a0_0[k] * f[11][k];
    }
    for k in 0..L {
        out[19][k] += 1.3693063937629153 * a0_0[k] * f[13][k];
    }
    sxn(&mut out[3], 0.6123724356957945 * a1_0, &f[2]);
    sxn(&mut out[7], 0.6123724356957945 * a1_0, &f[5]);
    sxn(&mut out[8], 0.6123724356957945 * a1_0, &f[0]);
    sxn(&mut out[8], 0.5477225575051661 * a1_0, &f[6]);
    sxn(&mut out[9], 1.369306393762915 * a1_0, &f[8]);
    sxn(&mut out[12], 0.6123724356957946 * a1_0, &f[10]);
    sxn(&mut out[13], 0.6123724356957945 * a1_0, &f[1]);
    sxn(&mut out[13], 0.5477225575051662 * a1_0, &f[11]);
    sxn(&mut out[14], 0.5477225575051661 * a1_0, &f[2]);
    sxn(&mut out[15], 1.3693063937629153 * a1_0, &f[13]);
    sxn(&mut out[16], 1.369306393762915 * a1_0, &f[3]);
    sxn(&mut out[16], 1.2247448713915892 * a1_0, &f[14]);
    sxn(&mut out[17], 0.6123724356957946 * a1_0, &f[4]);
    sxn(&mut out[18], 0.5477225575051662 * a1_0, &f[5]);
    sxn(&mut out[19], 1.3693063937629153 * a1_0, &f[7]);
    sxn(&mut out[19], 1.224744871391589 * a1_0, &f[18]);
}

/// Acceleration `∂/∂v0 (q/m (E + v×B)_0 f)` term of [`vlasov_vol_1x2v_p2_ser`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p2_ser_accel0<const L: usize>(w: &[[f64; L]; 3], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]; 20], out: &mut [[f64; L]; 20]) {
    let rv0 = 2.0 / dxv[1];
    let mut alpha0 = [[0.0f64; L]; 20];
    for k in 0..L {
        alpha0[0][k] += qm * 2.0 * (em[0] + w[2][k] * em[15]);
        alpha0[1][k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[15];
        alpha0[3][k] += qm * 2.0 * (em[1] + w[2][k] * em[16]);
        alpha0[7][k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[16];
        alpha0[9][k] += qm * 2.0 * (em[2] + w[2][k] * em[17]);
        alpha0[15][k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[17];
    }
    for k in 0..L {
        out[2][k] += 0.6123724356957945 * rv0 * alpha0[0][k] * f[0][k];
        out[2][k] += 0.6123724356957945 * rv0 * alpha0[1][k] * f[1][k];
        out[2][k] += 0.6123724356957945 * rv0 * alpha0[3][k] * f[3][k];
        out[2][k] += 0.6123724356957945 * rv0 * alpha0[7][k] * f[7][k];
        out[2][k] += 0.6123724356957946 * rv0 * alpha0[9][k] * f[9][k];
        out[2][k] += 0.6123724356957946 * rv0 * alpha0[15][k] * f[15][k];
    }
    for k in 0..L {
        out[5][k] += 0.6123724356957945 * rv0 * alpha0[0][k] * f[1][k];
        out[5][k] += 0.6123724356957945 * rv0 * alpha0[1][k] * f[0][k];
        out[5][k] += 0.5477225575051661 * rv0 * alpha0[1][k] * f[4][k];
        out[5][k] += 0.6123724356957945 * rv0 * alpha0[3][k] * f[7][k];
        out[5][k] += 0.6123724356957945 * rv0 * alpha0[7][k] * f[3][k];
        out[5][k] += 0.5477225575051662 * rv0 * alpha0[7][k] * f[12][k];
        out[5][k] += 0.6123724356957946 * rv0 * alpha0[9][k] * f[15][k];
        out[5][k] += 0.6123724356957946 * rv0 * alpha0[15][k] * f[9][k];
    }
    for k in 0..L {
        out[6][k] += 1.3693063937629153 * rv0 * alpha0[0][k] * f[2][k];
        out[6][k] += 1.369306393762915 * rv0 * alpha0[1][k] * f[5][k];
        out[6][k] += 1.369306393762915 * rv0 * alpha0[3][k] * f[8][k];
        out[6][k] += 1.3693063937629153 * rv0 * alpha0[7][k] * f[13][k];
        out[6][k] += 1.3693063937629155 * rv0 * alpha0[9][k] * f[16][k];
        out[6][k] += 1.3693063937629153 * rv0 * alpha0[15][k] * f[19][k];
    }
    for k in 0..L {
        out[8][k] += 0.6123724356957945 * rv0 * alpha0[0][k] * f[3][k];
        out[8][k] += 0.6123724356957945 * rv0 * alpha0[1][k] * f[7][k];
        out[8][k] += 0.6123724356957945 * rv0 * alpha0[3][k] * f[0][k];
        out[8][k] += 0.5477225575051661 * rv0 * alpha0[3][k] * f[9][k];
        out[8][k] += 0.6123724356957945 * rv0 * alpha0[7][k] * f[1][k];
        out[8][k] += 0.5477225575051662 * rv0 * alpha0[7][k] * f[15][k];
        out[8][k] += 0.5477225575051661 * rv0 * alpha0[9][k] * f[3][k];
        out[8][k] += 0.5477225575051662 * rv0 * alpha0[15][k] * f[7][k];
    }
    for k in 0..L {
        out[10][k] += 0.6123724356957946 * rv0 * alpha0[0][k] * f[4][k];
        out[10][k] += 0.5477225575051661 * rv0 * alpha0[1][k] * f[1][k];
        out[10][k] += 0.6123724356957946 * rv0 * alpha0[3][k] * f[12][k];
        out[10][k] += 0.5477225575051662 * rv0 * alpha0[7][k] * f[7][k];
        out[10][k] += 0.5477225575051662 * rv0 * alpha0[15][k] * f[15][k];
    }
    for k in 0..L {
        out[11][k] += 1.369306393762915 * rv0 * alpha0[0][k] * f[5][k];
        out[11][k] += 1.369306393762915 * rv0 * alpha0[1][k] * f[2][k];
        out[11][k] += 1.2247448713915892 * rv0 * alpha0[1][k] * f[10][k];
        out[11][k] += 1.3693063937629153 * rv0 * alpha0[3][k] * f[13][k];
        out[11][k] += 1.3693063937629153 * rv0 * alpha0[7][k] * f[8][k];
        out[11][k] += 1.224744871391589 * rv0 * alpha0[7][k] * f[17][k];
        out[11][k] += 1.3693063937629153 * rv0 * alpha0[9][k] * f[19][k];
        out[11][k] += 1.3693063937629153 * rv0 * alpha0[15][k] * f[16][k];
    }
    for k in 0..L {
        out[13][k] += 0.6123724356957945 * rv0 * alpha0[0][k] * f[7][k];
        out[13][k] += 0.6123724356957945 * rv0 * alpha0[1][k] * f[3][k];
        out[13][k] += 0.5477225575051662 * rv0 * alpha0[1][k] * f[12][k];
        out[13][k] += 0.6123724356957945 * rv0 * alpha0[3][k] * f[1][k];
        out[13][k] += 0.5477225575051662 * rv0 * alpha0[3][k] * f[15][k];
        out[13][k] += 0.6123724356957945 * rv0 * alpha0[7][k] * f[0][k];
        out[13][k] += 0.5477225575051662 * rv0 * alpha0[7][k] * f[4][k];
        out[13][k] += 0.5477225575051662 * rv0 * alpha0[7][k] * f[9][k];
        out[13][k] += 0.5477225575051662 * rv0 * alpha0[9][k] * f[7][k];
        out[13][k] += 0.5477225575051662 * rv0 * alpha0[15][k] * f[3][k];
        out[13][k] += 0.4898979485566356 * rv0 * alpha0[15][k] * f[12][k];
    }
    for k in 0..L {
        out[14][k] += 1.369306393762915 * rv0 * alpha0[0][k] * f[8][k];
        out[14][k] += 1.3693063937629153 * rv0 * alpha0[1][k] * f[13][k];
        out[14][k] += 1.369306393762915 * rv0 * alpha0[3][k] * f[2][k];
        out[14][k] += 1.2247448713915892 * rv0 * alpha0[3][k] * f[16][k];
        out[14][k] += 1.3693063937629153 * rv0 * alpha0[7][k] * f[5][k];
        out[14][k] += 1.224744871391589 * rv0 * alpha0[7][k] * f[19][k];
        out[14][k] += 1.2247448713915892 * rv0 * alpha0[9][k] * f[8][k];
        out[14][k] += 1.224744871391589 * rv0 * alpha0[15][k] * f[13][k];
    }
    for k in 0..L {
        out[16][k] += 0.6123724356957946 * rv0 * alpha0[0][k] * f[9][k];
        out[16][k] += 0.6123724356957946 * rv0 * alpha0[1][k] * f[15][k];
        out[16][k] += 0.5477225575051661 * rv0 * alpha0[3][k] * f[3][k];
        out[16][k] += 0.5477225575051662 * rv0 * alpha0[7][k] * f[7][k];
        out[16][k] += 0.6123724356957946 * rv0 * alpha0[9][k] * f[0][k];
        out[16][k] += 0.3912303982179758 * rv0 * alpha0[9][k] * f[9][k];
        out[16][k] += 0.6123724356957946 * rv0 * alpha0[15][k] * f[1][k];
        out[16][k] += 0.39123039821797584 * rv0 * alpha0[15][k] * f[15][k];
    }
    for k in 0..L {
        out[17][k] += 0.6123724356957946 * rv0 * alpha0[0][k] * f[12][k];
        out[17][k] += 0.5477225575051662 * rv0 * alpha0[1][k] * f[7][k];
        out[17][k] += 0.6123724356957946 * rv0 * alpha0[3][k] * f[4][k];
        out[17][k] += 0.5477225575051662 * rv0 * alpha0[7][k] * f[1][k];
        out[17][k] += 0.4898979485566356 * rv0 * alpha0[7][k] * f[15][k];
        out[17][k] += 0.5477225575051662 * rv0 * alpha0[9][k] * f[12][k];
        out[17][k] += 0.4898979485566356 * rv0 * alpha0[15][k] * f[7][k];
    }
    for k in 0..L {
        out[18][k] += 1.3693063937629153 * rv0 * alpha0[0][k] * f[13][k];
        out[18][k] += 1.3693063937629153 * rv0 * alpha0[1][k] * f[8][k];
        out[18][k] += 1.224744871391589 * rv0 * alpha0[1][k] * f[17][k];
        out[18][k] += 1.3693063937629153 * rv0 * alpha0[3][k] * f[5][k];
        out[18][k] += 1.224744871391589 * rv0 * alpha0[3][k] * f[19][k];
        out[18][k] += 1.3693063937629153 * rv0 * alpha0[7][k] * f[2][k];
        out[18][k] += 1.224744871391589 * rv0 * alpha0[7][k] * f[10][k];
        out[18][k] += 1.224744871391589 * rv0 * alpha0[7][k] * f[16][k];
        out[18][k] += 1.224744871391589 * rv0 * alpha0[9][k] * f[13][k];
        out[18][k] += 1.224744871391589 * rv0 * alpha0[15][k] * f[8][k];
        out[18][k] += 1.0954451150103321 * rv0 * alpha0[15][k] * f[17][k];
    }
    for k in 0..L {
        out[19][k] += 0.6123724356957946 * rv0 * alpha0[0][k] * f[15][k];
        out[19][k] += 0.6123724356957946 * rv0 * alpha0[1][k] * f[9][k];
        out[19][k] += 0.5477225575051662 * rv0 * alpha0[3][k] * f[7][k];
        out[19][k] += 0.5477225575051662 * rv0 * alpha0[7][k] * f[3][k];
        out[19][k] += 0.4898979485566356 * rv0 * alpha0[7][k] * f[12][k];
        out[19][k] += 0.6123724356957946 * rv0 * alpha0[9][k] * f[1][k];
        out[19][k] += 0.39123039821797584 * rv0 * alpha0[9][k] * f[15][k];
        out[19][k] += 0.6123724356957946 * rv0 * alpha0[15][k] * f[0][k];
        out[19][k] += 0.5477225575051662 * rv0 * alpha0[15][k] * f[4][k];
        out[19][k] += 0.39123039821797584 * rv0 * alpha0[15][k] * f[9][k];
    }
}

/// Acceleration `∂/∂v1 (q/m (E + v×B)_1 f)` term of [`vlasov_vol_1x2v_p2_ser`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p2_ser_accel1<const L: usize>(w: &[[f64; L]; 3], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]; 20], out: &mut [[f64; L]; 20]) {
    let rv1 = 2.0 / dxv[2];
    let mut alpha1 = [[0.0f64; L]; 20];
    for k in 0..L {
        alpha1[0][k] += qm * 2.0 * (em[3] - w[1][k] * em[15]);
        alpha1[2][k] += qm * -1.1547005383792517 * (0.5 * dxv[1]) * em[15];
        alpha1[3][k] += qm * 2.0 * (em[4] - w[1][k] * em[16]);
        alpha1[8][k] += qm * -1.1547005383792517 * (0.5 * dxv[1]) * em[16];
        alpha1[9][k] += qm * 2.0 * (em[5] - w[1][k] * em[17]);
        alpha1[16][k] += qm * -1.1547005383792517 * (0.5 * dxv[1]) * em[17];
    }
    for k in 0..L {
        out[1][k] += 0.6123724356957945 * rv1 * alpha1[0][k] * f[0][k];
        out[1][k] += 0.6123724356957945 * rv1 * alpha1[2][k] * f[2][k];
        out[1][k] += 0.6123724356957945 * rv1 * alpha1[3][k] * f[3][k];
        out[1][k] += 0.6123724356957945 * rv1 * alpha1[8][k] * f[8][k];
        out[1][k] += 0.6123724356957946 * rv1 * alpha1[9][k] * f[9][k];
        out[1][k] += 0.6123724356957946 * rv1 * alpha1[16][k] * f[16][k];
    }
    for k in 0..L {
        out[4][k] += 1.3693063937629153 * rv1 * alpha1[0][k] * f[1][k];
        out[4][k] += 1.369306393762915 * rv1 * alpha1[2][k] * f[5][k];
        out[4][k] += 1.369306393762915 * rv1 * alpha1[3][k] * f[7][k];
        out[4][k] += 1.3693063937629153 * rv1 * alpha1[8][k] * f[13][k];
        out[4][k] += 1.3693063937629155 * rv1 * alpha1[9][k] * f[15][k];
        out[4][k] += 1.3693063937629153 * rv1 * alpha1[16][k] * f[19][k];
    }
    for k in 0..L {
        out[5][k] += 0.6123724356957945 * rv1 * alpha1[0][k] * f[2][k];
        out[5][k] += 0.6123724356957945 * rv1 * alpha1[2][k] * f[0][k];
        out[5][k] += 0.5477225575051661 * rv1 * alpha1[2][k] * f[6][k];
        out[5][k] += 0.6123724356957945 * rv1 * alpha1[3][k] * f[8][k];
        out[5][k] += 0.6123724356957945 * rv1 * alpha1[8][k] * f[3][k];
        out[5][k] += 0.5477225575051662 * rv1 * alpha1[8][k] * f[14][k];
        out[5][k] += 0.6123724356957946 * rv1 * alpha1[9][k] * f[16][k];
        out[5][k] += 0.6123724356957946 * rv1 * alpha1[16][k] * f[9][k];
    }
    for k in 0..L {
        out[7][k] += 0.6123724356957945 * rv1 * alpha1[0][k] * f[3][k];
        out[7][k] += 0.6123724356957945 * rv1 * alpha1[2][k] * f[8][k];
        out[7][k] += 0.6123724356957945 * rv1 * alpha1[3][k] * f[0][k];
        out[7][k] += 0.5477225575051661 * rv1 * alpha1[3][k] * f[9][k];
        out[7][k] += 0.6123724356957945 * rv1 * alpha1[8][k] * f[2][k];
        out[7][k] += 0.5477225575051662 * rv1 * alpha1[8][k] * f[16][k];
        out[7][k] += 0.5477225575051661 * rv1 * alpha1[9][k] * f[3][k];
        out[7][k] += 0.5477225575051662 * rv1 * alpha1[16][k] * f[8][k];
    }
    for k in 0..L {
        out[10][k] += 1.369306393762915 * rv1 * alpha1[0][k] * f[5][k];
        out[10][k] += 1.369306393762915 * rv1 * alpha1[2][k] * f[1][k];
        out[10][k] += 1.2247448713915892 * rv1 * alpha1[2][k] * f[11][k];
        out[10][k] += 1.3693063937629153 * rv1 * alpha1[3][k] * f[13][k];
        out[10][k] += 1.3693063937629153 * rv1 * alpha1[8][k] * f[7][k];
        out[10][k] += 1.224744871391589 * rv1 * alpha1[8][k] * f[18][k];
        out[10][k] += 1.3693063937629153 * rv1 * alpha1[9][k] * f[19][k];
        out[10][k] += 1.3693063937629153 * rv1 * alpha1[16][k] * f[15][k];
    }
    for k in 0..L {
        out[11][k] += 0.6123724356957946 * rv1 * alpha1[0][k] * f[6][k];
        out[11][k] += 0.5477225575051661 * rv1 * alpha1[2][k] * f[2][k];
        out[11][k] += 0.6123724356957946 * rv1 * alpha1[3][k] * f[14][k];
        out[11][k] += 0.5477225575051662 * rv1 * alpha1[8][k] * f[8][k];
        out[11][k] += 0.5477225575051662 * rv1 * alpha1[16][k] * f[16][k];
    }
    for k in 0..L {
        out[12][k] += 1.369306393762915 * rv1 * alpha1[0][k] * f[7][k];
        out[12][k] += 1.3693063937629153 * rv1 * alpha1[2][k] * f[13][k];
        out[12][k] += 1.369306393762915 * rv1 * alpha1[3][k] * f[1][k];
        out[12][k] += 1.2247448713915892 * rv1 * alpha1[3][k] * f[15][k];
        out[12][k] += 1.3693063937629153 * rv1 * alpha1[8][k] * f[5][k];
        out[12][k] += 1.224744871391589 * rv1 * alpha1[8][k] * f[19][k];
        out[12][k] += 1.2247448713915892 * rv1 * alpha1[9][k] * f[7][k];
        out[12][k] += 1.224744871391589 * rv1 * alpha1[16][k] * f[13][k];
    }
    for k in 0..L {
        out[13][k] += 0.6123724356957945 * rv1 * alpha1[0][k] * f[8][k];
        out[13][k] += 0.6123724356957945 * rv1 * alpha1[2][k] * f[3][k];
        out[13][k] += 0.5477225575051662 * rv1 * alpha1[2][k] * f[14][k];
        out[13][k] += 0.6123724356957945 * rv1 * alpha1[3][k] * f[2][k];
        out[13][k] += 0.5477225575051662 * rv1 * alpha1[3][k] * f[16][k];
        out[13][k] += 0.6123724356957945 * rv1 * alpha1[8][k] * f[0][k];
        out[13][k] += 0.5477225575051662 * rv1 * alpha1[8][k] * f[6][k];
        out[13][k] += 0.5477225575051662 * rv1 * alpha1[8][k] * f[9][k];
        out[13][k] += 0.5477225575051662 * rv1 * alpha1[9][k] * f[8][k];
        out[13][k] += 0.5477225575051662 * rv1 * alpha1[16][k] * f[3][k];
        out[13][k] += 0.4898979485566356 * rv1 * alpha1[16][k] * f[14][k];
    }
    for k in 0..L {
        out[15][k] += 0.6123724356957946 * rv1 * alpha1[0][k] * f[9][k];
        out[15][k] += 0.6123724356957946 * rv1 * alpha1[2][k] * f[16][k];
        out[15][k] += 0.5477225575051661 * rv1 * alpha1[3][k] * f[3][k];
        out[15][k] += 0.5477225575051662 * rv1 * alpha1[8][k] * f[8][k];
        out[15][k] += 0.6123724356957946 * rv1 * alpha1[9][k] * f[0][k];
        out[15][k] += 0.3912303982179758 * rv1 * alpha1[9][k] * f[9][k];
        out[15][k] += 0.6123724356957946 * rv1 * alpha1[16][k] * f[2][k];
        out[15][k] += 0.39123039821797584 * rv1 * alpha1[16][k] * f[16][k];
    }
    for k in 0..L {
        out[17][k] += 1.3693063937629153 * rv1 * alpha1[0][k] * f[13][k];
        out[17][k] += 1.3693063937629153 * rv1 * alpha1[2][k] * f[7][k];
        out[17][k] += 1.224744871391589 * rv1 * alpha1[2][k] * f[18][k];
        out[17][k] += 1.3693063937629153 * rv1 * alpha1[3][k] * f[5][k];
        out[17][k] += 1.224744871391589 * rv1 * alpha1[3][k] * f[19][k];
        out[17][k] += 1.3693063937629153 * rv1 * alpha1[8][k] * f[1][k];
        out[17][k] += 1.224744871391589 * rv1 * alpha1[8][k] * f[11][k];
        out[17][k] += 1.224744871391589 * rv1 * alpha1[8][k] * f[15][k];
        out[17][k] += 1.224744871391589 * rv1 * alpha1[9][k] * f[13][k];
        out[17][k] += 1.224744871391589 * rv1 * alpha1[16][k] * f[7][k];
        out[17][k] += 1.0954451150103321 * rv1 * alpha1[16][k] * f[18][k];
    }
    for k in 0..L {
        out[18][k] += 0.6123724356957946 * rv1 * alpha1[0][k] * f[14][k];
        out[18][k] += 0.5477225575051662 * rv1 * alpha1[2][k] * f[8][k];
        out[18][k] += 0.6123724356957946 * rv1 * alpha1[3][k] * f[6][k];
        out[18][k] += 0.5477225575051662 * rv1 * alpha1[8][k] * f[2][k];
        out[18][k] += 0.4898979485566356 * rv1 * alpha1[8][k] * f[16][k];
        out[18][k] += 0.5477225575051662 * rv1 * alpha1[9][k] * f[14][k];
        out[18][k] += 0.4898979485566356 * rv1 * alpha1[16][k] * f[8][k];
    }
    for k in 0..L {
        out[19][k] += 0.6123724356957946 * rv1 * alpha1[0][k] * f[16][k];
        out[19][k] += 0.6123724356957946 * rv1 * alpha1[2][k] * f[9][k];
        out[19][k] += 0.5477225575051662 * rv1 * alpha1[3][k] * f[8][k];
        out[19][k] += 0.5477225575051662 * rv1 * alpha1[8][k] * f[3][k];
        out[19][k] += 0.4898979485566356 * rv1 * alpha1[8][k] * f[14][k];
        out[19][k] += 0.6123724356957946 * rv1 * alpha1[9][k] * f[2][k];
        out[19][k] += 0.39123039821797584 * rv1 * alpha1[9][k] * f[16][k];
        out[19][k] += 0.6123724356957946 * rv1 * alpha1[16][k] * f[0][k];
        out[19][k] += 0.5477225575051662 * rv1 * alpha1[16][k] * f[6][k];
        out[19][k] += 0.39123039821797584 * rv1 * alpha1[16][k] * f[9][k];
    }
}
