/// Volume kernel for the Vlasov phase-space advection, 1x2v p=1 tensor basis.
/// Auto-generated from exact integral tables — do not edit by hand.
///
/// * `w`   — phase-space cell center, `[x…, v…]`, length 3
/// * `dxv` — phase-space cell size, length 3
/// * `qm`  — charge-to-mass ratio q/m
/// * `em`  — E/B conf-space coefficients, 6 components × 2
/// * `f`   — distribution coefficients, length 8
/// * `out` — RHS increment, length 8
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x2v_p1_tensor(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], f: &[f64], out: &mut [f64]) {
    vlasov_vol_1x2v_p1_tensor_body::<1>(w.as_chunks().0, dxv, qm, em, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`vlasov_vol_1x2v_p1_tensor`] over `LANES` cells: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x2v_p1_tensor_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    vlasov_vol_1x2v_p1_tensor_body(w, dxv, qm, em, f, out)
}

/// [`vlasov_vol_1x2v_p1_tensor_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x2v_p1_tensor_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    vlasov_vol_1x2v_p1_tensor_body(w, dxv, qm, em, f, out)
}

/// [`vlasov_vol_1x2v_p1_tensor`] over 8 cells, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x2v_p1_tensor_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; 8]], out: &mut [[f64; 8]]) {
    vlasov_vol_1x2v_p1_tensor_body(w, dxv, qm, em, f, out)
}

/// Shared lane-generic body of [`vlasov_vol_1x2v_p1_tensor`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p1_tensor_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let w: &[[f64; L]; 3] = w.first_chunk().expect("w: 3 coefficients");
    let f: &[[f64; L]; 8] = f.first_chunk().expect("f: 8 coefficients");
    let out: &mut [[f64; L]; 8] = out.first_chunk_mut().expect("out: 8 coefficients");
    vlasov_vol_1x2v_p1_tensor_stream0(w, dxv, f, out);
    vlasov_vol_1x2v_p1_tensor_accel0(w, dxv, qm, em, f, out);
    vlasov_vol_1x2v_p1_tensor_accel1(w, dxv, qm, em, f, out);
}

/// Streaming `∂/∂x0 (v0 f)` term of [`vlasov_vol_1x2v_p1_tensor`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p1_tensor_stream0<const L: usize>(w: &[[f64; L]; 3], dxv: &[f64], f: &[[f64; L]; 8], out: &mut [[f64; L]; 8]) {
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
        out[5][k] += 0.6123724356957945 * a0_0[k] * f[1][k];
    }
    for k in 0..L {
        out[6][k] += 0.6123724356957945 * a0_0[k] * f[2][k];
    }
    for k in 0..L {
        out[7][k] += 0.6123724356957945 * a0_0[k] * f[4][k];
    }
    sxn(&mut out[3], 0.6123724356957945 * a1_0, &f[2]);
    sxn(&mut out[5], 0.6123724356957945 * a1_0, &f[4]);
    sxn(&mut out[6], 0.6123724356957945 * a1_0, &f[0]);
    sxn(&mut out[7], 0.6123724356957945 * a1_0, &f[1]);
}

/// Acceleration `∂/∂v0 (q/m (E + v×B)_0 f)` term of [`vlasov_vol_1x2v_p1_tensor`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p1_tensor_accel0<const L: usize>(w: &[[f64; L]; 3], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]; 8], out: &mut [[f64; L]; 8]) {
    let rv0 = 2.0 / dxv[1];
    let mut alpha0 = [[0.0f64; L]; 8];
    for k in 0..L {
        alpha0[0][k] += qm * 2.0 * (em[0] + w[2][k] * em[10]);
        alpha0[1][k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[10];
        alpha0[3][k] += qm * 2.0 * (em[1] + w[2][k] * em[11]);
        alpha0[5][k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[11];
    }
    for k in 0..L {
        out[2][k] += 0.6123724356957945 * rv0 * alpha0[0][k] * f[0][k];
        out[2][k] += 0.6123724356957945 * rv0 * alpha0[1][k] * f[1][k];
        out[2][k] += 0.6123724356957945 * rv0 * alpha0[3][k] * f[3][k];
        out[2][k] += 0.6123724356957945 * rv0 * alpha0[5][k] * f[5][k];
    }
    for k in 0..L {
        out[4][k] += 0.6123724356957945 * rv0 * alpha0[0][k] * f[1][k];
        out[4][k] += 0.6123724356957945 * rv0 * alpha0[1][k] * f[0][k];
        out[4][k] += 0.6123724356957945 * rv0 * alpha0[3][k] * f[5][k];
        out[4][k] += 0.6123724356957945 * rv0 * alpha0[5][k] * f[3][k];
    }
    for k in 0..L {
        out[6][k] += 0.6123724356957945 * rv0 * alpha0[0][k] * f[3][k];
        out[6][k] += 0.6123724356957945 * rv0 * alpha0[1][k] * f[5][k];
        out[6][k] += 0.6123724356957945 * rv0 * alpha0[3][k] * f[0][k];
        out[6][k] += 0.6123724356957945 * rv0 * alpha0[5][k] * f[1][k];
    }
    for k in 0..L {
        out[7][k] += 0.6123724356957945 * rv0 * alpha0[0][k] * f[5][k];
        out[7][k] += 0.6123724356957945 * rv0 * alpha0[1][k] * f[3][k];
        out[7][k] += 0.6123724356957945 * rv0 * alpha0[3][k] * f[1][k];
        out[7][k] += 0.6123724356957945 * rv0 * alpha0[5][k] * f[0][k];
    }
}

/// Acceleration `∂/∂v1 (q/m (E + v×B)_1 f)` term of [`vlasov_vol_1x2v_p1_tensor`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p1_tensor_accel1<const L: usize>(w: &[[f64; L]; 3], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]; 8], out: &mut [[f64; L]; 8]) {
    let rv1 = 2.0 / dxv[2];
    let mut alpha1 = [[0.0f64; L]; 8];
    for k in 0..L {
        alpha1[0][k] += qm * 2.0 * (em[2] - w[1][k] * em[10]);
        alpha1[2][k] += qm * -1.1547005383792517 * (0.5 * dxv[1]) * em[10];
        alpha1[3][k] += qm * 2.0 * (em[3] - w[1][k] * em[11]);
        alpha1[6][k] += qm * -1.1547005383792517 * (0.5 * dxv[1]) * em[11];
    }
    for k in 0..L {
        out[1][k] += 0.6123724356957945 * rv1 * alpha1[0][k] * f[0][k];
        out[1][k] += 0.6123724356957945 * rv1 * alpha1[2][k] * f[2][k];
        out[1][k] += 0.6123724356957945 * rv1 * alpha1[3][k] * f[3][k];
        out[1][k] += 0.6123724356957945 * rv1 * alpha1[6][k] * f[6][k];
    }
    for k in 0..L {
        out[4][k] += 0.6123724356957945 * rv1 * alpha1[0][k] * f[2][k];
        out[4][k] += 0.6123724356957945 * rv1 * alpha1[2][k] * f[0][k];
        out[4][k] += 0.6123724356957945 * rv1 * alpha1[3][k] * f[6][k];
        out[4][k] += 0.6123724356957945 * rv1 * alpha1[6][k] * f[3][k];
    }
    for k in 0..L {
        out[5][k] += 0.6123724356957945 * rv1 * alpha1[0][k] * f[3][k];
        out[5][k] += 0.6123724356957945 * rv1 * alpha1[2][k] * f[6][k];
        out[5][k] += 0.6123724356957945 * rv1 * alpha1[3][k] * f[0][k];
        out[5][k] += 0.6123724356957945 * rv1 * alpha1[6][k] * f[2][k];
    }
    for k in 0..L {
        out[7][k] += 0.6123724356957945 * rv1 * alpha1[0][k] * f[6][k];
        out[7][k] += 0.6123724356957945 * rv1 * alpha1[2][k] * f[3][k];
        out[7][k] += 0.6123724356957945 * rv1 * alpha1[3][k] * f[2][k];
        out[7][k] += 0.6123724356957945 * rv1 * alpha1[6][k] * f[0][k];
    }
}
