/// Volume kernel for the Vlasov phase-space advection, 1x1v p=1 Serendipity basis.
/// Auto-generated from exact integral tables — do not edit by hand.
///
/// * `w`   — phase-space cell center, `[x…, v…]`, length 2
/// * `dxv` — phase-space cell size, length 2
/// * `qm`  — charge-to-mass ratio q/m
/// * `em`  — E/B conf-space coefficients, 6 components × 2
/// * `f`   — distribution coefficients, length 4
/// * `out` — RHS increment, length 4
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x1v_p1_ser(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], f: &[f64], out: &mut [f64]) {
    vlasov_vol_1x1v_p1_ser_body::<1>(w.as_chunks().0, dxv, qm, em, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`vlasov_vol_1x1v_p1_ser`] over `LANES` cells: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x1v_p1_ser_b4(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    vlasov_vol_1x1v_p1_ser_body(w, dxv, qm, em, f, out)
}

/// [`vlasov_vol_1x1v_p1_ser_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x1v_p1_ser_b4_avx2(w: &[[f64; LANES]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    vlasov_vol_1x1v_p1_ser_body(w, dxv, qm, em, f, out)
}

/// [`vlasov_vol_1x1v_p1_ser`] over 8 cells, compiled for AVX-512F. Reach it through
/// `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x1v_p1_ser_b8_avx512(w: &[[f64; 8]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; 8]], out: &mut [[f64; 8]]) {
    vlasov_vol_1x1v_p1_ser_body(w, dxv, qm, em, f, out)
}

/// Shared lane-generic body of [`vlasov_vol_1x1v_p1_ser`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x1v_p1_ser_body<const L: usize>(w: &[[f64; L]], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let w: &[[f64; L]; 2] = w.first_chunk().expect("w: 2 coefficients");
    let f: &[[f64; L]; 4] = f.first_chunk().expect("f: 4 coefficients");
    let out: &mut [[f64; L]; 4] = out.first_chunk_mut().expect("out: 4 coefficients");
    vlasov_vol_1x1v_p1_ser_stream0(w, dxv, f, out);
    vlasov_vol_1x1v_p1_ser_accel0(w, dxv, qm, em, f, out);
}

/// Streaming `∂/∂x0 (v0 f)` term of [`vlasov_vol_1x1v_p1_ser`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x1v_p1_ser_stream0<const L: usize>(w: &[[f64; L]; 2], dxv: &[f64], f: &[[f64; L]; 4], out: &mut [[f64; L]; 4]) {
    let rd0 = 2.0 / dxv[0];
    let mut a0_0 = [0.0f64; L];
    for k in 0..L {
        a0_0[k] = 2.0 * w[1][k] * rd0;
    }
    let a1_0 = 1.1547005383792517 * 0.5 * dxv[1] * rd0;
    for k in 0..L {
        out[2][k] += 0.8660254037844386 * a0_0[k] * f[0][k];
    }
    for k in 0..L {
        out[3][k] += 0.8660254037844386 * a0_0[k] * f[1][k];
    }
    sxn(&mut out[2], 0.8660254037844386 * a1_0, &f[1]);
    sxn(&mut out[3], 0.8660254037844386 * a1_0, &f[0]);
}

/// Acceleration `∂/∂v0 (q/m (E + v×B)_0 f)` term of [`vlasov_vol_1x1v_p1_ser`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x1v_p1_ser_accel0<const L: usize>(w: &[[f64; L]; 2], dxv: &[f64], qm: f64, em: &[f64], f: &[[f64; L]; 4], out: &mut [[f64; L]; 4]) {
    let rv0 = 2.0 / dxv[1];
    let mut alpha0 = [[0.0f64; L]; 4];
    let _ = w;
    for k in 0..L {
        alpha0[0][k] += qm * 1.4142135623730951 * (em[0]);
        alpha0[2][k] += qm * 1.4142135623730951 * (em[1]);
    }
    for k in 0..L {
        out[1][k] += 0.8660254037844386 * rv0 * alpha0[0][k] * f[0][k];
        out[1][k] += 0.8660254037844386 * rv0 * alpha0[2][k] * f[2][k];
    }
    for k in 0..L {
        out[3][k] += 0.8660254037844386 * rv0 * alpha0[0][k] * f[2][k];
        out[3][k] += 0.8660254037844386 * rv0 * alpha0[2][k] * f[0][k];
    }
}
