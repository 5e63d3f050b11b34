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
    // streaming: ∂/∂x0 of (v0 f)
    let rd0 = 2.0 / dxv[0];
    let a0_0 = 2.0 * w[1] * rd0;
    let a1_0 = 1.1547005383792517 * 0.5 * dxv[1] * rd0;
    out[2] += 0.8660254037844386 * a0_0 * f[0];
    out[3] += 0.8660254037844386 * a0_0 * f[1];
    out[2] += 0.8660254037844386 * a1_0 * f[1];
    out[3] += 0.8660254037844386 * a1_0 * f[0];
    // acceleration: ∂/∂v0 of (q/m (E + v×B)_0 f)
    let rv0 = 2.0 / dxv[1];
    let mut alpha0 = [0.0f64; 4];
    alpha0[0] += qm * 1.4142135623730951 * (em[0]);
    alpha0[2] += qm * 1.4142135623730951 * (em[1]);
    out[1] += 0.8660254037844386 * rv0 * alpha0[0] * f[0];
    out[1] += 0.8660254037844386 * rv0 * alpha0[2] * f[2];
    out[3] += 0.8660254037844386 * rv0 * alpha0[0] * f[2];
    out[3] += 0.8660254037844386 * rv0 * alpha0[2] * f[0];
}

/// Batched volume kernel, 1x1v p=1 Serendipity basis: [`vlasov_vol_1x1v_p1_ser`] over an SoA
/// panel of `LANES` cells sharing one configuration cell, bit-identical
/// per lane. Auto-generated from exact integral tables — do not edit by
/// hand.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x1v_p1_ser_b4(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    vlasov_vol_1x1v_p1_ser_b4_body(w, dxv, qm, em, f, out)
}

/// [`vlasov_vol_1x1v_p1_ser_b4`] compiled for AVX2: the same body, bit-identical per lane.
/// Reach it through `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x1v_p1_ser_b4_avx2(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    vlasov_vol_1x1v_p1_ser_b4_body(w, dxv, qm, em, f, out)
}

/// Shared body of [`vlasov_vol_1x1v_p1_ser_b4`] and its AVX2 entry point.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x1v_p1_ser_b4_body(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    vlasov_vol_1x1v_p1_ser_b4_stream0(w, dxv, f, out);
    vlasov_vol_1x1v_p1_ser_b4_accel0(w, dxv, qm, em, f, out);
}

/// Streaming `∂/∂x0 (v0 f)` term of [`vlasov_vol_1x1v_p1_ser_b4`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x1v_p1_ser_b4_stream0(w: &[CellLanes], dxv: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    let rd0 = 2.0 / dxv[0];
    let mut a0_0 = CellLanes([0.0f64; LANES]);
    for k in 0..LANES {
        a0_0.0[k] = 2.0 * w[1].0[k] * rd0;
    }
    let a1_0 = 1.1547005383792517 * 0.5 * dxv[1] * rd0;
    for k in 0..LANES {
        out[2].0[k] += 0.8660254037844386 * a0_0.0[k] * f[0].0[k];
    }
    for k in 0..LANES {
        out[3].0[k] += 0.8660254037844386 * a0_0.0[k] * f[1].0[k];
    }
    sx4(&mut out[2], 0.8660254037844386 * a1_0, &f[1]);
    sx4(&mut out[3], 0.8660254037844386 * a1_0, &f[0]);
}

/// Acceleration `∂/∂v0 (q/m (E + v×B)_0 f)` term of [`vlasov_vol_1x1v_p1_ser_b4`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x1v_p1_ser_b4_accel0(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    let rv0 = 2.0 / dxv[1];
    let mut alpha0 = [CellLanes([0.0f64; LANES]); 4];
    let _ = w;
    for k in 0..LANES {
        alpha0[0].0[k] += qm * 1.4142135623730951 * (em[0]);
        alpha0[2].0[k] += qm * 1.4142135623730951 * (em[1]);
    }
    for k in 0..LANES {
        out[1].0[k] += 0.8660254037844386 * rv0 * alpha0[0].0[k] * f[0].0[k];
        out[1].0[k] += 0.8660254037844386 * rv0 * alpha0[2].0[k] * f[2].0[k];
    }
    for k in 0..LANES {
        out[3].0[k] += 0.8660254037844386 * rv0 * alpha0[0].0[k] * f[2].0[k];
        out[3].0[k] += 0.8660254037844386 * rv0 * alpha0[2].0[k] * f[0].0[k];
    }
}
