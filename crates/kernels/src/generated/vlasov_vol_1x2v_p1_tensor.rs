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
    // streaming: ∂/∂x0 of (v0 f)
    let rd0 = 2.0 / dxv[0];
    let a0_0 = 2.8284271247461903 * w[1] * rd0;
    let a1_0 = 1.632993161855452 * 0.5 * dxv[1] * rd0;
    out[3] += 0.6123724356957945 * a0_0 * f[0];
    out[5] += 0.6123724356957945 * a0_0 * f[1];
    out[6] += 0.6123724356957945 * a0_0 * f[2];
    out[7] += 0.6123724356957945 * a0_0 * f[4];
    out[3] += 0.6123724356957945 * a1_0 * f[2];
    out[5] += 0.6123724356957945 * a1_0 * f[4];
    out[6] += 0.6123724356957945 * a1_0 * f[0];
    out[7] += 0.6123724356957945 * a1_0 * f[1];
    // acceleration: ∂/∂v0 of (q/m (E + v×B)_0 f)
    let rv0 = 2.0 / dxv[1];
    let mut alpha0 = [0.0f64; 8];
    alpha0[0] += qm * 2.0 * (em[0] + w[2] * em[10]);
    alpha0[1] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[10];
    alpha0[3] += qm * 2.0 * (em[1] + w[2] * em[11]);
    alpha0[5] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[11];
    out[2] += 0.6123724356957945 * rv0 * alpha0[0] * f[0];
    out[2] += 0.6123724356957945 * rv0 * alpha0[1] * f[1];
    out[2] += 0.6123724356957945 * rv0 * alpha0[3] * f[3];
    out[2] += 0.6123724356957945 * rv0 * alpha0[5] * f[5];
    out[4] += 0.6123724356957945 * rv0 * alpha0[0] * f[1];
    out[4] += 0.6123724356957945 * rv0 * alpha0[1] * f[0];
    out[4] += 0.6123724356957945 * rv0 * alpha0[3] * f[5];
    out[4] += 0.6123724356957945 * rv0 * alpha0[5] * f[3];
    out[6] += 0.6123724356957945 * rv0 * alpha0[0] * f[3];
    out[6] += 0.6123724356957945 * rv0 * alpha0[1] * f[5];
    out[6] += 0.6123724356957945 * rv0 * alpha0[3] * f[0];
    out[6] += 0.6123724356957945 * rv0 * alpha0[5] * f[1];
    out[7] += 0.6123724356957945 * rv0 * alpha0[0] * f[5];
    out[7] += 0.6123724356957945 * rv0 * alpha0[1] * f[3];
    out[7] += 0.6123724356957945 * rv0 * alpha0[3] * f[1];
    out[7] += 0.6123724356957945 * rv0 * alpha0[5] * f[0];
    // acceleration: ∂/∂v1 of (q/m (E + v×B)_1 f)
    let rv1 = 2.0 / dxv[2];
    let mut alpha1 = [0.0f64; 8];
    alpha1[0] += qm * 2.0 * (em[2] - w[1] * em[10]);
    alpha1[2] += qm * -1.1547005383792517 * (0.5 * dxv[1]) * em[10];
    alpha1[3] += qm * 2.0 * (em[3] - w[1] * em[11]);
    alpha1[6] += qm * -1.1547005383792517 * (0.5 * dxv[1]) * em[11];
    out[1] += 0.6123724356957945 * rv1 * alpha1[0] * f[0];
    out[1] += 0.6123724356957945 * rv1 * alpha1[2] * f[2];
    out[1] += 0.6123724356957945 * rv1 * alpha1[3] * f[3];
    out[1] += 0.6123724356957945 * rv1 * alpha1[6] * f[6];
    out[4] += 0.6123724356957945 * rv1 * alpha1[0] * f[2];
    out[4] += 0.6123724356957945 * rv1 * alpha1[2] * f[0];
    out[4] += 0.6123724356957945 * rv1 * alpha1[3] * f[6];
    out[4] += 0.6123724356957945 * rv1 * alpha1[6] * f[3];
    out[5] += 0.6123724356957945 * rv1 * alpha1[0] * f[3];
    out[5] += 0.6123724356957945 * rv1 * alpha1[2] * f[6];
    out[5] += 0.6123724356957945 * rv1 * alpha1[3] * f[0];
    out[5] += 0.6123724356957945 * rv1 * alpha1[6] * f[2];
    out[7] += 0.6123724356957945 * rv1 * alpha1[0] * f[6];
    out[7] += 0.6123724356957945 * rv1 * alpha1[2] * f[3];
    out[7] += 0.6123724356957945 * rv1 * alpha1[3] * f[2];
    out[7] += 0.6123724356957945 * rv1 * alpha1[6] * f[0];
}

/// Batched volume kernel, 1x2v p=1 tensor basis: [`vlasov_vol_1x2v_p1_tensor`] over an SoA
/// panel of `LANES` cells sharing one configuration cell, bit-identical
/// per lane. Auto-generated from exact integral tables — do not edit by
/// hand.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x2v_p1_tensor_b4(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    vlasov_vol_1x2v_p1_tensor_b4_body(w, dxv, qm, em, f, out)
}

/// [`vlasov_vol_1x2v_p1_tensor_b4`] compiled for AVX2: the same body, bit-identical per lane.
/// Reach it through `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_vol_1x2v_p1_tensor_b4_avx2(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    vlasov_vol_1x2v_p1_tensor_b4_body(w, dxv, qm, em, f, out)
}

/// Shared body of [`vlasov_vol_1x2v_p1_tensor_b4`] and its AVX2 entry point.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p1_tensor_b4_body(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    vlasov_vol_1x2v_p1_tensor_b4_stream0(w, dxv, f, out);
    vlasov_vol_1x2v_p1_tensor_b4_accel0(w, dxv, qm, em, f, out);
    vlasov_vol_1x2v_p1_tensor_b4_accel1(w, dxv, qm, em, f, out);
}

/// Streaming `∂/∂x0 (v0 f)` term of [`vlasov_vol_1x2v_p1_tensor_b4`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p1_tensor_b4_stream0(w: &[CellLanes], dxv: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    let rd0 = 2.0 / dxv[0];
    let mut a0_0 = CellLanes([0.0f64; LANES]);
    for k in 0..LANES {
        a0_0.0[k] = 2.8284271247461903 * w[1].0[k] * rd0;
    }
    let a1_0 = 1.632993161855452 * 0.5 * dxv[1] * rd0;
    for k in 0..LANES {
        out[3].0[k] += 0.6123724356957945 * a0_0.0[k] * f[0].0[k];
    }
    for k in 0..LANES {
        out[5].0[k] += 0.6123724356957945 * a0_0.0[k] * f[1].0[k];
    }
    for k in 0..LANES {
        out[6].0[k] += 0.6123724356957945 * a0_0.0[k] * f[2].0[k];
    }
    for k in 0..LANES {
        out[7].0[k] += 0.6123724356957945 * a0_0.0[k] * f[4].0[k];
    }
    sx4(&mut out[3], 0.6123724356957945 * a1_0, &f[2]);
    sx4(&mut out[5], 0.6123724356957945 * a1_0, &f[4]);
    sx4(&mut out[6], 0.6123724356957945 * a1_0, &f[0]);
    sx4(&mut out[7], 0.6123724356957945 * a1_0, &f[1]);
}

/// Acceleration `∂/∂v0 (q/m (E + v×B)_0 f)` term of [`vlasov_vol_1x2v_p1_tensor_b4`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p1_tensor_b4_accel0(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    let rv0 = 2.0 / dxv[1];
    let mut alpha0 = [CellLanes([0.0f64; LANES]); 8];
    for k in 0..LANES {
        alpha0[0].0[k] += qm * 2.0 * (em[0] + w[2].0[k] * em[10]);
        alpha0[1].0[k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[10];
        alpha0[3].0[k] += qm * 2.0 * (em[1] + w[2].0[k] * em[11]);
        alpha0[5].0[k] += qm * 1.1547005383792517 * (0.5 * dxv[2]) * em[11];
    }
    for k in 0..LANES {
        out[2].0[k] += 0.6123724356957945 * rv0 * alpha0[0].0[k] * f[0].0[k];
        out[2].0[k] += 0.6123724356957945 * rv0 * alpha0[1].0[k] * f[1].0[k];
        out[2].0[k] += 0.6123724356957945 * rv0 * alpha0[3].0[k] * f[3].0[k];
        out[2].0[k] += 0.6123724356957945 * rv0 * alpha0[5].0[k] * f[5].0[k];
    }
    for k in 0..LANES {
        out[4].0[k] += 0.6123724356957945 * rv0 * alpha0[0].0[k] * f[1].0[k];
        out[4].0[k] += 0.6123724356957945 * rv0 * alpha0[1].0[k] * f[0].0[k];
        out[4].0[k] += 0.6123724356957945 * rv0 * alpha0[3].0[k] * f[5].0[k];
        out[4].0[k] += 0.6123724356957945 * rv0 * alpha0[5].0[k] * f[3].0[k];
    }
    for k in 0..LANES {
        out[6].0[k] += 0.6123724356957945 * rv0 * alpha0[0].0[k] * f[3].0[k];
        out[6].0[k] += 0.6123724356957945 * rv0 * alpha0[1].0[k] * f[5].0[k];
        out[6].0[k] += 0.6123724356957945 * rv0 * alpha0[3].0[k] * f[0].0[k];
        out[6].0[k] += 0.6123724356957945 * rv0 * alpha0[5].0[k] * f[1].0[k];
    }
    for k in 0..LANES {
        out[7].0[k] += 0.6123724356957945 * rv0 * alpha0[0].0[k] * f[5].0[k];
        out[7].0[k] += 0.6123724356957945 * rv0 * alpha0[1].0[k] * f[3].0[k];
        out[7].0[k] += 0.6123724356957945 * rv0 * alpha0[3].0[k] * f[1].0[k];
        out[7].0[k] += 0.6123724356957945 * rv0 * alpha0[5].0[k] * f[0].0[k];
    }
}

/// Acceleration `∂/∂v1 (q/m (E + v×B)_1 f)` term of [`vlasov_vol_1x2v_p1_tensor_b4`].
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_vol_1x2v_p1_tensor_b4_accel1(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], f: &[CellLanes], out: &mut [CellLanes]) {
    let rv1 = 2.0 / dxv[2];
    let mut alpha1 = [CellLanes([0.0f64; LANES]); 8];
    for k in 0..LANES {
        alpha1[0].0[k] += qm * 2.0 * (em[2] - w[1].0[k] * em[10]);
        alpha1[2].0[k] += qm * -1.1547005383792517 * (0.5 * dxv[1]) * em[10];
        alpha1[3].0[k] += qm * 2.0 * (em[3] - w[1].0[k] * em[11]);
        alpha1[6].0[k] += qm * -1.1547005383792517 * (0.5 * dxv[1]) * em[11];
    }
    for k in 0..LANES {
        out[1].0[k] += 0.6123724356957945 * rv1 * alpha1[0].0[k] * f[0].0[k];
        out[1].0[k] += 0.6123724356957945 * rv1 * alpha1[2].0[k] * f[2].0[k];
        out[1].0[k] += 0.6123724356957945 * rv1 * alpha1[3].0[k] * f[3].0[k];
        out[1].0[k] += 0.6123724356957945 * rv1 * alpha1[6].0[k] * f[6].0[k];
    }
    for k in 0..LANES {
        out[4].0[k] += 0.6123724356957945 * rv1 * alpha1[0].0[k] * f[2].0[k];
        out[4].0[k] += 0.6123724356957945 * rv1 * alpha1[2].0[k] * f[0].0[k];
        out[4].0[k] += 0.6123724356957945 * rv1 * alpha1[3].0[k] * f[6].0[k];
        out[4].0[k] += 0.6123724356957945 * rv1 * alpha1[6].0[k] * f[3].0[k];
    }
    for k in 0..LANES {
        out[5].0[k] += 0.6123724356957945 * rv1 * alpha1[0].0[k] * f[3].0[k];
        out[5].0[k] += 0.6123724356957945 * rv1 * alpha1[2].0[k] * f[6].0[k];
        out[5].0[k] += 0.6123724356957945 * rv1 * alpha1[3].0[k] * f[0].0[k];
        out[5].0[k] += 0.6123724356957945 * rv1 * alpha1[6].0[k] * f[2].0[k];
    }
    for k in 0..LANES {
        out[7].0[k] += 0.6123724356957945 * rv1 * alpha1[0].0[k] * f[6].0[k];
        out[7].0[k] += 0.6123724356957945 * rv1 * alpha1[2].0[k] * f[3].0[k];
        out[7].0[k] += 0.6123724356957945 * rv1 * alpha1[3].0[k] * f[2].0[k];
        out[7].0[k] += 0.6123724356957945 * rv1 * alpha1[6].0[k] * f[0].0[k];
    }
}
