// Surface kernels for the Vlasov phase-space advection, 1x2v p=1 tensor basis.
// Auto-generated from exact integral tables — do not edit by hand.
// One function per face-normal phase direction (configuration first);
// see `crate::dispatch::SurfaceKernelFn` for the calling convention.

/// Streaming surface kernel, faces normal to x0 (α̂ = v0).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x2v_p1_tensor_x0(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    let rd = 2.0 / dxv[0];
    let mut alpha = [0.0f64; 4];
    let _ = (qm, em);
    alpha[0] = w[1] * 2.0;
    alpha[2] += 0.5 * dxv[1] * 1.1547005383792517;
    let lam = if penalty { w[1].abs() + 0.5 * dxv[1].abs() } else { 0.0 };
    let mut fm = [0.0f64; 4];
    let mut fp = [0.0f64; 4];
    fm[0] += 0.7071067811865476 * f_lo[0];
    fm[1] += 0.7071067811865476 * f_lo[1];
    fm[2] += 0.7071067811865476 * f_lo[2];
    fm[0] += 1.224744871391589 * f_lo[3];
    fm[3] += 0.7071067811865476 * f_lo[4];
    fm[1] += 1.224744871391589 * f_lo[5];
    fm[2] += 1.224744871391589 * f_lo[6];
    fm[3] += 1.224744871391589 * f_lo[7];
    fp[0] += 0.7071067811865476 * f_hi[0];
    fp[1] += 0.7071067811865476 * f_hi[1];
    fp[2] += 0.7071067811865476 * f_hi[2];
    fp[0] += -1.224744871391589 * f_hi[3];
    fp[3] += 0.7071067811865476 * f_hi[4];
    fp[1] += -1.224744871391589 * f_hi[5];
    fp[2] += -1.224744871391589 * f_hi[6];
    fp[3] += -1.224744871391589 * f_hi[7];
    let mut favg = [0.0f64; 4];
    let mut ghat = [0.0f64; 4];
    favg[0] = 0.5 * (fm[0] + fp[0]);
    ghat[0] = -0.5 * lam * (fp[0] - fm[0]);
    favg[1] = 0.5 * (fm[1] + fp[1]);
    ghat[1] = -0.5 * lam * (fp[1] - fm[1]);
    favg[2] = 0.5 * (fm[2] + fp[2]);
    ghat[2] = -0.5 * lam * (fp[2] - fm[2]);
    favg[3] = 0.5 * (fm[3] + fp[3]);
    ghat[3] = -0.5 * lam * (fp[3] - fm[3]);
    ghat[0] += 0.5 * alpha[0] * favg[0];
    ghat[0] += 0.5 * alpha[2] * favg[2];
    ghat[1] += 0.5 * alpha[0] * favg[1];
    ghat[1] += 0.5 * alpha[2] * favg[3];
    ghat[2] += 0.5 * alpha[0] * favg[2];
    ghat[2] += 0.5 * alpha[2] * favg[0];
    ghat[3] += 0.5 * alpha[0] * favg[3];
    ghat[3] += 0.5 * alpha[2] * favg[1];
    out_lo[0] += -rd * 0.7071067811865476 * ghat[0];
    out_lo[1] += -rd * 0.7071067811865476 * ghat[1];
    out_lo[2] += -rd * 0.7071067811865476 * ghat[2];
    out_lo[3] += -rd * 1.224744871391589 * ghat[0];
    out_lo[4] += -rd * 0.7071067811865476 * ghat[3];
    out_lo[5] += -rd * 1.224744871391589 * ghat[1];
    out_lo[6] += -rd * 1.224744871391589 * ghat[2];
    out_lo[7] += -rd * 1.224744871391589 * ghat[3];
    out_hi[0] += rd * 0.7071067811865476 * ghat[0];
    out_hi[1] += rd * 0.7071067811865476 * ghat[1];
    out_hi[2] += rd * 0.7071067811865476 * ghat[2];
    out_hi[3] += rd * -1.224744871391589 * ghat[0];
    out_hi[4] += rd * 0.7071067811865476 * ghat[3];
    out_hi[5] += rd * -1.224744871391589 * ghat[1];
    out_hi[6] += rd * -1.224744871391589 * ghat[2];
    out_hi[7] += rd * -1.224744871391589 * ghat[3];
}

/// Batched companion of [`vlasov_surf_1x2v_p1_tensor_x0`]: `LANES` faces per call, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x2v_p1_tensor_x0_b4(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_1x2v_p1_tensor_x0_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_1x2v_p1_tensor_x0_b4`] compiled for AVX2: the same body, bit-identical per lane.
/// Reach it through `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x2v_p1_tensor_x0_b4_avx2(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_1x2v_p1_tensor_x0_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared body of [`vlasov_surf_1x2v_p1_tensor_x0_b4`] and its AVX2 entry point.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_1x2v_p1_tensor_x0_b4_body(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    let rd = 2.0 / dxv[0];
    let mut alpha = [CellLanes([0.0f64; LANES]); 4];
    let mut lam = CellLanes([0.0f64; LANES]);
    let _ = (qm, em);
    for k in 0..LANES {
        alpha[0].0[k] = w[1].0[k] * 2.0;
        alpha[2].0[k] += 0.5 * dxv[1] * 1.1547005383792517;
        lam.0[k] = if penalty { w[1].0[k].abs() + 0.5 * dxv[1].abs() } else { 0.0 };
    }
    let mut fm = [CellLanes([0.0f64; LANES]); 4];
    let mut fp = [CellLanes([0.0f64; LANES]); 4];
    sx4(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sx4(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sx4(&mut fm[2], 0.7071067811865476, &f_lo[2]);
    sx4(&mut fm[0], 1.224744871391589, &f_lo[3]);
    sx4(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sx4(&mut fm[1], 1.224744871391589, &f_lo[5]);
    sx4(&mut fm[2], 1.224744871391589, &f_lo[6]);
    sx4(&mut fm[3], 1.224744871391589, &f_lo[7]);
    sx4(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sx4(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sx4(&mut fp[2], 0.7071067811865476, &f_hi[2]);
    sx4(&mut fp[0], -1.224744871391589, &f_hi[3]);
    sx4(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sx4(&mut fp[1], -1.224744871391589, &f_hi[5]);
    sx4(&mut fp[2], -1.224744871391589, &f_hi[6]);
    sx4(&mut fp[3], -1.224744871391589, &f_hi[7]);
    let mut favg = [CellLanes([0.0f64; LANES]); 4];
    let mut ghat = [CellLanes([0.0f64; LANES]); 4];
    for k in 0..LANES {
        favg[0].0[k] = 0.5 * (fm[0].0[k] + fp[0].0[k]);
        ghat[0].0[k] = -0.5 * lam.0[k] * (fp[0].0[k] - fm[0].0[k]);
        favg[1].0[k] = 0.5 * (fm[1].0[k] + fp[1].0[k]);
        ghat[1].0[k] = -0.5 * lam.0[k] * (fp[1].0[k] - fm[1].0[k]);
        favg[2].0[k] = 0.5 * (fm[2].0[k] + fp[2].0[k]);
        ghat[2].0[k] = -0.5 * lam.0[k] * (fp[2].0[k] - fm[2].0[k]);
        favg[3].0[k] = 0.5 * (fm[3].0[k] + fp[3].0[k]);
        ghat[3].0[k] = -0.5 * lam.0[k] * (fp[3].0[k] - fm[3].0[k]);
    }
    for k in 0..LANES {
        ghat[0].0[k] += 0.5 * alpha[0].0[k] * favg[0].0[k];
        ghat[0].0[k] += 0.5 * alpha[2].0[k] * favg[2].0[k];
    }
    for k in 0..LANES {
        ghat[1].0[k] += 0.5 * alpha[0].0[k] * favg[1].0[k];
        ghat[1].0[k] += 0.5 * alpha[2].0[k] * favg[3].0[k];
    }
    for k in 0..LANES {
        ghat[2].0[k] += 0.5 * alpha[0].0[k] * favg[2].0[k];
        ghat[2].0[k] += 0.5 * alpha[2].0[k] * favg[0].0[k];
    }
    for k in 0..LANES {
        ghat[3].0[k] += 0.5 * alpha[0].0[k] * favg[3].0[k];
        ghat[3].0[k] += 0.5 * alpha[2].0[k] * favg[1].0[k];
    }
    sx4(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_lo[3], -rd * 1.224744871391589, &ghat[0]);
    sx4(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_lo[5], -rd * 1.224744871391589, &ghat[1]);
    sx4(&mut out_lo[6], -rd * 1.224744871391589, &ghat[2]);
    sx4(&mut out_lo[7], -rd * 1.224744871391589, &ghat[3]);
    sx4(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_hi[2], rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_hi[3], rd * -1.224744871391589, &ghat[0]);
    sx4(&mut out_hi[4], rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_hi[5], rd * -1.224744871391589, &ghat[1]);
    sx4(&mut out_hi[6], rd * -1.224744871391589, &ghat[2]);
    sx4(&mut out_hi[7], rd * -1.224744871391589, &ghat[3]);
}

/// Acceleration surface kernel, faces normal to v0 (α̂ = q/m (E + v×B)_0).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x2v_p1_tensor_v0(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    let rd = 2.0 / dxv[1];
    let mut alpha = [0.0f64; 4];
    alpha[0] += qm * 1.4142135623730951 * (em[0] + w[2] * em[10]);
    alpha[1] += qm * 0.816496580927726 * (0.5 * dxv[2]) * em[10];
    alpha[2] += qm * 1.4142135623730951 * (em[1] + w[2] * em[11]);
    alpha[3] += qm * 0.816496580927726 * (0.5 * dxv[2]) * em[11];
    let lam = if penalty { alpha[0].abs() * 0.5000000000000001 + alpha[1].abs() * 0.8660254037844386 + alpha[2].abs() * 0.8660254037844386 + alpha[3].abs() * 1.4999999999999998 } else { 0.0 };
    let mut fm = [0.0f64; 4];
    let mut fp = [0.0f64; 4];
    fm[0] += 0.7071067811865476 * f_lo[0];
    fm[1] += 0.7071067811865476 * f_lo[1];
    fm[0] += 1.224744871391589 * f_lo[2];
    fm[2] += 0.7071067811865476 * f_lo[3];
    fm[1] += 1.224744871391589 * f_lo[4];
    fm[3] += 0.7071067811865476 * f_lo[5];
    fm[2] += 1.224744871391589 * f_lo[6];
    fm[3] += 1.224744871391589 * f_lo[7];
    fp[0] += 0.7071067811865476 * f_hi[0];
    fp[1] += 0.7071067811865476 * f_hi[1];
    fp[0] += -1.224744871391589 * f_hi[2];
    fp[2] += 0.7071067811865476 * f_hi[3];
    fp[1] += -1.224744871391589 * f_hi[4];
    fp[3] += 0.7071067811865476 * f_hi[5];
    fp[2] += -1.224744871391589 * f_hi[6];
    fp[3] += -1.224744871391589 * f_hi[7];
    let mut favg = [0.0f64; 4];
    let mut ghat = [0.0f64; 4];
    favg[0] = 0.5 * (fm[0] + fp[0]);
    ghat[0] = -0.5 * lam * (fp[0] - fm[0]);
    favg[1] = 0.5 * (fm[1] + fp[1]);
    ghat[1] = -0.5 * lam * (fp[1] - fm[1]);
    favg[2] = 0.5 * (fm[2] + fp[2]);
    ghat[2] = -0.5 * lam * (fp[2] - fm[2]);
    favg[3] = 0.5 * (fm[3] + fp[3]);
    ghat[3] = -0.5 * lam * (fp[3] - fm[3]);
    ghat[0] += 0.5 * alpha[0] * favg[0];
    ghat[0] += 0.5 * alpha[1] * favg[1];
    ghat[0] += 0.5 * alpha[2] * favg[2];
    ghat[0] += 0.5 * alpha[3] * favg[3];
    ghat[1] += 0.5 * alpha[0] * favg[1];
    ghat[1] += 0.5 * alpha[1] * favg[0];
    ghat[1] += 0.5 * alpha[2] * favg[3];
    ghat[1] += 0.5 * alpha[3] * favg[2];
    ghat[2] += 0.5 * alpha[0] * favg[2];
    ghat[2] += 0.5 * alpha[1] * favg[3];
    ghat[2] += 0.5 * alpha[2] * favg[0];
    ghat[2] += 0.5 * alpha[3] * favg[1];
    ghat[3] += 0.5 * alpha[0] * favg[3];
    ghat[3] += 0.5 * alpha[1] * favg[2];
    ghat[3] += 0.5 * alpha[2] * favg[1];
    ghat[3] += 0.5 * alpha[3] * favg[0];
    out_lo[0] += -rd * 0.7071067811865476 * ghat[0];
    out_lo[1] += -rd * 0.7071067811865476 * ghat[1];
    out_lo[2] += -rd * 1.224744871391589 * ghat[0];
    out_lo[3] += -rd * 0.7071067811865476 * ghat[2];
    out_lo[4] += -rd * 1.224744871391589 * ghat[1];
    out_lo[5] += -rd * 0.7071067811865476 * ghat[3];
    out_lo[6] += -rd * 1.224744871391589 * ghat[2];
    out_lo[7] += -rd * 1.224744871391589 * ghat[3];
    out_hi[0] += rd * 0.7071067811865476 * ghat[0];
    out_hi[1] += rd * 0.7071067811865476 * ghat[1];
    out_hi[2] += rd * -1.224744871391589 * ghat[0];
    out_hi[3] += rd * 0.7071067811865476 * ghat[2];
    out_hi[4] += rd * -1.224744871391589 * ghat[1];
    out_hi[5] += rd * 0.7071067811865476 * ghat[3];
    out_hi[6] += rd * -1.224744871391589 * ghat[2];
    out_hi[7] += rd * -1.224744871391589 * ghat[3];
}

/// Batched companion of [`vlasov_surf_1x2v_p1_tensor_v0`]: `LANES` faces per call, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x2v_p1_tensor_v0_b4(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_1x2v_p1_tensor_v0_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_1x2v_p1_tensor_v0_b4`] compiled for AVX2: the same body, bit-identical per lane.
/// Reach it through `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x2v_p1_tensor_v0_b4_avx2(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_1x2v_p1_tensor_v0_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared body of [`vlasov_surf_1x2v_p1_tensor_v0_b4`] and its AVX2 entry point.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_1x2v_p1_tensor_v0_b4_body(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    let rd = 2.0 / dxv[1];
    let mut alpha = [CellLanes([0.0f64; LANES]); 4];
    let mut lam = CellLanes([0.0f64; LANES]);
    for k in 0..LANES {
        alpha[0].0[k] += qm * 1.4142135623730951 * (em[0] + w[2].0[k] * em[10]);
        alpha[1].0[k] += qm * 0.816496580927726 * (0.5 * dxv[2]) * em[10];
        alpha[2].0[k] += qm * 1.4142135623730951 * (em[1] + w[2].0[k] * em[11]);
        alpha[3].0[k] += qm * 0.816496580927726 * (0.5 * dxv[2]) * em[11];
        lam.0[k] = if penalty { alpha[0].0[k].abs() * 0.5000000000000001 + alpha[1].0[k].abs() * 0.8660254037844386 + alpha[2].0[k].abs() * 0.8660254037844386 + alpha[3].0[k].abs() * 1.4999999999999998 } else { 0.0 };
    }
    let mut fm = [CellLanes([0.0f64; LANES]); 4];
    let mut fp = [CellLanes([0.0f64; LANES]); 4];
    sx4(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sx4(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sx4(&mut fm[0], 1.224744871391589, &f_lo[2]);
    sx4(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sx4(&mut fm[1], 1.224744871391589, &f_lo[4]);
    sx4(&mut fm[3], 0.7071067811865476, &f_lo[5]);
    sx4(&mut fm[2], 1.224744871391589, &f_lo[6]);
    sx4(&mut fm[3], 1.224744871391589, &f_lo[7]);
    sx4(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sx4(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sx4(&mut fp[0], -1.224744871391589, &f_hi[2]);
    sx4(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sx4(&mut fp[1], -1.224744871391589, &f_hi[4]);
    sx4(&mut fp[3], 0.7071067811865476, &f_hi[5]);
    sx4(&mut fp[2], -1.224744871391589, &f_hi[6]);
    sx4(&mut fp[3], -1.224744871391589, &f_hi[7]);
    let mut favg = [CellLanes([0.0f64; LANES]); 4];
    let mut ghat = [CellLanes([0.0f64; LANES]); 4];
    for k in 0..LANES {
        favg[0].0[k] = 0.5 * (fm[0].0[k] + fp[0].0[k]);
        ghat[0].0[k] = -0.5 * lam.0[k] * (fp[0].0[k] - fm[0].0[k]);
        favg[1].0[k] = 0.5 * (fm[1].0[k] + fp[1].0[k]);
        ghat[1].0[k] = -0.5 * lam.0[k] * (fp[1].0[k] - fm[1].0[k]);
        favg[2].0[k] = 0.5 * (fm[2].0[k] + fp[2].0[k]);
        ghat[2].0[k] = -0.5 * lam.0[k] * (fp[2].0[k] - fm[2].0[k]);
        favg[3].0[k] = 0.5 * (fm[3].0[k] + fp[3].0[k]);
        ghat[3].0[k] = -0.5 * lam.0[k] * (fp[3].0[k] - fm[3].0[k]);
    }
    for k in 0..LANES {
        ghat[0].0[k] += 0.5 * alpha[0].0[k] * favg[0].0[k];
        ghat[0].0[k] += 0.5 * alpha[1].0[k] * favg[1].0[k];
        ghat[0].0[k] += 0.5 * alpha[2].0[k] * favg[2].0[k];
        ghat[0].0[k] += 0.5 * alpha[3].0[k] * favg[3].0[k];
    }
    for k in 0..LANES {
        ghat[1].0[k] += 0.5 * alpha[0].0[k] * favg[1].0[k];
        ghat[1].0[k] += 0.5 * alpha[1].0[k] * favg[0].0[k];
        ghat[1].0[k] += 0.5 * alpha[2].0[k] * favg[3].0[k];
        ghat[1].0[k] += 0.5 * alpha[3].0[k] * favg[2].0[k];
    }
    for k in 0..LANES {
        ghat[2].0[k] += 0.5 * alpha[0].0[k] * favg[2].0[k];
        ghat[2].0[k] += 0.5 * alpha[1].0[k] * favg[3].0[k];
        ghat[2].0[k] += 0.5 * alpha[2].0[k] * favg[0].0[k];
        ghat[2].0[k] += 0.5 * alpha[3].0[k] * favg[1].0[k];
    }
    for k in 0..LANES {
        ghat[3].0[k] += 0.5 * alpha[0].0[k] * favg[3].0[k];
        ghat[3].0[k] += 0.5 * alpha[1].0[k] * favg[2].0[k];
        ghat[3].0[k] += 0.5 * alpha[2].0[k] * favg[1].0[k];
        ghat[3].0[k] += 0.5 * alpha[3].0[k] * favg[0].0[k];
    }
    sx4(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_lo[2], -rd * 1.224744871391589, &ghat[0]);
    sx4(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_lo[4], -rd * 1.224744871391589, &ghat[1]);
    sx4(&mut out_lo[5], -rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_lo[6], -rd * 1.224744871391589, &ghat[2]);
    sx4(&mut out_lo[7], -rd * 1.224744871391589, &ghat[3]);
    sx4(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_hi[2], rd * -1.224744871391589, &ghat[0]);
    sx4(&mut out_hi[3], rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_hi[4], rd * -1.224744871391589, &ghat[1]);
    sx4(&mut out_hi[5], rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_hi[6], rd * -1.224744871391589, &ghat[2]);
    sx4(&mut out_hi[7], rd * -1.224744871391589, &ghat[3]);
}

/// Acceleration surface kernel, faces normal to v1 (α̂ = q/m (E + v×B)_1).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x2v_p1_tensor_v1(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    let rd = 2.0 / dxv[2];
    let mut alpha = [0.0f64; 4];
    alpha[0] += qm * 1.4142135623730951 * (em[2] - w[1] * em[10]);
    alpha[1] += qm * -0.816496580927726 * (0.5 * dxv[1]) * em[10];
    alpha[2] += qm * 1.4142135623730951 * (em[3] - w[1] * em[11]);
    alpha[3] += qm * -0.816496580927726 * (0.5 * dxv[1]) * em[11];
    let lam = if penalty { alpha[0].abs() * 0.5000000000000001 + alpha[1].abs() * 0.8660254037844386 + alpha[2].abs() * 0.8660254037844386 + alpha[3].abs() * 1.4999999999999998 } else { 0.0 };
    let mut fm = [0.0f64; 4];
    let mut fp = [0.0f64; 4];
    fm[0] += 0.7071067811865476 * f_lo[0];
    fm[0] += 1.224744871391589 * f_lo[1];
    fm[1] += 0.7071067811865476 * f_lo[2];
    fm[2] += 0.7071067811865476 * f_lo[3];
    fm[1] += 1.224744871391589 * f_lo[4];
    fm[2] += 1.224744871391589 * f_lo[5];
    fm[3] += 0.7071067811865476 * f_lo[6];
    fm[3] += 1.224744871391589 * f_lo[7];
    fp[0] += 0.7071067811865476 * f_hi[0];
    fp[0] += -1.224744871391589 * f_hi[1];
    fp[1] += 0.7071067811865476 * f_hi[2];
    fp[2] += 0.7071067811865476 * f_hi[3];
    fp[1] += -1.224744871391589 * f_hi[4];
    fp[2] += -1.224744871391589 * f_hi[5];
    fp[3] += 0.7071067811865476 * f_hi[6];
    fp[3] += -1.224744871391589 * f_hi[7];
    let mut favg = [0.0f64; 4];
    let mut ghat = [0.0f64; 4];
    favg[0] = 0.5 * (fm[0] + fp[0]);
    ghat[0] = -0.5 * lam * (fp[0] - fm[0]);
    favg[1] = 0.5 * (fm[1] + fp[1]);
    ghat[1] = -0.5 * lam * (fp[1] - fm[1]);
    favg[2] = 0.5 * (fm[2] + fp[2]);
    ghat[2] = -0.5 * lam * (fp[2] - fm[2]);
    favg[3] = 0.5 * (fm[3] + fp[3]);
    ghat[3] = -0.5 * lam * (fp[3] - fm[3]);
    ghat[0] += 0.5 * alpha[0] * favg[0];
    ghat[0] += 0.5 * alpha[1] * favg[1];
    ghat[0] += 0.5 * alpha[2] * favg[2];
    ghat[0] += 0.5 * alpha[3] * favg[3];
    ghat[1] += 0.5 * alpha[0] * favg[1];
    ghat[1] += 0.5 * alpha[1] * favg[0];
    ghat[1] += 0.5 * alpha[2] * favg[3];
    ghat[1] += 0.5 * alpha[3] * favg[2];
    ghat[2] += 0.5 * alpha[0] * favg[2];
    ghat[2] += 0.5 * alpha[1] * favg[3];
    ghat[2] += 0.5 * alpha[2] * favg[0];
    ghat[2] += 0.5 * alpha[3] * favg[1];
    ghat[3] += 0.5 * alpha[0] * favg[3];
    ghat[3] += 0.5 * alpha[1] * favg[2];
    ghat[3] += 0.5 * alpha[2] * favg[1];
    ghat[3] += 0.5 * alpha[3] * favg[0];
    out_lo[0] += -rd * 0.7071067811865476 * ghat[0];
    out_lo[1] += -rd * 1.224744871391589 * ghat[0];
    out_lo[2] += -rd * 0.7071067811865476 * ghat[1];
    out_lo[3] += -rd * 0.7071067811865476 * ghat[2];
    out_lo[4] += -rd * 1.224744871391589 * ghat[1];
    out_lo[5] += -rd * 1.224744871391589 * ghat[2];
    out_lo[6] += -rd * 0.7071067811865476 * ghat[3];
    out_lo[7] += -rd * 1.224744871391589 * ghat[3];
    out_hi[0] += rd * 0.7071067811865476 * ghat[0];
    out_hi[1] += rd * -1.224744871391589 * ghat[0];
    out_hi[2] += rd * 0.7071067811865476 * ghat[1];
    out_hi[3] += rd * 0.7071067811865476 * ghat[2];
    out_hi[4] += rd * -1.224744871391589 * ghat[1];
    out_hi[5] += rd * -1.224744871391589 * ghat[2];
    out_hi[6] += rd * 0.7071067811865476 * ghat[3];
    out_hi[7] += rd * -1.224744871391589 * ghat[3];
}

/// Batched companion of [`vlasov_surf_1x2v_p1_tensor_v1`]: `LANES` faces per call, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x2v_p1_tensor_v1_b4(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_1x2v_p1_tensor_v1_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_1x2v_p1_tensor_v1_b4`] compiled for AVX2: the same body, bit-identical per lane.
/// Reach it through `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_1x2v_p1_tensor_v1_b4_avx2(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_1x2v_p1_tensor_v1_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared body of [`vlasov_surf_1x2v_p1_tensor_v1_b4`] and its AVX2 entry point.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_1x2v_p1_tensor_v1_b4_body(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    let rd = 2.0 / dxv[2];
    let mut alpha = [CellLanes([0.0f64; LANES]); 4];
    let mut lam = CellLanes([0.0f64; LANES]);
    for k in 0..LANES {
        alpha[0].0[k] += qm * 1.4142135623730951 * (em[2] - w[1].0[k] * em[10]);
        alpha[1].0[k] += qm * -0.816496580927726 * (0.5 * dxv[1]) * em[10];
        alpha[2].0[k] += qm * 1.4142135623730951 * (em[3] - w[1].0[k] * em[11]);
        alpha[3].0[k] += qm * -0.816496580927726 * (0.5 * dxv[1]) * em[11];
        lam.0[k] = if penalty { alpha[0].0[k].abs() * 0.5000000000000001 + alpha[1].0[k].abs() * 0.8660254037844386 + alpha[2].0[k].abs() * 0.8660254037844386 + alpha[3].0[k].abs() * 1.4999999999999998 } else { 0.0 };
    }
    let mut fm = [CellLanes([0.0f64; LANES]); 4];
    let mut fp = [CellLanes([0.0f64; LANES]); 4];
    sx4(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sx4(&mut fm[0], 1.224744871391589, &f_lo[1]);
    sx4(&mut fm[1], 0.7071067811865476, &f_lo[2]);
    sx4(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sx4(&mut fm[1], 1.224744871391589, &f_lo[4]);
    sx4(&mut fm[2], 1.224744871391589, &f_lo[5]);
    sx4(&mut fm[3], 0.7071067811865476, &f_lo[6]);
    sx4(&mut fm[3], 1.224744871391589, &f_lo[7]);
    sx4(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sx4(&mut fp[0], -1.224744871391589, &f_hi[1]);
    sx4(&mut fp[1], 0.7071067811865476, &f_hi[2]);
    sx4(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sx4(&mut fp[1], -1.224744871391589, &f_hi[4]);
    sx4(&mut fp[2], -1.224744871391589, &f_hi[5]);
    sx4(&mut fp[3], 0.7071067811865476, &f_hi[6]);
    sx4(&mut fp[3], -1.224744871391589, &f_hi[7]);
    let mut favg = [CellLanes([0.0f64; LANES]); 4];
    let mut ghat = [CellLanes([0.0f64; LANES]); 4];
    for k in 0..LANES {
        favg[0].0[k] = 0.5 * (fm[0].0[k] + fp[0].0[k]);
        ghat[0].0[k] = -0.5 * lam.0[k] * (fp[0].0[k] - fm[0].0[k]);
        favg[1].0[k] = 0.5 * (fm[1].0[k] + fp[1].0[k]);
        ghat[1].0[k] = -0.5 * lam.0[k] * (fp[1].0[k] - fm[1].0[k]);
        favg[2].0[k] = 0.5 * (fm[2].0[k] + fp[2].0[k]);
        ghat[2].0[k] = -0.5 * lam.0[k] * (fp[2].0[k] - fm[2].0[k]);
        favg[3].0[k] = 0.5 * (fm[3].0[k] + fp[3].0[k]);
        ghat[3].0[k] = -0.5 * lam.0[k] * (fp[3].0[k] - fm[3].0[k]);
    }
    for k in 0..LANES {
        ghat[0].0[k] += 0.5 * alpha[0].0[k] * favg[0].0[k];
        ghat[0].0[k] += 0.5 * alpha[1].0[k] * favg[1].0[k];
        ghat[0].0[k] += 0.5 * alpha[2].0[k] * favg[2].0[k];
        ghat[0].0[k] += 0.5 * alpha[3].0[k] * favg[3].0[k];
    }
    for k in 0..LANES {
        ghat[1].0[k] += 0.5 * alpha[0].0[k] * favg[1].0[k];
        ghat[1].0[k] += 0.5 * alpha[1].0[k] * favg[0].0[k];
        ghat[1].0[k] += 0.5 * alpha[2].0[k] * favg[3].0[k];
        ghat[1].0[k] += 0.5 * alpha[3].0[k] * favg[2].0[k];
    }
    for k in 0..LANES {
        ghat[2].0[k] += 0.5 * alpha[0].0[k] * favg[2].0[k];
        ghat[2].0[k] += 0.5 * alpha[1].0[k] * favg[3].0[k];
        ghat[2].0[k] += 0.5 * alpha[2].0[k] * favg[0].0[k];
        ghat[2].0[k] += 0.5 * alpha[3].0[k] * favg[1].0[k];
    }
    for k in 0..LANES {
        ghat[3].0[k] += 0.5 * alpha[0].0[k] * favg[3].0[k];
        ghat[3].0[k] += 0.5 * alpha[1].0[k] * favg[2].0[k];
        ghat[3].0[k] += 0.5 * alpha[2].0[k] * favg[1].0[k];
        ghat[3].0[k] += 0.5 * alpha[3].0[k] * favg[0].0[k];
    }
    sx4(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_lo[1], -rd * 1.224744871391589, &ghat[0]);
    sx4(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_lo[4], -rd * 1.224744871391589, &ghat[1]);
    sx4(&mut out_lo[5], -rd * 1.224744871391589, &ghat[2]);
    sx4(&mut out_lo[6], -rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_lo[7], -rd * 1.224744871391589, &ghat[3]);
    sx4(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_hi[1], rd * -1.224744871391589, &ghat[0]);
    sx4(&mut out_hi[2], rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_hi[3], rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_hi[4], rd * -1.224744871391589, &ghat[1]);
    sx4(&mut out_hi[5], rd * -1.224744871391589, &ghat[2]);
    sx4(&mut out_hi[6], rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_hi[7], rd * -1.224744871391589, &ghat[3]);
}
