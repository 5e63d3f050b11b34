// Surface kernels for the Vlasov phase-space advection, 2x2v p=1 Serendipity basis.
// Auto-generated from exact integral tables — do not edit by hand.
// One function per face-normal phase direction (configuration first);
// see `crate::dispatch::SurfaceKernelFn` for the calling convention.

/// Streaming surface kernel, faces normal to x0 (α̂ = v0).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x0(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    let rd = 2.0 / dxv[0];
    let mut alpha = [0.0f64; 8];
    let _ = (qm, em);
    alpha[0] = w[2] * 2.8284271247461903;
    alpha[2] += 0.5 * dxv[2] * 1.632993161855452;
    let lam = if penalty { w[2].abs() + 0.5 * dxv[2].abs() } else { 0.0 };
    let mut fm = [0.0f64; 8];
    let mut fp = [0.0f64; 8];
    fm[0] += 0.7071067811865476 * f_lo[0];
    fm[1] += 0.7071067811865476 * f_lo[1];
    fm[2] += 0.7071067811865476 * f_lo[2];
    fm[3] += 0.7071067811865476 * f_lo[3];
    fm[0] += 1.224744871391589 * f_lo[4];
    fm[4] += 0.7071067811865476 * f_lo[5];
    fm[5] += 0.7071067811865476 * f_lo[6];
    fm[6] += 0.7071067811865476 * f_lo[7];
    fm[1] += 1.224744871391589 * f_lo[8];
    fm[2] += 1.224744871391589 * f_lo[9];
    fm[3] += 1.224744871391589 * f_lo[10];
    fm[7] += 0.7071067811865476 * f_lo[11];
    fm[4] += 1.224744871391589 * f_lo[12];
    fm[5] += 1.224744871391589 * f_lo[13];
    fm[6] += 1.224744871391589 * f_lo[14];
    fm[7] += 1.224744871391589 * f_lo[15];
    fp[0] += 0.7071067811865476 * f_hi[0];
    fp[1] += 0.7071067811865476 * f_hi[1];
    fp[2] += 0.7071067811865476 * f_hi[2];
    fp[3] += 0.7071067811865476 * f_hi[3];
    fp[0] += -1.224744871391589 * f_hi[4];
    fp[4] += 0.7071067811865476 * f_hi[5];
    fp[5] += 0.7071067811865476 * f_hi[6];
    fp[6] += 0.7071067811865476 * f_hi[7];
    fp[1] += -1.224744871391589 * f_hi[8];
    fp[2] += -1.224744871391589 * f_hi[9];
    fp[3] += -1.224744871391589 * f_hi[10];
    fp[7] += 0.7071067811865476 * f_hi[11];
    fp[4] += -1.224744871391589 * f_hi[12];
    fp[5] += -1.224744871391589 * f_hi[13];
    fp[6] += -1.224744871391589 * f_hi[14];
    fp[7] += -1.224744871391589 * f_hi[15];
    let mut favg = [0.0f64; 8];
    let mut ghat = [0.0f64; 8];
    favg[0] = 0.5 * (fm[0] + fp[0]);
    ghat[0] = -0.5 * lam * (fp[0] - fm[0]);
    favg[1] = 0.5 * (fm[1] + fp[1]);
    ghat[1] = -0.5 * lam * (fp[1] - fm[1]);
    favg[2] = 0.5 * (fm[2] + fp[2]);
    ghat[2] = -0.5 * lam * (fp[2] - fm[2]);
    favg[3] = 0.5 * (fm[3] + fp[3]);
    ghat[3] = -0.5 * lam * (fp[3] - fm[3]);
    favg[4] = 0.5 * (fm[4] + fp[4]);
    ghat[4] = -0.5 * lam * (fp[4] - fm[4]);
    favg[5] = 0.5 * (fm[5] + fp[5]);
    ghat[5] = -0.5 * lam * (fp[5] - fm[5]);
    favg[6] = 0.5 * (fm[6] + fp[6]);
    ghat[6] = -0.5 * lam * (fp[6] - fm[6]);
    favg[7] = 0.5 * (fm[7] + fp[7]);
    ghat[7] = -0.5 * lam * (fp[7] - fm[7]);
    ghat[0] += 0.3535533905932738 * alpha[0] * favg[0];
    ghat[0] += 0.35355339059327373 * alpha[2] * favg[2];
    ghat[1] += 0.35355339059327373 * alpha[0] * favg[1];
    ghat[1] += 0.35355339059327373 * alpha[2] * favg[4];
    ghat[2] += 0.35355339059327373 * alpha[0] * favg[2];
    ghat[2] += 0.35355339059327373 * alpha[2] * favg[0];
    ghat[3] += 0.35355339059327373 * alpha[0] * favg[3];
    ghat[3] += 0.35355339059327373 * alpha[2] * favg[6];
    ghat[4] += 0.35355339059327373 * alpha[0] * favg[4];
    ghat[4] += 0.35355339059327373 * alpha[2] * favg[1];
    ghat[5] += 0.35355339059327373 * alpha[0] * favg[5];
    ghat[5] += 0.3535533905932738 * alpha[2] * favg[7];
    ghat[6] += 0.35355339059327373 * alpha[0] * favg[6];
    ghat[6] += 0.35355339059327373 * alpha[2] * favg[3];
    ghat[7] += 0.3535533905932738 * alpha[0] * favg[7];
    ghat[7] += 0.3535533905932738 * alpha[2] * favg[5];
    out_lo[0] += -rd * 0.7071067811865476 * ghat[0];
    out_lo[1] += -rd * 0.7071067811865476 * ghat[1];
    out_lo[2] += -rd * 0.7071067811865476 * ghat[2];
    out_lo[3] += -rd * 0.7071067811865476 * ghat[3];
    out_lo[4] += -rd * 1.224744871391589 * ghat[0];
    out_lo[5] += -rd * 0.7071067811865476 * ghat[4];
    out_lo[6] += -rd * 0.7071067811865476 * ghat[5];
    out_lo[7] += -rd * 0.7071067811865476 * ghat[6];
    out_lo[8] += -rd * 1.224744871391589 * ghat[1];
    out_lo[9] += -rd * 1.224744871391589 * ghat[2];
    out_lo[10] += -rd * 1.224744871391589 * ghat[3];
    out_lo[11] += -rd * 0.7071067811865476 * ghat[7];
    out_lo[12] += -rd * 1.224744871391589 * ghat[4];
    out_lo[13] += -rd * 1.224744871391589 * ghat[5];
    out_lo[14] += -rd * 1.224744871391589 * ghat[6];
    out_lo[15] += -rd * 1.224744871391589 * ghat[7];
    out_hi[0] += rd * 0.7071067811865476 * ghat[0];
    out_hi[1] += rd * 0.7071067811865476 * ghat[1];
    out_hi[2] += rd * 0.7071067811865476 * ghat[2];
    out_hi[3] += rd * 0.7071067811865476 * ghat[3];
    out_hi[4] += rd * -1.224744871391589 * ghat[0];
    out_hi[5] += rd * 0.7071067811865476 * ghat[4];
    out_hi[6] += rd * 0.7071067811865476 * ghat[5];
    out_hi[7] += rd * 0.7071067811865476 * ghat[6];
    out_hi[8] += rd * -1.224744871391589 * ghat[1];
    out_hi[9] += rd * -1.224744871391589 * ghat[2];
    out_hi[10] += rd * -1.224744871391589 * ghat[3];
    out_hi[11] += rd * 0.7071067811865476 * ghat[7];
    out_hi[12] += rd * -1.224744871391589 * ghat[4];
    out_hi[13] += rd * -1.224744871391589 * ghat[5];
    out_hi[14] += rd * -1.224744871391589 * ghat[6];
    out_hi[15] += rd * -1.224744871391589 * ghat[7];
}

/// Batched companion of [`vlasov_surf_2x2v_p1_ser_x0`]: `LANES` faces per call, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x0_b4(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_2x2v_p1_ser_x0_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_x0_b4`] compiled for AVX2: the same body, bit-identical per lane.
/// Reach it through `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x0_b4_avx2(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_2x2v_p1_ser_x0_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared body of [`vlasov_surf_2x2v_p1_ser_x0_b4`] and its AVX2 entry point.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x2v_p1_ser_x0_b4_body(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    let rd = 2.0 / dxv[0];
    let mut alpha = [CellLanes([0.0f64; LANES]); 8];
    let mut lam = CellLanes([0.0f64; LANES]);
    let _ = (qm, em);
    for k in 0..LANES {
        alpha[0].0[k] = w[2].0[k] * 2.8284271247461903;
        alpha[2].0[k] += 0.5 * dxv[2] * 1.632993161855452;
        lam.0[k] = if penalty { w[2].0[k].abs() + 0.5 * dxv[2].abs() } else { 0.0 };
    }
    let mut fm = [CellLanes([0.0f64; LANES]); 8];
    let mut fp = [CellLanes([0.0f64; LANES]); 8];
    sx4(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sx4(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sx4(&mut fm[2], 0.7071067811865476, &f_lo[2]);
    sx4(&mut fm[3], 0.7071067811865476, &f_lo[3]);
    sx4(&mut fm[0], 1.224744871391589, &f_lo[4]);
    sx4(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sx4(&mut fm[5], 0.7071067811865476, &f_lo[6]);
    sx4(&mut fm[6], 0.7071067811865476, &f_lo[7]);
    sx4(&mut fm[1], 1.224744871391589, &f_lo[8]);
    sx4(&mut fm[2], 1.224744871391589, &f_lo[9]);
    sx4(&mut fm[3], 1.224744871391589, &f_lo[10]);
    sx4(&mut fm[7], 0.7071067811865476, &f_lo[11]);
    sx4(&mut fm[4], 1.224744871391589, &f_lo[12]);
    sx4(&mut fm[5], 1.224744871391589, &f_lo[13]);
    sx4(&mut fm[6], 1.224744871391589, &f_lo[14]);
    sx4(&mut fm[7], 1.224744871391589, &f_lo[15]);
    sx4(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sx4(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sx4(&mut fp[2], 0.7071067811865476, &f_hi[2]);
    sx4(&mut fp[3], 0.7071067811865476, &f_hi[3]);
    sx4(&mut fp[0], -1.224744871391589, &f_hi[4]);
    sx4(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sx4(&mut fp[5], 0.7071067811865476, &f_hi[6]);
    sx4(&mut fp[6], 0.7071067811865476, &f_hi[7]);
    sx4(&mut fp[1], -1.224744871391589, &f_hi[8]);
    sx4(&mut fp[2], -1.224744871391589, &f_hi[9]);
    sx4(&mut fp[3], -1.224744871391589, &f_hi[10]);
    sx4(&mut fp[7], 0.7071067811865476, &f_hi[11]);
    sx4(&mut fp[4], -1.224744871391589, &f_hi[12]);
    sx4(&mut fp[5], -1.224744871391589, &f_hi[13]);
    sx4(&mut fp[6], -1.224744871391589, &f_hi[14]);
    sx4(&mut fp[7], -1.224744871391589, &f_hi[15]);
    let mut favg = [CellLanes([0.0f64; LANES]); 8];
    let mut ghat = [CellLanes([0.0f64; LANES]); 8];
    for k in 0..LANES {
        favg[0].0[k] = 0.5 * (fm[0].0[k] + fp[0].0[k]);
        ghat[0].0[k] = -0.5 * lam.0[k] * (fp[0].0[k] - fm[0].0[k]);
        favg[1].0[k] = 0.5 * (fm[1].0[k] + fp[1].0[k]);
        ghat[1].0[k] = -0.5 * lam.0[k] * (fp[1].0[k] - fm[1].0[k]);
        favg[2].0[k] = 0.5 * (fm[2].0[k] + fp[2].0[k]);
        ghat[2].0[k] = -0.5 * lam.0[k] * (fp[2].0[k] - fm[2].0[k]);
        favg[3].0[k] = 0.5 * (fm[3].0[k] + fp[3].0[k]);
        ghat[3].0[k] = -0.5 * lam.0[k] * (fp[3].0[k] - fm[3].0[k]);
        favg[4].0[k] = 0.5 * (fm[4].0[k] + fp[4].0[k]);
        ghat[4].0[k] = -0.5 * lam.0[k] * (fp[4].0[k] - fm[4].0[k]);
        favg[5].0[k] = 0.5 * (fm[5].0[k] + fp[5].0[k]);
        ghat[5].0[k] = -0.5 * lam.0[k] * (fp[5].0[k] - fm[5].0[k]);
        favg[6].0[k] = 0.5 * (fm[6].0[k] + fp[6].0[k]);
        ghat[6].0[k] = -0.5 * lam.0[k] * (fp[6].0[k] - fm[6].0[k]);
        favg[7].0[k] = 0.5 * (fm[7].0[k] + fp[7].0[k]);
        ghat[7].0[k] = -0.5 * lam.0[k] * (fp[7].0[k] - fm[7].0[k]);
    }
    for k in 0..LANES {
        ghat[0].0[k] += 0.3535533905932738 * alpha[0].0[k] * favg[0].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[2].0[k];
    }
    for k in 0..LANES {
        ghat[1].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[1].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[4].0[k];
    }
    for k in 0..LANES {
        ghat[2].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[2].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[0].0[k];
    }
    for k in 0..LANES {
        ghat[3].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[3].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[6].0[k];
    }
    for k in 0..LANES {
        ghat[4].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[4].0[k];
        ghat[4].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[1].0[k];
    }
    for k in 0..LANES {
        ghat[5].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[5].0[k];
        ghat[5].0[k] += 0.3535533905932738 * alpha[2].0[k] * favg[7].0[k];
    }
    for k in 0..LANES {
        ghat[6].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[6].0[k];
        ghat[6].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[3].0[k];
    }
    for k in 0..LANES {
        ghat[7].0[k] += 0.3535533905932738 * alpha[0].0[k] * favg[7].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[2].0[k] * favg[5].0[k];
    }
    sx4(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_lo[4], -rd * 1.224744871391589, &ghat[0]);
    sx4(&mut out_lo[5], -rd * 0.7071067811865476, &ghat[4]);
    sx4(&mut out_lo[6], -rd * 0.7071067811865476, &ghat[5]);
    sx4(&mut out_lo[7], -rd * 0.7071067811865476, &ghat[6]);
    sx4(&mut out_lo[8], -rd * 1.224744871391589, &ghat[1]);
    sx4(&mut out_lo[9], -rd * 1.224744871391589, &ghat[2]);
    sx4(&mut out_lo[10], -rd * 1.224744871391589, &ghat[3]);
    sx4(&mut out_lo[11], -rd * 0.7071067811865476, &ghat[7]);
    sx4(&mut out_lo[12], -rd * 1.224744871391589, &ghat[4]);
    sx4(&mut out_lo[13], -rd * 1.224744871391589, &ghat[5]);
    sx4(&mut out_lo[14], -rd * 1.224744871391589, &ghat[6]);
    sx4(&mut out_lo[15], -rd * 1.224744871391589, &ghat[7]);
    sx4(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_hi[2], rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_hi[3], rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_hi[4], rd * -1.224744871391589, &ghat[0]);
    sx4(&mut out_hi[5], rd * 0.7071067811865476, &ghat[4]);
    sx4(&mut out_hi[6], rd * 0.7071067811865476, &ghat[5]);
    sx4(&mut out_hi[7], rd * 0.7071067811865476, &ghat[6]);
    sx4(&mut out_hi[8], rd * -1.224744871391589, &ghat[1]);
    sx4(&mut out_hi[9], rd * -1.224744871391589, &ghat[2]);
    sx4(&mut out_hi[10], rd * -1.224744871391589, &ghat[3]);
    sx4(&mut out_hi[11], rd * 0.7071067811865476, &ghat[7]);
    sx4(&mut out_hi[12], rd * -1.224744871391589, &ghat[4]);
    sx4(&mut out_hi[13], rd * -1.224744871391589, &ghat[5]);
    sx4(&mut out_hi[14], rd * -1.224744871391589, &ghat[6]);
    sx4(&mut out_hi[15], rd * -1.224744871391589, &ghat[7]);
}

/// Streaming surface kernel, faces normal to x1 (α̂ = v1).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x1(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    let rd = 2.0 / dxv[1];
    let mut alpha = [0.0f64; 8];
    let _ = (qm, em);
    alpha[0] = w[3] * 2.8284271247461903;
    alpha[1] += 0.5 * dxv[3] * 1.632993161855452;
    let lam = if penalty { w[3].abs() + 0.5 * dxv[3].abs() } else { 0.0 };
    let mut fm = [0.0f64; 8];
    let mut fp = [0.0f64; 8];
    fm[0] += 0.7071067811865476 * f_lo[0];
    fm[1] += 0.7071067811865476 * f_lo[1];
    fm[2] += 0.7071067811865476 * f_lo[2];
    fm[0] += 1.224744871391589 * f_lo[3];
    fm[3] += 0.7071067811865476 * f_lo[4];
    fm[4] += 0.7071067811865476 * f_lo[5];
    fm[1] += 1.224744871391589 * f_lo[6];
    fm[2] += 1.224744871391589 * f_lo[7];
    fm[5] += 0.7071067811865476 * f_lo[8];
    fm[6] += 0.7071067811865476 * f_lo[9];
    fm[3] += 1.224744871391589 * f_lo[10];
    fm[4] += 1.224744871391589 * f_lo[11];
    fm[7] += 0.7071067811865476 * f_lo[12];
    fm[5] += 1.224744871391589 * f_lo[13];
    fm[6] += 1.224744871391589 * f_lo[14];
    fm[7] += 1.224744871391589 * f_lo[15];
    fp[0] += 0.7071067811865476 * f_hi[0];
    fp[1] += 0.7071067811865476 * f_hi[1];
    fp[2] += 0.7071067811865476 * f_hi[2];
    fp[0] += -1.224744871391589 * f_hi[3];
    fp[3] += 0.7071067811865476 * f_hi[4];
    fp[4] += 0.7071067811865476 * f_hi[5];
    fp[1] += -1.224744871391589 * f_hi[6];
    fp[2] += -1.224744871391589 * f_hi[7];
    fp[5] += 0.7071067811865476 * f_hi[8];
    fp[6] += 0.7071067811865476 * f_hi[9];
    fp[3] += -1.224744871391589 * f_hi[10];
    fp[4] += -1.224744871391589 * f_hi[11];
    fp[7] += 0.7071067811865476 * f_hi[12];
    fp[5] += -1.224744871391589 * f_hi[13];
    fp[6] += -1.224744871391589 * f_hi[14];
    fp[7] += -1.224744871391589 * f_hi[15];
    let mut favg = [0.0f64; 8];
    let mut ghat = [0.0f64; 8];
    favg[0] = 0.5 * (fm[0] + fp[0]);
    ghat[0] = -0.5 * lam * (fp[0] - fm[0]);
    favg[1] = 0.5 * (fm[1] + fp[1]);
    ghat[1] = -0.5 * lam * (fp[1] - fm[1]);
    favg[2] = 0.5 * (fm[2] + fp[2]);
    ghat[2] = -0.5 * lam * (fp[2] - fm[2]);
    favg[3] = 0.5 * (fm[3] + fp[3]);
    ghat[3] = -0.5 * lam * (fp[3] - fm[3]);
    favg[4] = 0.5 * (fm[4] + fp[4]);
    ghat[4] = -0.5 * lam * (fp[4] - fm[4]);
    favg[5] = 0.5 * (fm[5] + fp[5]);
    ghat[5] = -0.5 * lam * (fp[5] - fm[5]);
    favg[6] = 0.5 * (fm[6] + fp[6]);
    ghat[6] = -0.5 * lam * (fp[6] - fm[6]);
    favg[7] = 0.5 * (fm[7] + fp[7]);
    ghat[7] = -0.5 * lam * (fp[7] - fm[7]);
    ghat[0] += 0.3535533905932738 * alpha[0] * favg[0];
    ghat[0] += 0.35355339059327373 * alpha[1] * favg[1];
    ghat[1] += 0.35355339059327373 * alpha[0] * favg[1];
    ghat[1] += 0.35355339059327373 * alpha[1] * favg[0];
    ghat[2] += 0.35355339059327373 * alpha[0] * favg[2];
    ghat[2] += 0.35355339059327373 * alpha[1] * favg[4];
    ghat[3] += 0.35355339059327373 * alpha[0] * favg[3];
    ghat[3] += 0.35355339059327373 * alpha[1] * favg[5];
    ghat[4] += 0.35355339059327373 * alpha[0] * favg[4];
    ghat[4] += 0.35355339059327373 * alpha[1] * favg[2];
    ghat[5] += 0.35355339059327373 * alpha[0] * favg[5];
    ghat[5] += 0.35355339059327373 * alpha[1] * favg[3];
    ghat[6] += 0.35355339059327373 * alpha[0] * favg[6];
    ghat[6] += 0.3535533905932738 * alpha[1] * favg[7];
    ghat[7] += 0.3535533905932738 * alpha[0] * favg[7];
    ghat[7] += 0.3535533905932738 * alpha[1] * favg[6];
    out_lo[0] += -rd * 0.7071067811865476 * ghat[0];
    out_lo[1] += -rd * 0.7071067811865476 * ghat[1];
    out_lo[2] += -rd * 0.7071067811865476 * ghat[2];
    out_lo[3] += -rd * 1.224744871391589 * ghat[0];
    out_lo[4] += -rd * 0.7071067811865476 * ghat[3];
    out_lo[5] += -rd * 0.7071067811865476 * ghat[4];
    out_lo[6] += -rd * 1.224744871391589 * ghat[1];
    out_lo[7] += -rd * 1.224744871391589 * ghat[2];
    out_lo[8] += -rd * 0.7071067811865476 * ghat[5];
    out_lo[9] += -rd * 0.7071067811865476 * ghat[6];
    out_lo[10] += -rd * 1.224744871391589 * ghat[3];
    out_lo[11] += -rd * 1.224744871391589 * ghat[4];
    out_lo[12] += -rd * 0.7071067811865476 * ghat[7];
    out_lo[13] += -rd * 1.224744871391589 * ghat[5];
    out_lo[14] += -rd * 1.224744871391589 * ghat[6];
    out_lo[15] += -rd * 1.224744871391589 * ghat[7];
    out_hi[0] += rd * 0.7071067811865476 * ghat[0];
    out_hi[1] += rd * 0.7071067811865476 * ghat[1];
    out_hi[2] += rd * 0.7071067811865476 * ghat[2];
    out_hi[3] += rd * -1.224744871391589 * ghat[0];
    out_hi[4] += rd * 0.7071067811865476 * ghat[3];
    out_hi[5] += rd * 0.7071067811865476 * ghat[4];
    out_hi[6] += rd * -1.224744871391589 * ghat[1];
    out_hi[7] += rd * -1.224744871391589 * ghat[2];
    out_hi[8] += rd * 0.7071067811865476 * ghat[5];
    out_hi[9] += rd * 0.7071067811865476 * ghat[6];
    out_hi[10] += rd * -1.224744871391589 * ghat[3];
    out_hi[11] += rd * -1.224744871391589 * ghat[4];
    out_hi[12] += rd * 0.7071067811865476 * ghat[7];
    out_hi[13] += rd * -1.224744871391589 * ghat[5];
    out_hi[14] += rd * -1.224744871391589 * ghat[6];
    out_hi[15] += rd * -1.224744871391589 * ghat[7];
}

/// Batched companion of [`vlasov_surf_2x2v_p1_ser_x1`]: `LANES` faces per call, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x1_b4(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_2x2v_p1_ser_x1_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_x1_b4`] compiled for AVX2: the same body, bit-identical per lane.
/// Reach it through `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_x1_b4_avx2(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_2x2v_p1_ser_x1_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared body of [`vlasov_surf_2x2v_p1_ser_x1_b4`] and its AVX2 entry point.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x2v_p1_ser_x1_b4_body(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    let rd = 2.0 / dxv[1];
    let mut alpha = [CellLanes([0.0f64; LANES]); 8];
    let mut lam = CellLanes([0.0f64; LANES]);
    let _ = (qm, em);
    for k in 0..LANES {
        alpha[0].0[k] = w[3].0[k] * 2.8284271247461903;
        alpha[1].0[k] += 0.5 * dxv[3] * 1.632993161855452;
        lam.0[k] = if penalty { w[3].0[k].abs() + 0.5 * dxv[3].abs() } else { 0.0 };
    }
    let mut fm = [CellLanes([0.0f64; LANES]); 8];
    let mut fp = [CellLanes([0.0f64; LANES]); 8];
    sx4(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sx4(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sx4(&mut fm[2], 0.7071067811865476, &f_lo[2]);
    sx4(&mut fm[0], 1.224744871391589, &f_lo[3]);
    sx4(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sx4(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sx4(&mut fm[1], 1.224744871391589, &f_lo[6]);
    sx4(&mut fm[2], 1.224744871391589, &f_lo[7]);
    sx4(&mut fm[5], 0.7071067811865476, &f_lo[8]);
    sx4(&mut fm[6], 0.7071067811865476, &f_lo[9]);
    sx4(&mut fm[3], 1.224744871391589, &f_lo[10]);
    sx4(&mut fm[4], 1.224744871391589, &f_lo[11]);
    sx4(&mut fm[7], 0.7071067811865476, &f_lo[12]);
    sx4(&mut fm[5], 1.224744871391589, &f_lo[13]);
    sx4(&mut fm[6], 1.224744871391589, &f_lo[14]);
    sx4(&mut fm[7], 1.224744871391589, &f_lo[15]);
    sx4(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sx4(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sx4(&mut fp[2], 0.7071067811865476, &f_hi[2]);
    sx4(&mut fp[0], -1.224744871391589, &f_hi[3]);
    sx4(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sx4(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sx4(&mut fp[1], -1.224744871391589, &f_hi[6]);
    sx4(&mut fp[2], -1.224744871391589, &f_hi[7]);
    sx4(&mut fp[5], 0.7071067811865476, &f_hi[8]);
    sx4(&mut fp[6], 0.7071067811865476, &f_hi[9]);
    sx4(&mut fp[3], -1.224744871391589, &f_hi[10]);
    sx4(&mut fp[4], -1.224744871391589, &f_hi[11]);
    sx4(&mut fp[7], 0.7071067811865476, &f_hi[12]);
    sx4(&mut fp[5], -1.224744871391589, &f_hi[13]);
    sx4(&mut fp[6], -1.224744871391589, &f_hi[14]);
    sx4(&mut fp[7], -1.224744871391589, &f_hi[15]);
    let mut favg = [CellLanes([0.0f64; LANES]); 8];
    let mut ghat = [CellLanes([0.0f64; LANES]); 8];
    for k in 0..LANES {
        favg[0].0[k] = 0.5 * (fm[0].0[k] + fp[0].0[k]);
        ghat[0].0[k] = -0.5 * lam.0[k] * (fp[0].0[k] - fm[0].0[k]);
        favg[1].0[k] = 0.5 * (fm[1].0[k] + fp[1].0[k]);
        ghat[1].0[k] = -0.5 * lam.0[k] * (fp[1].0[k] - fm[1].0[k]);
        favg[2].0[k] = 0.5 * (fm[2].0[k] + fp[2].0[k]);
        ghat[2].0[k] = -0.5 * lam.0[k] * (fp[2].0[k] - fm[2].0[k]);
        favg[3].0[k] = 0.5 * (fm[3].0[k] + fp[3].0[k]);
        ghat[3].0[k] = -0.5 * lam.0[k] * (fp[3].0[k] - fm[3].0[k]);
        favg[4].0[k] = 0.5 * (fm[4].0[k] + fp[4].0[k]);
        ghat[4].0[k] = -0.5 * lam.0[k] * (fp[4].0[k] - fm[4].0[k]);
        favg[5].0[k] = 0.5 * (fm[5].0[k] + fp[5].0[k]);
        ghat[5].0[k] = -0.5 * lam.0[k] * (fp[5].0[k] - fm[5].0[k]);
        favg[6].0[k] = 0.5 * (fm[6].0[k] + fp[6].0[k]);
        ghat[6].0[k] = -0.5 * lam.0[k] * (fp[6].0[k] - fm[6].0[k]);
        favg[7].0[k] = 0.5 * (fm[7].0[k] + fp[7].0[k]);
        ghat[7].0[k] = -0.5 * lam.0[k] * (fp[7].0[k] - fm[7].0[k]);
    }
    for k in 0..LANES {
        ghat[0].0[k] += 0.3535533905932738 * alpha[0].0[k] * favg[0].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[1].0[k];
    }
    for k in 0..LANES {
        ghat[1].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[1].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[0].0[k];
    }
    for k in 0..LANES {
        ghat[2].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[2].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[4].0[k];
    }
    for k in 0..LANES {
        ghat[3].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[3].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[5].0[k];
    }
    for k in 0..LANES {
        ghat[4].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[4].0[k];
        ghat[4].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[2].0[k];
    }
    for k in 0..LANES {
        ghat[5].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[5].0[k];
        ghat[5].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[3].0[k];
    }
    for k in 0..LANES {
        ghat[6].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[6].0[k];
        ghat[6].0[k] += 0.3535533905932738 * alpha[1].0[k] * favg[7].0[k];
    }
    for k in 0..LANES {
        ghat[7].0[k] += 0.3535533905932738 * alpha[0].0[k] * favg[7].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[1].0[k] * favg[6].0[k];
    }
    sx4(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_lo[3], -rd * 1.224744871391589, &ghat[0]);
    sx4(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_lo[5], -rd * 0.7071067811865476, &ghat[4]);
    sx4(&mut out_lo[6], -rd * 1.224744871391589, &ghat[1]);
    sx4(&mut out_lo[7], -rd * 1.224744871391589, &ghat[2]);
    sx4(&mut out_lo[8], -rd * 0.7071067811865476, &ghat[5]);
    sx4(&mut out_lo[9], -rd * 0.7071067811865476, &ghat[6]);
    sx4(&mut out_lo[10], -rd * 1.224744871391589, &ghat[3]);
    sx4(&mut out_lo[11], -rd * 1.224744871391589, &ghat[4]);
    sx4(&mut out_lo[12], -rd * 0.7071067811865476, &ghat[7]);
    sx4(&mut out_lo[13], -rd * 1.224744871391589, &ghat[5]);
    sx4(&mut out_lo[14], -rd * 1.224744871391589, &ghat[6]);
    sx4(&mut out_lo[15], -rd * 1.224744871391589, &ghat[7]);
    sx4(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_hi[2], rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_hi[3], rd * -1.224744871391589, &ghat[0]);
    sx4(&mut out_hi[4], rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_hi[5], rd * 0.7071067811865476, &ghat[4]);
    sx4(&mut out_hi[6], rd * -1.224744871391589, &ghat[1]);
    sx4(&mut out_hi[7], rd * -1.224744871391589, &ghat[2]);
    sx4(&mut out_hi[8], rd * 0.7071067811865476, &ghat[5]);
    sx4(&mut out_hi[9], rd * 0.7071067811865476, &ghat[6]);
    sx4(&mut out_hi[10], rd * -1.224744871391589, &ghat[3]);
    sx4(&mut out_hi[11], rd * -1.224744871391589, &ghat[4]);
    sx4(&mut out_hi[12], rd * 0.7071067811865476, &ghat[7]);
    sx4(&mut out_hi[13], rd * -1.224744871391589, &ghat[5]);
    sx4(&mut out_hi[14], rd * -1.224744871391589, &ghat[6]);
    sx4(&mut out_hi[15], rd * -1.224744871391589, &ghat[7]);
}

/// Acceleration surface kernel, faces normal to v0 (α̂ = q/m (E + v×B)_0).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v0(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    let rd = 2.0 / dxv[2];
    let mut alpha = [0.0f64; 8];
    alpha[0] += qm * 1.4142135623730951 * (em[0] + w[3] * em[20]);
    alpha[1] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[20];
    alpha[2] += qm * 1.4142135623730951 * (em[1] + w[3] * em[21]);
    alpha[4] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[21];
    alpha[3] += qm * 1.4142135623730951 * (em[2] + w[3] * em[22]);
    alpha[5] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[22];
    alpha[6] += qm * 1.4142135623730951 * (em[3] + w[3] * em[23]);
    alpha[7] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[23];
    let lam = if penalty { alpha[0].abs() * 0.35355339059327384 + alpha[1].abs() * 0.6123724356957946 + alpha[2].abs() * 0.6123724356957946 + alpha[3].abs() * 0.6123724356957946 + alpha[4].abs() * 1.0606601717798212 + alpha[5].abs() * 1.0606601717798212 + alpha[6].abs() * 1.0606601717798212 + alpha[7].abs() * 1.8371173070873832 } else { 0.0 };
    let mut fm = [0.0f64; 8];
    let mut fp = [0.0f64; 8];
    fm[0] += 0.7071067811865476 * f_lo[0];
    fm[1] += 0.7071067811865476 * f_lo[1];
    fm[0] += 1.224744871391589 * f_lo[2];
    fm[2] += 0.7071067811865476 * f_lo[3];
    fm[3] += 0.7071067811865476 * f_lo[4];
    fm[1] += 1.224744871391589 * f_lo[5];
    fm[4] += 0.7071067811865476 * f_lo[6];
    fm[2] += 1.224744871391589 * f_lo[7];
    fm[5] += 0.7071067811865476 * f_lo[8];
    fm[3] += 1.224744871391589 * f_lo[9];
    fm[6] += 0.7071067811865476 * f_lo[10];
    fm[4] += 1.224744871391589 * f_lo[11];
    fm[5] += 1.224744871391589 * f_lo[12];
    fm[7] += 0.7071067811865476 * f_lo[13];
    fm[6] += 1.224744871391589 * f_lo[14];
    fm[7] += 1.224744871391589 * f_lo[15];
    fp[0] += 0.7071067811865476 * f_hi[0];
    fp[1] += 0.7071067811865476 * f_hi[1];
    fp[0] += -1.224744871391589 * f_hi[2];
    fp[2] += 0.7071067811865476 * f_hi[3];
    fp[3] += 0.7071067811865476 * f_hi[4];
    fp[1] += -1.224744871391589 * f_hi[5];
    fp[4] += 0.7071067811865476 * f_hi[6];
    fp[2] += -1.224744871391589 * f_hi[7];
    fp[5] += 0.7071067811865476 * f_hi[8];
    fp[3] += -1.224744871391589 * f_hi[9];
    fp[6] += 0.7071067811865476 * f_hi[10];
    fp[4] += -1.224744871391589 * f_hi[11];
    fp[5] += -1.224744871391589 * f_hi[12];
    fp[7] += 0.7071067811865476 * f_hi[13];
    fp[6] += -1.224744871391589 * f_hi[14];
    fp[7] += -1.224744871391589 * f_hi[15];
    let mut favg = [0.0f64; 8];
    let mut ghat = [0.0f64; 8];
    favg[0] = 0.5 * (fm[0] + fp[0]);
    ghat[0] = -0.5 * lam * (fp[0] - fm[0]);
    favg[1] = 0.5 * (fm[1] + fp[1]);
    ghat[1] = -0.5 * lam * (fp[1] - fm[1]);
    favg[2] = 0.5 * (fm[2] + fp[2]);
    ghat[2] = -0.5 * lam * (fp[2] - fm[2]);
    favg[3] = 0.5 * (fm[3] + fp[3]);
    ghat[3] = -0.5 * lam * (fp[3] - fm[3]);
    favg[4] = 0.5 * (fm[4] + fp[4]);
    ghat[4] = -0.5 * lam * (fp[4] - fm[4]);
    favg[5] = 0.5 * (fm[5] + fp[5]);
    ghat[5] = -0.5 * lam * (fp[5] - fm[5]);
    favg[6] = 0.5 * (fm[6] + fp[6]);
    ghat[6] = -0.5 * lam * (fp[6] - fm[6]);
    favg[7] = 0.5 * (fm[7] + fp[7]);
    ghat[7] = -0.5 * lam * (fp[7] - fm[7]);
    ghat[0] += 0.3535533905932738 * alpha[0] * favg[0];
    ghat[0] += 0.35355339059327373 * alpha[1] * favg[1];
    ghat[0] += 0.35355339059327373 * alpha[2] * favg[2];
    ghat[0] += 0.35355339059327373 * alpha[3] * favg[3];
    ghat[0] += 0.35355339059327373 * alpha[4] * favg[4];
    ghat[0] += 0.35355339059327373 * alpha[5] * favg[5];
    ghat[0] += 0.35355339059327373 * alpha[6] * favg[6];
    ghat[0] += 0.3535533905932738 * alpha[7] * favg[7];
    ghat[1] += 0.35355339059327373 * alpha[0] * favg[1];
    ghat[1] += 0.35355339059327373 * alpha[1] * favg[0];
    ghat[1] += 0.35355339059327373 * alpha[2] * favg[4];
    ghat[1] += 0.35355339059327373 * alpha[3] * favg[5];
    ghat[1] += 0.35355339059327373 * alpha[4] * favg[2];
    ghat[1] += 0.35355339059327373 * alpha[5] * favg[3];
    ghat[1] += 0.3535533905932738 * alpha[6] * favg[7];
    ghat[1] += 0.3535533905932738 * alpha[7] * favg[6];
    ghat[2] += 0.35355339059327373 * alpha[0] * favg[2];
    ghat[2] += 0.35355339059327373 * alpha[1] * favg[4];
    ghat[2] += 0.35355339059327373 * alpha[2] * favg[0];
    ghat[2] += 0.35355339059327373 * alpha[3] * favg[6];
    ghat[2] += 0.35355339059327373 * alpha[4] * favg[1];
    ghat[2] += 0.3535533905932738 * alpha[5] * favg[7];
    ghat[2] += 0.35355339059327373 * alpha[6] * favg[3];
    ghat[2] += 0.3535533905932738 * alpha[7] * favg[5];
    ghat[3] += 0.35355339059327373 * alpha[0] * favg[3];
    ghat[3] += 0.35355339059327373 * alpha[1] * favg[5];
    ghat[3] += 0.35355339059327373 * alpha[2] * favg[6];
    ghat[3] += 0.35355339059327373 * alpha[3] * favg[0];
    ghat[3] += 0.3535533905932738 * alpha[4] * favg[7];
    ghat[3] += 0.35355339059327373 * alpha[5] * favg[1];
    ghat[3] += 0.35355339059327373 * alpha[6] * favg[2];
    ghat[3] += 0.3535533905932738 * alpha[7] * favg[4];
    ghat[4] += 0.35355339059327373 * alpha[0] * favg[4];
    ghat[4] += 0.35355339059327373 * alpha[1] * favg[2];
    ghat[4] += 0.35355339059327373 * alpha[2] * favg[1];
    ghat[4] += 0.3535533905932738 * alpha[3] * favg[7];
    ghat[4] += 0.35355339059327373 * alpha[4] * favg[0];
    ghat[4] += 0.3535533905932738 * alpha[5] * favg[6];
    ghat[4] += 0.3535533905932738 * alpha[6] * favg[5];
    ghat[4] += 0.3535533905932738 * alpha[7] * favg[3];
    ghat[5] += 0.35355339059327373 * alpha[0] * favg[5];
    ghat[5] += 0.35355339059327373 * alpha[1] * favg[3];
    ghat[5] += 0.3535533905932738 * alpha[2] * favg[7];
    ghat[5] += 0.35355339059327373 * alpha[3] * favg[1];
    ghat[5] += 0.3535533905932738 * alpha[4] * favg[6];
    ghat[5] += 0.35355339059327373 * alpha[5] * favg[0];
    ghat[5] += 0.3535533905932738 * alpha[6] * favg[4];
    ghat[5] += 0.3535533905932738 * alpha[7] * favg[2];
    ghat[6] += 0.35355339059327373 * alpha[0] * favg[6];
    ghat[6] += 0.3535533905932738 * alpha[1] * favg[7];
    ghat[6] += 0.35355339059327373 * alpha[2] * favg[3];
    ghat[6] += 0.35355339059327373 * alpha[3] * favg[2];
    ghat[6] += 0.3535533905932738 * alpha[4] * favg[5];
    ghat[6] += 0.3535533905932738 * alpha[5] * favg[4];
    ghat[6] += 0.35355339059327373 * alpha[6] * favg[0];
    ghat[6] += 0.3535533905932738 * alpha[7] * favg[1];
    ghat[7] += 0.3535533905932738 * alpha[0] * favg[7];
    ghat[7] += 0.3535533905932738 * alpha[1] * favg[6];
    ghat[7] += 0.3535533905932738 * alpha[2] * favg[5];
    ghat[7] += 0.3535533905932738 * alpha[3] * favg[4];
    ghat[7] += 0.3535533905932738 * alpha[4] * favg[3];
    ghat[7] += 0.3535533905932738 * alpha[5] * favg[2];
    ghat[7] += 0.3535533905932738 * alpha[6] * favg[1];
    ghat[7] += 0.3535533905932738 * alpha[7] * favg[0];
    out_lo[0] += -rd * 0.7071067811865476 * ghat[0];
    out_lo[1] += -rd * 0.7071067811865476 * ghat[1];
    out_lo[2] += -rd * 1.224744871391589 * ghat[0];
    out_lo[3] += -rd * 0.7071067811865476 * ghat[2];
    out_lo[4] += -rd * 0.7071067811865476 * ghat[3];
    out_lo[5] += -rd * 1.224744871391589 * ghat[1];
    out_lo[6] += -rd * 0.7071067811865476 * ghat[4];
    out_lo[7] += -rd * 1.224744871391589 * ghat[2];
    out_lo[8] += -rd * 0.7071067811865476 * ghat[5];
    out_lo[9] += -rd * 1.224744871391589 * ghat[3];
    out_lo[10] += -rd * 0.7071067811865476 * ghat[6];
    out_lo[11] += -rd * 1.224744871391589 * ghat[4];
    out_lo[12] += -rd * 1.224744871391589 * ghat[5];
    out_lo[13] += -rd * 0.7071067811865476 * ghat[7];
    out_lo[14] += -rd * 1.224744871391589 * ghat[6];
    out_lo[15] += -rd * 1.224744871391589 * ghat[7];
    out_hi[0] += rd * 0.7071067811865476 * ghat[0];
    out_hi[1] += rd * 0.7071067811865476 * ghat[1];
    out_hi[2] += rd * -1.224744871391589 * ghat[0];
    out_hi[3] += rd * 0.7071067811865476 * ghat[2];
    out_hi[4] += rd * 0.7071067811865476 * ghat[3];
    out_hi[5] += rd * -1.224744871391589 * ghat[1];
    out_hi[6] += rd * 0.7071067811865476 * ghat[4];
    out_hi[7] += rd * -1.224744871391589 * ghat[2];
    out_hi[8] += rd * 0.7071067811865476 * ghat[5];
    out_hi[9] += rd * -1.224744871391589 * ghat[3];
    out_hi[10] += rd * 0.7071067811865476 * ghat[6];
    out_hi[11] += rd * -1.224744871391589 * ghat[4];
    out_hi[12] += rd * -1.224744871391589 * ghat[5];
    out_hi[13] += rd * 0.7071067811865476 * ghat[7];
    out_hi[14] += rd * -1.224744871391589 * ghat[6];
    out_hi[15] += rd * -1.224744871391589 * ghat[7];
}

/// Batched companion of [`vlasov_surf_2x2v_p1_ser_v0`]: `LANES` faces per call, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v0_b4(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_2x2v_p1_ser_v0_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_v0_b4`] compiled for AVX2: the same body, bit-identical per lane.
/// Reach it through `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v0_b4_avx2(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_2x2v_p1_ser_v0_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared body of [`vlasov_surf_2x2v_p1_ser_v0_b4`] and its AVX2 entry point.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x2v_p1_ser_v0_b4_body(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    let rd = 2.0 / dxv[2];
    let mut alpha = [CellLanes([0.0f64; LANES]); 8];
    let mut lam = CellLanes([0.0f64; LANES]);
    for k in 0..LANES {
        alpha[0].0[k] += qm * 1.4142135623730951 * (em[0] + w[3].0[k] * em[20]);
        alpha[1].0[k] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[20];
        alpha[2].0[k] += qm * 1.4142135623730951 * (em[1] + w[3].0[k] * em[21]);
        alpha[4].0[k] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[21];
        alpha[3].0[k] += qm * 1.4142135623730951 * (em[2] + w[3].0[k] * em[22]);
        alpha[5].0[k] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[22];
        alpha[6].0[k] += qm * 1.4142135623730951 * (em[3] + w[3].0[k] * em[23]);
        alpha[7].0[k] += qm * 0.816496580927726 * (0.5 * dxv[3]) * em[23];
        lam.0[k] = if penalty { alpha[0].0[k].abs() * 0.35355339059327384 + alpha[1].0[k].abs() * 0.6123724356957946 + alpha[2].0[k].abs() * 0.6123724356957946 + alpha[3].0[k].abs() * 0.6123724356957946 + alpha[4].0[k].abs() * 1.0606601717798212 + alpha[5].0[k].abs() * 1.0606601717798212 + alpha[6].0[k].abs() * 1.0606601717798212 + alpha[7].0[k].abs() * 1.8371173070873832 } else { 0.0 };
    }
    let mut fm = [CellLanes([0.0f64; LANES]); 8];
    let mut fp = [CellLanes([0.0f64; LANES]); 8];
    sx4(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sx4(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sx4(&mut fm[0], 1.224744871391589, &f_lo[2]);
    sx4(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sx4(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sx4(&mut fm[1], 1.224744871391589, &f_lo[5]);
    sx4(&mut fm[4], 0.7071067811865476, &f_lo[6]);
    sx4(&mut fm[2], 1.224744871391589, &f_lo[7]);
    sx4(&mut fm[5], 0.7071067811865476, &f_lo[8]);
    sx4(&mut fm[3], 1.224744871391589, &f_lo[9]);
    sx4(&mut fm[6], 0.7071067811865476, &f_lo[10]);
    sx4(&mut fm[4], 1.224744871391589, &f_lo[11]);
    sx4(&mut fm[5], 1.224744871391589, &f_lo[12]);
    sx4(&mut fm[7], 0.7071067811865476, &f_lo[13]);
    sx4(&mut fm[6], 1.224744871391589, &f_lo[14]);
    sx4(&mut fm[7], 1.224744871391589, &f_lo[15]);
    sx4(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sx4(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sx4(&mut fp[0], -1.224744871391589, &f_hi[2]);
    sx4(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sx4(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sx4(&mut fp[1], -1.224744871391589, &f_hi[5]);
    sx4(&mut fp[4], 0.7071067811865476, &f_hi[6]);
    sx4(&mut fp[2], -1.224744871391589, &f_hi[7]);
    sx4(&mut fp[5], 0.7071067811865476, &f_hi[8]);
    sx4(&mut fp[3], -1.224744871391589, &f_hi[9]);
    sx4(&mut fp[6], 0.7071067811865476, &f_hi[10]);
    sx4(&mut fp[4], -1.224744871391589, &f_hi[11]);
    sx4(&mut fp[5], -1.224744871391589, &f_hi[12]);
    sx4(&mut fp[7], 0.7071067811865476, &f_hi[13]);
    sx4(&mut fp[6], -1.224744871391589, &f_hi[14]);
    sx4(&mut fp[7], -1.224744871391589, &f_hi[15]);
    let mut favg = [CellLanes([0.0f64; LANES]); 8];
    let mut ghat = [CellLanes([0.0f64; LANES]); 8];
    for k in 0..LANES {
        favg[0].0[k] = 0.5 * (fm[0].0[k] + fp[0].0[k]);
        ghat[0].0[k] = -0.5 * lam.0[k] * (fp[0].0[k] - fm[0].0[k]);
        favg[1].0[k] = 0.5 * (fm[1].0[k] + fp[1].0[k]);
        ghat[1].0[k] = -0.5 * lam.0[k] * (fp[1].0[k] - fm[1].0[k]);
        favg[2].0[k] = 0.5 * (fm[2].0[k] + fp[2].0[k]);
        ghat[2].0[k] = -0.5 * lam.0[k] * (fp[2].0[k] - fm[2].0[k]);
        favg[3].0[k] = 0.5 * (fm[3].0[k] + fp[3].0[k]);
        ghat[3].0[k] = -0.5 * lam.0[k] * (fp[3].0[k] - fm[3].0[k]);
        favg[4].0[k] = 0.5 * (fm[4].0[k] + fp[4].0[k]);
        ghat[4].0[k] = -0.5 * lam.0[k] * (fp[4].0[k] - fm[4].0[k]);
        favg[5].0[k] = 0.5 * (fm[5].0[k] + fp[5].0[k]);
        ghat[5].0[k] = -0.5 * lam.0[k] * (fp[5].0[k] - fm[5].0[k]);
        favg[6].0[k] = 0.5 * (fm[6].0[k] + fp[6].0[k]);
        ghat[6].0[k] = -0.5 * lam.0[k] * (fp[6].0[k] - fm[6].0[k]);
        favg[7].0[k] = 0.5 * (fm[7].0[k] + fp[7].0[k]);
        ghat[7].0[k] = -0.5 * lam.0[k] * (fp[7].0[k] - fm[7].0[k]);
    }
    for k in 0..LANES {
        ghat[0].0[k] += 0.3535533905932738 * alpha[0].0[k] * favg[0].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[1].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[2].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[3].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[4].0[k] * favg[4].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[5].0[k] * favg[5].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[6].0[k] * favg[6].0[k];
        ghat[0].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[7].0[k];
    }
    for k in 0..LANES {
        ghat[1].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[1].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[0].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[4].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[5].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[4].0[k] * favg[2].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[5].0[k] * favg[3].0[k];
        ghat[1].0[k] += 0.3535533905932738 * alpha[6].0[k] * favg[7].0[k];
        ghat[1].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[6].0[k];
    }
    for k in 0..LANES {
        ghat[2].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[2].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[4].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[0].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[6].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[4].0[k] * favg[1].0[k];
        ghat[2].0[k] += 0.3535533905932738 * alpha[5].0[k] * favg[7].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[6].0[k] * favg[3].0[k];
        ghat[2].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[5].0[k];
    }
    for k in 0..LANES {
        ghat[3].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[3].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[5].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[6].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[0].0[k];
        ghat[3].0[k] += 0.3535533905932738 * alpha[4].0[k] * favg[7].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[5].0[k] * favg[1].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[6].0[k] * favg[2].0[k];
        ghat[3].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[4].0[k];
    }
    for k in 0..LANES {
        ghat[4].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[4].0[k];
        ghat[4].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[2].0[k];
        ghat[4].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[1].0[k];
        ghat[4].0[k] += 0.3535533905932738 * alpha[3].0[k] * favg[7].0[k];
        ghat[4].0[k] += 0.35355339059327373 * alpha[4].0[k] * favg[0].0[k];
        ghat[4].0[k] += 0.3535533905932738 * alpha[5].0[k] * favg[6].0[k];
        ghat[4].0[k] += 0.3535533905932738 * alpha[6].0[k] * favg[5].0[k];
        ghat[4].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[3].0[k];
    }
    for k in 0..LANES {
        ghat[5].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[5].0[k];
        ghat[5].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[3].0[k];
        ghat[5].0[k] += 0.3535533905932738 * alpha[2].0[k] * favg[7].0[k];
        ghat[5].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[1].0[k];
        ghat[5].0[k] += 0.3535533905932738 * alpha[4].0[k] * favg[6].0[k];
        ghat[5].0[k] += 0.35355339059327373 * alpha[5].0[k] * favg[0].0[k];
        ghat[5].0[k] += 0.3535533905932738 * alpha[6].0[k] * favg[4].0[k];
        ghat[5].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[2].0[k];
    }
    for k in 0..LANES {
        ghat[6].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[6].0[k];
        ghat[6].0[k] += 0.3535533905932738 * alpha[1].0[k] * favg[7].0[k];
        ghat[6].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[3].0[k];
        ghat[6].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[2].0[k];
        ghat[6].0[k] += 0.3535533905932738 * alpha[4].0[k] * favg[5].0[k];
        ghat[6].0[k] += 0.3535533905932738 * alpha[5].0[k] * favg[4].0[k];
        ghat[6].0[k] += 0.35355339059327373 * alpha[6].0[k] * favg[0].0[k];
        ghat[6].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[1].0[k];
    }
    for k in 0..LANES {
        ghat[7].0[k] += 0.3535533905932738 * alpha[0].0[k] * favg[7].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[1].0[k] * favg[6].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[2].0[k] * favg[5].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[3].0[k] * favg[4].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[4].0[k] * favg[3].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[5].0[k] * favg[2].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[6].0[k] * favg[1].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[0].0[k];
    }
    sx4(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_lo[1], -rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_lo[2], -rd * 1.224744871391589, &ghat[0]);
    sx4(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_lo[5], -rd * 1.224744871391589, &ghat[1]);
    sx4(&mut out_lo[6], -rd * 0.7071067811865476, &ghat[4]);
    sx4(&mut out_lo[7], -rd * 1.224744871391589, &ghat[2]);
    sx4(&mut out_lo[8], -rd * 0.7071067811865476, &ghat[5]);
    sx4(&mut out_lo[9], -rd * 1.224744871391589, &ghat[3]);
    sx4(&mut out_lo[10], -rd * 0.7071067811865476, &ghat[6]);
    sx4(&mut out_lo[11], -rd * 1.224744871391589, &ghat[4]);
    sx4(&mut out_lo[12], -rd * 1.224744871391589, &ghat[5]);
    sx4(&mut out_lo[13], -rd * 0.7071067811865476, &ghat[7]);
    sx4(&mut out_lo[14], -rd * 1.224744871391589, &ghat[6]);
    sx4(&mut out_lo[15], -rd * 1.224744871391589, &ghat[7]);
    sx4(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_hi[1], rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_hi[2], rd * -1.224744871391589, &ghat[0]);
    sx4(&mut out_hi[3], rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_hi[4], rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_hi[5], rd * -1.224744871391589, &ghat[1]);
    sx4(&mut out_hi[6], rd * 0.7071067811865476, &ghat[4]);
    sx4(&mut out_hi[7], rd * -1.224744871391589, &ghat[2]);
    sx4(&mut out_hi[8], rd * 0.7071067811865476, &ghat[5]);
    sx4(&mut out_hi[9], rd * -1.224744871391589, &ghat[3]);
    sx4(&mut out_hi[10], rd * 0.7071067811865476, &ghat[6]);
    sx4(&mut out_hi[11], rd * -1.224744871391589, &ghat[4]);
    sx4(&mut out_hi[12], rd * -1.224744871391589, &ghat[5]);
    sx4(&mut out_hi[13], rd * 0.7071067811865476, &ghat[7]);
    sx4(&mut out_hi[14], rd * -1.224744871391589, &ghat[6]);
    sx4(&mut out_hi[15], rd * -1.224744871391589, &ghat[7]);
}

/// Acceleration surface kernel, faces normal to v1 (α̂ = q/m (E + v×B)_1).
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v1(w: &[f64], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    let rd = 2.0 / dxv[3];
    let mut alpha = [0.0f64; 8];
    alpha[0] += qm * 1.4142135623730951 * (em[4] - w[2] * em[20]);
    alpha[1] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[20];
    alpha[2] += qm * 1.4142135623730951 * (em[5] - w[2] * em[21]);
    alpha[4] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[21];
    alpha[3] += qm * 1.4142135623730951 * (em[6] - w[2] * em[22]);
    alpha[5] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[22];
    alpha[6] += qm * 1.4142135623730951 * (em[7] - w[2] * em[23]);
    alpha[7] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[23];
    let lam = if penalty { alpha[0].abs() * 0.35355339059327384 + alpha[1].abs() * 0.6123724356957946 + alpha[2].abs() * 0.6123724356957946 + alpha[3].abs() * 0.6123724356957946 + alpha[4].abs() * 1.0606601717798212 + alpha[5].abs() * 1.0606601717798212 + alpha[6].abs() * 1.0606601717798212 + alpha[7].abs() * 1.8371173070873832 } else { 0.0 };
    let mut fm = [0.0f64; 8];
    let mut fp = [0.0f64; 8];
    fm[0] += 0.7071067811865476 * f_lo[0];
    fm[0] += 1.224744871391589 * f_lo[1];
    fm[1] += 0.7071067811865476 * f_lo[2];
    fm[2] += 0.7071067811865476 * f_lo[3];
    fm[3] += 0.7071067811865476 * f_lo[4];
    fm[1] += 1.224744871391589 * f_lo[5];
    fm[2] += 1.224744871391589 * f_lo[6];
    fm[4] += 0.7071067811865476 * f_lo[7];
    fm[3] += 1.224744871391589 * f_lo[8];
    fm[5] += 0.7071067811865476 * f_lo[9];
    fm[6] += 0.7071067811865476 * f_lo[10];
    fm[4] += 1.224744871391589 * f_lo[11];
    fm[5] += 1.224744871391589 * f_lo[12];
    fm[6] += 1.224744871391589 * f_lo[13];
    fm[7] += 0.7071067811865476 * f_lo[14];
    fm[7] += 1.224744871391589 * f_lo[15];
    fp[0] += 0.7071067811865476 * f_hi[0];
    fp[0] += -1.224744871391589 * f_hi[1];
    fp[1] += 0.7071067811865476 * f_hi[2];
    fp[2] += 0.7071067811865476 * f_hi[3];
    fp[3] += 0.7071067811865476 * f_hi[4];
    fp[1] += -1.224744871391589 * f_hi[5];
    fp[2] += -1.224744871391589 * f_hi[6];
    fp[4] += 0.7071067811865476 * f_hi[7];
    fp[3] += -1.224744871391589 * f_hi[8];
    fp[5] += 0.7071067811865476 * f_hi[9];
    fp[6] += 0.7071067811865476 * f_hi[10];
    fp[4] += -1.224744871391589 * f_hi[11];
    fp[5] += -1.224744871391589 * f_hi[12];
    fp[6] += -1.224744871391589 * f_hi[13];
    fp[7] += 0.7071067811865476 * f_hi[14];
    fp[7] += -1.224744871391589 * f_hi[15];
    let mut favg = [0.0f64; 8];
    let mut ghat = [0.0f64; 8];
    favg[0] = 0.5 * (fm[0] + fp[0]);
    ghat[0] = -0.5 * lam * (fp[0] - fm[0]);
    favg[1] = 0.5 * (fm[1] + fp[1]);
    ghat[1] = -0.5 * lam * (fp[1] - fm[1]);
    favg[2] = 0.5 * (fm[2] + fp[2]);
    ghat[2] = -0.5 * lam * (fp[2] - fm[2]);
    favg[3] = 0.5 * (fm[3] + fp[3]);
    ghat[3] = -0.5 * lam * (fp[3] - fm[3]);
    favg[4] = 0.5 * (fm[4] + fp[4]);
    ghat[4] = -0.5 * lam * (fp[4] - fm[4]);
    favg[5] = 0.5 * (fm[5] + fp[5]);
    ghat[5] = -0.5 * lam * (fp[5] - fm[5]);
    favg[6] = 0.5 * (fm[6] + fp[6]);
    ghat[6] = -0.5 * lam * (fp[6] - fm[6]);
    favg[7] = 0.5 * (fm[7] + fp[7]);
    ghat[7] = -0.5 * lam * (fp[7] - fm[7]);
    ghat[0] += 0.3535533905932738 * alpha[0] * favg[0];
    ghat[0] += 0.35355339059327373 * alpha[1] * favg[1];
    ghat[0] += 0.35355339059327373 * alpha[2] * favg[2];
    ghat[0] += 0.35355339059327373 * alpha[3] * favg[3];
    ghat[0] += 0.35355339059327373 * alpha[4] * favg[4];
    ghat[0] += 0.35355339059327373 * alpha[5] * favg[5];
    ghat[0] += 0.35355339059327373 * alpha[6] * favg[6];
    ghat[0] += 0.3535533905932738 * alpha[7] * favg[7];
    ghat[1] += 0.35355339059327373 * alpha[0] * favg[1];
    ghat[1] += 0.35355339059327373 * alpha[1] * favg[0];
    ghat[1] += 0.35355339059327373 * alpha[2] * favg[4];
    ghat[1] += 0.35355339059327373 * alpha[3] * favg[5];
    ghat[1] += 0.35355339059327373 * alpha[4] * favg[2];
    ghat[1] += 0.35355339059327373 * alpha[5] * favg[3];
    ghat[1] += 0.3535533905932738 * alpha[6] * favg[7];
    ghat[1] += 0.3535533905932738 * alpha[7] * favg[6];
    ghat[2] += 0.35355339059327373 * alpha[0] * favg[2];
    ghat[2] += 0.35355339059327373 * alpha[1] * favg[4];
    ghat[2] += 0.35355339059327373 * alpha[2] * favg[0];
    ghat[2] += 0.35355339059327373 * alpha[3] * favg[6];
    ghat[2] += 0.35355339059327373 * alpha[4] * favg[1];
    ghat[2] += 0.3535533905932738 * alpha[5] * favg[7];
    ghat[2] += 0.35355339059327373 * alpha[6] * favg[3];
    ghat[2] += 0.3535533905932738 * alpha[7] * favg[5];
    ghat[3] += 0.35355339059327373 * alpha[0] * favg[3];
    ghat[3] += 0.35355339059327373 * alpha[1] * favg[5];
    ghat[3] += 0.35355339059327373 * alpha[2] * favg[6];
    ghat[3] += 0.35355339059327373 * alpha[3] * favg[0];
    ghat[3] += 0.3535533905932738 * alpha[4] * favg[7];
    ghat[3] += 0.35355339059327373 * alpha[5] * favg[1];
    ghat[3] += 0.35355339059327373 * alpha[6] * favg[2];
    ghat[3] += 0.3535533905932738 * alpha[7] * favg[4];
    ghat[4] += 0.35355339059327373 * alpha[0] * favg[4];
    ghat[4] += 0.35355339059327373 * alpha[1] * favg[2];
    ghat[4] += 0.35355339059327373 * alpha[2] * favg[1];
    ghat[4] += 0.3535533905932738 * alpha[3] * favg[7];
    ghat[4] += 0.35355339059327373 * alpha[4] * favg[0];
    ghat[4] += 0.3535533905932738 * alpha[5] * favg[6];
    ghat[4] += 0.3535533905932738 * alpha[6] * favg[5];
    ghat[4] += 0.3535533905932738 * alpha[7] * favg[3];
    ghat[5] += 0.35355339059327373 * alpha[0] * favg[5];
    ghat[5] += 0.35355339059327373 * alpha[1] * favg[3];
    ghat[5] += 0.3535533905932738 * alpha[2] * favg[7];
    ghat[5] += 0.35355339059327373 * alpha[3] * favg[1];
    ghat[5] += 0.3535533905932738 * alpha[4] * favg[6];
    ghat[5] += 0.35355339059327373 * alpha[5] * favg[0];
    ghat[5] += 0.3535533905932738 * alpha[6] * favg[4];
    ghat[5] += 0.3535533905932738 * alpha[7] * favg[2];
    ghat[6] += 0.35355339059327373 * alpha[0] * favg[6];
    ghat[6] += 0.3535533905932738 * alpha[1] * favg[7];
    ghat[6] += 0.35355339059327373 * alpha[2] * favg[3];
    ghat[6] += 0.35355339059327373 * alpha[3] * favg[2];
    ghat[6] += 0.3535533905932738 * alpha[4] * favg[5];
    ghat[6] += 0.3535533905932738 * alpha[5] * favg[4];
    ghat[6] += 0.35355339059327373 * alpha[6] * favg[0];
    ghat[6] += 0.3535533905932738 * alpha[7] * favg[1];
    ghat[7] += 0.3535533905932738 * alpha[0] * favg[7];
    ghat[7] += 0.3535533905932738 * alpha[1] * favg[6];
    ghat[7] += 0.3535533905932738 * alpha[2] * favg[5];
    ghat[7] += 0.3535533905932738 * alpha[3] * favg[4];
    ghat[7] += 0.3535533905932738 * alpha[4] * favg[3];
    ghat[7] += 0.3535533905932738 * alpha[5] * favg[2];
    ghat[7] += 0.3535533905932738 * alpha[6] * favg[1];
    ghat[7] += 0.3535533905932738 * alpha[7] * favg[0];
    out_lo[0] += -rd * 0.7071067811865476 * ghat[0];
    out_lo[1] += -rd * 1.224744871391589 * ghat[0];
    out_lo[2] += -rd * 0.7071067811865476 * ghat[1];
    out_lo[3] += -rd * 0.7071067811865476 * ghat[2];
    out_lo[4] += -rd * 0.7071067811865476 * ghat[3];
    out_lo[5] += -rd * 1.224744871391589 * ghat[1];
    out_lo[6] += -rd * 1.224744871391589 * ghat[2];
    out_lo[7] += -rd * 0.7071067811865476 * ghat[4];
    out_lo[8] += -rd * 1.224744871391589 * ghat[3];
    out_lo[9] += -rd * 0.7071067811865476 * ghat[5];
    out_lo[10] += -rd * 0.7071067811865476 * ghat[6];
    out_lo[11] += -rd * 1.224744871391589 * ghat[4];
    out_lo[12] += -rd * 1.224744871391589 * ghat[5];
    out_lo[13] += -rd * 1.224744871391589 * ghat[6];
    out_lo[14] += -rd * 0.7071067811865476 * ghat[7];
    out_lo[15] += -rd * 1.224744871391589 * ghat[7];
    out_hi[0] += rd * 0.7071067811865476 * ghat[0];
    out_hi[1] += rd * -1.224744871391589 * ghat[0];
    out_hi[2] += rd * 0.7071067811865476 * ghat[1];
    out_hi[3] += rd * 0.7071067811865476 * ghat[2];
    out_hi[4] += rd * 0.7071067811865476 * ghat[3];
    out_hi[5] += rd * -1.224744871391589 * ghat[1];
    out_hi[6] += rd * -1.224744871391589 * ghat[2];
    out_hi[7] += rd * 0.7071067811865476 * ghat[4];
    out_hi[8] += rd * -1.224744871391589 * ghat[3];
    out_hi[9] += rd * 0.7071067811865476 * ghat[5];
    out_hi[10] += rd * 0.7071067811865476 * ghat[6];
    out_hi[11] += rd * -1.224744871391589 * ghat[4];
    out_hi[12] += rd * -1.224744871391589 * ghat[5];
    out_hi[13] += rd * -1.224744871391589 * ghat[6];
    out_hi[14] += rd * 0.7071067811865476 * ghat[7];
    out_hi[15] += rd * -1.224744871391589 * ghat[7];
}

/// Batched companion of [`vlasov_surf_2x2v_p1_ser_v1`]: `LANES` faces per call, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v1_b4(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_2x2v_p1_ser_v1_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// [`vlasov_surf_2x2v_p1_ser_v1_b4`] compiled for AVX2: the same body, bit-identical per lane.
/// Reach it through `crate::dispatch`, which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn vlasov_surf_2x2v_p1_ser_v1_b4_avx2(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    vlasov_surf_2x2v_p1_ser_v1_b4_body(w, dxv, qm, em, penalty, f_lo, f_hi, out_lo, out_hi)
}

/// Shared body of [`vlasov_surf_2x2v_p1_ser_v1_b4`] and its AVX2 entry point.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn vlasov_surf_2x2v_p1_ser_v1_b4_body(w: &[CellLanes], dxv: &[f64], qm: f64, em: &[f64], penalty: bool, f_lo: &[CellLanes], f_hi: &[CellLanes], out_lo: &mut [CellLanes], out_hi: &mut [CellLanes]) {
    let rd = 2.0 / dxv[3];
    let mut alpha = [CellLanes([0.0f64; LANES]); 8];
    let mut lam = CellLanes([0.0f64; LANES]);
    for k in 0..LANES {
        alpha[0].0[k] += qm * 1.4142135623730951 * (em[4] - w[2].0[k] * em[20]);
        alpha[1].0[k] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[20];
        alpha[2].0[k] += qm * 1.4142135623730951 * (em[5] - w[2].0[k] * em[21]);
        alpha[4].0[k] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[21];
        alpha[3].0[k] += qm * 1.4142135623730951 * (em[6] - w[2].0[k] * em[22]);
        alpha[5].0[k] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[22];
        alpha[6].0[k] += qm * 1.4142135623730951 * (em[7] - w[2].0[k] * em[23]);
        alpha[7].0[k] += qm * -0.816496580927726 * (0.5 * dxv[2]) * em[23];
        lam.0[k] = if penalty { alpha[0].0[k].abs() * 0.35355339059327384 + alpha[1].0[k].abs() * 0.6123724356957946 + alpha[2].0[k].abs() * 0.6123724356957946 + alpha[3].0[k].abs() * 0.6123724356957946 + alpha[4].0[k].abs() * 1.0606601717798212 + alpha[5].0[k].abs() * 1.0606601717798212 + alpha[6].0[k].abs() * 1.0606601717798212 + alpha[7].0[k].abs() * 1.8371173070873832 } else { 0.0 };
    }
    let mut fm = [CellLanes([0.0f64; LANES]); 8];
    let mut fp = [CellLanes([0.0f64; LANES]); 8];
    sx4(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sx4(&mut fm[0], 1.224744871391589, &f_lo[1]);
    sx4(&mut fm[1], 0.7071067811865476, &f_lo[2]);
    sx4(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sx4(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sx4(&mut fm[1], 1.224744871391589, &f_lo[5]);
    sx4(&mut fm[2], 1.224744871391589, &f_lo[6]);
    sx4(&mut fm[4], 0.7071067811865476, &f_lo[7]);
    sx4(&mut fm[3], 1.224744871391589, &f_lo[8]);
    sx4(&mut fm[5], 0.7071067811865476, &f_lo[9]);
    sx4(&mut fm[6], 0.7071067811865476, &f_lo[10]);
    sx4(&mut fm[4], 1.224744871391589, &f_lo[11]);
    sx4(&mut fm[5], 1.224744871391589, &f_lo[12]);
    sx4(&mut fm[6], 1.224744871391589, &f_lo[13]);
    sx4(&mut fm[7], 0.7071067811865476, &f_lo[14]);
    sx4(&mut fm[7], 1.224744871391589, &f_lo[15]);
    sx4(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sx4(&mut fp[0], -1.224744871391589, &f_hi[1]);
    sx4(&mut fp[1], 0.7071067811865476, &f_hi[2]);
    sx4(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sx4(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sx4(&mut fp[1], -1.224744871391589, &f_hi[5]);
    sx4(&mut fp[2], -1.224744871391589, &f_hi[6]);
    sx4(&mut fp[4], 0.7071067811865476, &f_hi[7]);
    sx4(&mut fp[3], -1.224744871391589, &f_hi[8]);
    sx4(&mut fp[5], 0.7071067811865476, &f_hi[9]);
    sx4(&mut fp[6], 0.7071067811865476, &f_hi[10]);
    sx4(&mut fp[4], -1.224744871391589, &f_hi[11]);
    sx4(&mut fp[5], -1.224744871391589, &f_hi[12]);
    sx4(&mut fp[6], -1.224744871391589, &f_hi[13]);
    sx4(&mut fp[7], 0.7071067811865476, &f_hi[14]);
    sx4(&mut fp[7], -1.224744871391589, &f_hi[15]);
    let mut favg = [CellLanes([0.0f64; LANES]); 8];
    let mut ghat = [CellLanes([0.0f64; LANES]); 8];
    for k in 0..LANES {
        favg[0].0[k] = 0.5 * (fm[0].0[k] + fp[0].0[k]);
        ghat[0].0[k] = -0.5 * lam.0[k] * (fp[0].0[k] - fm[0].0[k]);
        favg[1].0[k] = 0.5 * (fm[1].0[k] + fp[1].0[k]);
        ghat[1].0[k] = -0.5 * lam.0[k] * (fp[1].0[k] - fm[1].0[k]);
        favg[2].0[k] = 0.5 * (fm[2].0[k] + fp[2].0[k]);
        ghat[2].0[k] = -0.5 * lam.0[k] * (fp[2].0[k] - fm[2].0[k]);
        favg[3].0[k] = 0.5 * (fm[3].0[k] + fp[3].0[k]);
        ghat[3].0[k] = -0.5 * lam.0[k] * (fp[3].0[k] - fm[3].0[k]);
        favg[4].0[k] = 0.5 * (fm[4].0[k] + fp[4].0[k]);
        ghat[4].0[k] = -0.5 * lam.0[k] * (fp[4].0[k] - fm[4].0[k]);
        favg[5].0[k] = 0.5 * (fm[5].0[k] + fp[5].0[k]);
        ghat[5].0[k] = -0.5 * lam.0[k] * (fp[5].0[k] - fm[5].0[k]);
        favg[6].0[k] = 0.5 * (fm[6].0[k] + fp[6].0[k]);
        ghat[6].0[k] = -0.5 * lam.0[k] * (fp[6].0[k] - fm[6].0[k]);
        favg[7].0[k] = 0.5 * (fm[7].0[k] + fp[7].0[k]);
        ghat[7].0[k] = -0.5 * lam.0[k] * (fp[7].0[k] - fm[7].0[k]);
    }
    for k in 0..LANES {
        ghat[0].0[k] += 0.3535533905932738 * alpha[0].0[k] * favg[0].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[1].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[2].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[3].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[4].0[k] * favg[4].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[5].0[k] * favg[5].0[k];
        ghat[0].0[k] += 0.35355339059327373 * alpha[6].0[k] * favg[6].0[k];
        ghat[0].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[7].0[k];
    }
    for k in 0..LANES {
        ghat[1].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[1].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[0].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[4].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[5].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[4].0[k] * favg[2].0[k];
        ghat[1].0[k] += 0.35355339059327373 * alpha[5].0[k] * favg[3].0[k];
        ghat[1].0[k] += 0.3535533905932738 * alpha[6].0[k] * favg[7].0[k];
        ghat[1].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[6].0[k];
    }
    for k in 0..LANES {
        ghat[2].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[2].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[4].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[0].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[6].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[4].0[k] * favg[1].0[k];
        ghat[2].0[k] += 0.3535533905932738 * alpha[5].0[k] * favg[7].0[k];
        ghat[2].0[k] += 0.35355339059327373 * alpha[6].0[k] * favg[3].0[k];
        ghat[2].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[5].0[k];
    }
    for k in 0..LANES {
        ghat[3].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[3].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[5].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[6].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[0].0[k];
        ghat[3].0[k] += 0.3535533905932738 * alpha[4].0[k] * favg[7].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[5].0[k] * favg[1].0[k];
        ghat[3].0[k] += 0.35355339059327373 * alpha[6].0[k] * favg[2].0[k];
        ghat[3].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[4].0[k];
    }
    for k in 0..LANES {
        ghat[4].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[4].0[k];
        ghat[4].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[2].0[k];
        ghat[4].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[1].0[k];
        ghat[4].0[k] += 0.3535533905932738 * alpha[3].0[k] * favg[7].0[k];
        ghat[4].0[k] += 0.35355339059327373 * alpha[4].0[k] * favg[0].0[k];
        ghat[4].0[k] += 0.3535533905932738 * alpha[5].0[k] * favg[6].0[k];
        ghat[4].0[k] += 0.3535533905932738 * alpha[6].0[k] * favg[5].0[k];
        ghat[4].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[3].0[k];
    }
    for k in 0..LANES {
        ghat[5].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[5].0[k];
        ghat[5].0[k] += 0.35355339059327373 * alpha[1].0[k] * favg[3].0[k];
        ghat[5].0[k] += 0.3535533905932738 * alpha[2].0[k] * favg[7].0[k];
        ghat[5].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[1].0[k];
        ghat[5].0[k] += 0.3535533905932738 * alpha[4].0[k] * favg[6].0[k];
        ghat[5].0[k] += 0.35355339059327373 * alpha[5].0[k] * favg[0].0[k];
        ghat[5].0[k] += 0.3535533905932738 * alpha[6].0[k] * favg[4].0[k];
        ghat[5].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[2].0[k];
    }
    for k in 0..LANES {
        ghat[6].0[k] += 0.35355339059327373 * alpha[0].0[k] * favg[6].0[k];
        ghat[6].0[k] += 0.3535533905932738 * alpha[1].0[k] * favg[7].0[k];
        ghat[6].0[k] += 0.35355339059327373 * alpha[2].0[k] * favg[3].0[k];
        ghat[6].0[k] += 0.35355339059327373 * alpha[3].0[k] * favg[2].0[k];
        ghat[6].0[k] += 0.3535533905932738 * alpha[4].0[k] * favg[5].0[k];
        ghat[6].0[k] += 0.3535533905932738 * alpha[5].0[k] * favg[4].0[k];
        ghat[6].0[k] += 0.35355339059327373 * alpha[6].0[k] * favg[0].0[k];
        ghat[6].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[1].0[k];
    }
    for k in 0..LANES {
        ghat[7].0[k] += 0.3535533905932738 * alpha[0].0[k] * favg[7].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[1].0[k] * favg[6].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[2].0[k] * favg[5].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[3].0[k] * favg[4].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[4].0[k] * favg[3].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[5].0[k] * favg[2].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[6].0[k] * favg[1].0[k];
        ghat[7].0[k] += 0.3535533905932738 * alpha[7].0[k] * favg[0].0[k];
    }
    sx4(&mut out_lo[0], -rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_lo[1], -rd * 1.224744871391589, &ghat[0]);
    sx4(&mut out_lo[2], -rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_lo[3], -rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_lo[4], -rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_lo[5], -rd * 1.224744871391589, &ghat[1]);
    sx4(&mut out_lo[6], -rd * 1.224744871391589, &ghat[2]);
    sx4(&mut out_lo[7], -rd * 0.7071067811865476, &ghat[4]);
    sx4(&mut out_lo[8], -rd * 1.224744871391589, &ghat[3]);
    sx4(&mut out_lo[9], -rd * 0.7071067811865476, &ghat[5]);
    sx4(&mut out_lo[10], -rd * 0.7071067811865476, &ghat[6]);
    sx4(&mut out_lo[11], -rd * 1.224744871391589, &ghat[4]);
    sx4(&mut out_lo[12], -rd * 1.224744871391589, &ghat[5]);
    sx4(&mut out_lo[13], -rd * 1.224744871391589, &ghat[6]);
    sx4(&mut out_lo[14], -rd * 0.7071067811865476, &ghat[7]);
    sx4(&mut out_lo[15], -rd * 1.224744871391589, &ghat[7]);
    sx4(&mut out_hi[0], rd * 0.7071067811865476, &ghat[0]);
    sx4(&mut out_hi[1], rd * -1.224744871391589, &ghat[0]);
    sx4(&mut out_hi[2], rd * 0.7071067811865476, &ghat[1]);
    sx4(&mut out_hi[3], rd * 0.7071067811865476, &ghat[2]);
    sx4(&mut out_hi[4], rd * 0.7071067811865476, &ghat[3]);
    sx4(&mut out_hi[5], rd * -1.224744871391589, &ghat[1]);
    sx4(&mut out_hi[6], rd * -1.224744871391589, &ghat[2]);
    sx4(&mut out_hi[7], rd * 0.7071067811865476, &ghat[4]);
    sx4(&mut out_hi[8], rd * -1.224744871391589, &ghat[3]);
    sx4(&mut out_hi[9], rd * 0.7071067811865476, &ghat[5]);
    sx4(&mut out_hi[10], rd * 0.7071067811865476, &ghat[6]);
    sx4(&mut out_hi[11], rd * -1.224744871391589, &ghat[4]);
    sx4(&mut out_hi[12], rd * -1.224744871391589, &ghat[5]);
    sx4(&mut out_hi[13], rd * -1.224744871391589, &ghat[6]);
    sx4(&mut out_hi[14], rd * 0.7071067811865476, &ghat[7]);
    sx4(&mut out_hi[15], rd * -1.224744871391589, &ghat[7]);
}
