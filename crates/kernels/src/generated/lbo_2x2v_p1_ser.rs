// LBO (Lenard–Bernstein / Dougherty) collision kernels, 2x2v p=1 Serendipity basis.
// Auto-generated from exact integral tables — do not edit by hand.
// Five stage functions per velocity direction (drag volume/surface,
// LDG gradient, diffusion volume/surface), each one lane-generic body
// behind a scalar, a `_b4` and a `_b4_avx2` entry point; see
// `crate::dispatch::LboKernelEntry` for the calling conventions.

/// LBO drag volume term in v0: weak `∇_v · (ν(v − u) f)`, cell interior.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_vol_v0(nu: f64, v_c: f64, dv: f64, u: &[f64], f: &[f64], out: &mut [f64]) {
    lbo_2x2v_p1_ser_drag_vol_v0_body::<1>(nu, v_c, dv, u.as_chunks().0, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_2x2v_p1_ser_drag_vol_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_vol_v0_b4(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_drag_vol_v0_body(nu, v_c, dv, u, f, out)
}

/// [`lbo_2x2v_p1_ser_drag_vol_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_vol_v0_b4_avx2(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_drag_vol_v0_body(nu, v_c, dv, u, f, out)
}

/// Shared lane-generic body of [`lbo_2x2v_p1_ser_drag_vol_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_2x2v_p1_ser_drag_vol_v0_body<const L: usize>(nu: f64, v_c: f64, dv: f64, u: &[[f64; L]], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let u: &[[f64; L]; 4] = u.first_chunk().expect("u: 4 coefficients");
    let f: &[[f64; L]; 16] = f.first_chunk().expect("f: 16 coefficients");
    let out: &mut [[f64; L]; 16] = out.first_chunk_mut().expect("out: 16 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 16];
    for k in 0..L {
        alpha[0][k] = -nu * v_c * 4.0;
        alpha[2][k] = -nu * 0.5 * dv * 2.3094010767585034;
        alpha[0][k] += nu * 2.0 * u[0][k];
        alpha[3][k] += nu * 2.0 * u[1][k];
        alpha[4][k] += nu * 2.0 * u[2][k];
        alpha[10][k] += nu * 2.0 * u[3][k];
    }
    for k in 0..L {
        out[2][k] += scale * 0.4330127018922193 * alpha[0][k] * f[0][k];
        out[2][k] += scale * 0.4330127018922193 * alpha[2][k] * f[2][k];
        out[2][k] += scale * 0.4330127018922193 * alpha[3][k] * f[3][k];
        out[2][k] += scale * 0.4330127018922193 * alpha[4][k] * f[4][k];
        out[2][k] += scale * 0.4330127018922193 * alpha[10][k] * f[10][k];
    }
    for k in 0..L {
        out[5][k] += scale * 0.4330127018922193 * alpha[0][k] * f[1][k];
        out[5][k] += scale * 0.4330127018922193 * alpha[2][k] * f[5][k];
        out[5][k] += scale * 0.4330127018922193 * alpha[3][k] * f[6][k];
        out[5][k] += scale * 0.4330127018922193 * alpha[4][k] * f[8][k];
        out[5][k] += scale * 0.4330127018922193 * alpha[10][k] * f[13][k];
    }
    for k in 0..L {
        out[7][k] += scale * 0.4330127018922193 * alpha[0][k] * f[3][k];
        out[7][k] += scale * 0.4330127018922193 * alpha[2][k] * f[7][k];
        out[7][k] += scale * 0.4330127018922193 * alpha[3][k] * f[0][k];
        out[7][k] += scale * 0.4330127018922193 * alpha[4][k] * f[10][k];
        out[7][k] += scale * 0.4330127018922193 * alpha[10][k] * f[4][k];
    }
    for k in 0..L {
        out[9][k] += scale * 0.4330127018922193 * alpha[0][k] * f[4][k];
        out[9][k] += scale * 0.4330127018922193 * alpha[2][k] * f[9][k];
        out[9][k] += scale * 0.4330127018922193 * alpha[3][k] * f[10][k];
        out[9][k] += scale * 0.4330127018922193 * alpha[4][k] * f[0][k];
        out[9][k] += scale * 0.4330127018922193 * alpha[10][k] * f[3][k];
    }
    for k in 0..L {
        out[11][k] += scale * 0.4330127018922193 * alpha[0][k] * f[6][k];
        out[11][k] += scale * 0.4330127018922193 * alpha[2][k] * f[11][k];
        out[11][k] += scale * 0.4330127018922193 * alpha[3][k] * f[1][k];
        out[11][k] += scale * 0.4330127018922193 * alpha[4][k] * f[13][k];
        out[11][k] += scale * 0.4330127018922193 * alpha[10][k] * f[8][k];
    }
    for k in 0..L {
        out[12][k] += scale * 0.4330127018922193 * alpha[0][k] * f[8][k];
        out[12][k] += scale * 0.4330127018922193 * alpha[2][k] * f[12][k];
        out[12][k] += scale * 0.4330127018922193 * alpha[3][k] * f[13][k];
        out[12][k] += scale * 0.4330127018922193 * alpha[4][k] * f[1][k];
        out[12][k] += scale * 0.4330127018922193 * alpha[10][k] * f[6][k];
    }
    for k in 0..L {
        out[14][k] += scale * 0.4330127018922193 * alpha[0][k] * f[10][k];
        out[14][k] += scale * 0.4330127018922193 * alpha[2][k] * f[14][k];
        out[14][k] += scale * 0.4330127018922193 * alpha[3][k] * f[4][k];
        out[14][k] += scale * 0.4330127018922193 * alpha[4][k] * f[3][k];
        out[14][k] += scale * 0.4330127018922193 * alpha[10][k] * f[0][k];
    }
    for k in 0..L {
        out[15][k] += scale * 0.4330127018922193 * alpha[0][k] * f[13][k];
        out[15][k] += scale * 0.4330127018922193 * alpha[2][k] * f[15][k];
        out[15][k] += scale * 0.4330127018922193 * alpha[3][k] * f[8][k];
        out[15][k] += scale * 0.4330127018922193 * alpha[4][k] * f[6][k];
        out[15][k] += scale * 0.4330127018922193 * alpha[10][k] * f[1][k];
    }
}

/// LBO drag surface term in v0 at one interior face (`vstar` = face
/// velocity coordinate); penalized central flux, both sides updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_surf_v0(nu: f64, vstar: f64, dv: f64, u: &[f64], f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_2x2v_p1_ser_drag_surf_v0_body::<1>(nu, vstar, dv, u.as_chunks().0, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_2x2v_p1_ser_drag_surf_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_surf_v0_b4(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_drag_surf_v0_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// [`lbo_2x2v_p1_ser_drag_surf_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_surf_v0_b4_avx2(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_drag_surf_v0_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_2x2v_p1_ser_drag_surf_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_2x2v_p1_ser_drag_surf_v0_body<const L: usize>(nu: f64, vstar: f64, dv: f64, u: &[[f64; L]], f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let u: &[[f64; L]; 4] = u.first_chunk().expect("u: 4 coefficients");
    let f_lo: &[[f64; L]; 16] = f_lo.first_chunk().expect("f_lo: 16 coefficients");
    let f_hi: &[[f64; L]; 16] = f_hi.first_chunk().expect("f_hi: 16 coefficients");
    let out_lo: &mut [[f64; L]; 16] = out_lo.first_chunk_mut().expect("out_lo: 16 coefficients");
    let out_hi: &mut [[f64; L]; 16] = out_hi.first_chunk_mut().expect("out_hi: 16 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 8];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] = -nu * vstar * 2.8284271247461903;
        alpha[0][k] += nu * 1.4142135623730951 * u[0][k];
        alpha[2][k] += nu * 1.4142135623730951 * u[1][k];
        alpha[3][k] += nu * 1.4142135623730951 * u[2][k];
        alpha[6][k] += nu * 1.4142135623730951 * u[3][k];
        lam[k] = alpha[0][k].abs() * 0.35355339059327384 + alpha[2][k].abs() * 0.6123724356957946 + alpha[3][k].abs() * 0.6123724356957946 + alpha[6][k].abs() * 1.0606601717798212;
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
        ghat[0][k] += 0.35355339059327373 * alpha[2][k] * favg[2][k];
        ghat[0][k] += 0.35355339059327373 * alpha[3][k] * favg[3][k];
        ghat[0][k] += 0.35355339059327373 * alpha[6][k] * favg[6][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.35355339059327373 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.35355339059327373 * alpha[2][k] * favg[4][k];
        ghat[1][k] += 0.35355339059327373 * alpha[3][k] * favg[5][k];
        ghat[1][k] += 0.3535533905932738 * alpha[6][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.35355339059327373 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.35355339059327373 * alpha[2][k] * favg[0][k];
        ghat[2][k] += 0.35355339059327373 * alpha[3][k] * favg[6][k];
        ghat[2][k] += 0.35355339059327373 * alpha[6][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.35355339059327373 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.35355339059327373 * alpha[2][k] * favg[6][k];
        ghat[3][k] += 0.35355339059327373 * alpha[3][k] * favg[0][k];
        ghat[3][k] += 0.35355339059327373 * alpha[6][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.35355339059327373 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.35355339059327373 * alpha[2][k] * favg[1][k];
        ghat[4][k] += 0.3535533905932738 * alpha[3][k] * favg[7][k];
        ghat[4][k] += 0.3535533905932738 * alpha[6][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.35355339059327373 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.3535533905932738 * alpha[2][k] * favg[7][k];
        ghat[5][k] += 0.35355339059327373 * alpha[3][k] * favg[1][k];
        ghat[5][k] += 0.3535533905932738 * alpha[6][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.35355339059327373 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.35355339059327373 * alpha[2][k] * favg[3][k];
        ghat[6][k] += 0.35355339059327373 * alpha[3][k] * favg[2][k];
        ghat[6][k] += 0.35355339059327373 * alpha[6][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.3535533905932738 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.3535533905932738 * alpha[2][k] * favg[5][k];
        ghat[7][k] += 0.3535533905932738 * alpha[3][k] * favg[4][k];
        ghat[7][k] += 0.3535533905932738 * alpha[6][k] * favg[1][k];
    }
    sxn(&mut out_lo[0], -scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[3], -scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], -scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[6], -scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[7], -scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[8], -scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[9], -scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[10], -scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[11], -scale * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[12], -scale * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[13], -scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[14], -scale * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[15], -scale * 1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[0], scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[3], scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[6], scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[7], scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[8], scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[9], scale * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[10], scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[11], scale * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[12], scale * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[13], scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[14], scale * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[15], scale * -1.224744871391589, &ghat[7]);
}

/// LDG gradient in v0 for one cell: volume gradient-mass plus the
/// upper-neighbor trace (`f_up`; own upper trace when `at_upper`) and
/// the cell's own lower trace.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_grad_v0(dv: f64, at_upper: bool, f: &[f64], f_up: &[f64], g: &mut [f64]) {
    lbo_2x2v_p1_ser_diff_grad_v0_body::<1>(dv, at_upper, f.as_chunks().0, f_up.as_chunks().0, g.as_chunks_mut().0)
}

/// [`lbo_2x2v_p1_ser_diff_grad_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_grad_v0_b4(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_grad_v0_body(dv, at_upper, f, f_up, g)
}

/// [`lbo_2x2v_p1_ser_diff_grad_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_grad_v0_b4_avx2(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_grad_v0_body(dv, at_upper, f, f_up, g)
}

/// Shared lane-generic body of [`lbo_2x2v_p1_ser_diff_grad_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_2x2v_p1_ser_diff_grad_v0_body<const L: usize>(dv: f64, at_upper: bool, f: &[[f64; L]], f_up: &[[f64; L]], g: &mut [[f64; L]]) {
    let f: &[[f64; L]; 16] = f.first_chunk().expect("f: 16 coefficients");
    let f_up: &[[f64; L]; 16] = f_up.first_chunk().expect("f_up: 16 coefficients");
    let g: &mut [[f64; L]; 16] = g.first_chunk_mut().expect("g: 16 coefficients");
    let scale = 2.0 / dv;
    sxn(&mut g[2], -scale * 1.7320508075688772, &f[0]);
    sxn(&mut g[5], -scale * 1.7320508075688772, &f[1]);
    sxn(&mut g[7], -scale * 1.7320508075688772, &f[3]);
    sxn(&mut g[9], -scale * 1.7320508075688772, &f[4]);
    sxn(&mut g[11], -scale * 1.7320508075688772, &f[6]);
    sxn(&mut g[12], -scale * 1.7320508075688772, &f[8]);
    sxn(&mut g[14], -scale * 1.7320508075688772, &f[10]);
    sxn(&mut g[15], -scale * 1.7320508075688772, &f[13]);
    let mut tr = [[0.0f64; L]; 8];
    if at_upper {
        sxn(&mut tr[0], 0.7071067811865476, &f[0]);
        sxn(&mut tr[1], 0.7071067811865476, &f[1]);
        sxn(&mut tr[0], 1.224744871391589, &f[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f[3]);
        sxn(&mut tr[3], 0.7071067811865476, &f[4]);
        sxn(&mut tr[1], 1.224744871391589, &f[5]);
        sxn(&mut tr[4], 0.7071067811865476, &f[6]);
        sxn(&mut tr[2], 1.224744871391589, &f[7]);
        sxn(&mut tr[5], 0.7071067811865476, &f[8]);
        sxn(&mut tr[3], 1.224744871391589, &f[9]);
        sxn(&mut tr[6], 0.7071067811865476, &f[10]);
        sxn(&mut tr[4], 1.224744871391589, &f[11]);
        sxn(&mut tr[5], 1.224744871391589, &f[12]);
        sxn(&mut tr[7], 0.7071067811865476, &f[13]);
        sxn(&mut tr[6], 1.224744871391589, &f[14]);
        sxn(&mut tr[7], 1.224744871391589, &f[15]);
    } else {
        sxn(&mut tr[0], 0.7071067811865476, &f_up[0]);
        sxn(&mut tr[1], 0.7071067811865476, &f_up[1]);
        sxn(&mut tr[0], -1.224744871391589, &f_up[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f_up[3]);
        sxn(&mut tr[3], 0.7071067811865476, &f_up[4]);
        sxn(&mut tr[1], -1.224744871391589, &f_up[5]);
        sxn(&mut tr[4], 0.7071067811865476, &f_up[6]);
        sxn(&mut tr[2], -1.224744871391589, &f_up[7]);
        sxn(&mut tr[5], 0.7071067811865476, &f_up[8]);
        sxn(&mut tr[3], -1.224744871391589, &f_up[9]);
        sxn(&mut tr[6], 0.7071067811865476, &f_up[10]);
        sxn(&mut tr[4], -1.224744871391589, &f_up[11]);
        sxn(&mut tr[5], -1.224744871391589, &f_up[12]);
        sxn(&mut tr[7], 0.7071067811865476, &f_up[13]);
        sxn(&mut tr[6], -1.224744871391589, &f_up[14]);
        sxn(&mut tr[7], -1.224744871391589, &f_up[15]);
    }
    sxn(&mut g[0], scale * 0.7071067811865476, &tr[0]);
    sxn(&mut g[1], scale * 0.7071067811865476, &tr[1]);
    sxn(&mut g[2], scale * 1.224744871391589, &tr[0]);
    sxn(&mut g[3], scale * 0.7071067811865476, &tr[2]);
    sxn(&mut g[4], scale * 0.7071067811865476, &tr[3]);
    sxn(&mut g[5], scale * 1.224744871391589, &tr[1]);
    sxn(&mut g[6], scale * 0.7071067811865476, &tr[4]);
    sxn(&mut g[7], scale * 1.224744871391589, &tr[2]);
    sxn(&mut g[8], scale * 0.7071067811865476, &tr[5]);
    sxn(&mut g[9], scale * 1.224744871391589, &tr[3]);
    sxn(&mut g[10], scale * 0.7071067811865476, &tr[6]);
    sxn(&mut g[11], scale * 1.224744871391589, &tr[4]);
    sxn(&mut g[12], scale * 1.224744871391589, &tr[5]);
    sxn(&mut g[13], scale * 0.7071067811865476, &tr[7]);
    sxn(&mut g[14], scale * 1.224744871391589, &tr[6]);
    sxn(&mut g[15], scale * 1.224744871391589, &tr[7]);
    let mut tl = [[0.0f64; L]; 8];
    sxn(&mut tl[0], 0.7071067811865476, &f[0]);
    sxn(&mut tl[1], 0.7071067811865476, &f[1]);
    sxn(&mut tl[0], -1.224744871391589, &f[2]);
    sxn(&mut tl[2], 0.7071067811865476, &f[3]);
    sxn(&mut tl[3], 0.7071067811865476, &f[4]);
    sxn(&mut tl[1], -1.224744871391589, &f[5]);
    sxn(&mut tl[4], 0.7071067811865476, &f[6]);
    sxn(&mut tl[2], -1.224744871391589, &f[7]);
    sxn(&mut tl[5], 0.7071067811865476, &f[8]);
    sxn(&mut tl[3], -1.224744871391589, &f[9]);
    sxn(&mut tl[6], 0.7071067811865476, &f[10]);
    sxn(&mut tl[4], -1.224744871391589, &f[11]);
    sxn(&mut tl[5], -1.224744871391589, &f[12]);
    sxn(&mut tl[7], 0.7071067811865476, &f[13]);
    sxn(&mut tl[6], -1.224744871391589, &f[14]);
    sxn(&mut tl[7], -1.224744871391589, &f[15]);
    sxn(&mut g[0], -scale * 0.7071067811865476, &tl[0]);
    sxn(&mut g[1], -scale * 0.7071067811865476, &tl[1]);
    sxn(&mut g[2], -scale * -1.224744871391589, &tl[0]);
    sxn(&mut g[3], -scale * 0.7071067811865476, &tl[2]);
    sxn(&mut g[4], -scale * 0.7071067811865476, &tl[3]);
    sxn(&mut g[5], -scale * -1.224744871391589, &tl[1]);
    sxn(&mut g[6], -scale * 0.7071067811865476, &tl[4]);
    sxn(&mut g[7], -scale * -1.224744871391589, &tl[2]);
    sxn(&mut g[8], -scale * 0.7071067811865476, &tl[5]);
    sxn(&mut g[9], -scale * -1.224744871391589, &tl[3]);
    sxn(&mut g[10], -scale * 0.7071067811865476, &tl[6]);
    sxn(&mut g[11], -scale * -1.224744871391589, &tl[4]);
    sxn(&mut g[12], -scale * -1.224744871391589, &tl[5]);
    sxn(&mut g[13], -scale * 0.7071067811865476, &tl[7]);
    sxn(&mut g[14], -scale * -1.224744871391589, &tl[6]);
    sxn(&mut g[15], -scale * -1.224744871391589, &tl[7]);
}

/// LBO diffusion volume term in v0: weak `ν vth²(x) ∂_v g`.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_vol_v0(nu: f64, dv: f64, vth2: &[f64], g: &[f64], out: &mut [f64]) {
    lbo_2x2v_p1_ser_diff_vol_v0_body::<1>(nu, dv, vth2.as_chunks().0, g.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_2x2v_p1_ser_diff_vol_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_vol_v0_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_vol_v0_body(nu, dv, vth2, g, out)
}

/// [`lbo_2x2v_p1_ser_diff_vol_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_vol_v0_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_vol_v0_body(nu, dv, vth2, g, out)
}

/// Shared lane-generic body of [`lbo_2x2v_p1_ser_diff_vol_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_2x2v_p1_ser_diff_vol_v0_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g: &[[f64; L]], out: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 4] = vth2.first_chunk().expect("vth2: 4 coefficients");
    let g: &[[f64; L]; 16] = g.first_chunk().expect("g: 16 coefficients");
    let out: &mut [[f64; L]; 16] = out.first_chunk_mut().expect("out: 16 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 16];
    for k in 0..L {
        alpha[0][k] = 2.0 * vth2[0][k];
        alpha[3][k] = 2.0 * vth2[1][k];
        alpha[4][k] = 2.0 * vth2[2][k];
        alpha[10][k] = 2.0 * vth2[3][k];
    }
    for k in 0..L {
        out[2][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[0][k];
        out[2][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[3][k];
        out[2][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[4][k];
        out[2][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[10][k];
    }
    for k in 0..L {
        out[5][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[1][k];
        out[5][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[6][k];
        out[5][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[8][k];
        out[5][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[13][k];
    }
    for k in 0..L {
        out[7][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[3][k];
        out[7][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[0][k];
        out[7][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[10][k];
        out[7][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[4][k];
    }
    for k in 0..L {
        out[9][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[4][k];
        out[9][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[10][k];
        out[9][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[0][k];
        out[9][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[3][k];
    }
    for k in 0..L {
        out[11][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[6][k];
        out[11][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[1][k];
        out[11][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[13][k];
        out[11][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[8][k];
    }
    for k in 0..L {
        out[12][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[8][k];
        out[12][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[13][k];
        out[12][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[1][k];
        out[12][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[6][k];
    }
    for k in 0..L {
        out[14][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[10][k];
        out[14][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[4][k];
        out[14][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[3][k];
        out[14][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[0][k];
    }
    for k in 0..L {
        out[15][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[13][k];
        out[15][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[8][k];
        out[15][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[6][k];
        out[15][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[1][k];
    }
}

/// LBO diffusion surface term in v0 at one interior face: one-sided
/// flux of the LDG gradient (lower cell's upper trace), both sides
/// updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_surf_v0(nu: f64, dv: f64, vth2: &[f64], g_lo: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_2x2v_p1_ser_diff_surf_v0_body::<1>(nu, dv, vth2.as_chunks().0, g_lo.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_2x2v_p1_ser_diff_surf_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_surf_v0_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_surf_v0_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// [`lbo_2x2v_p1_ser_diff_surf_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_surf_v0_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_surf_v0_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_2x2v_p1_ser_diff_surf_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_2x2v_p1_ser_diff_surf_v0_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g_lo: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 4] = vth2.first_chunk().expect("vth2: 4 coefficients");
    let g_lo: &[[f64; L]; 16] = g_lo.first_chunk().expect("g_lo: 16 coefficients");
    let out_lo: &mut [[f64; L]; 16] = out_lo.first_chunk_mut().expect("out_lo: 16 coefficients");
    let out_hi: &mut [[f64; L]; 16] = out_hi.first_chunk_mut().expect("out_hi: 16 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 8];
    for k in 0..L {
        alpha[0][k] = 1.4142135623730951 * vth2[0][k];
        alpha[2][k] = 1.4142135623730951 * vth2[1][k];
        alpha[3][k] = 1.4142135623730951 * vth2[2][k];
        alpha[6][k] = 1.4142135623730951 * vth2[3][k];
    }
    let mut tr = [[0.0f64; L]; 8];
    sxn(&mut tr[0], 0.7071067811865476, &g_lo[0]);
    sxn(&mut tr[1], 0.7071067811865476, &g_lo[1]);
    sxn(&mut tr[0], 1.224744871391589, &g_lo[2]);
    sxn(&mut tr[2], 0.7071067811865476, &g_lo[3]);
    sxn(&mut tr[3], 0.7071067811865476, &g_lo[4]);
    sxn(&mut tr[1], 1.224744871391589, &g_lo[5]);
    sxn(&mut tr[4], 0.7071067811865476, &g_lo[6]);
    sxn(&mut tr[2], 1.224744871391589, &g_lo[7]);
    sxn(&mut tr[5], 0.7071067811865476, &g_lo[8]);
    sxn(&mut tr[3], 1.224744871391589, &g_lo[9]);
    sxn(&mut tr[6], 0.7071067811865476, &g_lo[10]);
    sxn(&mut tr[4], 1.224744871391589, &g_lo[11]);
    sxn(&mut tr[5], 1.224744871391589, &g_lo[12]);
    sxn(&mut tr[7], 0.7071067811865476, &g_lo[13]);
    sxn(&mut tr[6], 1.224744871391589, &g_lo[14]);
    sxn(&mut tr[7], 1.224744871391589, &g_lo[15]);
    let mut ghat = [[0.0f64; L]; 8];
    for k in 0..L {
        ghat[0][k] += 0.3535533905932738 * alpha[0][k] * tr[0][k];
        ghat[0][k] += 0.35355339059327373 * alpha[2][k] * tr[2][k];
        ghat[0][k] += 0.35355339059327373 * alpha[3][k] * tr[3][k];
        ghat[0][k] += 0.35355339059327373 * alpha[6][k] * tr[6][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.35355339059327373 * alpha[0][k] * tr[1][k];
        ghat[1][k] += 0.35355339059327373 * alpha[2][k] * tr[4][k];
        ghat[1][k] += 0.35355339059327373 * alpha[3][k] * tr[5][k];
        ghat[1][k] += 0.3535533905932738 * alpha[6][k] * tr[7][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.35355339059327373 * alpha[0][k] * tr[2][k];
        ghat[2][k] += 0.35355339059327373 * alpha[2][k] * tr[0][k];
        ghat[2][k] += 0.35355339059327373 * alpha[3][k] * tr[6][k];
        ghat[2][k] += 0.35355339059327373 * alpha[6][k] * tr[3][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.35355339059327373 * alpha[0][k] * tr[3][k];
        ghat[3][k] += 0.35355339059327373 * alpha[2][k] * tr[6][k];
        ghat[3][k] += 0.35355339059327373 * alpha[3][k] * tr[0][k];
        ghat[3][k] += 0.35355339059327373 * alpha[6][k] * tr[2][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.35355339059327373 * alpha[0][k] * tr[4][k];
        ghat[4][k] += 0.35355339059327373 * alpha[2][k] * tr[1][k];
        ghat[4][k] += 0.3535533905932738 * alpha[3][k] * tr[7][k];
        ghat[4][k] += 0.3535533905932738 * alpha[6][k] * tr[5][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.35355339059327373 * alpha[0][k] * tr[5][k];
        ghat[5][k] += 0.3535533905932738 * alpha[2][k] * tr[7][k];
        ghat[5][k] += 0.35355339059327373 * alpha[3][k] * tr[1][k];
        ghat[5][k] += 0.3535533905932738 * alpha[6][k] * tr[4][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.35355339059327373 * alpha[0][k] * tr[6][k];
        ghat[6][k] += 0.35355339059327373 * alpha[2][k] * tr[3][k];
        ghat[6][k] += 0.35355339059327373 * alpha[3][k] * tr[2][k];
        ghat[6][k] += 0.35355339059327373 * alpha[6][k] * tr[0][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.3535533905932738 * alpha[0][k] * tr[7][k];
        ghat[7][k] += 0.3535533905932738 * alpha[2][k] * tr[5][k];
        ghat[7][k] += 0.3535533905932738 * alpha[3][k] * tr[4][k];
        ghat[7][k] += 0.3535533905932738 * alpha[6][k] * tr[1][k];
    }
    sxn(&mut out_lo[0], nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], nu * scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[3], nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], nu * scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[6], nu * scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[7], nu * scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[8], nu * scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[9], nu * scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[10], nu * scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[11], nu * scale * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[12], nu * scale * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[13], nu * scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[14], nu * scale * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[15], nu * scale * 1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[0], -nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], -nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], -nu * scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[3], -nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], -nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], -nu * scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[6], -nu * scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[7], -nu * scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[8], -nu * scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[9], -nu * scale * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[10], -nu * scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[11], -nu * scale * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[12], -nu * scale * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[13], -nu * scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[14], -nu * scale * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[15], -nu * scale * -1.224744871391589, &ghat[7]);
}

/// LBO drag volume term in v1: weak `∇_v · (ν(v − u) f)`, cell interior.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_vol_v1(nu: f64, v_c: f64, dv: f64, u: &[f64], f: &[f64], out: &mut [f64]) {
    lbo_2x2v_p1_ser_drag_vol_v1_body::<1>(nu, v_c, dv, u.as_chunks().0, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_2x2v_p1_ser_drag_vol_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_vol_v1_b4(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_drag_vol_v1_body(nu, v_c, dv, u, f, out)
}

/// [`lbo_2x2v_p1_ser_drag_vol_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_vol_v1_b4_avx2(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_drag_vol_v1_body(nu, v_c, dv, u, f, out)
}

/// Shared lane-generic body of [`lbo_2x2v_p1_ser_drag_vol_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_2x2v_p1_ser_drag_vol_v1_body<const L: usize>(nu: f64, v_c: f64, dv: f64, u: &[[f64; L]], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let u: &[[f64; L]; 4] = u.first_chunk().expect("u: 4 coefficients");
    let f: &[[f64; L]; 16] = f.first_chunk().expect("f: 16 coefficients");
    let out: &mut [[f64; L]; 16] = out.first_chunk_mut().expect("out: 16 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 16];
    for k in 0..L {
        alpha[0][k] = -nu * v_c * 4.0;
        alpha[1][k] = -nu * 0.5 * dv * 2.3094010767585034;
        alpha[0][k] += nu * 2.0 * u[0][k];
        alpha[3][k] += nu * 2.0 * u[1][k];
        alpha[4][k] += nu * 2.0 * u[2][k];
        alpha[10][k] += nu * 2.0 * u[3][k];
    }
    for k in 0..L {
        out[1][k] += scale * 0.4330127018922193 * alpha[0][k] * f[0][k];
        out[1][k] += scale * 0.4330127018922193 * alpha[1][k] * f[1][k];
        out[1][k] += scale * 0.4330127018922193 * alpha[3][k] * f[3][k];
        out[1][k] += scale * 0.4330127018922193 * alpha[4][k] * f[4][k];
        out[1][k] += scale * 0.4330127018922193 * alpha[10][k] * f[10][k];
    }
    for k in 0..L {
        out[5][k] += scale * 0.4330127018922193 * alpha[0][k] * f[2][k];
        out[5][k] += scale * 0.4330127018922193 * alpha[1][k] * f[5][k];
        out[5][k] += scale * 0.4330127018922193 * alpha[3][k] * f[7][k];
        out[5][k] += scale * 0.4330127018922193 * alpha[4][k] * f[9][k];
        out[5][k] += scale * 0.4330127018922193 * alpha[10][k] * f[14][k];
    }
    for k in 0..L {
        out[6][k] += scale * 0.4330127018922193 * alpha[0][k] * f[3][k];
        out[6][k] += scale * 0.4330127018922193 * alpha[1][k] * f[6][k];
        out[6][k] += scale * 0.4330127018922193 * alpha[3][k] * f[0][k];
        out[6][k] += scale * 0.4330127018922193 * alpha[4][k] * f[10][k];
        out[6][k] += scale * 0.4330127018922193 * alpha[10][k] * f[4][k];
    }
    for k in 0..L {
        out[8][k] += scale * 0.4330127018922193 * alpha[0][k] * f[4][k];
        out[8][k] += scale * 0.4330127018922193 * alpha[1][k] * f[8][k];
        out[8][k] += scale * 0.4330127018922193 * alpha[3][k] * f[10][k];
        out[8][k] += scale * 0.4330127018922193 * alpha[4][k] * f[0][k];
        out[8][k] += scale * 0.4330127018922193 * alpha[10][k] * f[3][k];
    }
    for k in 0..L {
        out[11][k] += scale * 0.4330127018922193 * alpha[0][k] * f[7][k];
        out[11][k] += scale * 0.4330127018922193 * alpha[1][k] * f[11][k];
        out[11][k] += scale * 0.4330127018922193 * alpha[3][k] * f[2][k];
        out[11][k] += scale * 0.4330127018922193 * alpha[4][k] * f[14][k];
        out[11][k] += scale * 0.4330127018922193 * alpha[10][k] * f[9][k];
    }
    for k in 0..L {
        out[12][k] += scale * 0.4330127018922193 * alpha[0][k] * f[9][k];
        out[12][k] += scale * 0.4330127018922193 * alpha[1][k] * f[12][k];
        out[12][k] += scale * 0.4330127018922193 * alpha[3][k] * f[14][k];
        out[12][k] += scale * 0.4330127018922193 * alpha[4][k] * f[2][k];
        out[12][k] += scale * 0.4330127018922193 * alpha[10][k] * f[7][k];
    }
    for k in 0..L {
        out[13][k] += scale * 0.4330127018922193 * alpha[0][k] * f[10][k];
        out[13][k] += scale * 0.4330127018922193 * alpha[1][k] * f[13][k];
        out[13][k] += scale * 0.4330127018922193 * alpha[3][k] * f[4][k];
        out[13][k] += scale * 0.4330127018922193 * alpha[4][k] * f[3][k];
        out[13][k] += scale * 0.4330127018922193 * alpha[10][k] * f[0][k];
    }
    for k in 0..L {
        out[15][k] += scale * 0.4330127018922193 * alpha[0][k] * f[14][k];
        out[15][k] += scale * 0.4330127018922193 * alpha[1][k] * f[15][k];
        out[15][k] += scale * 0.4330127018922193 * alpha[3][k] * f[9][k];
        out[15][k] += scale * 0.4330127018922193 * alpha[4][k] * f[7][k];
        out[15][k] += scale * 0.4330127018922193 * alpha[10][k] * f[2][k];
    }
}

/// LBO drag surface term in v1 at one interior face (`vstar` = face
/// velocity coordinate); penalized central flux, both sides updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_surf_v1(nu: f64, vstar: f64, dv: f64, u: &[f64], f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_2x2v_p1_ser_drag_surf_v1_body::<1>(nu, vstar, dv, u.as_chunks().0, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_2x2v_p1_ser_drag_surf_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_surf_v1_b4(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_drag_surf_v1_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// [`lbo_2x2v_p1_ser_drag_surf_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_drag_surf_v1_b4_avx2(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_drag_surf_v1_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_2x2v_p1_ser_drag_surf_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_2x2v_p1_ser_drag_surf_v1_body<const L: usize>(nu: f64, vstar: f64, dv: f64, u: &[[f64; L]], f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let u: &[[f64; L]; 4] = u.first_chunk().expect("u: 4 coefficients");
    let f_lo: &[[f64; L]; 16] = f_lo.first_chunk().expect("f_lo: 16 coefficients");
    let f_hi: &[[f64; L]; 16] = f_hi.first_chunk().expect("f_hi: 16 coefficients");
    let out_lo: &mut [[f64; L]; 16] = out_lo.first_chunk_mut().expect("out_lo: 16 coefficients");
    let out_hi: &mut [[f64; L]; 16] = out_hi.first_chunk_mut().expect("out_hi: 16 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 8];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] = -nu * vstar * 2.8284271247461903;
        alpha[0][k] += nu * 1.4142135623730951 * u[0][k];
        alpha[2][k] += nu * 1.4142135623730951 * u[1][k];
        alpha[3][k] += nu * 1.4142135623730951 * u[2][k];
        alpha[6][k] += nu * 1.4142135623730951 * u[3][k];
        lam[k] = alpha[0][k].abs() * 0.35355339059327384 + alpha[2][k].abs() * 0.6123724356957946 + alpha[3][k].abs() * 0.6123724356957946 + alpha[6][k].abs() * 1.0606601717798212;
    }
    let mut fm = [[0.0f64; L]; 8];
    let mut fp = [[0.0f64; L]; 8];
    for k in 0..L {
        fm[0][k] += 0.7071067811865476 * f_lo[0][k];
        fm[0][k] += 1.224744871391589 * f_lo[1][k];
    }
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
    for k in 0..L {
        fm[7][k] += 0.7071067811865476 * f_lo[14][k];
        fm[7][k] += 1.224744871391589 * f_lo[15][k];
    }
    for k in 0..L {
        fp[0][k] += 0.7071067811865476 * f_hi[0][k];
        fp[0][k] += -1.224744871391589 * f_hi[1][k];
    }
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
    for k in 0..L {
        fp[7][k] += 0.7071067811865476 * f_hi[14][k];
        fp[7][k] += -1.224744871391589 * f_hi[15][k];
    }
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
        ghat[0][k] += 0.35355339059327373 * alpha[3][k] * favg[3][k];
        ghat[0][k] += 0.35355339059327373 * alpha[6][k] * favg[6][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.35355339059327373 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.35355339059327373 * alpha[2][k] * favg[4][k];
        ghat[1][k] += 0.35355339059327373 * alpha[3][k] * favg[5][k];
        ghat[1][k] += 0.3535533905932738 * alpha[6][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.35355339059327373 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.35355339059327373 * alpha[2][k] * favg[0][k];
        ghat[2][k] += 0.35355339059327373 * alpha[3][k] * favg[6][k];
        ghat[2][k] += 0.35355339059327373 * alpha[6][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.35355339059327373 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.35355339059327373 * alpha[2][k] * favg[6][k];
        ghat[3][k] += 0.35355339059327373 * alpha[3][k] * favg[0][k];
        ghat[3][k] += 0.35355339059327373 * alpha[6][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.35355339059327373 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.35355339059327373 * alpha[2][k] * favg[1][k];
        ghat[4][k] += 0.3535533905932738 * alpha[3][k] * favg[7][k];
        ghat[4][k] += 0.3535533905932738 * alpha[6][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.35355339059327373 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.3535533905932738 * alpha[2][k] * favg[7][k];
        ghat[5][k] += 0.35355339059327373 * alpha[3][k] * favg[1][k];
        ghat[5][k] += 0.3535533905932738 * alpha[6][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.35355339059327373 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.35355339059327373 * alpha[2][k] * favg[3][k];
        ghat[6][k] += 0.35355339059327373 * alpha[3][k] * favg[2][k];
        ghat[6][k] += 0.35355339059327373 * alpha[6][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.3535533905932738 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.3535533905932738 * alpha[2][k] * favg[5][k];
        ghat[7][k] += 0.3535533905932738 * alpha[3][k] * favg[4][k];
        ghat[7][k] += 0.3535533905932738 * alpha[6][k] * favg[1][k];
    }
    sxn(&mut out_lo[0], -scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[2], -scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[3], -scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], -scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[6], -scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[7], -scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[8], -scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[9], -scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[10], -scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[11], -scale * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[12], -scale * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[13], -scale * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[14], -scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[15], -scale * 1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[0], scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[2], scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[3], scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[6], scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[7], scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[8], scale * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[9], scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[10], scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[11], scale * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[12], scale * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[13], scale * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[14], scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[15], scale * -1.224744871391589, &ghat[7]);
}

/// LDG gradient in v1 for one cell: volume gradient-mass plus the
/// upper-neighbor trace (`f_up`; own upper trace when `at_upper`) and
/// the cell's own lower trace.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_grad_v1(dv: f64, at_upper: bool, f: &[f64], f_up: &[f64], g: &mut [f64]) {
    lbo_2x2v_p1_ser_diff_grad_v1_body::<1>(dv, at_upper, f.as_chunks().0, f_up.as_chunks().0, g.as_chunks_mut().0)
}

/// [`lbo_2x2v_p1_ser_diff_grad_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_grad_v1_b4(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_grad_v1_body(dv, at_upper, f, f_up, g)
}

/// [`lbo_2x2v_p1_ser_diff_grad_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_grad_v1_b4_avx2(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_grad_v1_body(dv, at_upper, f, f_up, g)
}

/// Shared lane-generic body of [`lbo_2x2v_p1_ser_diff_grad_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_2x2v_p1_ser_diff_grad_v1_body<const L: usize>(dv: f64, at_upper: bool, f: &[[f64; L]], f_up: &[[f64; L]], g: &mut [[f64; L]]) {
    let f: &[[f64; L]; 16] = f.first_chunk().expect("f: 16 coefficients");
    let f_up: &[[f64; L]; 16] = f_up.first_chunk().expect("f_up: 16 coefficients");
    let g: &mut [[f64; L]; 16] = g.first_chunk_mut().expect("g: 16 coefficients");
    let scale = 2.0 / dv;
    sxn(&mut g[1], -scale * 1.7320508075688772, &f[0]);
    sxn(&mut g[5], -scale * 1.7320508075688772, &f[2]);
    sxn(&mut g[6], -scale * 1.7320508075688772, &f[3]);
    sxn(&mut g[8], -scale * 1.7320508075688772, &f[4]);
    sxn(&mut g[11], -scale * 1.7320508075688772, &f[7]);
    sxn(&mut g[12], -scale * 1.7320508075688772, &f[9]);
    sxn(&mut g[13], -scale * 1.7320508075688772, &f[10]);
    sxn(&mut g[15], -scale * 1.7320508075688772, &f[14]);
    let mut tr = [[0.0f64; L]; 8];
    if at_upper {
        for k in 0..L {
            tr[0][k] += 0.7071067811865476 * f[0][k];
            tr[0][k] += 1.224744871391589 * f[1][k];
        }
        sxn(&mut tr[1], 0.7071067811865476, &f[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f[3]);
        sxn(&mut tr[3], 0.7071067811865476, &f[4]);
        sxn(&mut tr[1], 1.224744871391589, &f[5]);
        sxn(&mut tr[2], 1.224744871391589, &f[6]);
        sxn(&mut tr[4], 0.7071067811865476, &f[7]);
        sxn(&mut tr[3], 1.224744871391589, &f[8]);
        sxn(&mut tr[5], 0.7071067811865476, &f[9]);
        sxn(&mut tr[6], 0.7071067811865476, &f[10]);
        sxn(&mut tr[4], 1.224744871391589, &f[11]);
        sxn(&mut tr[5], 1.224744871391589, &f[12]);
        sxn(&mut tr[6], 1.224744871391589, &f[13]);
        for k in 0..L {
            tr[7][k] += 0.7071067811865476 * f[14][k];
            tr[7][k] += 1.224744871391589 * f[15][k];
        }
    } else {
        for k in 0..L {
            tr[0][k] += 0.7071067811865476 * f_up[0][k];
            tr[0][k] += -1.224744871391589 * f_up[1][k];
        }
        sxn(&mut tr[1], 0.7071067811865476, &f_up[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f_up[3]);
        sxn(&mut tr[3], 0.7071067811865476, &f_up[4]);
        sxn(&mut tr[1], -1.224744871391589, &f_up[5]);
        sxn(&mut tr[2], -1.224744871391589, &f_up[6]);
        sxn(&mut tr[4], 0.7071067811865476, &f_up[7]);
        sxn(&mut tr[3], -1.224744871391589, &f_up[8]);
        sxn(&mut tr[5], 0.7071067811865476, &f_up[9]);
        sxn(&mut tr[6], 0.7071067811865476, &f_up[10]);
        sxn(&mut tr[4], -1.224744871391589, &f_up[11]);
        sxn(&mut tr[5], -1.224744871391589, &f_up[12]);
        sxn(&mut tr[6], -1.224744871391589, &f_up[13]);
        for k in 0..L {
            tr[7][k] += 0.7071067811865476 * f_up[14][k];
            tr[7][k] += -1.224744871391589 * f_up[15][k];
        }
    }
    sxn(&mut g[0], scale * 0.7071067811865476, &tr[0]);
    sxn(&mut g[1], scale * 1.224744871391589, &tr[0]);
    sxn(&mut g[2], scale * 0.7071067811865476, &tr[1]);
    sxn(&mut g[3], scale * 0.7071067811865476, &tr[2]);
    sxn(&mut g[4], scale * 0.7071067811865476, &tr[3]);
    sxn(&mut g[5], scale * 1.224744871391589, &tr[1]);
    sxn(&mut g[6], scale * 1.224744871391589, &tr[2]);
    sxn(&mut g[7], scale * 0.7071067811865476, &tr[4]);
    sxn(&mut g[8], scale * 1.224744871391589, &tr[3]);
    sxn(&mut g[9], scale * 0.7071067811865476, &tr[5]);
    sxn(&mut g[10], scale * 0.7071067811865476, &tr[6]);
    sxn(&mut g[11], scale * 1.224744871391589, &tr[4]);
    sxn(&mut g[12], scale * 1.224744871391589, &tr[5]);
    sxn(&mut g[13], scale * 1.224744871391589, &tr[6]);
    sxn(&mut g[14], scale * 0.7071067811865476, &tr[7]);
    sxn(&mut g[15], scale * 1.224744871391589, &tr[7]);
    let mut tl = [[0.0f64; L]; 8];
    for k in 0..L {
        tl[0][k] += 0.7071067811865476 * f[0][k];
        tl[0][k] += -1.224744871391589 * f[1][k];
    }
    sxn(&mut tl[1], 0.7071067811865476, &f[2]);
    sxn(&mut tl[2], 0.7071067811865476, &f[3]);
    sxn(&mut tl[3], 0.7071067811865476, &f[4]);
    sxn(&mut tl[1], -1.224744871391589, &f[5]);
    sxn(&mut tl[2], -1.224744871391589, &f[6]);
    sxn(&mut tl[4], 0.7071067811865476, &f[7]);
    sxn(&mut tl[3], -1.224744871391589, &f[8]);
    sxn(&mut tl[5], 0.7071067811865476, &f[9]);
    sxn(&mut tl[6], 0.7071067811865476, &f[10]);
    sxn(&mut tl[4], -1.224744871391589, &f[11]);
    sxn(&mut tl[5], -1.224744871391589, &f[12]);
    sxn(&mut tl[6], -1.224744871391589, &f[13]);
    for k in 0..L {
        tl[7][k] += 0.7071067811865476 * f[14][k];
        tl[7][k] += -1.224744871391589 * f[15][k];
    }
    sxn(&mut g[0], -scale * 0.7071067811865476, &tl[0]);
    sxn(&mut g[1], -scale * -1.224744871391589, &tl[0]);
    sxn(&mut g[2], -scale * 0.7071067811865476, &tl[1]);
    sxn(&mut g[3], -scale * 0.7071067811865476, &tl[2]);
    sxn(&mut g[4], -scale * 0.7071067811865476, &tl[3]);
    sxn(&mut g[5], -scale * -1.224744871391589, &tl[1]);
    sxn(&mut g[6], -scale * -1.224744871391589, &tl[2]);
    sxn(&mut g[7], -scale * 0.7071067811865476, &tl[4]);
    sxn(&mut g[8], -scale * -1.224744871391589, &tl[3]);
    sxn(&mut g[9], -scale * 0.7071067811865476, &tl[5]);
    sxn(&mut g[10], -scale * 0.7071067811865476, &tl[6]);
    sxn(&mut g[11], -scale * -1.224744871391589, &tl[4]);
    sxn(&mut g[12], -scale * -1.224744871391589, &tl[5]);
    sxn(&mut g[13], -scale * -1.224744871391589, &tl[6]);
    sxn(&mut g[14], -scale * 0.7071067811865476, &tl[7]);
    sxn(&mut g[15], -scale * -1.224744871391589, &tl[7]);
}

/// LBO diffusion volume term in v1: weak `ν vth²(x) ∂_v g`.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_vol_v1(nu: f64, dv: f64, vth2: &[f64], g: &[f64], out: &mut [f64]) {
    lbo_2x2v_p1_ser_diff_vol_v1_body::<1>(nu, dv, vth2.as_chunks().0, g.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_2x2v_p1_ser_diff_vol_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_vol_v1_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_vol_v1_body(nu, dv, vth2, g, out)
}

/// [`lbo_2x2v_p1_ser_diff_vol_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_vol_v1_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_vol_v1_body(nu, dv, vth2, g, out)
}

/// Shared lane-generic body of [`lbo_2x2v_p1_ser_diff_vol_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_2x2v_p1_ser_diff_vol_v1_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g: &[[f64; L]], out: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 4] = vth2.first_chunk().expect("vth2: 4 coefficients");
    let g: &[[f64; L]; 16] = g.first_chunk().expect("g: 16 coefficients");
    let out: &mut [[f64; L]; 16] = out.first_chunk_mut().expect("out: 16 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 16];
    for k in 0..L {
        alpha[0][k] = 2.0 * vth2[0][k];
        alpha[3][k] = 2.0 * vth2[1][k];
        alpha[4][k] = 2.0 * vth2[2][k];
        alpha[10][k] = 2.0 * vth2[3][k];
    }
    for k in 0..L {
        out[1][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[0][k];
        out[1][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[3][k];
        out[1][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[4][k];
        out[1][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[10][k];
    }
    for k in 0..L {
        out[5][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[2][k];
        out[5][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[7][k];
        out[5][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[9][k];
        out[5][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[14][k];
    }
    for k in 0..L {
        out[6][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[3][k];
        out[6][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[0][k];
        out[6][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[10][k];
        out[6][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[4][k];
    }
    for k in 0..L {
        out[8][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[4][k];
        out[8][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[10][k];
        out[8][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[0][k];
        out[8][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[3][k];
    }
    for k in 0..L {
        out[11][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[7][k];
        out[11][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[2][k];
        out[11][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[14][k];
        out[11][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[9][k];
    }
    for k in 0..L {
        out[12][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[9][k];
        out[12][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[14][k];
        out[12][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[2][k];
        out[12][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[7][k];
    }
    for k in 0..L {
        out[13][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[10][k];
        out[13][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[4][k];
        out[13][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[3][k];
        out[13][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[0][k];
    }
    for k in 0..L {
        out[15][k] += -nu * scale * 0.4330127018922193 * alpha[0][k] * g[14][k];
        out[15][k] += -nu * scale * 0.4330127018922193 * alpha[3][k] * g[9][k];
        out[15][k] += -nu * scale * 0.4330127018922193 * alpha[4][k] * g[7][k];
        out[15][k] += -nu * scale * 0.4330127018922193 * alpha[10][k] * g[2][k];
    }
}

/// LBO diffusion surface term in v1 at one interior face: one-sided
/// flux of the LDG gradient (lower cell's upper trace), both sides
/// updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_surf_v1(nu: f64, dv: f64, vth2: &[f64], g_lo: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_2x2v_p1_ser_diff_surf_v1_body::<1>(nu, dv, vth2.as_chunks().0, g_lo.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_2x2v_p1_ser_diff_surf_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_surf_v1_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_surf_v1_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// [`lbo_2x2v_p1_ser_diff_surf_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_2x2v_p1_ser_diff_surf_v1_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_2x2v_p1_ser_diff_surf_v1_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_2x2v_p1_ser_diff_surf_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_2x2v_p1_ser_diff_surf_v1_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g_lo: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 4] = vth2.first_chunk().expect("vth2: 4 coefficients");
    let g_lo: &[[f64; L]; 16] = g_lo.first_chunk().expect("g_lo: 16 coefficients");
    let out_lo: &mut [[f64; L]; 16] = out_lo.first_chunk_mut().expect("out_lo: 16 coefficients");
    let out_hi: &mut [[f64; L]; 16] = out_hi.first_chunk_mut().expect("out_hi: 16 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 8];
    for k in 0..L {
        alpha[0][k] = 1.4142135623730951 * vth2[0][k];
        alpha[2][k] = 1.4142135623730951 * vth2[1][k];
        alpha[3][k] = 1.4142135623730951 * vth2[2][k];
        alpha[6][k] = 1.4142135623730951 * vth2[3][k];
    }
    let mut tr = [[0.0f64; L]; 8];
    for k in 0..L {
        tr[0][k] += 0.7071067811865476 * g_lo[0][k];
        tr[0][k] += 1.224744871391589 * g_lo[1][k];
    }
    sxn(&mut tr[1], 0.7071067811865476, &g_lo[2]);
    sxn(&mut tr[2], 0.7071067811865476, &g_lo[3]);
    sxn(&mut tr[3], 0.7071067811865476, &g_lo[4]);
    sxn(&mut tr[1], 1.224744871391589, &g_lo[5]);
    sxn(&mut tr[2], 1.224744871391589, &g_lo[6]);
    sxn(&mut tr[4], 0.7071067811865476, &g_lo[7]);
    sxn(&mut tr[3], 1.224744871391589, &g_lo[8]);
    sxn(&mut tr[5], 0.7071067811865476, &g_lo[9]);
    sxn(&mut tr[6], 0.7071067811865476, &g_lo[10]);
    sxn(&mut tr[4], 1.224744871391589, &g_lo[11]);
    sxn(&mut tr[5], 1.224744871391589, &g_lo[12]);
    sxn(&mut tr[6], 1.224744871391589, &g_lo[13]);
    for k in 0..L {
        tr[7][k] += 0.7071067811865476 * g_lo[14][k];
        tr[7][k] += 1.224744871391589 * g_lo[15][k];
    }
    let mut ghat = [[0.0f64; L]; 8];
    for k in 0..L {
        ghat[0][k] += 0.3535533905932738 * alpha[0][k] * tr[0][k];
        ghat[0][k] += 0.35355339059327373 * alpha[2][k] * tr[2][k];
        ghat[0][k] += 0.35355339059327373 * alpha[3][k] * tr[3][k];
        ghat[0][k] += 0.35355339059327373 * alpha[6][k] * tr[6][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.35355339059327373 * alpha[0][k] * tr[1][k];
        ghat[1][k] += 0.35355339059327373 * alpha[2][k] * tr[4][k];
        ghat[1][k] += 0.35355339059327373 * alpha[3][k] * tr[5][k];
        ghat[1][k] += 0.3535533905932738 * alpha[6][k] * tr[7][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.35355339059327373 * alpha[0][k] * tr[2][k];
        ghat[2][k] += 0.35355339059327373 * alpha[2][k] * tr[0][k];
        ghat[2][k] += 0.35355339059327373 * alpha[3][k] * tr[6][k];
        ghat[2][k] += 0.35355339059327373 * alpha[6][k] * tr[3][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.35355339059327373 * alpha[0][k] * tr[3][k];
        ghat[3][k] += 0.35355339059327373 * alpha[2][k] * tr[6][k];
        ghat[3][k] += 0.35355339059327373 * alpha[3][k] * tr[0][k];
        ghat[3][k] += 0.35355339059327373 * alpha[6][k] * tr[2][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.35355339059327373 * alpha[0][k] * tr[4][k];
        ghat[4][k] += 0.35355339059327373 * alpha[2][k] * tr[1][k];
        ghat[4][k] += 0.3535533905932738 * alpha[3][k] * tr[7][k];
        ghat[4][k] += 0.3535533905932738 * alpha[6][k] * tr[5][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.35355339059327373 * alpha[0][k] * tr[5][k];
        ghat[5][k] += 0.3535533905932738 * alpha[2][k] * tr[7][k];
        ghat[5][k] += 0.35355339059327373 * alpha[3][k] * tr[1][k];
        ghat[5][k] += 0.3535533905932738 * alpha[6][k] * tr[4][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.35355339059327373 * alpha[0][k] * tr[6][k];
        ghat[6][k] += 0.35355339059327373 * alpha[2][k] * tr[3][k];
        ghat[6][k] += 0.35355339059327373 * alpha[3][k] * tr[2][k];
        ghat[6][k] += 0.35355339059327373 * alpha[6][k] * tr[0][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.3535533905932738 * alpha[0][k] * tr[7][k];
        ghat[7][k] += 0.3535533905932738 * alpha[2][k] * tr[5][k];
        ghat[7][k] += 0.3535533905932738 * alpha[3][k] * tr[4][k];
        ghat[7][k] += 0.3535533905932738 * alpha[6][k] * tr[1][k];
    }
    sxn(&mut out_lo[0], nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], nu * scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[2], nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[3], nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], nu * scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[6], nu * scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[7], nu * scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[8], nu * scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[9], nu * scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[10], nu * scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[11], nu * scale * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[12], nu * scale * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[13], nu * scale * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[14], nu * scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[15], nu * scale * 1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[0], -nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], -nu * scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[2], -nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[3], -nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], -nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], -nu * scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[6], -nu * scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[7], -nu * scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[8], -nu * scale * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[9], -nu * scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[10], -nu * scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[11], -nu * scale * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[12], -nu * scale * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[13], -nu * scale * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[14], -nu * scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[15], -nu * scale * -1.224744871391589, &ghat[7]);
}
