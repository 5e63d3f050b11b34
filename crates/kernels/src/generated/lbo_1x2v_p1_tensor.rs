// LBO (Lenard–Bernstein / Dougherty) collision kernels, 1x2v p=1 tensor basis.
// Auto-generated from exact integral tables — do not edit by hand.
// Five stage functions per velocity direction (drag volume/surface,
// LDG gradient, diffusion volume/surface), each one lane-generic body
// behind a scalar, a `_b4` and a `_b4_avx2` entry point; see
// `crate::dispatch::LboKernelEntry` for the calling conventions.

/// LBO drag volume term in v0: weak `∇_v · (ν(v − u) f)`, cell interior.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_vol_v0(nu: f64, v_c: f64, dv: f64, u: &[f64], f: &[f64], out: &mut [f64]) {
    lbo_1x2v_p1_tensor_drag_vol_v0_body::<1>(nu, v_c, dv, u.as_chunks().0, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_1x2v_p1_tensor_drag_vol_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_vol_v0_b4(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_drag_vol_v0_body(nu, v_c, dv, u, f, out)
}

/// [`lbo_1x2v_p1_tensor_drag_vol_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_vol_v0_b4_avx2(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_drag_vol_v0_body(nu, v_c, dv, u, f, out)
}

/// Shared lane-generic body of [`lbo_1x2v_p1_tensor_drag_vol_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_1x2v_p1_tensor_drag_vol_v0_body<const L: usize>(nu: f64, v_c: f64, dv: f64, u: &[[f64; L]], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let u: &[[f64; L]; 2] = u.first_chunk().expect("u: 2 coefficients");
    let f: &[[f64; L]; 8] = f.first_chunk().expect("f: 8 coefficients");
    let out: &mut [[f64; L]; 8] = out.first_chunk_mut().expect("out: 8 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 8];
    for k in 0..L {
        alpha[0][k] = -nu * v_c * 2.8284271247461903;
        alpha[2][k] = -nu * 0.5 * dv * 1.632993161855452;
        alpha[0][k] += nu * 2.0 * u[0][k];
        alpha[3][k] += nu * 2.0 * u[1][k];
    }
    for k in 0..L {
        out[2][k] += scale * 0.6123724356957945 * alpha[0][k] * f[0][k];
        out[2][k] += scale * 0.6123724356957945 * alpha[2][k] * f[2][k];
        out[2][k] += scale * 0.6123724356957945 * alpha[3][k] * f[3][k];
    }
    for k in 0..L {
        out[4][k] += scale * 0.6123724356957945 * alpha[0][k] * f[1][k];
        out[4][k] += scale * 0.6123724356957945 * alpha[2][k] * f[4][k];
        out[4][k] += scale * 0.6123724356957945 * alpha[3][k] * f[5][k];
    }
    for k in 0..L {
        out[6][k] += scale * 0.6123724356957945 * alpha[0][k] * f[3][k];
        out[6][k] += scale * 0.6123724356957945 * alpha[2][k] * f[6][k];
        out[6][k] += scale * 0.6123724356957945 * alpha[3][k] * f[0][k];
    }
    for k in 0..L {
        out[7][k] += scale * 0.6123724356957945 * alpha[0][k] * f[5][k];
        out[7][k] += scale * 0.6123724356957945 * alpha[2][k] * f[7][k];
        out[7][k] += scale * 0.6123724356957945 * alpha[3][k] * f[1][k];
    }
}

/// LBO drag surface term in v0 at one interior face (`vstar` = face
/// velocity coordinate); penalized central flux, both sides updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_surf_v0(nu: f64, vstar: f64, dv: f64, u: &[f64], f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_1x2v_p1_tensor_drag_surf_v0_body::<1>(nu, vstar, dv, u.as_chunks().0, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_1x2v_p1_tensor_drag_surf_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_surf_v0_b4(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_drag_surf_v0_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// [`lbo_1x2v_p1_tensor_drag_surf_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_surf_v0_b4_avx2(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_drag_surf_v0_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_1x2v_p1_tensor_drag_surf_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_1x2v_p1_tensor_drag_surf_v0_body<const L: usize>(nu: f64, vstar: f64, dv: f64, u: &[[f64; L]], f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let u: &[[f64; L]; 2] = u.first_chunk().expect("u: 2 coefficients");
    let f_lo: &[[f64; L]; 8] = f_lo.first_chunk().expect("f_lo: 8 coefficients");
    let f_hi: &[[f64; L]; 8] = f_hi.first_chunk().expect("f_hi: 8 coefficients");
    let out_lo: &mut [[f64; L]; 8] = out_lo.first_chunk_mut().expect("out_lo: 8 coefficients");
    let out_hi: &mut [[f64; L]; 8] = out_hi.first_chunk_mut().expect("out_hi: 8 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 4];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] = -nu * vstar * 2.0;
        alpha[0][k] += nu * 1.4142135623730951 * u[0][k];
        alpha[2][k] += nu * 1.4142135623730951 * u[1][k];
        lam[k] = alpha[0][k].abs() * 0.5000000000000001 + alpha[2][k].abs() * 0.8660254037844386;
    }
    let mut fm = [[0.0f64; L]; 4];
    let mut fp = [[0.0f64; L]; 4];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[2]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[4]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[5]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[6]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[7]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[2]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[4]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[5]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[6]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[7]);
    let mut favg = [[0.0f64; L]; 4];
    let mut ghat = [[0.0f64; L]; 4];
    for k in 0..L {
        favg[0][k] = 0.5 * (fm[0][k] + fp[0][k]);
        ghat[0][k] = -0.5 * lam[k] * (fp[0][k] - fm[0][k]);
        favg[1][k] = 0.5 * (fm[1][k] + fp[1][k]);
        ghat[1][k] = -0.5 * lam[k] * (fp[1][k] - fm[1][k]);
        favg[2][k] = 0.5 * (fm[2][k] + fp[2][k]);
        ghat[2][k] = -0.5 * lam[k] * (fp[2][k] - fm[2][k]);
        favg[3][k] = 0.5 * (fm[3][k] + fp[3][k]);
        ghat[3][k] = -0.5 * lam[k] * (fp[3][k] - fm[3][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.5 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.5 * alpha[2][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.5 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.5 * alpha[2][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.5 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.5 * alpha[2][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.5 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.5 * alpha[2][k] * favg[1][k];
    }
    sxn(&mut out_lo[0], -scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[3], -scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], -scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[5], -scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[6], -scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[7], -scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[0], scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[3], scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[5], scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[6], scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[7], scale * -1.224744871391589, &ghat[3]);
}

/// LDG gradient in v0 for one cell: volume gradient-mass plus the
/// upper-neighbor trace (`f_up`; own upper trace when `at_upper`) and
/// the cell's own lower trace.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_grad_v0(dv: f64, at_upper: bool, f: &[f64], f_up: &[f64], g: &mut [f64]) {
    lbo_1x2v_p1_tensor_diff_grad_v0_body::<1>(dv, at_upper, f.as_chunks().0, f_up.as_chunks().0, g.as_chunks_mut().0)
}

/// [`lbo_1x2v_p1_tensor_diff_grad_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_grad_v0_b4(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_grad_v0_body(dv, at_upper, f, f_up, g)
}

/// [`lbo_1x2v_p1_tensor_diff_grad_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_grad_v0_b4_avx2(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_grad_v0_body(dv, at_upper, f, f_up, g)
}

/// Shared lane-generic body of [`lbo_1x2v_p1_tensor_diff_grad_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_1x2v_p1_tensor_diff_grad_v0_body<const L: usize>(dv: f64, at_upper: bool, f: &[[f64; L]], f_up: &[[f64; L]], g: &mut [[f64; L]]) {
    let f: &[[f64; L]; 8] = f.first_chunk().expect("f: 8 coefficients");
    let f_up: &[[f64; L]; 8] = f_up.first_chunk().expect("f_up: 8 coefficients");
    let g: &mut [[f64; L]; 8] = g.first_chunk_mut().expect("g: 8 coefficients");
    let scale = 2.0 / dv;
    sxn(&mut g[2], -scale * 1.7320508075688772, &f[0]);
    sxn(&mut g[4], -scale * 1.7320508075688772, &f[1]);
    sxn(&mut g[6], -scale * 1.7320508075688772, &f[3]);
    sxn(&mut g[7], -scale * 1.7320508075688772, &f[5]);
    let mut tr = [[0.0f64; L]; 4];
    if at_upper {
        sxn(&mut tr[0], 0.7071067811865476, &f[0]);
        sxn(&mut tr[1], 0.7071067811865476, &f[1]);
        sxn(&mut tr[0], 1.224744871391589, &f[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f[3]);
        sxn(&mut tr[1], 1.224744871391589, &f[4]);
        sxn(&mut tr[3], 0.7071067811865476, &f[5]);
        sxn(&mut tr[2], 1.224744871391589, &f[6]);
        sxn(&mut tr[3], 1.224744871391589, &f[7]);
    } else {
        sxn(&mut tr[0], 0.7071067811865476, &f_up[0]);
        sxn(&mut tr[1], 0.7071067811865476, &f_up[1]);
        sxn(&mut tr[0], -1.224744871391589, &f_up[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f_up[3]);
        sxn(&mut tr[1], -1.224744871391589, &f_up[4]);
        sxn(&mut tr[3], 0.7071067811865476, &f_up[5]);
        sxn(&mut tr[2], -1.224744871391589, &f_up[6]);
        sxn(&mut tr[3], -1.224744871391589, &f_up[7]);
    }
    sxn(&mut g[0], scale * 0.7071067811865476, &tr[0]);
    sxn(&mut g[1], scale * 0.7071067811865476, &tr[1]);
    sxn(&mut g[2], scale * 1.224744871391589, &tr[0]);
    sxn(&mut g[3], scale * 0.7071067811865476, &tr[2]);
    sxn(&mut g[4], scale * 1.224744871391589, &tr[1]);
    sxn(&mut g[5], scale * 0.7071067811865476, &tr[3]);
    sxn(&mut g[6], scale * 1.224744871391589, &tr[2]);
    sxn(&mut g[7], scale * 1.224744871391589, &tr[3]);
    let mut tl = [[0.0f64; L]; 4];
    sxn(&mut tl[0], 0.7071067811865476, &f[0]);
    sxn(&mut tl[1], 0.7071067811865476, &f[1]);
    sxn(&mut tl[0], -1.224744871391589, &f[2]);
    sxn(&mut tl[2], 0.7071067811865476, &f[3]);
    sxn(&mut tl[1], -1.224744871391589, &f[4]);
    sxn(&mut tl[3], 0.7071067811865476, &f[5]);
    sxn(&mut tl[2], -1.224744871391589, &f[6]);
    sxn(&mut tl[3], -1.224744871391589, &f[7]);
    sxn(&mut g[0], -scale * 0.7071067811865476, &tl[0]);
    sxn(&mut g[1], -scale * 0.7071067811865476, &tl[1]);
    sxn(&mut g[2], -scale * -1.224744871391589, &tl[0]);
    sxn(&mut g[3], -scale * 0.7071067811865476, &tl[2]);
    sxn(&mut g[4], -scale * -1.224744871391589, &tl[1]);
    sxn(&mut g[5], -scale * 0.7071067811865476, &tl[3]);
    sxn(&mut g[6], -scale * -1.224744871391589, &tl[2]);
    sxn(&mut g[7], -scale * -1.224744871391589, &tl[3]);
}

/// LBO diffusion volume term in v0: weak `ν vth²(x) ∂_v g`.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_vol_v0(nu: f64, dv: f64, vth2: &[f64], g: &[f64], out: &mut [f64]) {
    lbo_1x2v_p1_tensor_diff_vol_v0_body::<1>(nu, dv, vth2.as_chunks().0, g.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_1x2v_p1_tensor_diff_vol_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_vol_v0_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_vol_v0_body(nu, dv, vth2, g, out)
}

/// [`lbo_1x2v_p1_tensor_diff_vol_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_vol_v0_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_vol_v0_body(nu, dv, vth2, g, out)
}

/// Shared lane-generic body of [`lbo_1x2v_p1_tensor_diff_vol_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_1x2v_p1_tensor_diff_vol_v0_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g: &[[f64; L]], out: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 2] = vth2.first_chunk().expect("vth2: 2 coefficients");
    let g: &[[f64; L]; 8] = g.first_chunk().expect("g: 8 coefficients");
    let out: &mut [[f64; L]; 8] = out.first_chunk_mut().expect("out: 8 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 8];
    for k in 0..L {
        alpha[0][k] = 2.0 * vth2[0][k];
        alpha[3][k] = 2.0 * vth2[1][k];
    }
    for k in 0..L {
        out[2][k] += -nu * scale * 0.6123724356957945 * alpha[0][k] * g[0][k];
        out[2][k] += -nu * scale * 0.6123724356957945 * alpha[3][k] * g[3][k];
    }
    for k in 0..L {
        out[4][k] += -nu * scale * 0.6123724356957945 * alpha[0][k] * g[1][k];
        out[4][k] += -nu * scale * 0.6123724356957945 * alpha[3][k] * g[5][k];
    }
    for k in 0..L {
        out[6][k] += -nu * scale * 0.6123724356957945 * alpha[0][k] * g[3][k];
        out[6][k] += -nu * scale * 0.6123724356957945 * alpha[3][k] * g[0][k];
    }
    for k in 0..L {
        out[7][k] += -nu * scale * 0.6123724356957945 * alpha[0][k] * g[5][k];
        out[7][k] += -nu * scale * 0.6123724356957945 * alpha[3][k] * g[1][k];
    }
}

/// LBO diffusion surface term in v0 at one interior face: one-sided
/// flux of the LDG gradient (lower cell's upper trace), both sides
/// updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_surf_v0(nu: f64, dv: f64, vth2: &[f64], g_lo: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_1x2v_p1_tensor_diff_surf_v0_body::<1>(nu, dv, vth2.as_chunks().0, g_lo.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_1x2v_p1_tensor_diff_surf_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_surf_v0_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_surf_v0_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// [`lbo_1x2v_p1_tensor_diff_surf_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_surf_v0_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_surf_v0_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_1x2v_p1_tensor_diff_surf_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_1x2v_p1_tensor_diff_surf_v0_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g_lo: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 2] = vth2.first_chunk().expect("vth2: 2 coefficients");
    let g_lo: &[[f64; L]; 8] = g_lo.first_chunk().expect("g_lo: 8 coefficients");
    let out_lo: &mut [[f64; L]; 8] = out_lo.first_chunk_mut().expect("out_lo: 8 coefficients");
    let out_hi: &mut [[f64; L]; 8] = out_hi.first_chunk_mut().expect("out_hi: 8 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 4];
    for k in 0..L {
        alpha[0][k] = 1.4142135623730951 * vth2[0][k];
        alpha[2][k] = 1.4142135623730951 * vth2[1][k];
    }
    let mut tr = [[0.0f64; L]; 4];
    sxn(&mut tr[0], 0.7071067811865476, &g_lo[0]);
    sxn(&mut tr[1], 0.7071067811865476, &g_lo[1]);
    sxn(&mut tr[0], 1.224744871391589, &g_lo[2]);
    sxn(&mut tr[2], 0.7071067811865476, &g_lo[3]);
    sxn(&mut tr[1], 1.224744871391589, &g_lo[4]);
    sxn(&mut tr[3], 0.7071067811865476, &g_lo[5]);
    sxn(&mut tr[2], 1.224744871391589, &g_lo[6]);
    sxn(&mut tr[3], 1.224744871391589, &g_lo[7]);
    let mut ghat = [[0.0f64; L]; 4];
    for k in 0..L {
        ghat[0][k] += 0.5 * alpha[0][k] * tr[0][k];
        ghat[0][k] += 0.5 * alpha[2][k] * tr[2][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.5 * alpha[0][k] * tr[1][k];
        ghat[1][k] += 0.5 * alpha[2][k] * tr[3][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.5 * alpha[0][k] * tr[2][k];
        ghat[2][k] += 0.5 * alpha[2][k] * tr[0][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.5 * alpha[0][k] * tr[3][k];
        ghat[3][k] += 0.5 * alpha[2][k] * tr[1][k];
    }
    sxn(&mut out_lo[0], nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], nu * scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[3], nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], nu * scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[5], nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[6], nu * scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[7], nu * scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[0], -nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], -nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], -nu * scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[3], -nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], -nu * scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[5], -nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[6], -nu * scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[7], -nu * scale * -1.224744871391589, &ghat[3]);
}

/// LBO drag volume term in v1: weak `∇_v · (ν(v − u) f)`, cell interior.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_vol_v1(nu: f64, v_c: f64, dv: f64, u: &[f64], f: &[f64], out: &mut [f64]) {
    lbo_1x2v_p1_tensor_drag_vol_v1_body::<1>(nu, v_c, dv, u.as_chunks().0, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_1x2v_p1_tensor_drag_vol_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_vol_v1_b4(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_drag_vol_v1_body(nu, v_c, dv, u, f, out)
}

/// [`lbo_1x2v_p1_tensor_drag_vol_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_vol_v1_b4_avx2(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_drag_vol_v1_body(nu, v_c, dv, u, f, out)
}

/// Shared lane-generic body of [`lbo_1x2v_p1_tensor_drag_vol_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_1x2v_p1_tensor_drag_vol_v1_body<const L: usize>(nu: f64, v_c: f64, dv: f64, u: &[[f64; L]], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let u: &[[f64; L]; 2] = u.first_chunk().expect("u: 2 coefficients");
    let f: &[[f64; L]; 8] = f.first_chunk().expect("f: 8 coefficients");
    let out: &mut [[f64; L]; 8] = out.first_chunk_mut().expect("out: 8 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 8];
    for k in 0..L {
        alpha[0][k] = -nu * v_c * 2.8284271247461903;
        alpha[1][k] = -nu * 0.5 * dv * 1.632993161855452;
        alpha[0][k] += nu * 2.0 * u[0][k];
        alpha[3][k] += nu * 2.0 * u[1][k];
    }
    for k in 0..L {
        out[1][k] += scale * 0.6123724356957945 * alpha[0][k] * f[0][k];
        out[1][k] += scale * 0.6123724356957945 * alpha[1][k] * f[1][k];
        out[1][k] += scale * 0.6123724356957945 * alpha[3][k] * f[3][k];
    }
    for k in 0..L {
        out[4][k] += scale * 0.6123724356957945 * alpha[0][k] * f[2][k];
        out[4][k] += scale * 0.6123724356957945 * alpha[1][k] * f[4][k];
        out[4][k] += scale * 0.6123724356957945 * alpha[3][k] * f[6][k];
    }
    for k in 0..L {
        out[5][k] += scale * 0.6123724356957945 * alpha[0][k] * f[3][k];
        out[5][k] += scale * 0.6123724356957945 * alpha[1][k] * f[5][k];
        out[5][k] += scale * 0.6123724356957945 * alpha[3][k] * f[0][k];
    }
    for k in 0..L {
        out[7][k] += scale * 0.6123724356957945 * alpha[0][k] * f[6][k];
        out[7][k] += scale * 0.6123724356957945 * alpha[1][k] * f[7][k];
        out[7][k] += scale * 0.6123724356957945 * alpha[3][k] * f[2][k];
    }
}

/// LBO drag surface term in v1 at one interior face (`vstar` = face
/// velocity coordinate); penalized central flux, both sides updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_surf_v1(nu: f64, vstar: f64, dv: f64, u: &[f64], f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_1x2v_p1_tensor_drag_surf_v1_body::<1>(nu, vstar, dv, u.as_chunks().0, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_1x2v_p1_tensor_drag_surf_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_surf_v1_b4(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_drag_surf_v1_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// [`lbo_1x2v_p1_tensor_drag_surf_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_drag_surf_v1_b4_avx2(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_drag_surf_v1_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_1x2v_p1_tensor_drag_surf_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_1x2v_p1_tensor_drag_surf_v1_body<const L: usize>(nu: f64, vstar: f64, dv: f64, u: &[[f64; L]], f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let u: &[[f64; L]; 2] = u.first_chunk().expect("u: 2 coefficients");
    let f_lo: &[[f64; L]; 8] = f_lo.first_chunk().expect("f_lo: 8 coefficients");
    let f_hi: &[[f64; L]; 8] = f_hi.first_chunk().expect("f_hi: 8 coefficients");
    let out_lo: &mut [[f64; L]; 8] = out_lo.first_chunk_mut().expect("out_lo: 8 coefficients");
    let out_hi: &mut [[f64; L]; 8] = out_hi.first_chunk_mut().expect("out_hi: 8 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 4];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] = -nu * vstar * 2.0;
        alpha[0][k] += nu * 1.4142135623730951 * u[0][k];
        alpha[2][k] += nu * 1.4142135623730951 * u[1][k];
        lam[k] = alpha[0][k].abs() * 0.5000000000000001 + alpha[2][k].abs() * 0.8660254037844386;
    }
    let mut fm = [[0.0f64; L]; 4];
    let mut fp = [[0.0f64; L]; 4];
    for k in 0..L {
        fm[0][k] += 0.7071067811865476 * f_lo[0][k];
        fm[0][k] += 1.224744871391589 * f_lo[1][k];
    }
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[4]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[5]);
    for k in 0..L {
        fm[3][k] += 0.7071067811865476 * f_lo[6][k];
        fm[3][k] += 1.224744871391589 * f_lo[7][k];
    }
    for k in 0..L {
        fp[0][k] += 0.7071067811865476 * f_hi[0][k];
        fp[0][k] += -1.224744871391589 * f_hi[1][k];
    }
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[4]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[5]);
    for k in 0..L {
        fp[3][k] += 0.7071067811865476 * f_hi[6][k];
        fp[3][k] += -1.224744871391589 * f_hi[7][k];
    }
    let mut favg = [[0.0f64; L]; 4];
    let mut ghat = [[0.0f64; L]; 4];
    for k in 0..L {
        favg[0][k] = 0.5 * (fm[0][k] + fp[0][k]);
        ghat[0][k] = -0.5 * lam[k] * (fp[0][k] - fm[0][k]);
        favg[1][k] = 0.5 * (fm[1][k] + fp[1][k]);
        ghat[1][k] = -0.5 * lam[k] * (fp[1][k] - fm[1][k]);
        favg[2][k] = 0.5 * (fm[2][k] + fp[2][k]);
        ghat[2][k] = -0.5 * lam[k] * (fp[2][k] - fm[2][k]);
        favg[3][k] = 0.5 * (fm[3][k] + fp[3][k]);
        ghat[3][k] = -0.5 * lam[k] * (fp[3][k] - fm[3][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.5 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.5 * alpha[2][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.5 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.5 * alpha[2][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.5 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.5 * alpha[2][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.5 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.5 * alpha[2][k] * favg[1][k];
    }
    sxn(&mut out_lo[0], -scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[2], -scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[3], -scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], -scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[5], -scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[6], -scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[7], -scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[0], scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[2], scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[3], scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[5], scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[6], scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[7], scale * -1.224744871391589, &ghat[3]);
}

/// LDG gradient in v1 for one cell: volume gradient-mass plus the
/// upper-neighbor trace (`f_up`; own upper trace when `at_upper`) and
/// the cell's own lower trace.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_grad_v1(dv: f64, at_upper: bool, f: &[f64], f_up: &[f64], g: &mut [f64]) {
    lbo_1x2v_p1_tensor_diff_grad_v1_body::<1>(dv, at_upper, f.as_chunks().0, f_up.as_chunks().0, g.as_chunks_mut().0)
}

/// [`lbo_1x2v_p1_tensor_diff_grad_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_grad_v1_b4(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_grad_v1_body(dv, at_upper, f, f_up, g)
}

/// [`lbo_1x2v_p1_tensor_diff_grad_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_grad_v1_b4_avx2(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_grad_v1_body(dv, at_upper, f, f_up, g)
}

/// Shared lane-generic body of [`lbo_1x2v_p1_tensor_diff_grad_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_1x2v_p1_tensor_diff_grad_v1_body<const L: usize>(dv: f64, at_upper: bool, f: &[[f64; L]], f_up: &[[f64; L]], g: &mut [[f64; L]]) {
    let f: &[[f64; L]; 8] = f.first_chunk().expect("f: 8 coefficients");
    let f_up: &[[f64; L]; 8] = f_up.first_chunk().expect("f_up: 8 coefficients");
    let g: &mut [[f64; L]; 8] = g.first_chunk_mut().expect("g: 8 coefficients");
    let scale = 2.0 / dv;
    sxn(&mut g[1], -scale * 1.7320508075688772, &f[0]);
    sxn(&mut g[4], -scale * 1.7320508075688772, &f[2]);
    sxn(&mut g[5], -scale * 1.7320508075688772, &f[3]);
    sxn(&mut g[7], -scale * 1.7320508075688772, &f[6]);
    let mut tr = [[0.0f64; L]; 4];
    if at_upper {
        for k in 0..L {
            tr[0][k] += 0.7071067811865476 * f[0][k];
            tr[0][k] += 1.224744871391589 * f[1][k];
        }
        sxn(&mut tr[1], 0.7071067811865476, &f[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f[3]);
        sxn(&mut tr[1], 1.224744871391589, &f[4]);
        sxn(&mut tr[2], 1.224744871391589, &f[5]);
        for k in 0..L {
            tr[3][k] += 0.7071067811865476 * f[6][k];
            tr[3][k] += 1.224744871391589 * f[7][k];
        }
    } else {
        for k in 0..L {
            tr[0][k] += 0.7071067811865476 * f_up[0][k];
            tr[0][k] += -1.224744871391589 * f_up[1][k];
        }
        sxn(&mut tr[1], 0.7071067811865476, &f_up[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f_up[3]);
        sxn(&mut tr[1], -1.224744871391589, &f_up[4]);
        sxn(&mut tr[2], -1.224744871391589, &f_up[5]);
        for k in 0..L {
            tr[3][k] += 0.7071067811865476 * f_up[6][k];
            tr[3][k] += -1.224744871391589 * f_up[7][k];
        }
    }
    sxn(&mut g[0], scale * 0.7071067811865476, &tr[0]);
    sxn(&mut g[1], scale * 1.224744871391589, &tr[0]);
    sxn(&mut g[2], scale * 0.7071067811865476, &tr[1]);
    sxn(&mut g[3], scale * 0.7071067811865476, &tr[2]);
    sxn(&mut g[4], scale * 1.224744871391589, &tr[1]);
    sxn(&mut g[5], scale * 1.224744871391589, &tr[2]);
    sxn(&mut g[6], scale * 0.7071067811865476, &tr[3]);
    sxn(&mut g[7], scale * 1.224744871391589, &tr[3]);
    let mut tl = [[0.0f64; L]; 4];
    for k in 0..L {
        tl[0][k] += 0.7071067811865476 * f[0][k];
        tl[0][k] += -1.224744871391589 * f[1][k];
    }
    sxn(&mut tl[1], 0.7071067811865476, &f[2]);
    sxn(&mut tl[2], 0.7071067811865476, &f[3]);
    sxn(&mut tl[1], -1.224744871391589, &f[4]);
    sxn(&mut tl[2], -1.224744871391589, &f[5]);
    for k in 0..L {
        tl[3][k] += 0.7071067811865476 * f[6][k];
        tl[3][k] += -1.224744871391589 * f[7][k];
    }
    sxn(&mut g[0], -scale * 0.7071067811865476, &tl[0]);
    sxn(&mut g[1], -scale * -1.224744871391589, &tl[0]);
    sxn(&mut g[2], -scale * 0.7071067811865476, &tl[1]);
    sxn(&mut g[3], -scale * 0.7071067811865476, &tl[2]);
    sxn(&mut g[4], -scale * -1.224744871391589, &tl[1]);
    sxn(&mut g[5], -scale * -1.224744871391589, &tl[2]);
    sxn(&mut g[6], -scale * 0.7071067811865476, &tl[3]);
    sxn(&mut g[7], -scale * -1.224744871391589, &tl[3]);
}

/// LBO diffusion volume term in v1: weak `ν vth²(x) ∂_v g`.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_vol_v1(nu: f64, dv: f64, vth2: &[f64], g: &[f64], out: &mut [f64]) {
    lbo_1x2v_p1_tensor_diff_vol_v1_body::<1>(nu, dv, vth2.as_chunks().0, g.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_1x2v_p1_tensor_diff_vol_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_vol_v1_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_vol_v1_body(nu, dv, vth2, g, out)
}

/// [`lbo_1x2v_p1_tensor_diff_vol_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_vol_v1_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_vol_v1_body(nu, dv, vth2, g, out)
}

/// Shared lane-generic body of [`lbo_1x2v_p1_tensor_diff_vol_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_1x2v_p1_tensor_diff_vol_v1_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g: &[[f64; L]], out: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 2] = vth2.first_chunk().expect("vth2: 2 coefficients");
    let g: &[[f64; L]; 8] = g.first_chunk().expect("g: 8 coefficients");
    let out: &mut [[f64; L]; 8] = out.first_chunk_mut().expect("out: 8 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 8];
    for k in 0..L {
        alpha[0][k] = 2.0 * vth2[0][k];
        alpha[3][k] = 2.0 * vth2[1][k];
    }
    for k in 0..L {
        out[1][k] += -nu * scale * 0.6123724356957945 * alpha[0][k] * g[0][k];
        out[1][k] += -nu * scale * 0.6123724356957945 * alpha[3][k] * g[3][k];
    }
    for k in 0..L {
        out[4][k] += -nu * scale * 0.6123724356957945 * alpha[0][k] * g[2][k];
        out[4][k] += -nu * scale * 0.6123724356957945 * alpha[3][k] * g[6][k];
    }
    for k in 0..L {
        out[5][k] += -nu * scale * 0.6123724356957945 * alpha[0][k] * g[3][k];
        out[5][k] += -nu * scale * 0.6123724356957945 * alpha[3][k] * g[0][k];
    }
    for k in 0..L {
        out[7][k] += -nu * scale * 0.6123724356957945 * alpha[0][k] * g[6][k];
        out[7][k] += -nu * scale * 0.6123724356957945 * alpha[3][k] * g[2][k];
    }
}

/// LBO diffusion surface term in v1 at one interior face: one-sided
/// flux of the LDG gradient (lower cell's upper trace), both sides
/// updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_surf_v1(nu: f64, dv: f64, vth2: &[f64], g_lo: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_1x2v_p1_tensor_diff_surf_v1_body::<1>(nu, dv, vth2.as_chunks().0, g_lo.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_1x2v_p1_tensor_diff_surf_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_surf_v1_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_surf_v1_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// [`lbo_1x2v_p1_tensor_diff_surf_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_1x2v_p1_tensor_diff_surf_v1_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_1x2v_p1_tensor_diff_surf_v1_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_1x2v_p1_tensor_diff_surf_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_1x2v_p1_tensor_diff_surf_v1_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g_lo: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 2] = vth2.first_chunk().expect("vth2: 2 coefficients");
    let g_lo: &[[f64; L]; 8] = g_lo.first_chunk().expect("g_lo: 8 coefficients");
    let out_lo: &mut [[f64; L]; 8] = out_lo.first_chunk_mut().expect("out_lo: 8 coefficients");
    let out_hi: &mut [[f64; L]; 8] = out_hi.first_chunk_mut().expect("out_hi: 8 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 4];
    for k in 0..L {
        alpha[0][k] = 1.4142135623730951 * vth2[0][k];
        alpha[2][k] = 1.4142135623730951 * vth2[1][k];
    }
    let mut tr = [[0.0f64; L]; 4];
    for k in 0..L {
        tr[0][k] += 0.7071067811865476 * g_lo[0][k];
        tr[0][k] += 1.224744871391589 * g_lo[1][k];
    }
    sxn(&mut tr[1], 0.7071067811865476, &g_lo[2]);
    sxn(&mut tr[2], 0.7071067811865476, &g_lo[3]);
    sxn(&mut tr[1], 1.224744871391589, &g_lo[4]);
    sxn(&mut tr[2], 1.224744871391589, &g_lo[5]);
    for k in 0..L {
        tr[3][k] += 0.7071067811865476 * g_lo[6][k];
        tr[3][k] += 1.224744871391589 * g_lo[7][k];
    }
    let mut ghat = [[0.0f64; L]; 4];
    for k in 0..L {
        ghat[0][k] += 0.5 * alpha[0][k] * tr[0][k];
        ghat[0][k] += 0.5 * alpha[2][k] * tr[2][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.5 * alpha[0][k] * tr[1][k];
        ghat[1][k] += 0.5 * alpha[2][k] * tr[3][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.5 * alpha[0][k] * tr[2][k];
        ghat[2][k] += 0.5 * alpha[2][k] * tr[0][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.5 * alpha[0][k] * tr[3][k];
        ghat[3][k] += 0.5 * alpha[2][k] * tr[1][k];
    }
    sxn(&mut out_lo[0], nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], nu * scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[2], nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[3], nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], nu * scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[5], nu * scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[6], nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[7], nu * scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[0], -nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], -nu * scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[2], -nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[3], -nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], -nu * scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[5], -nu * scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[6], -nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[7], -nu * scale * -1.224744871391589, &ghat[3]);
}
