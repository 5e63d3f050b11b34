// LBO (Lenard–Bernstein / Dougherty) collision kernels, 3x3v p=1 Serendipity basis.
// Auto-generated from exact integral tables — do not edit by hand.
// Five stage functions per velocity direction (drag volume/surface,
// LDG gradient, diffusion volume/surface), each one lane-generic body
// behind a scalar, a `_b4` and a `_b4_avx2` entry point; see
// `crate::dispatch::LboKernelEntry` for the calling conventions.

/// LBO drag volume term in v0: weak `∇_v · (ν(v − u) f)`, cell interior.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_vol_v0(nu: f64, v_c: f64, dv: f64, u: &[f64], f: &[f64], out: &mut [f64]) {
    lbo_3x3v_p1_ser_drag_vol_v0_body::<1>(nu, v_c, dv, u.as_chunks().0, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_drag_vol_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_vol_v0_b4(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_vol_v0_body(nu, v_c, dv, u, f, out)
}

/// [`lbo_3x3v_p1_ser_drag_vol_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_vol_v0_b4_avx2(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_vol_v0_body(nu, v_c, dv, u, f, out)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_drag_vol_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_drag_vol_v0_body<const L: usize>(nu: f64, v_c: f64, dv: f64, u: &[[f64; L]], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let u: &[[f64; L]; 8] = u.first_chunk().expect("u: 8 coefficients");
    let f: &[[f64; L]; 64] = f.first_chunk().expect("f: 64 coefficients");
    let out: &mut [[f64; L]; 64] = out.first_chunk_mut().expect("out: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 64];
    for k in 0..L {
        alpha[0][k] = -nu * v_c * 8.0;
        alpha[3][k] = -nu * 0.5 * dv * 4.618802153517007;
        alpha[0][k] += nu * 2.8284271247461903 * u[0][k];
        alpha[4][k] += nu * 2.8284271247461903 * u[1][k];
        alpha[5][k] += nu * 2.8284271247461903 * u[2][k];
        alpha[6][k] += nu * 2.8284271247461903 * u[3][k];
        alpha[16][k] += nu * 2.8284271247461903 * u[4][k];
        alpha[20][k] += nu * 2.8284271247461903 * u[5][k];
        alpha[21][k] += nu * 2.8284271247461903 * u[6][k];
        alpha[41][k] += nu * 2.8284271247461903 * u[7][k];
    }
    for k in 0..L {
        out[3][k] += scale * 0.21650635094610965 * alpha[0][k] * f[0][k];
        out[3][k] += scale * 0.21650635094610965 * alpha[3][k] * f[3][k];
        out[3][k] += scale * 0.21650635094610965 * alpha[4][k] * f[4][k];
        out[3][k] += scale * 0.21650635094610965 * alpha[5][k] * f[5][k];
        out[3][k] += scale * 0.21650635094610965 * alpha[6][k] * f[6][k];
        out[3][k] += scale * 0.21650635094610965 * alpha[16][k] * f[16][k];
        out[3][k] += scale * 0.21650635094610965 * alpha[20][k] * f[20][k];
        out[3][k] += scale * 0.21650635094610965 * alpha[21][k] * f[21][k];
        out[3][k] += scale * 0.21650635094610965 * alpha[41][k] * f[41][k];
    }
    for k in 0..L {
        out[8][k] += scale * 0.21650635094610965 * alpha[0][k] * f[1][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[3][k] * f[8][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[4][k] * f[10][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[5][k] * f[13][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[6][k] * f[17][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[16][k] * f[29][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[20][k] * f[35][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[21][k] * f[38][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[41][k] * f[54][k];
    }
    for k in 0..L {
        out[9][k] += scale * 0.21650635094610965 * alpha[0][k] * f[2][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[3][k] * f[9][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[4][k] * f[11][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[5][k] * f[14][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[6][k] * f[18][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[16][k] * f[30][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[20][k] * f[36][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[21][k] * f[39][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[41][k] * f[55][k];
    }
    for k in 0..L {
        out[12][k] += scale * 0.21650635094610965 * alpha[0][k] * f[4][k];
        out[12][k] += scale * 0.21650635094610965 * alpha[3][k] * f[12][k];
        out[12][k] += scale * 0.21650635094610965 * alpha[4][k] * f[0][k];
        out[12][k] += scale * 0.21650635094610965 * alpha[5][k] * f[16][k];
        out[12][k] += scale * 0.21650635094610965 * alpha[6][k] * f[20][k];
        out[12][k] += scale * 0.21650635094610965 * alpha[16][k] * f[5][k];
        out[12][k] += scale * 0.21650635094610965 * alpha[20][k] * f[6][k];
        out[12][k] += scale * 0.21650635094610965 * alpha[21][k] * f[41][k];
        out[12][k] += scale * 0.21650635094610965 * alpha[41][k] * f[21][k];
    }
    for k in 0..L {
        out[15][k] += scale * 0.21650635094610965 * alpha[0][k] * f[5][k];
        out[15][k] += scale * 0.21650635094610965 * alpha[3][k] * f[15][k];
        out[15][k] += scale * 0.21650635094610965 * alpha[4][k] * f[16][k];
        out[15][k] += scale * 0.21650635094610965 * alpha[5][k] * f[0][k];
        out[15][k] += scale * 0.21650635094610965 * alpha[6][k] * f[21][k];
        out[15][k] += scale * 0.21650635094610965 * alpha[16][k] * f[4][k];
        out[15][k] += scale * 0.21650635094610965 * alpha[20][k] * f[41][k];
        out[15][k] += scale * 0.21650635094610965 * alpha[21][k] * f[6][k];
        out[15][k] += scale * 0.21650635094610965 * alpha[41][k] * f[20][k];
    }
    for k in 0..L {
        out[19][k] += scale * 0.21650635094610965 * alpha[0][k] * f[6][k];
        out[19][k] += scale * 0.21650635094610965 * alpha[3][k] * f[19][k];
        out[19][k] += scale * 0.21650635094610965 * alpha[4][k] * f[20][k];
        out[19][k] += scale * 0.21650635094610965 * alpha[5][k] * f[21][k];
        out[19][k] += scale * 0.21650635094610965 * alpha[6][k] * f[0][k];
        out[19][k] += scale * 0.21650635094610965 * alpha[16][k] * f[41][k];
        out[19][k] += scale * 0.21650635094610965 * alpha[20][k] * f[4][k];
        out[19][k] += scale * 0.21650635094610965 * alpha[21][k] * f[5][k];
        out[19][k] += scale * 0.21650635094610965 * alpha[41][k] * f[16][k];
    }
    for k in 0..L {
        out[22][k] += scale * 0.21650635094610965 * alpha[0][k] * f[7][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[3][k] * f[22][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[4][k] * f[23][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[5][k] * f[26][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[6][k] * f[32][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[16][k] * f[44][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[20][k] * f[48][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[21][k] * f[51][k];
        out[22][k] += scale * 0.21650635094610968 * alpha[41][k] * f[60][k];
    }
    for k in 0..L {
        out[24][k] += scale * 0.21650635094610965 * alpha[0][k] * f[10][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[3][k] * f[24][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[4][k] * f[1][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[5][k] * f[29][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[6][k] * f[35][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[16][k] * f[13][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[20][k] * f[17][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[21][k] * f[54][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[41][k] * f[38][k];
    }
    for k in 0..L {
        out[25][k] += scale * 0.21650635094610965 * alpha[0][k] * f[11][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[3][k] * f[25][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[4][k] * f[2][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[5][k] * f[30][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[6][k] * f[36][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[16][k] * f[14][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[20][k] * f[18][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[21][k] * f[55][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[41][k] * f[39][k];
    }
    for k in 0..L {
        out[27][k] += scale * 0.21650635094610965 * alpha[0][k] * f[13][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[3][k] * f[27][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[4][k] * f[29][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[5][k] * f[1][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[6][k] * f[38][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[16][k] * f[10][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[20][k] * f[54][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[21][k] * f[17][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[41][k] * f[35][k];
    }
    for k in 0..L {
        out[28][k] += scale * 0.21650635094610965 * alpha[0][k] * f[14][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[3][k] * f[28][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[4][k] * f[30][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[5][k] * f[2][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[6][k] * f[39][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[16][k] * f[11][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[20][k] * f[55][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[21][k] * f[18][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[41][k] * f[36][k];
    }
    for k in 0..L {
        out[31][k] += scale * 0.21650635094610965 * alpha[0][k] * f[16][k];
        out[31][k] += scale * 0.21650635094610965 * alpha[3][k] * f[31][k];
        out[31][k] += scale * 0.21650635094610965 * alpha[4][k] * f[5][k];
        out[31][k] += scale * 0.21650635094610965 * alpha[5][k] * f[4][k];
        out[31][k] += scale * 0.21650635094610965 * alpha[6][k] * f[41][k];
        out[31][k] += scale * 0.21650635094610965 * alpha[16][k] * f[0][k];
        out[31][k] += scale * 0.21650635094610965 * alpha[20][k] * f[21][k];
        out[31][k] += scale * 0.21650635094610965 * alpha[21][k] * f[20][k];
        out[31][k] += scale * 0.21650635094610965 * alpha[41][k] * f[6][k];
    }
    for k in 0..L {
        out[33][k] += scale * 0.21650635094610965 * alpha[0][k] * f[17][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[3][k] * f[33][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[4][k] * f[35][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[5][k] * f[38][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[6][k] * f[1][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[16][k] * f[54][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[20][k] * f[10][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[21][k] * f[13][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[41][k] * f[29][k];
    }
    for k in 0..L {
        out[34][k] += scale * 0.21650635094610965 * alpha[0][k] * f[18][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[3][k] * f[34][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[4][k] * f[36][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[5][k] * f[39][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[6][k] * f[2][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[16][k] * f[55][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[20][k] * f[11][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[21][k] * f[14][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[41][k] * f[30][k];
    }
    for k in 0..L {
        out[37][k] += scale * 0.21650635094610965 * alpha[0][k] * f[20][k];
        out[37][k] += scale * 0.21650635094610965 * alpha[3][k] * f[37][k];
        out[37][k] += scale * 0.21650635094610965 * alpha[4][k] * f[6][k];
        out[37][k] += scale * 0.21650635094610965 * alpha[5][k] * f[41][k];
        out[37][k] += scale * 0.21650635094610965 * alpha[6][k] * f[4][k];
        out[37][k] += scale * 0.21650635094610965 * alpha[16][k] * f[21][k];
        out[37][k] += scale * 0.21650635094610965 * alpha[20][k] * f[0][k];
        out[37][k] += scale * 0.21650635094610965 * alpha[21][k] * f[16][k];
        out[37][k] += scale * 0.21650635094610965 * alpha[41][k] * f[5][k];
    }
    for k in 0..L {
        out[40][k] += scale * 0.21650635094610965 * alpha[0][k] * f[21][k];
        out[40][k] += scale * 0.21650635094610965 * alpha[3][k] * f[40][k];
        out[40][k] += scale * 0.21650635094610965 * alpha[4][k] * f[41][k];
        out[40][k] += scale * 0.21650635094610965 * alpha[5][k] * f[6][k];
        out[40][k] += scale * 0.21650635094610965 * alpha[6][k] * f[5][k];
        out[40][k] += scale * 0.21650635094610965 * alpha[16][k] * f[20][k];
        out[40][k] += scale * 0.21650635094610965 * alpha[20][k] * f[16][k];
        out[40][k] += scale * 0.21650635094610965 * alpha[21][k] * f[0][k];
        out[40][k] += scale * 0.21650635094610965 * alpha[41][k] * f[4][k];
    }
    for k in 0..L {
        out[42][k] += scale * 0.21650635094610965 * alpha[0][k] * f[23][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[3][k] * f[42][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[4][k] * f[7][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[5][k] * f[44][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[6][k] * f[48][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[16][k] * f[26][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[20][k] * f[32][k];
        out[42][k] += scale * 0.21650635094610968 * alpha[21][k] * f[60][k];
        out[42][k] += scale * 0.21650635094610968 * alpha[41][k] * f[51][k];
    }
    for k in 0..L {
        out[43][k] += scale * 0.21650635094610965 * alpha[0][k] * f[26][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[3][k] * f[43][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[4][k] * f[44][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[5][k] * f[7][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[6][k] * f[51][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[16][k] * f[23][k];
        out[43][k] += scale * 0.21650635094610968 * alpha[20][k] * f[60][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[21][k] * f[32][k];
        out[43][k] += scale * 0.21650635094610968 * alpha[41][k] * f[48][k];
    }
    for k in 0..L {
        out[45][k] += scale * 0.21650635094610965 * alpha[0][k] * f[29][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[3][k] * f[45][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[4][k] * f[13][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[5][k] * f[10][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[6][k] * f[54][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[16][k] * f[1][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[20][k] * f[38][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[21][k] * f[35][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[41][k] * f[17][k];
    }
    for k in 0..L {
        out[46][k] += scale * 0.21650635094610965 * alpha[0][k] * f[30][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[3][k] * f[46][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[4][k] * f[14][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[5][k] * f[11][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[6][k] * f[55][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[16][k] * f[2][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[20][k] * f[39][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[21][k] * f[36][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[41][k] * f[18][k];
    }
    for k in 0..L {
        out[47][k] += scale * 0.21650635094610965 * alpha[0][k] * f[32][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[3][k] * f[47][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[4][k] * f[48][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[5][k] * f[51][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[6][k] * f[7][k];
        out[47][k] += scale * 0.21650635094610968 * alpha[16][k] * f[60][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[20][k] * f[23][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[21][k] * f[26][k];
        out[47][k] += scale * 0.21650635094610968 * alpha[41][k] * f[44][k];
    }
    for k in 0..L {
        out[49][k] += scale * 0.21650635094610965 * alpha[0][k] * f[35][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[3][k] * f[49][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[4][k] * f[17][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[5][k] * f[54][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[6][k] * f[10][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[16][k] * f[38][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[20][k] * f[1][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[21][k] * f[29][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[41][k] * f[13][k];
    }
    for k in 0..L {
        out[50][k] += scale * 0.21650635094610965 * alpha[0][k] * f[36][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[3][k] * f[50][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[4][k] * f[18][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[5][k] * f[55][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[6][k] * f[11][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[16][k] * f[39][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[20][k] * f[2][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[21][k] * f[30][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[41][k] * f[14][k];
    }
    for k in 0..L {
        out[52][k] += scale * 0.21650635094610965 * alpha[0][k] * f[38][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[3][k] * f[52][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[4][k] * f[54][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[5][k] * f[17][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[6][k] * f[13][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[16][k] * f[35][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[20][k] * f[29][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[21][k] * f[1][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[41][k] * f[10][k];
    }
    for k in 0..L {
        out[53][k] += scale * 0.21650635094610965 * alpha[0][k] * f[39][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[3][k] * f[53][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[4][k] * f[55][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[5][k] * f[18][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[6][k] * f[14][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[16][k] * f[36][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[20][k] * f[30][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[21][k] * f[2][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[41][k] * f[11][k];
    }
    for k in 0..L {
        out[56][k] += scale * 0.21650635094610965 * alpha[0][k] * f[41][k];
        out[56][k] += scale * 0.21650635094610965 * alpha[3][k] * f[56][k];
        out[56][k] += scale * 0.21650635094610965 * alpha[4][k] * f[21][k];
        out[56][k] += scale * 0.21650635094610965 * alpha[5][k] * f[20][k];
        out[56][k] += scale * 0.21650635094610965 * alpha[6][k] * f[16][k];
        out[56][k] += scale * 0.21650635094610965 * alpha[16][k] * f[6][k];
        out[56][k] += scale * 0.21650635094610965 * alpha[20][k] * f[5][k];
        out[56][k] += scale * 0.21650635094610965 * alpha[21][k] * f[4][k];
        out[56][k] += scale * 0.21650635094610965 * alpha[41][k] * f[0][k];
    }
    for k in 0..L {
        out[57][k] += scale * 0.21650635094610965 * alpha[0][k] * f[44][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[3][k] * f[57][k];
        out[57][k] += scale * 0.21650635094610965 * alpha[4][k] * f[26][k];
        out[57][k] += scale * 0.21650635094610965 * alpha[5][k] * f[23][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[6][k] * f[60][k];
        out[57][k] += scale * 0.21650635094610965 * alpha[16][k] * f[7][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[20][k] * f[51][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[21][k] * f[48][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[41][k] * f[32][k];
    }
    for k in 0..L {
        out[58][k] += scale * 0.21650635094610965 * alpha[0][k] * f[48][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[3][k] * f[58][k];
        out[58][k] += scale * 0.21650635094610965 * alpha[4][k] * f[32][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[5][k] * f[60][k];
        out[58][k] += scale * 0.21650635094610965 * alpha[6][k] * f[23][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[16][k] * f[51][k];
        out[58][k] += scale * 0.21650635094610965 * alpha[20][k] * f[7][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[21][k] * f[44][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[41][k] * f[26][k];
    }
    for k in 0..L {
        out[59][k] += scale * 0.21650635094610965 * alpha[0][k] * f[51][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[3][k] * f[59][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[4][k] * f[60][k];
        out[59][k] += scale * 0.21650635094610965 * alpha[5][k] * f[32][k];
        out[59][k] += scale * 0.21650635094610965 * alpha[6][k] * f[26][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[16][k] * f[48][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[20][k] * f[44][k];
        out[59][k] += scale * 0.21650635094610965 * alpha[21][k] * f[7][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[41][k] * f[23][k];
    }
    for k in 0..L {
        out[61][k] += scale * 0.21650635094610965 * alpha[0][k] * f[54][k];
        out[61][k] += scale * 0.21650635094610968 * alpha[3][k] * f[61][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[4][k] * f[38][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[5][k] * f[35][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[6][k] * f[29][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[16][k] * f[17][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[20][k] * f[13][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[21][k] * f[10][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[41][k] * f[1][k];
    }
    for k in 0..L {
        out[62][k] += scale * 0.21650635094610965 * alpha[0][k] * f[55][k];
        out[62][k] += scale * 0.21650635094610968 * alpha[3][k] * f[62][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[4][k] * f[39][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[5][k] * f[36][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[6][k] * f[30][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[16][k] * f[18][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[20][k] * f[14][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[21][k] * f[11][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[41][k] * f[2][k];
    }
    for k in 0..L {
        out[63][k] += scale * 0.21650635094610968 * alpha[0][k] * f[60][k];
        out[63][k] += scale * 0.21650635094610962 * alpha[3][k] * f[63][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[4][k] * f[51][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[5][k] * f[48][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[6][k] * f[44][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[16][k] * f[32][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[20][k] * f[26][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[21][k] * f[23][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[41][k] * f[7][k];
    }
}

/// LBO drag surface term in v0 at one interior face (`vstar` = face
/// velocity coordinate); penalized central flux, both sides updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_surf_v0(nu: f64, vstar: f64, dv: f64, u: &[f64], f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_3x3v_p1_ser_drag_surf_v0_body::<1>(nu, vstar, dv, u.as_chunks().0, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_drag_surf_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_surf_v0_b4(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_surf_v0_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// [`lbo_3x3v_p1_ser_drag_surf_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_surf_v0_b4_avx2(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_surf_v0_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_drag_surf_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_drag_surf_v0_body<const L: usize>(nu: f64, vstar: f64, dv: f64, u: &[[f64; L]], f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let u: &[[f64; L]; 8] = u.first_chunk().expect("u: 8 coefficients");
    let f_lo: &[[f64; L]; 64] = f_lo.first_chunk().expect("f_lo: 64 coefficients");
    let f_hi: &[[f64; L]; 64] = f_hi.first_chunk().expect("f_hi: 64 coefficients");
    let out_lo: &mut [[f64; L]; 64] = out_lo.first_chunk_mut().expect("out_lo: 64 coefficients");
    let out_hi: &mut [[f64; L]; 64] = out_hi.first_chunk_mut().expect("out_hi: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 32];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] = -nu * vstar * 5.656854249492381;
        alpha[0][k] += nu * 2.0 * u[0][k];
        alpha[3][k] += nu * 2.0 * u[1][k];
        alpha[4][k] += nu * 2.0 * u[2][k];
        alpha[5][k] += nu * 2.0 * u[3][k];
        alpha[11][k] += nu * 2.0 * u[4][k];
        alpha[14][k] += nu * 2.0 * u[5][k];
        alpha[15][k] += nu * 2.0 * u[6][k];
        alpha[25][k] += nu * 2.0 * u[7][k];
        lam[k] = alpha[0][k].abs() * 0.17677669529663692 + alpha[3][k].abs() * 0.30618621784789735 + alpha[4][k].abs() * 0.30618621784789735 + alpha[5][k].abs() * 0.30618621784789735 + alpha[11][k].abs() * 0.5303300858899107 + alpha[14][k].abs() * 0.5303300858899107 + alpha[15][k].abs() * 0.5303300858899107 + alpha[25][k].abs() * 0.9185586535436917;
    }
    let mut fm = [[0.0f64; L]; 32];
    let mut fp = [[0.0f64; L]; 32];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[3]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[6]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[7]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[8]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[9]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[10]);
    sxn(&mut fm[8], 0.7071067811865476, &f_lo[11]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[12]);
    sxn(&mut fm[9], 0.7071067811865476, &f_lo[13]);
    sxn(&mut fm[10], 0.7071067811865476, &f_lo[14]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[15]);
    sxn(&mut fm[11], 0.7071067811865476, &f_lo[16]);
    sxn(&mut fm[12], 0.7071067811865476, &f_lo[17]);
    sxn(&mut fm[13], 0.7071067811865476, &f_lo[18]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[19]);
    sxn(&mut fm[14], 0.7071067811865476, &f_lo[20]);
    sxn(&mut fm[15], 0.7071067811865476, &f_lo[21]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[22]);
    sxn(&mut fm[16], 0.7071067811865476, &f_lo[23]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[24]);
    sxn(&mut fm[8], 1.224744871391589, &f_lo[25]);
    sxn(&mut fm[17], 0.7071067811865476, &f_lo[26]);
    sxn(&mut fm[9], 1.224744871391589, &f_lo[27]);
    sxn(&mut fm[10], 1.224744871391589, &f_lo[28]);
    sxn(&mut fm[18], 0.7071067811865476, &f_lo[29]);
    sxn(&mut fm[19], 0.7071067811865476, &f_lo[30]);
    sxn(&mut fm[11], 1.224744871391589, &f_lo[31]);
    sxn(&mut fm[20], 0.7071067811865476, &f_lo[32]);
    sxn(&mut fm[12], 1.224744871391589, &f_lo[33]);
    sxn(&mut fm[13], 1.224744871391589, &f_lo[34]);
    sxn(&mut fm[21], 0.7071067811865476, &f_lo[35]);
    sxn(&mut fm[22], 0.7071067811865476, &f_lo[36]);
    sxn(&mut fm[14], 1.224744871391589, &f_lo[37]);
    sxn(&mut fm[23], 0.7071067811865476, &f_lo[38]);
    sxn(&mut fm[24], 0.7071067811865476, &f_lo[39]);
    sxn(&mut fm[15], 1.224744871391589, &f_lo[40]);
    sxn(&mut fm[25], 0.7071067811865476, &f_lo[41]);
    sxn(&mut fm[16], 1.224744871391589, &f_lo[42]);
    sxn(&mut fm[17], 1.224744871391589, &f_lo[43]);
    sxn(&mut fm[26], 0.7071067811865476, &f_lo[44]);
    sxn(&mut fm[18], 1.224744871391589, &f_lo[45]);
    sxn(&mut fm[19], 1.224744871391589, &f_lo[46]);
    sxn(&mut fm[20], 1.224744871391589, &f_lo[47]);
    sxn(&mut fm[27], 0.7071067811865476, &f_lo[48]);
    sxn(&mut fm[21], 1.224744871391589, &f_lo[49]);
    sxn(&mut fm[22], 1.224744871391589, &f_lo[50]);
    sxn(&mut fm[28], 0.7071067811865476, &f_lo[51]);
    sxn(&mut fm[23], 1.224744871391589, &f_lo[52]);
    sxn(&mut fm[24], 1.224744871391589, &f_lo[53]);
    sxn(&mut fm[29], 0.7071067811865476, &f_lo[54]);
    sxn(&mut fm[30], 0.7071067811865476, &f_lo[55]);
    sxn(&mut fm[25], 1.224744871391589, &f_lo[56]);
    sxn(&mut fm[26], 1.224744871391589, &f_lo[57]);
    sxn(&mut fm[27], 1.224744871391589, &f_lo[58]);
    sxn(&mut fm[28], 1.224744871391589, &f_lo[59]);
    sxn(&mut fm[31], 0.7071067811865476, &f_lo[60]);
    sxn(&mut fm[29], 1.224744871391589, &f_lo[61]);
    sxn(&mut fm[30], 1.224744871391589, &f_lo[62]);
    sxn(&mut fm[31], 1.224744871391589, &f_lo[63]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[3]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[6]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[7]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[8]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[9]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[10]);
    sxn(&mut fp[8], 0.7071067811865476, &f_hi[11]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[12]);
    sxn(&mut fp[9], 0.7071067811865476, &f_hi[13]);
    sxn(&mut fp[10], 0.7071067811865476, &f_hi[14]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[15]);
    sxn(&mut fp[11], 0.7071067811865476, &f_hi[16]);
    sxn(&mut fp[12], 0.7071067811865476, &f_hi[17]);
    sxn(&mut fp[13], 0.7071067811865476, &f_hi[18]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[19]);
    sxn(&mut fp[14], 0.7071067811865476, &f_hi[20]);
    sxn(&mut fp[15], 0.7071067811865476, &f_hi[21]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[22]);
    sxn(&mut fp[16], 0.7071067811865476, &f_hi[23]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[24]);
    sxn(&mut fp[8], -1.224744871391589, &f_hi[25]);
    sxn(&mut fp[17], 0.7071067811865476, &f_hi[26]);
    sxn(&mut fp[9], -1.224744871391589, &f_hi[27]);
    sxn(&mut fp[10], -1.224744871391589, &f_hi[28]);
    sxn(&mut fp[18], 0.7071067811865476, &f_hi[29]);
    sxn(&mut fp[19], 0.7071067811865476, &f_hi[30]);
    sxn(&mut fp[11], -1.224744871391589, &f_hi[31]);
    sxn(&mut fp[20], 0.7071067811865476, &f_hi[32]);
    sxn(&mut fp[12], -1.224744871391589, &f_hi[33]);
    sxn(&mut fp[13], -1.224744871391589, &f_hi[34]);
    sxn(&mut fp[21], 0.7071067811865476, &f_hi[35]);
    sxn(&mut fp[22], 0.7071067811865476, &f_hi[36]);
    sxn(&mut fp[14], -1.224744871391589, &f_hi[37]);
    sxn(&mut fp[23], 0.7071067811865476, &f_hi[38]);
    sxn(&mut fp[24], 0.7071067811865476, &f_hi[39]);
    sxn(&mut fp[15], -1.224744871391589, &f_hi[40]);
    sxn(&mut fp[25], 0.7071067811865476, &f_hi[41]);
    sxn(&mut fp[16], -1.224744871391589, &f_hi[42]);
    sxn(&mut fp[17], -1.224744871391589, &f_hi[43]);
    sxn(&mut fp[26], 0.7071067811865476, &f_hi[44]);
    sxn(&mut fp[18], -1.224744871391589, &f_hi[45]);
    sxn(&mut fp[19], -1.224744871391589, &f_hi[46]);
    sxn(&mut fp[20], -1.224744871391589, &f_hi[47]);
    sxn(&mut fp[27], 0.7071067811865476, &f_hi[48]);
    sxn(&mut fp[21], -1.224744871391589, &f_hi[49]);
    sxn(&mut fp[22], -1.224744871391589, &f_hi[50]);
    sxn(&mut fp[28], 0.7071067811865476, &f_hi[51]);
    sxn(&mut fp[23], -1.224744871391589, &f_hi[52]);
    sxn(&mut fp[24], -1.224744871391589, &f_hi[53]);
    sxn(&mut fp[29], 0.7071067811865476, &f_hi[54]);
    sxn(&mut fp[30], 0.7071067811865476, &f_hi[55]);
    sxn(&mut fp[25], -1.224744871391589, &f_hi[56]);
    sxn(&mut fp[26], -1.224744871391589, &f_hi[57]);
    sxn(&mut fp[27], -1.224744871391589, &f_hi[58]);
    sxn(&mut fp[28], -1.224744871391589, &f_hi[59]);
    sxn(&mut fp[31], 0.7071067811865476, &f_hi[60]);
    sxn(&mut fp[29], -1.224744871391589, &f_hi[61]);
    sxn(&mut fp[30], -1.224744871391589, &f_hi[62]);
    sxn(&mut fp[31], -1.224744871391589, &f_hi[63]);
    let mut favg = [[0.0f64; L]; 32];
    let mut ghat = [[0.0f64; L]; 32];
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
        favg[8][k] = 0.5 * (fm[8][k] + fp[8][k]);
        ghat[8][k] = -0.5 * lam[k] * (fp[8][k] - fm[8][k]);
        favg[9][k] = 0.5 * (fm[9][k] + fp[9][k]);
        ghat[9][k] = -0.5 * lam[k] * (fp[9][k] - fm[9][k]);
        favg[10][k] = 0.5 * (fm[10][k] + fp[10][k]);
        ghat[10][k] = -0.5 * lam[k] * (fp[10][k] - fm[10][k]);
        favg[11][k] = 0.5 * (fm[11][k] + fp[11][k]);
        ghat[11][k] = -0.5 * lam[k] * (fp[11][k] - fm[11][k]);
        favg[12][k] = 0.5 * (fm[12][k] + fp[12][k]);
        ghat[12][k] = -0.5 * lam[k] * (fp[12][k] - fm[12][k]);
        favg[13][k] = 0.5 * (fm[13][k] + fp[13][k]);
        ghat[13][k] = -0.5 * lam[k] * (fp[13][k] - fm[13][k]);
        favg[14][k] = 0.5 * (fm[14][k] + fp[14][k]);
        ghat[14][k] = -0.5 * lam[k] * (fp[14][k] - fm[14][k]);
        favg[15][k] = 0.5 * (fm[15][k] + fp[15][k]);
        ghat[15][k] = -0.5 * lam[k] * (fp[15][k] - fm[15][k]);
        favg[16][k] = 0.5 * (fm[16][k] + fp[16][k]);
        ghat[16][k] = -0.5 * lam[k] * (fp[16][k] - fm[16][k]);
        favg[17][k] = 0.5 * (fm[17][k] + fp[17][k]);
        ghat[17][k] = -0.5 * lam[k] * (fp[17][k] - fm[17][k]);
        favg[18][k] = 0.5 * (fm[18][k] + fp[18][k]);
        ghat[18][k] = -0.5 * lam[k] * (fp[18][k] - fm[18][k]);
        favg[19][k] = 0.5 * (fm[19][k] + fp[19][k]);
        ghat[19][k] = -0.5 * lam[k] * (fp[19][k] - fm[19][k]);
        favg[20][k] = 0.5 * (fm[20][k] + fp[20][k]);
        ghat[20][k] = -0.5 * lam[k] * (fp[20][k] - fm[20][k]);
        favg[21][k] = 0.5 * (fm[21][k] + fp[21][k]);
        ghat[21][k] = -0.5 * lam[k] * (fp[21][k] - fm[21][k]);
        favg[22][k] = 0.5 * (fm[22][k] + fp[22][k]);
        ghat[22][k] = -0.5 * lam[k] * (fp[22][k] - fm[22][k]);
        favg[23][k] = 0.5 * (fm[23][k] + fp[23][k]);
        ghat[23][k] = -0.5 * lam[k] * (fp[23][k] - fm[23][k]);
        favg[24][k] = 0.5 * (fm[24][k] + fp[24][k]);
        ghat[24][k] = -0.5 * lam[k] * (fp[24][k] - fm[24][k]);
        favg[25][k] = 0.5 * (fm[25][k] + fp[25][k]);
        ghat[25][k] = -0.5 * lam[k] * (fp[25][k] - fm[25][k]);
        favg[26][k] = 0.5 * (fm[26][k] + fp[26][k]);
        ghat[26][k] = -0.5 * lam[k] * (fp[26][k] - fm[26][k]);
        favg[27][k] = 0.5 * (fm[27][k] + fp[27][k]);
        ghat[27][k] = -0.5 * lam[k] * (fp[27][k] - fm[27][k]);
        favg[28][k] = 0.5 * (fm[28][k] + fp[28][k]);
        ghat[28][k] = -0.5 * lam[k] * (fp[28][k] - fm[28][k]);
        favg[29][k] = 0.5 * (fm[29][k] + fp[29][k]);
        ghat[29][k] = -0.5 * lam[k] * (fp[29][k] - fm[29][k]);
        favg[30][k] = 0.5 * (fm[30][k] + fp[30][k]);
        ghat[30][k] = -0.5 * lam[k] * (fp[30][k] - fm[30][k]);
        favg[31][k] = 0.5 * (fm[31][k] + fp[31][k]);
        ghat[31][k] = -0.5 * lam[k] * (fp[31][k] - fm[31][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.1767766952966369 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.17677669529663687 * alpha[3][k] * favg[3][k];
        ghat[0][k] += 0.17677669529663687 * alpha[4][k] * favg[4][k];
        ghat[0][k] += 0.17677669529663687 * alpha[5][k] * favg[5][k];
        ghat[0][k] += 0.17677669529663687 * alpha[11][k] * favg[11][k];
        ghat[0][k] += 0.17677669529663687 * alpha[14][k] * favg[14][k];
        ghat[0][k] += 0.17677669529663687 * alpha[15][k] * favg[15][k];
        ghat[0][k] += 0.1767766952966369 * alpha[25][k] * favg[25][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.17677669529663687 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.17677669529663687 * alpha[3][k] * favg[7][k];
        ghat[1][k] += 0.17677669529663687 * alpha[4][k] * favg[9][k];
        ghat[1][k] += 0.17677669529663687 * alpha[5][k] * favg[12][k];
        ghat[1][k] += 0.1767766952966369 * alpha[11][k] * favg[18][k];
        ghat[1][k] += 0.1767766952966369 * alpha[14][k] * favg[21][k];
        ghat[1][k] += 0.1767766952966369 * alpha[15][k] * favg[23][k];
        ghat[1][k] += 0.17677669529663687 * alpha[25][k] * favg[29][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.17677669529663687 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.17677669529663687 * alpha[3][k] * favg[8][k];
        ghat[2][k] += 0.17677669529663687 * alpha[4][k] * favg[10][k];
        ghat[2][k] += 0.17677669529663687 * alpha[5][k] * favg[13][k];
        ghat[2][k] += 0.1767766952966369 * alpha[11][k] * favg[19][k];
        ghat[2][k] += 0.1767766952966369 * alpha[14][k] * favg[22][k];
        ghat[2][k] += 0.1767766952966369 * alpha[15][k] * favg[24][k];
        ghat[2][k] += 0.17677669529663687 * alpha[25][k] * favg[30][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.17677669529663687 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.17677669529663687 * alpha[3][k] * favg[0][k];
        ghat[3][k] += 0.17677669529663687 * alpha[4][k] * favg[11][k];
        ghat[3][k] += 0.17677669529663687 * alpha[5][k] * favg[14][k];
        ghat[3][k] += 0.17677669529663687 * alpha[11][k] * favg[4][k];
        ghat[3][k] += 0.17677669529663687 * alpha[14][k] * favg[5][k];
        ghat[3][k] += 0.1767766952966369 * alpha[15][k] * favg[25][k];
        ghat[3][k] += 0.1767766952966369 * alpha[25][k] * favg[15][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.17677669529663687 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.17677669529663687 * alpha[3][k] * favg[11][k];
        ghat[4][k] += 0.17677669529663687 * alpha[4][k] * favg[0][k];
        ghat[4][k] += 0.17677669529663687 * alpha[5][k] * favg[15][k];
        ghat[4][k] += 0.17677669529663687 * alpha[11][k] * favg[3][k];
        ghat[4][k] += 0.1767766952966369 * alpha[14][k] * favg[25][k];
        ghat[4][k] += 0.17677669529663687 * alpha[15][k] * favg[5][k];
        ghat[4][k] += 0.1767766952966369 * alpha[25][k] * favg[14][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.17677669529663687 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.17677669529663687 * alpha[3][k] * favg[14][k];
        ghat[5][k] += 0.17677669529663687 * alpha[4][k] * favg[15][k];
        ghat[5][k] += 0.17677669529663687 * alpha[5][k] * favg[0][k];
        ghat[5][k] += 0.1767766952966369 * alpha[11][k] * favg[25][k];
        ghat[5][k] += 0.17677669529663687 * alpha[14][k] * favg[3][k];
        ghat[5][k] += 0.17677669529663687 * alpha[15][k] * favg[4][k];
        ghat[5][k] += 0.1767766952966369 * alpha[25][k] * favg[11][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.17677669529663687 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.1767766952966369 * alpha[3][k] * favg[16][k];
        ghat[6][k] += 0.1767766952966369 * alpha[4][k] * favg[17][k];
        ghat[6][k] += 0.1767766952966369 * alpha[5][k] * favg[20][k];
        ghat[6][k] += 0.17677669529663687 * alpha[11][k] * favg[26][k];
        ghat[6][k] += 0.17677669529663687 * alpha[14][k] * favg[27][k];
        ghat[6][k] += 0.17677669529663687 * alpha[15][k] * favg[28][k];
        ghat[6][k] += 0.1767766952966369 * alpha[25][k] * favg[31][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.17677669529663687 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.17677669529663687 * alpha[3][k] * favg[1][k];
        ghat[7][k] += 0.1767766952966369 * alpha[4][k] * favg[18][k];
        ghat[7][k] += 0.1767766952966369 * alpha[5][k] * favg[21][k];
        ghat[7][k] += 0.1767766952966369 * alpha[11][k] * favg[9][k];
        ghat[7][k] += 0.1767766952966369 * alpha[14][k] * favg[12][k];
        ghat[7][k] += 0.17677669529663687 * alpha[15][k] * favg[29][k];
        ghat[7][k] += 0.17677669529663687 * alpha[25][k] * favg[23][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.17677669529663687 * alpha[0][k] * favg[8][k];
        ghat[8][k] += 0.17677669529663687 * alpha[3][k] * favg[2][k];
        ghat[8][k] += 0.1767766952966369 * alpha[4][k] * favg[19][k];
        ghat[8][k] += 0.1767766952966369 * alpha[5][k] * favg[22][k];
        ghat[8][k] += 0.1767766952966369 * alpha[11][k] * favg[10][k];
        ghat[8][k] += 0.1767766952966369 * alpha[14][k] * favg[13][k];
        ghat[8][k] += 0.17677669529663687 * alpha[15][k] * favg[30][k];
        ghat[8][k] += 0.17677669529663687 * alpha[25][k] * favg[24][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.17677669529663687 * alpha[0][k] * favg[9][k];
        ghat[9][k] += 0.1767766952966369 * alpha[3][k] * favg[18][k];
        ghat[9][k] += 0.17677669529663687 * alpha[4][k] * favg[1][k];
        ghat[9][k] += 0.1767766952966369 * alpha[5][k] * favg[23][k];
        ghat[9][k] += 0.1767766952966369 * alpha[11][k] * favg[7][k];
        ghat[9][k] += 0.17677669529663687 * alpha[14][k] * favg[29][k];
        ghat[9][k] += 0.1767766952966369 * alpha[15][k] * favg[12][k];
        ghat[9][k] += 0.17677669529663687 * alpha[25][k] * favg[21][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.17677669529663687 * alpha[0][k] * favg[10][k];
        ghat[10][k] += 0.1767766952966369 * alpha[3][k] * favg[19][k];
        ghat[10][k] += 0.17677669529663687 * alpha[4][k] * favg[2][k];
        ghat[10][k] += 0.1767766952966369 * alpha[5][k] * favg[24][k];
        ghat[10][k] += 0.1767766952966369 * alpha[11][k] * favg[8][k];
        ghat[10][k] += 0.17677669529663687 * alpha[14][k] * favg[30][k];
        ghat[10][k] += 0.1767766952966369 * alpha[15][k] * favg[13][k];
        ghat[10][k] += 0.17677669529663687 * alpha[25][k] * favg[22][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.17677669529663687 * alpha[0][k] * favg[11][k];
        ghat[11][k] += 0.17677669529663687 * alpha[3][k] * favg[4][k];
        ghat[11][k] += 0.17677669529663687 * alpha[4][k] * favg[3][k];
        ghat[11][k] += 0.1767766952966369 * alpha[5][k] * favg[25][k];
        ghat[11][k] += 0.17677669529663687 * alpha[11][k] * favg[0][k];
        ghat[11][k] += 0.1767766952966369 * alpha[14][k] * favg[15][k];
        ghat[11][k] += 0.1767766952966369 * alpha[15][k] * favg[14][k];
        ghat[11][k] += 0.1767766952966369 * alpha[25][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.17677669529663687 * alpha[0][k] * favg[12][k];
        ghat[12][k] += 0.1767766952966369 * alpha[3][k] * favg[21][k];
        ghat[12][k] += 0.1767766952966369 * alpha[4][k] * favg[23][k];
        ghat[12][k] += 0.17677669529663687 * alpha[5][k] * favg[1][k];
        ghat[12][k] += 0.17677669529663687 * alpha[11][k] * favg[29][k];
        ghat[12][k] += 0.1767766952966369 * alpha[14][k] * favg[7][k];
        ghat[12][k] += 0.1767766952966369 * alpha[15][k] * favg[9][k];
        ghat[12][k] += 0.17677669529663687 * alpha[25][k] * favg[18][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.17677669529663687 * alpha[0][k] * favg[13][k];
        ghat[13][k] += 0.1767766952966369 * alpha[3][k] * favg[22][k];
        ghat[13][k] += 0.1767766952966369 * alpha[4][k] * favg[24][k];
        ghat[13][k] += 0.17677669529663687 * alpha[5][k] * favg[2][k];
        ghat[13][k] += 0.17677669529663687 * alpha[11][k] * favg[30][k];
        ghat[13][k] += 0.1767766952966369 * alpha[14][k] * favg[8][k];
        ghat[13][k] += 0.1767766952966369 * alpha[15][k] * favg[10][k];
        ghat[13][k] += 0.17677669529663687 * alpha[25][k] * favg[19][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.17677669529663687 * alpha[0][k] * favg[14][k];
        ghat[14][k] += 0.17677669529663687 * alpha[3][k] * favg[5][k];
        ghat[14][k] += 0.1767766952966369 * alpha[4][k] * favg[25][k];
        ghat[14][k] += 0.17677669529663687 * alpha[5][k] * favg[3][k];
        ghat[14][k] += 0.1767766952966369 * alpha[11][k] * favg[15][k];
        ghat[14][k] += 0.17677669529663687 * alpha[14][k] * favg[0][k];
        ghat[14][k] += 0.1767766952966369 * alpha[15][k] * favg[11][k];
        ghat[14][k] += 0.1767766952966369 * alpha[25][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.17677669529663687 * alpha[0][k] * favg[15][k];
        ghat[15][k] += 0.1767766952966369 * alpha[3][k] * favg[25][k];
        ghat[15][k] += 0.17677669529663687 * alpha[4][k] * favg[5][k];
        ghat[15][k] += 0.17677669529663687 * alpha[5][k] * favg[4][k];
        ghat[15][k] += 0.1767766952966369 * alpha[11][k] * favg[14][k];
        ghat[15][k] += 0.1767766952966369 * alpha[14][k] * favg[11][k];
        ghat[15][k] += 0.17677669529663687 * alpha[15][k] * favg[0][k];
        ghat[15][k] += 0.1767766952966369 * alpha[25][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[16][k] += 0.1767766952966369 * alpha[0][k] * favg[16][k];
        ghat[16][k] += 0.1767766952966369 * alpha[3][k] * favg[6][k];
        ghat[16][k] += 0.17677669529663687 * alpha[4][k] * favg[26][k];
        ghat[16][k] += 0.17677669529663687 * alpha[5][k] * favg[27][k];
        ghat[16][k] += 0.17677669529663687 * alpha[11][k] * favg[17][k];
        ghat[16][k] += 0.17677669529663687 * alpha[14][k] * favg[20][k];
        ghat[16][k] += 0.1767766952966369 * alpha[15][k] * favg[31][k];
        ghat[16][k] += 0.1767766952966369 * alpha[25][k] * favg[28][k];
    }
    for k in 0..L {
        ghat[17][k] += 0.1767766952966369 * alpha[0][k] * favg[17][k];
        ghat[17][k] += 0.17677669529663687 * alpha[3][k] * favg[26][k];
        ghat[17][k] += 0.1767766952966369 * alpha[4][k] * favg[6][k];
        ghat[17][k] += 0.17677669529663687 * alpha[5][k] * favg[28][k];
        ghat[17][k] += 0.17677669529663687 * alpha[11][k] * favg[16][k];
        ghat[17][k] += 0.1767766952966369 * alpha[14][k] * favg[31][k];
        ghat[17][k] += 0.17677669529663687 * alpha[15][k] * favg[20][k];
        ghat[17][k] += 0.1767766952966369 * alpha[25][k] * favg[27][k];
    }
    for k in 0..L {
        ghat[18][k] += 0.1767766952966369 * alpha[0][k] * favg[18][k];
        ghat[18][k] += 0.1767766952966369 * alpha[3][k] * favg[9][k];
        ghat[18][k] += 0.1767766952966369 * alpha[4][k] * favg[7][k];
        ghat[18][k] += 0.17677669529663687 * alpha[5][k] * favg[29][k];
        ghat[18][k] += 0.1767766952966369 * alpha[11][k] * favg[1][k];
        ghat[18][k] += 0.17677669529663687 * alpha[14][k] * favg[23][k];
        ghat[18][k] += 0.17677669529663687 * alpha[15][k] * favg[21][k];
        ghat[18][k] += 0.17677669529663687 * alpha[25][k] * favg[12][k];
    }
    for k in 0..L {
        ghat[19][k] += 0.1767766952966369 * alpha[0][k] * favg[19][k];
        ghat[19][k] += 0.1767766952966369 * alpha[3][k] * favg[10][k];
        ghat[19][k] += 0.1767766952966369 * alpha[4][k] * favg[8][k];
        ghat[19][k] += 0.17677669529663687 * alpha[5][k] * favg[30][k];
        ghat[19][k] += 0.1767766952966369 * alpha[11][k] * favg[2][k];
        ghat[19][k] += 0.17677669529663687 * alpha[14][k] * favg[24][k];
        ghat[19][k] += 0.17677669529663687 * alpha[15][k] * favg[22][k];
        ghat[19][k] += 0.17677669529663687 * alpha[25][k] * favg[13][k];
    }
    for k in 0..L {
        ghat[20][k] += 0.1767766952966369 * alpha[0][k] * favg[20][k];
        ghat[20][k] += 0.17677669529663687 * alpha[3][k] * favg[27][k];
        ghat[20][k] += 0.17677669529663687 * alpha[4][k] * favg[28][k];
        ghat[20][k] += 0.1767766952966369 * alpha[5][k] * favg[6][k];
        ghat[20][k] += 0.1767766952966369 * alpha[11][k] * favg[31][k];
        ghat[20][k] += 0.17677669529663687 * alpha[14][k] * favg[16][k];
        ghat[20][k] += 0.17677669529663687 * alpha[15][k] * favg[17][k];
        ghat[20][k] += 0.1767766952966369 * alpha[25][k] * favg[26][k];
    }
    for k in 0..L {
        ghat[21][k] += 0.1767766952966369 * alpha[0][k] * favg[21][k];
        ghat[21][k] += 0.1767766952966369 * alpha[3][k] * favg[12][k];
        ghat[21][k] += 0.17677669529663687 * alpha[4][k] * favg[29][k];
        ghat[21][k] += 0.1767766952966369 * alpha[5][k] * favg[7][k];
        ghat[21][k] += 0.17677669529663687 * alpha[11][k] * favg[23][k];
        ghat[21][k] += 0.1767766952966369 * alpha[14][k] * favg[1][k];
        ghat[21][k] += 0.17677669529663687 * alpha[15][k] * favg[18][k];
        ghat[21][k] += 0.17677669529663687 * alpha[25][k] * favg[9][k];
    }
    for k in 0..L {
        ghat[22][k] += 0.1767766952966369 * alpha[0][k] * favg[22][k];
        ghat[22][k] += 0.1767766952966369 * alpha[3][k] * favg[13][k];
        ghat[22][k] += 0.17677669529663687 * alpha[4][k] * favg[30][k];
        ghat[22][k] += 0.1767766952966369 * alpha[5][k] * favg[8][k];
        ghat[22][k] += 0.17677669529663687 * alpha[11][k] * favg[24][k];
        ghat[22][k] += 0.1767766952966369 * alpha[14][k] * favg[2][k];
        ghat[22][k] += 0.17677669529663687 * alpha[15][k] * favg[19][k];
        ghat[22][k] += 0.17677669529663687 * alpha[25][k] * favg[10][k];
    }
    for k in 0..L {
        ghat[23][k] += 0.1767766952966369 * alpha[0][k] * favg[23][k];
        ghat[23][k] += 0.17677669529663687 * alpha[3][k] * favg[29][k];
        ghat[23][k] += 0.1767766952966369 * alpha[4][k] * favg[12][k];
        ghat[23][k] += 0.1767766952966369 * alpha[5][k] * favg[9][k];
        ghat[23][k] += 0.17677669529663687 * alpha[11][k] * favg[21][k];
        ghat[23][k] += 0.17677669529663687 * alpha[14][k] * favg[18][k];
        ghat[23][k] += 0.1767766952966369 * alpha[15][k] * favg[1][k];
        ghat[23][k] += 0.17677669529663687 * alpha[25][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[24][k] += 0.1767766952966369 * alpha[0][k] * favg[24][k];
        ghat[24][k] += 0.17677669529663687 * alpha[3][k] * favg[30][k];
        ghat[24][k] += 0.1767766952966369 * alpha[4][k] * favg[13][k];
        ghat[24][k] += 0.1767766952966369 * alpha[5][k] * favg[10][k];
        ghat[24][k] += 0.17677669529663687 * alpha[11][k] * favg[22][k];
        ghat[24][k] += 0.17677669529663687 * alpha[14][k] * favg[19][k];
        ghat[24][k] += 0.1767766952966369 * alpha[15][k] * favg[2][k];
        ghat[24][k] += 0.17677669529663687 * alpha[25][k] * favg[8][k];
    }
    for k in 0..L {
        ghat[25][k] += 0.1767766952966369 * alpha[0][k] * favg[25][k];
        ghat[25][k] += 0.1767766952966369 * alpha[3][k] * favg[15][k];
        ghat[25][k] += 0.1767766952966369 * alpha[4][k] * favg[14][k];
        ghat[25][k] += 0.1767766952966369 * alpha[5][k] * favg[11][k];
        ghat[25][k] += 0.1767766952966369 * alpha[11][k] * favg[5][k];
        ghat[25][k] += 0.1767766952966369 * alpha[14][k] * favg[4][k];
        ghat[25][k] += 0.1767766952966369 * alpha[15][k] * favg[3][k];
        ghat[25][k] += 0.1767766952966369 * alpha[25][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[26][k] += 0.17677669529663687 * alpha[0][k] * favg[26][k];
        ghat[26][k] += 0.17677669529663687 * alpha[3][k] * favg[17][k];
        ghat[26][k] += 0.17677669529663687 * alpha[4][k] * favg[16][k];
        ghat[26][k] += 0.1767766952966369 * alpha[5][k] * favg[31][k];
        ghat[26][k] += 0.17677669529663687 * alpha[11][k] * favg[6][k];
        ghat[26][k] += 0.1767766952966369 * alpha[14][k] * favg[28][k];
        ghat[26][k] += 0.1767766952966369 * alpha[15][k] * favg[27][k];
        ghat[26][k] += 0.1767766952966369 * alpha[25][k] * favg[20][k];
    }
    for k in 0..L {
        ghat[27][k] += 0.17677669529663687 * alpha[0][k] * favg[27][k];
        ghat[27][k] += 0.17677669529663687 * alpha[3][k] * favg[20][k];
        ghat[27][k] += 0.1767766952966369 * alpha[4][k] * favg[31][k];
        ghat[27][k] += 0.17677669529663687 * alpha[5][k] * favg[16][k];
        ghat[27][k] += 0.1767766952966369 * alpha[11][k] * favg[28][k];
        ghat[27][k] += 0.17677669529663687 * alpha[14][k] * favg[6][k];
        ghat[27][k] += 0.1767766952966369 * alpha[15][k] * favg[26][k];
        ghat[27][k] += 0.1767766952966369 * alpha[25][k] * favg[17][k];
    }
    for k in 0..L {
        ghat[28][k] += 0.17677669529663687 * alpha[0][k] * favg[28][k];
        ghat[28][k] += 0.1767766952966369 * alpha[3][k] * favg[31][k];
        ghat[28][k] += 0.17677669529663687 * alpha[4][k] * favg[20][k];
        ghat[28][k] += 0.17677669529663687 * alpha[5][k] * favg[17][k];
        ghat[28][k] += 0.1767766952966369 * alpha[11][k] * favg[27][k];
        ghat[28][k] += 0.1767766952966369 * alpha[14][k] * favg[26][k];
        ghat[28][k] += 0.17677669529663687 * alpha[15][k] * favg[6][k];
        ghat[28][k] += 0.1767766952966369 * alpha[25][k] * favg[16][k];
    }
    for k in 0..L {
        ghat[29][k] += 0.17677669529663687 * alpha[0][k] * favg[29][k];
        ghat[29][k] += 0.17677669529663687 * alpha[3][k] * favg[23][k];
        ghat[29][k] += 0.17677669529663687 * alpha[4][k] * favg[21][k];
        ghat[29][k] += 0.17677669529663687 * alpha[5][k] * favg[18][k];
        ghat[29][k] += 0.17677669529663687 * alpha[11][k] * favg[12][k];
        ghat[29][k] += 0.17677669529663687 * alpha[14][k] * favg[9][k];
        ghat[29][k] += 0.17677669529663687 * alpha[15][k] * favg[7][k];
        ghat[29][k] += 0.17677669529663687 * alpha[25][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[30][k] += 0.17677669529663687 * alpha[0][k] * favg[30][k];
        ghat[30][k] += 0.17677669529663687 * alpha[3][k] * favg[24][k];
        ghat[30][k] += 0.17677669529663687 * alpha[4][k] * favg[22][k];
        ghat[30][k] += 0.17677669529663687 * alpha[5][k] * favg[19][k];
        ghat[30][k] += 0.17677669529663687 * alpha[11][k] * favg[13][k];
        ghat[30][k] += 0.17677669529663687 * alpha[14][k] * favg[10][k];
        ghat[30][k] += 0.17677669529663687 * alpha[15][k] * favg[8][k];
        ghat[30][k] += 0.17677669529663687 * alpha[25][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[31][k] += 0.1767766952966369 * alpha[0][k] * favg[31][k];
        ghat[31][k] += 0.1767766952966369 * alpha[3][k] * favg[28][k];
        ghat[31][k] += 0.1767766952966369 * alpha[4][k] * favg[27][k];
        ghat[31][k] += 0.1767766952966369 * alpha[5][k] * favg[26][k];
        ghat[31][k] += 0.1767766952966369 * alpha[11][k] * favg[20][k];
        ghat[31][k] += 0.1767766952966369 * alpha[14][k] * favg[17][k];
        ghat[31][k] += 0.1767766952966369 * alpha[15][k] * favg[16][k];
        ghat[31][k] += 0.1767766952966369 * alpha[25][k] * favg[6][k];
    }
    sxn(&mut out_lo[0], -scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[3], -scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[4], -scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], -scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[7], -scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[8], -scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[9], -scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[10], -scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[11], -scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[12], -scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[13], -scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[14], -scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[15], -scale * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[16], -scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[17], -scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[18], -scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[19], -scale * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[20], -scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[21], -scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[22], -scale * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[23], -scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_lo[24], -scale * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[25], -scale * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[26], -scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_lo[27], -scale * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[28], -scale * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[29], -scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_lo[30], -scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_lo[31], -scale * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[32], -scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_lo[33], -scale * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[34], -scale * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[35], -scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_lo[36], -scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_lo[37], -scale * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[38], -scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_lo[39], -scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_lo[40], -scale * 1.224744871391589, &ghat[15]);
    sxn(&mut out_lo[41], -scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_lo[42], -scale * 1.224744871391589, &ghat[16]);
    sxn(&mut out_lo[43], -scale * 1.224744871391589, &ghat[17]);
    sxn(&mut out_lo[44], -scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_lo[45], -scale * 1.224744871391589, &ghat[18]);
    sxn(&mut out_lo[46], -scale * 1.224744871391589, &ghat[19]);
    sxn(&mut out_lo[47], -scale * 1.224744871391589, &ghat[20]);
    sxn(&mut out_lo[48], -scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_lo[49], -scale * 1.224744871391589, &ghat[21]);
    sxn(&mut out_lo[50], -scale * 1.224744871391589, &ghat[22]);
    sxn(&mut out_lo[51], -scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_lo[52], -scale * 1.224744871391589, &ghat[23]);
    sxn(&mut out_lo[53], -scale * 1.224744871391589, &ghat[24]);
    sxn(&mut out_lo[54], -scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_lo[55], -scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_lo[56], -scale * 1.224744871391589, &ghat[25]);
    sxn(&mut out_lo[57], -scale * 1.224744871391589, &ghat[26]);
    sxn(&mut out_lo[58], -scale * 1.224744871391589, &ghat[27]);
    sxn(&mut out_lo[59], -scale * 1.224744871391589, &ghat[28]);
    sxn(&mut out_lo[60], -scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_lo[61], -scale * 1.224744871391589, &ghat[29]);
    sxn(&mut out_lo[62], -scale * 1.224744871391589, &ghat[30]);
    sxn(&mut out_lo[63], -scale * 1.224744871391589, &ghat[31]);
    sxn(&mut out_hi[0], scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[3], scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[4], scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[7], scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[8], scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[9], scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[10], scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[11], scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[12], scale * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[13], scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[14], scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[15], scale * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[16], scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[17], scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[18], scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[19], scale * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[20], scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[21], scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[22], scale * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[23], scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_hi[24], scale * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[25], scale * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[26], scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_hi[27], scale * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[28], scale * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[29], scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_hi[30], scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_hi[31], scale * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[32], scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_hi[33], scale * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[34], scale * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[35], scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_hi[36], scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_hi[37], scale * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[38], scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_hi[39], scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_hi[40], scale * -1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[41], scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_hi[42], scale * -1.224744871391589, &ghat[16]);
    sxn(&mut out_hi[43], scale * -1.224744871391589, &ghat[17]);
    sxn(&mut out_hi[44], scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_hi[45], scale * -1.224744871391589, &ghat[18]);
    sxn(&mut out_hi[46], scale * -1.224744871391589, &ghat[19]);
    sxn(&mut out_hi[47], scale * -1.224744871391589, &ghat[20]);
    sxn(&mut out_hi[48], scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_hi[49], scale * -1.224744871391589, &ghat[21]);
    sxn(&mut out_hi[50], scale * -1.224744871391589, &ghat[22]);
    sxn(&mut out_hi[51], scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_hi[52], scale * -1.224744871391589, &ghat[23]);
    sxn(&mut out_hi[53], scale * -1.224744871391589, &ghat[24]);
    sxn(&mut out_hi[54], scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_hi[55], scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_hi[56], scale * -1.224744871391589, &ghat[25]);
    sxn(&mut out_hi[57], scale * -1.224744871391589, &ghat[26]);
    sxn(&mut out_hi[58], scale * -1.224744871391589, &ghat[27]);
    sxn(&mut out_hi[59], scale * -1.224744871391589, &ghat[28]);
    sxn(&mut out_hi[60], scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_hi[61], scale * -1.224744871391589, &ghat[29]);
    sxn(&mut out_hi[62], scale * -1.224744871391589, &ghat[30]);
    sxn(&mut out_hi[63], scale * -1.224744871391589, &ghat[31]);
}

/// LDG gradient in v0 for one cell: volume gradient-mass plus the
/// upper-neighbor trace (`f_up`; own upper trace when `at_upper`) and
/// the cell's own lower trace.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_grad_v0(dv: f64, at_upper: bool, f: &[f64], f_up: &[f64], g: &mut [f64]) {
    lbo_3x3v_p1_ser_diff_grad_v0_body::<1>(dv, at_upper, f.as_chunks().0, f_up.as_chunks().0, g.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_diff_grad_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_grad_v0_b4(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_grad_v0_body(dv, at_upper, f, f_up, g)
}

/// [`lbo_3x3v_p1_ser_diff_grad_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_grad_v0_b4_avx2(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_grad_v0_body(dv, at_upper, f, f_up, g)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_diff_grad_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_diff_grad_v0_body<const L: usize>(dv: f64, at_upper: bool, f: &[[f64; L]], f_up: &[[f64; L]], g: &mut [[f64; L]]) {
    let f: &[[f64; L]; 64] = f.first_chunk().expect("f: 64 coefficients");
    let f_up: &[[f64; L]; 64] = f_up.first_chunk().expect("f_up: 64 coefficients");
    let g: &mut [[f64; L]; 64] = g.first_chunk_mut().expect("g: 64 coefficients");
    let scale = 2.0 / dv;
    sxn(&mut g[3], -scale * 1.7320508075688772, &f[0]);
    sxn(&mut g[8], -scale * 1.7320508075688772, &f[1]);
    sxn(&mut g[9], -scale * 1.7320508075688772, &f[2]);
    sxn(&mut g[12], -scale * 1.7320508075688772, &f[4]);
    sxn(&mut g[15], -scale * 1.7320508075688772, &f[5]);
    sxn(&mut g[19], -scale * 1.7320508075688772, &f[6]);
    sxn(&mut g[22], -scale * 1.7320508075688772, &f[7]);
    sxn(&mut g[24], -scale * 1.7320508075688772, &f[10]);
    sxn(&mut g[25], -scale * 1.7320508075688772, &f[11]);
    sxn(&mut g[27], -scale * 1.7320508075688772, &f[13]);
    sxn(&mut g[28], -scale * 1.7320508075688772, &f[14]);
    sxn(&mut g[31], -scale * 1.7320508075688772, &f[16]);
    sxn(&mut g[33], -scale * 1.7320508075688772, &f[17]);
    sxn(&mut g[34], -scale * 1.7320508075688772, &f[18]);
    sxn(&mut g[37], -scale * 1.7320508075688772, &f[20]);
    sxn(&mut g[40], -scale * 1.7320508075688772, &f[21]);
    sxn(&mut g[42], -scale * 1.7320508075688772, &f[23]);
    sxn(&mut g[43], -scale * 1.7320508075688772, &f[26]);
    sxn(&mut g[45], -scale * 1.7320508075688772, &f[29]);
    sxn(&mut g[46], -scale * 1.7320508075688772, &f[30]);
    sxn(&mut g[47], -scale * 1.7320508075688772, &f[32]);
    sxn(&mut g[49], -scale * 1.7320508075688772, &f[35]);
    sxn(&mut g[50], -scale * 1.7320508075688772, &f[36]);
    sxn(&mut g[52], -scale * 1.7320508075688772, &f[38]);
    sxn(&mut g[53], -scale * 1.7320508075688772, &f[39]);
    sxn(&mut g[56], -scale * 1.7320508075688772, &f[41]);
    sxn(&mut g[57], -scale * 1.7320508075688772, &f[44]);
    sxn(&mut g[58], -scale * 1.7320508075688772, &f[48]);
    sxn(&mut g[59], -scale * 1.7320508075688772, &f[51]);
    sxn(&mut g[61], -scale * 1.7320508075688772, &f[54]);
    sxn(&mut g[62], -scale * 1.7320508075688772, &f[55]);
    sxn(&mut g[63], -scale * 1.7320508075688772, &f[60]);
    let mut tr = [[0.0f64; L]; 32];
    if at_upper {
        sxn(&mut tr[0], 0.7071067811865476, &f[0]);
        sxn(&mut tr[1], 0.7071067811865476, &f[1]);
        sxn(&mut tr[2], 0.7071067811865476, &f[2]);
        sxn(&mut tr[0], 1.224744871391589, &f[3]);
        sxn(&mut tr[3], 0.7071067811865476, &f[4]);
        sxn(&mut tr[4], 0.7071067811865476, &f[5]);
        sxn(&mut tr[5], 0.7071067811865476, &f[6]);
        sxn(&mut tr[6], 0.7071067811865476, &f[7]);
        sxn(&mut tr[1], 1.224744871391589, &f[8]);
        sxn(&mut tr[2], 1.224744871391589, &f[9]);
        sxn(&mut tr[7], 0.7071067811865476, &f[10]);
        sxn(&mut tr[8], 0.7071067811865476, &f[11]);
        sxn(&mut tr[3], 1.224744871391589, &f[12]);
        sxn(&mut tr[9], 0.7071067811865476, &f[13]);
        sxn(&mut tr[10], 0.7071067811865476, &f[14]);
        sxn(&mut tr[4], 1.224744871391589, &f[15]);
        sxn(&mut tr[11], 0.7071067811865476, &f[16]);
        sxn(&mut tr[12], 0.7071067811865476, &f[17]);
        sxn(&mut tr[13], 0.7071067811865476, &f[18]);
        sxn(&mut tr[5], 1.224744871391589, &f[19]);
        sxn(&mut tr[14], 0.7071067811865476, &f[20]);
        sxn(&mut tr[15], 0.7071067811865476, &f[21]);
        sxn(&mut tr[6], 1.224744871391589, &f[22]);
        sxn(&mut tr[16], 0.7071067811865476, &f[23]);
        sxn(&mut tr[7], 1.224744871391589, &f[24]);
        sxn(&mut tr[8], 1.224744871391589, &f[25]);
        sxn(&mut tr[17], 0.7071067811865476, &f[26]);
        sxn(&mut tr[9], 1.224744871391589, &f[27]);
        sxn(&mut tr[10], 1.224744871391589, &f[28]);
        sxn(&mut tr[18], 0.7071067811865476, &f[29]);
        sxn(&mut tr[19], 0.7071067811865476, &f[30]);
        sxn(&mut tr[11], 1.224744871391589, &f[31]);
        sxn(&mut tr[20], 0.7071067811865476, &f[32]);
        sxn(&mut tr[12], 1.224744871391589, &f[33]);
        sxn(&mut tr[13], 1.224744871391589, &f[34]);
        sxn(&mut tr[21], 0.7071067811865476, &f[35]);
        sxn(&mut tr[22], 0.7071067811865476, &f[36]);
        sxn(&mut tr[14], 1.224744871391589, &f[37]);
        sxn(&mut tr[23], 0.7071067811865476, &f[38]);
        sxn(&mut tr[24], 0.7071067811865476, &f[39]);
        sxn(&mut tr[15], 1.224744871391589, &f[40]);
        sxn(&mut tr[25], 0.7071067811865476, &f[41]);
        sxn(&mut tr[16], 1.224744871391589, &f[42]);
        sxn(&mut tr[17], 1.224744871391589, &f[43]);
        sxn(&mut tr[26], 0.7071067811865476, &f[44]);
        sxn(&mut tr[18], 1.224744871391589, &f[45]);
        sxn(&mut tr[19], 1.224744871391589, &f[46]);
        sxn(&mut tr[20], 1.224744871391589, &f[47]);
        sxn(&mut tr[27], 0.7071067811865476, &f[48]);
        sxn(&mut tr[21], 1.224744871391589, &f[49]);
        sxn(&mut tr[22], 1.224744871391589, &f[50]);
        sxn(&mut tr[28], 0.7071067811865476, &f[51]);
        sxn(&mut tr[23], 1.224744871391589, &f[52]);
        sxn(&mut tr[24], 1.224744871391589, &f[53]);
        sxn(&mut tr[29], 0.7071067811865476, &f[54]);
        sxn(&mut tr[30], 0.7071067811865476, &f[55]);
        sxn(&mut tr[25], 1.224744871391589, &f[56]);
        sxn(&mut tr[26], 1.224744871391589, &f[57]);
        sxn(&mut tr[27], 1.224744871391589, &f[58]);
        sxn(&mut tr[28], 1.224744871391589, &f[59]);
        sxn(&mut tr[31], 0.7071067811865476, &f[60]);
        sxn(&mut tr[29], 1.224744871391589, &f[61]);
        sxn(&mut tr[30], 1.224744871391589, &f[62]);
        sxn(&mut tr[31], 1.224744871391589, &f[63]);
    } else {
        sxn(&mut tr[0], 0.7071067811865476, &f_up[0]);
        sxn(&mut tr[1], 0.7071067811865476, &f_up[1]);
        sxn(&mut tr[2], 0.7071067811865476, &f_up[2]);
        sxn(&mut tr[0], -1.224744871391589, &f_up[3]);
        sxn(&mut tr[3], 0.7071067811865476, &f_up[4]);
        sxn(&mut tr[4], 0.7071067811865476, &f_up[5]);
        sxn(&mut tr[5], 0.7071067811865476, &f_up[6]);
        sxn(&mut tr[6], 0.7071067811865476, &f_up[7]);
        sxn(&mut tr[1], -1.224744871391589, &f_up[8]);
        sxn(&mut tr[2], -1.224744871391589, &f_up[9]);
        sxn(&mut tr[7], 0.7071067811865476, &f_up[10]);
        sxn(&mut tr[8], 0.7071067811865476, &f_up[11]);
        sxn(&mut tr[3], -1.224744871391589, &f_up[12]);
        sxn(&mut tr[9], 0.7071067811865476, &f_up[13]);
        sxn(&mut tr[10], 0.7071067811865476, &f_up[14]);
        sxn(&mut tr[4], -1.224744871391589, &f_up[15]);
        sxn(&mut tr[11], 0.7071067811865476, &f_up[16]);
        sxn(&mut tr[12], 0.7071067811865476, &f_up[17]);
        sxn(&mut tr[13], 0.7071067811865476, &f_up[18]);
        sxn(&mut tr[5], -1.224744871391589, &f_up[19]);
        sxn(&mut tr[14], 0.7071067811865476, &f_up[20]);
        sxn(&mut tr[15], 0.7071067811865476, &f_up[21]);
        sxn(&mut tr[6], -1.224744871391589, &f_up[22]);
        sxn(&mut tr[16], 0.7071067811865476, &f_up[23]);
        sxn(&mut tr[7], -1.224744871391589, &f_up[24]);
        sxn(&mut tr[8], -1.224744871391589, &f_up[25]);
        sxn(&mut tr[17], 0.7071067811865476, &f_up[26]);
        sxn(&mut tr[9], -1.224744871391589, &f_up[27]);
        sxn(&mut tr[10], -1.224744871391589, &f_up[28]);
        sxn(&mut tr[18], 0.7071067811865476, &f_up[29]);
        sxn(&mut tr[19], 0.7071067811865476, &f_up[30]);
        sxn(&mut tr[11], -1.224744871391589, &f_up[31]);
        sxn(&mut tr[20], 0.7071067811865476, &f_up[32]);
        sxn(&mut tr[12], -1.224744871391589, &f_up[33]);
        sxn(&mut tr[13], -1.224744871391589, &f_up[34]);
        sxn(&mut tr[21], 0.7071067811865476, &f_up[35]);
        sxn(&mut tr[22], 0.7071067811865476, &f_up[36]);
        sxn(&mut tr[14], -1.224744871391589, &f_up[37]);
        sxn(&mut tr[23], 0.7071067811865476, &f_up[38]);
        sxn(&mut tr[24], 0.7071067811865476, &f_up[39]);
        sxn(&mut tr[15], -1.224744871391589, &f_up[40]);
        sxn(&mut tr[25], 0.7071067811865476, &f_up[41]);
        sxn(&mut tr[16], -1.224744871391589, &f_up[42]);
        sxn(&mut tr[17], -1.224744871391589, &f_up[43]);
        sxn(&mut tr[26], 0.7071067811865476, &f_up[44]);
        sxn(&mut tr[18], -1.224744871391589, &f_up[45]);
        sxn(&mut tr[19], -1.224744871391589, &f_up[46]);
        sxn(&mut tr[20], -1.224744871391589, &f_up[47]);
        sxn(&mut tr[27], 0.7071067811865476, &f_up[48]);
        sxn(&mut tr[21], -1.224744871391589, &f_up[49]);
        sxn(&mut tr[22], -1.224744871391589, &f_up[50]);
        sxn(&mut tr[28], 0.7071067811865476, &f_up[51]);
        sxn(&mut tr[23], -1.224744871391589, &f_up[52]);
        sxn(&mut tr[24], -1.224744871391589, &f_up[53]);
        sxn(&mut tr[29], 0.7071067811865476, &f_up[54]);
        sxn(&mut tr[30], 0.7071067811865476, &f_up[55]);
        sxn(&mut tr[25], -1.224744871391589, &f_up[56]);
        sxn(&mut tr[26], -1.224744871391589, &f_up[57]);
        sxn(&mut tr[27], -1.224744871391589, &f_up[58]);
        sxn(&mut tr[28], -1.224744871391589, &f_up[59]);
        sxn(&mut tr[31], 0.7071067811865476, &f_up[60]);
        sxn(&mut tr[29], -1.224744871391589, &f_up[61]);
        sxn(&mut tr[30], -1.224744871391589, &f_up[62]);
        sxn(&mut tr[31], -1.224744871391589, &f_up[63]);
    }
    sxn(&mut g[0], scale * 0.7071067811865476, &tr[0]);
    sxn(&mut g[1], scale * 0.7071067811865476, &tr[1]);
    sxn(&mut g[2], scale * 0.7071067811865476, &tr[2]);
    sxn(&mut g[3], scale * 1.224744871391589, &tr[0]);
    sxn(&mut g[4], scale * 0.7071067811865476, &tr[3]);
    sxn(&mut g[5], scale * 0.7071067811865476, &tr[4]);
    sxn(&mut g[6], scale * 0.7071067811865476, &tr[5]);
    sxn(&mut g[7], scale * 0.7071067811865476, &tr[6]);
    sxn(&mut g[8], scale * 1.224744871391589, &tr[1]);
    sxn(&mut g[9], scale * 1.224744871391589, &tr[2]);
    sxn(&mut g[10], scale * 0.7071067811865476, &tr[7]);
    sxn(&mut g[11], scale * 0.7071067811865476, &tr[8]);
    sxn(&mut g[12], scale * 1.224744871391589, &tr[3]);
    sxn(&mut g[13], scale * 0.7071067811865476, &tr[9]);
    sxn(&mut g[14], scale * 0.7071067811865476, &tr[10]);
    sxn(&mut g[15], scale * 1.224744871391589, &tr[4]);
    sxn(&mut g[16], scale * 0.7071067811865476, &tr[11]);
    sxn(&mut g[17], scale * 0.7071067811865476, &tr[12]);
    sxn(&mut g[18], scale * 0.7071067811865476, &tr[13]);
    sxn(&mut g[19], scale * 1.224744871391589, &tr[5]);
    sxn(&mut g[20], scale * 0.7071067811865476, &tr[14]);
    sxn(&mut g[21], scale * 0.7071067811865476, &tr[15]);
    sxn(&mut g[22], scale * 1.224744871391589, &tr[6]);
    sxn(&mut g[23], scale * 0.7071067811865476, &tr[16]);
    sxn(&mut g[24], scale * 1.224744871391589, &tr[7]);
    sxn(&mut g[25], scale * 1.224744871391589, &tr[8]);
    sxn(&mut g[26], scale * 0.7071067811865476, &tr[17]);
    sxn(&mut g[27], scale * 1.224744871391589, &tr[9]);
    sxn(&mut g[28], scale * 1.224744871391589, &tr[10]);
    sxn(&mut g[29], scale * 0.7071067811865476, &tr[18]);
    sxn(&mut g[30], scale * 0.7071067811865476, &tr[19]);
    sxn(&mut g[31], scale * 1.224744871391589, &tr[11]);
    sxn(&mut g[32], scale * 0.7071067811865476, &tr[20]);
    sxn(&mut g[33], scale * 1.224744871391589, &tr[12]);
    sxn(&mut g[34], scale * 1.224744871391589, &tr[13]);
    sxn(&mut g[35], scale * 0.7071067811865476, &tr[21]);
    sxn(&mut g[36], scale * 0.7071067811865476, &tr[22]);
    sxn(&mut g[37], scale * 1.224744871391589, &tr[14]);
    sxn(&mut g[38], scale * 0.7071067811865476, &tr[23]);
    sxn(&mut g[39], scale * 0.7071067811865476, &tr[24]);
    sxn(&mut g[40], scale * 1.224744871391589, &tr[15]);
    sxn(&mut g[41], scale * 0.7071067811865476, &tr[25]);
    sxn(&mut g[42], scale * 1.224744871391589, &tr[16]);
    sxn(&mut g[43], scale * 1.224744871391589, &tr[17]);
    sxn(&mut g[44], scale * 0.7071067811865476, &tr[26]);
    sxn(&mut g[45], scale * 1.224744871391589, &tr[18]);
    sxn(&mut g[46], scale * 1.224744871391589, &tr[19]);
    sxn(&mut g[47], scale * 1.224744871391589, &tr[20]);
    sxn(&mut g[48], scale * 0.7071067811865476, &tr[27]);
    sxn(&mut g[49], scale * 1.224744871391589, &tr[21]);
    sxn(&mut g[50], scale * 1.224744871391589, &tr[22]);
    sxn(&mut g[51], scale * 0.7071067811865476, &tr[28]);
    sxn(&mut g[52], scale * 1.224744871391589, &tr[23]);
    sxn(&mut g[53], scale * 1.224744871391589, &tr[24]);
    sxn(&mut g[54], scale * 0.7071067811865476, &tr[29]);
    sxn(&mut g[55], scale * 0.7071067811865476, &tr[30]);
    sxn(&mut g[56], scale * 1.224744871391589, &tr[25]);
    sxn(&mut g[57], scale * 1.224744871391589, &tr[26]);
    sxn(&mut g[58], scale * 1.224744871391589, &tr[27]);
    sxn(&mut g[59], scale * 1.224744871391589, &tr[28]);
    sxn(&mut g[60], scale * 0.7071067811865476, &tr[31]);
    sxn(&mut g[61], scale * 1.224744871391589, &tr[29]);
    sxn(&mut g[62], scale * 1.224744871391589, &tr[30]);
    sxn(&mut g[63], scale * 1.224744871391589, &tr[31]);
    let mut tl = [[0.0f64; L]; 32];
    sxn(&mut tl[0], 0.7071067811865476, &f[0]);
    sxn(&mut tl[1], 0.7071067811865476, &f[1]);
    sxn(&mut tl[2], 0.7071067811865476, &f[2]);
    sxn(&mut tl[0], -1.224744871391589, &f[3]);
    sxn(&mut tl[3], 0.7071067811865476, &f[4]);
    sxn(&mut tl[4], 0.7071067811865476, &f[5]);
    sxn(&mut tl[5], 0.7071067811865476, &f[6]);
    sxn(&mut tl[6], 0.7071067811865476, &f[7]);
    sxn(&mut tl[1], -1.224744871391589, &f[8]);
    sxn(&mut tl[2], -1.224744871391589, &f[9]);
    sxn(&mut tl[7], 0.7071067811865476, &f[10]);
    sxn(&mut tl[8], 0.7071067811865476, &f[11]);
    sxn(&mut tl[3], -1.224744871391589, &f[12]);
    sxn(&mut tl[9], 0.7071067811865476, &f[13]);
    sxn(&mut tl[10], 0.7071067811865476, &f[14]);
    sxn(&mut tl[4], -1.224744871391589, &f[15]);
    sxn(&mut tl[11], 0.7071067811865476, &f[16]);
    sxn(&mut tl[12], 0.7071067811865476, &f[17]);
    sxn(&mut tl[13], 0.7071067811865476, &f[18]);
    sxn(&mut tl[5], -1.224744871391589, &f[19]);
    sxn(&mut tl[14], 0.7071067811865476, &f[20]);
    sxn(&mut tl[15], 0.7071067811865476, &f[21]);
    sxn(&mut tl[6], -1.224744871391589, &f[22]);
    sxn(&mut tl[16], 0.7071067811865476, &f[23]);
    sxn(&mut tl[7], -1.224744871391589, &f[24]);
    sxn(&mut tl[8], -1.224744871391589, &f[25]);
    sxn(&mut tl[17], 0.7071067811865476, &f[26]);
    sxn(&mut tl[9], -1.224744871391589, &f[27]);
    sxn(&mut tl[10], -1.224744871391589, &f[28]);
    sxn(&mut tl[18], 0.7071067811865476, &f[29]);
    sxn(&mut tl[19], 0.7071067811865476, &f[30]);
    sxn(&mut tl[11], -1.224744871391589, &f[31]);
    sxn(&mut tl[20], 0.7071067811865476, &f[32]);
    sxn(&mut tl[12], -1.224744871391589, &f[33]);
    sxn(&mut tl[13], -1.224744871391589, &f[34]);
    sxn(&mut tl[21], 0.7071067811865476, &f[35]);
    sxn(&mut tl[22], 0.7071067811865476, &f[36]);
    sxn(&mut tl[14], -1.224744871391589, &f[37]);
    sxn(&mut tl[23], 0.7071067811865476, &f[38]);
    sxn(&mut tl[24], 0.7071067811865476, &f[39]);
    sxn(&mut tl[15], -1.224744871391589, &f[40]);
    sxn(&mut tl[25], 0.7071067811865476, &f[41]);
    sxn(&mut tl[16], -1.224744871391589, &f[42]);
    sxn(&mut tl[17], -1.224744871391589, &f[43]);
    sxn(&mut tl[26], 0.7071067811865476, &f[44]);
    sxn(&mut tl[18], -1.224744871391589, &f[45]);
    sxn(&mut tl[19], -1.224744871391589, &f[46]);
    sxn(&mut tl[20], -1.224744871391589, &f[47]);
    sxn(&mut tl[27], 0.7071067811865476, &f[48]);
    sxn(&mut tl[21], -1.224744871391589, &f[49]);
    sxn(&mut tl[22], -1.224744871391589, &f[50]);
    sxn(&mut tl[28], 0.7071067811865476, &f[51]);
    sxn(&mut tl[23], -1.224744871391589, &f[52]);
    sxn(&mut tl[24], -1.224744871391589, &f[53]);
    sxn(&mut tl[29], 0.7071067811865476, &f[54]);
    sxn(&mut tl[30], 0.7071067811865476, &f[55]);
    sxn(&mut tl[25], -1.224744871391589, &f[56]);
    sxn(&mut tl[26], -1.224744871391589, &f[57]);
    sxn(&mut tl[27], -1.224744871391589, &f[58]);
    sxn(&mut tl[28], -1.224744871391589, &f[59]);
    sxn(&mut tl[31], 0.7071067811865476, &f[60]);
    sxn(&mut tl[29], -1.224744871391589, &f[61]);
    sxn(&mut tl[30], -1.224744871391589, &f[62]);
    sxn(&mut tl[31], -1.224744871391589, &f[63]);
    sxn(&mut g[0], -scale * 0.7071067811865476, &tl[0]);
    sxn(&mut g[1], -scale * 0.7071067811865476, &tl[1]);
    sxn(&mut g[2], -scale * 0.7071067811865476, &tl[2]);
    sxn(&mut g[3], -scale * -1.224744871391589, &tl[0]);
    sxn(&mut g[4], -scale * 0.7071067811865476, &tl[3]);
    sxn(&mut g[5], -scale * 0.7071067811865476, &tl[4]);
    sxn(&mut g[6], -scale * 0.7071067811865476, &tl[5]);
    sxn(&mut g[7], -scale * 0.7071067811865476, &tl[6]);
    sxn(&mut g[8], -scale * -1.224744871391589, &tl[1]);
    sxn(&mut g[9], -scale * -1.224744871391589, &tl[2]);
    sxn(&mut g[10], -scale * 0.7071067811865476, &tl[7]);
    sxn(&mut g[11], -scale * 0.7071067811865476, &tl[8]);
    sxn(&mut g[12], -scale * -1.224744871391589, &tl[3]);
    sxn(&mut g[13], -scale * 0.7071067811865476, &tl[9]);
    sxn(&mut g[14], -scale * 0.7071067811865476, &tl[10]);
    sxn(&mut g[15], -scale * -1.224744871391589, &tl[4]);
    sxn(&mut g[16], -scale * 0.7071067811865476, &tl[11]);
    sxn(&mut g[17], -scale * 0.7071067811865476, &tl[12]);
    sxn(&mut g[18], -scale * 0.7071067811865476, &tl[13]);
    sxn(&mut g[19], -scale * -1.224744871391589, &tl[5]);
    sxn(&mut g[20], -scale * 0.7071067811865476, &tl[14]);
    sxn(&mut g[21], -scale * 0.7071067811865476, &tl[15]);
    sxn(&mut g[22], -scale * -1.224744871391589, &tl[6]);
    sxn(&mut g[23], -scale * 0.7071067811865476, &tl[16]);
    sxn(&mut g[24], -scale * -1.224744871391589, &tl[7]);
    sxn(&mut g[25], -scale * -1.224744871391589, &tl[8]);
    sxn(&mut g[26], -scale * 0.7071067811865476, &tl[17]);
    sxn(&mut g[27], -scale * -1.224744871391589, &tl[9]);
    sxn(&mut g[28], -scale * -1.224744871391589, &tl[10]);
    sxn(&mut g[29], -scale * 0.7071067811865476, &tl[18]);
    sxn(&mut g[30], -scale * 0.7071067811865476, &tl[19]);
    sxn(&mut g[31], -scale * -1.224744871391589, &tl[11]);
    sxn(&mut g[32], -scale * 0.7071067811865476, &tl[20]);
    sxn(&mut g[33], -scale * -1.224744871391589, &tl[12]);
    sxn(&mut g[34], -scale * -1.224744871391589, &tl[13]);
    sxn(&mut g[35], -scale * 0.7071067811865476, &tl[21]);
    sxn(&mut g[36], -scale * 0.7071067811865476, &tl[22]);
    sxn(&mut g[37], -scale * -1.224744871391589, &tl[14]);
    sxn(&mut g[38], -scale * 0.7071067811865476, &tl[23]);
    sxn(&mut g[39], -scale * 0.7071067811865476, &tl[24]);
    sxn(&mut g[40], -scale * -1.224744871391589, &tl[15]);
    sxn(&mut g[41], -scale * 0.7071067811865476, &tl[25]);
    sxn(&mut g[42], -scale * -1.224744871391589, &tl[16]);
    sxn(&mut g[43], -scale * -1.224744871391589, &tl[17]);
    sxn(&mut g[44], -scale * 0.7071067811865476, &tl[26]);
    sxn(&mut g[45], -scale * -1.224744871391589, &tl[18]);
    sxn(&mut g[46], -scale * -1.224744871391589, &tl[19]);
    sxn(&mut g[47], -scale * -1.224744871391589, &tl[20]);
    sxn(&mut g[48], -scale * 0.7071067811865476, &tl[27]);
    sxn(&mut g[49], -scale * -1.224744871391589, &tl[21]);
    sxn(&mut g[50], -scale * -1.224744871391589, &tl[22]);
    sxn(&mut g[51], -scale * 0.7071067811865476, &tl[28]);
    sxn(&mut g[52], -scale * -1.224744871391589, &tl[23]);
    sxn(&mut g[53], -scale * -1.224744871391589, &tl[24]);
    sxn(&mut g[54], -scale * 0.7071067811865476, &tl[29]);
    sxn(&mut g[55], -scale * 0.7071067811865476, &tl[30]);
    sxn(&mut g[56], -scale * -1.224744871391589, &tl[25]);
    sxn(&mut g[57], -scale * -1.224744871391589, &tl[26]);
    sxn(&mut g[58], -scale * -1.224744871391589, &tl[27]);
    sxn(&mut g[59], -scale * -1.224744871391589, &tl[28]);
    sxn(&mut g[60], -scale * 0.7071067811865476, &tl[31]);
    sxn(&mut g[61], -scale * -1.224744871391589, &tl[29]);
    sxn(&mut g[62], -scale * -1.224744871391589, &tl[30]);
    sxn(&mut g[63], -scale * -1.224744871391589, &tl[31]);
}

/// LBO diffusion volume term in v0: weak `ν vth²(x) ∂_v g`.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_vol_v0(nu: f64, dv: f64, vth2: &[f64], g: &[f64], out: &mut [f64]) {
    lbo_3x3v_p1_ser_diff_vol_v0_body::<1>(nu, dv, vth2.as_chunks().0, g.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_diff_vol_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_vol_v0_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_vol_v0_body(nu, dv, vth2, g, out)
}

/// [`lbo_3x3v_p1_ser_diff_vol_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_vol_v0_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_vol_v0_body(nu, dv, vth2, g, out)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_diff_vol_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_diff_vol_v0_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g: &[[f64; L]], out: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 8] = vth2.first_chunk().expect("vth2: 8 coefficients");
    let g: &[[f64; L]; 64] = g.first_chunk().expect("g: 64 coefficients");
    let out: &mut [[f64; L]; 64] = out.first_chunk_mut().expect("out: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 64];
    for k in 0..L {
        alpha[0][k] = 2.8284271247461903 * vth2[0][k];
        alpha[4][k] = 2.8284271247461903 * vth2[1][k];
        alpha[5][k] = 2.8284271247461903 * vth2[2][k];
        alpha[6][k] = 2.8284271247461903 * vth2[3][k];
        alpha[16][k] = 2.8284271247461903 * vth2[4][k];
        alpha[20][k] = 2.8284271247461903 * vth2[5][k];
        alpha[21][k] = 2.8284271247461903 * vth2[6][k];
        alpha[41][k] = 2.8284271247461903 * vth2[7][k];
    }
    for k in 0..L {
        out[3][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[0][k];
        out[3][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[4][k];
        out[3][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[5][k];
        out[3][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[6][k];
        out[3][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[16][k];
        out[3][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[20][k];
        out[3][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[21][k];
        out[3][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[41][k];
    }
    for k in 0..L {
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[1][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[10][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[13][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[17][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[29][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[35][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[38][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[54][k];
    }
    for k in 0..L {
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[2][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[11][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[14][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[18][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[30][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[36][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[39][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[55][k];
    }
    for k in 0..L {
        out[12][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[4][k];
        out[12][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[0][k];
        out[12][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[16][k];
        out[12][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[20][k];
        out[12][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[5][k];
        out[12][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[6][k];
        out[12][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[41][k];
        out[12][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[21][k];
    }
    for k in 0..L {
        out[15][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[5][k];
        out[15][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[16][k];
        out[15][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[0][k];
        out[15][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[21][k];
        out[15][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[4][k];
        out[15][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[41][k];
        out[15][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[6][k];
        out[15][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[20][k];
    }
    for k in 0..L {
        out[19][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[6][k];
        out[19][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[20][k];
        out[19][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[21][k];
        out[19][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[0][k];
        out[19][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[41][k];
        out[19][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[4][k];
        out[19][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[5][k];
        out[19][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[16][k];
    }
    for k in 0..L {
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[7][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[23][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[26][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[32][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[44][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[48][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[51][k];
        out[22][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[60][k];
    }
    for k in 0..L {
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[10][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[1][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[29][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[35][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[13][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[17][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[54][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[38][k];
    }
    for k in 0..L {
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[11][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[2][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[30][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[36][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[14][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[18][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[55][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[39][k];
    }
    for k in 0..L {
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[13][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[29][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[1][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[38][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[10][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[54][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[17][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[35][k];
    }
    for k in 0..L {
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[14][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[30][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[2][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[39][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[11][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[55][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[18][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[36][k];
    }
    for k in 0..L {
        out[31][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[16][k];
        out[31][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[5][k];
        out[31][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[4][k];
        out[31][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[41][k];
        out[31][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[0][k];
        out[31][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[21][k];
        out[31][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[20][k];
        out[31][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[6][k];
    }
    for k in 0..L {
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[17][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[35][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[38][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[1][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[54][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[10][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[13][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[29][k];
    }
    for k in 0..L {
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[18][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[36][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[39][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[2][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[55][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[11][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[14][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[30][k];
    }
    for k in 0..L {
        out[37][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[20][k];
        out[37][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[6][k];
        out[37][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[41][k];
        out[37][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[4][k];
        out[37][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[21][k];
        out[37][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[0][k];
        out[37][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[16][k];
        out[37][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[5][k];
    }
    for k in 0..L {
        out[40][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[21][k];
        out[40][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[41][k];
        out[40][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[6][k];
        out[40][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[5][k];
        out[40][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[20][k];
        out[40][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[16][k];
        out[40][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[0][k];
        out[40][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[4][k];
    }
    for k in 0..L {
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[23][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[7][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[44][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[48][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[26][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[32][k];
        out[42][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[60][k];
        out[42][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[51][k];
    }
    for k in 0..L {
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[26][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[44][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[7][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[51][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[23][k];
        out[43][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[60][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[32][k];
        out[43][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[48][k];
    }
    for k in 0..L {
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[29][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[13][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[10][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[54][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[1][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[38][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[35][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[17][k];
    }
    for k in 0..L {
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[30][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[14][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[11][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[55][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[2][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[39][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[36][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[18][k];
    }
    for k in 0..L {
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[32][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[48][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[51][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[7][k];
        out[47][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[60][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[23][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[26][k];
        out[47][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[44][k];
    }
    for k in 0..L {
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[35][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[17][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[54][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[10][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[38][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[1][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[29][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[13][k];
    }
    for k in 0..L {
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[36][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[18][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[55][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[11][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[39][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[2][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[30][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[14][k];
    }
    for k in 0..L {
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[38][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[54][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[17][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[13][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[35][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[29][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[1][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[10][k];
    }
    for k in 0..L {
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[39][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[55][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[18][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[14][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[36][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[30][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[2][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[11][k];
    }
    for k in 0..L {
        out[56][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[41][k];
        out[56][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[21][k];
        out[56][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[20][k];
        out[56][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[16][k];
        out[56][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[6][k];
        out[56][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[5][k];
        out[56][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[4][k];
        out[56][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[0][k];
    }
    for k in 0..L {
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[44][k];
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[26][k];
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[23][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[6][k] * g[60][k];
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[7][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[51][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[48][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[32][k];
    }
    for k in 0..L {
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[48][k];
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[32][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[5][k] * g[60][k];
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[23][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[51][k];
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[7][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[44][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[26][k];
    }
    for k in 0..L {
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[51][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[4][k] * g[60][k];
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[32][k];
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[26][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[48][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[44][k];
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[7][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[23][k];
    }
    for k in 0..L {
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[54][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[38][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[35][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[29][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[17][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[13][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[10][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[1][k];
    }
    for k in 0..L {
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[55][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[39][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[36][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[30][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[18][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[14][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[11][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[2][k];
    }
    for k in 0..L {
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[0][k] * g[60][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[4][k] * g[51][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[5][k] * g[48][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[6][k] * g[44][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[32][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[26][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[23][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[7][k];
    }
}

/// LBO diffusion surface term in v0 at one interior face: one-sided
/// flux of the LDG gradient (lower cell's upper trace), both sides
/// updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_surf_v0(nu: f64, dv: f64, vth2: &[f64], g_lo: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_3x3v_p1_ser_diff_surf_v0_body::<1>(nu, dv, vth2.as_chunks().0, g_lo.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_diff_surf_v0`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_surf_v0_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_surf_v0_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// [`lbo_3x3v_p1_ser_diff_surf_v0_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_surf_v0_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_surf_v0_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_diff_surf_v0`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_diff_surf_v0_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g_lo: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 8] = vth2.first_chunk().expect("vth2: 8 coefficients");
    let g_lo: &[[f64; L]; 64] = g_lo.first_chunk().expect("g_lo: 64 coefficients");
    let out_lo: &mut [[f64; L]; 64] = out_lo.first_chunk_mut().expect("out_lo: 64 coefficients");
    let out_hi: &mut [[f64; L]; 64] = out_hi.first_chunk_mut().expect("out_hi: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 32];
    for k in 0..L {
        alpha[0][k] = 2.0 * vth2[0][k];
        alpha[3][k] = 2.0 * vth2[1][k];
        alpha[4][k] = 2.0 * vth2[2][k];
        alpha[5][k] = 2.0 * vth2[3][k];
        alpha[11][k] = 2.0 * vth2[4][k];
        alpha[14][k] = 2.0 * vth2[5][k];
        alpha[15][k] = 2.0 * vth2[6][k];
        alpha[25][k] = 2.0 * vth2[7][k];
    }
    let mut tr = [[0.0f64; L]; 32];
    sxn(&mut tr[0], 0.7071067811865476, &g_lo[0]);
    sxn(&mut tr[1], 0.7071067811865476, &g_lo[1]);
    sxn(&mut tr[2], 0.7071067811865476, &g_lo[2]);
    sxn(&mut tr[0], 1.224744871391589, &g_lo[3]);
    sxn(&mut tr[3], 0.7071067811865476, &g_lo[4]);
    sxn(&mut tr[4], 0.7071067811865476, &g_lo[5]);
    sxn(&mut tr[5], 0.7071067811865476, &g_lo[6]);
    sxn(&mut tr[6], 0.7071067811865476, &g_lo[7]);
    sxn(&mut tr[1], 1.224744871391589, &g_lo[8]);
    sxn(&mut tr[2], 1.224744871391589, &g_lo[9]);
    sxn(&mut tr[7], 0.7071067811865476, &g_lo[10]);
    sxn(&mut tr[8], 0.7071067811865476, &g_lo[11]);
    sxn(&mut tr[3], 1.224744871391589, &g_lo[12]);
    sxn(&mut tr[9], 0.7071067811865476, &g_lo[13]);
    sxn(&mut tr[10], 0.7071067811865476, &g_lo[14]);
    sxn(&mut tr[4], 1.224744871391589, &g_lo[15]);
    sxn(&mut tr[11], 0.7071067811865476, &g_lo[16]);
    sxn(&mut tr[12], 0.7071067811865476, &g_lo[17]);
    sxn(&mut tr[13], 0.7071067811865476, &g_lo[18]);
    sxn(&mut tr[5], 1.224744871391589, &g_lo[19]);
    sxn(&mut tr[14], 0.7071067811865476, &g_lo[20]);
    sxn(&mut tr[15], 0.7071067811865476, &g_lo[21]);
    sxn(&mut tr[6], 1.224744871391589, &g_lo[22]);
    sxn(&mut tr[16], 0.7071067811865476, &g_lo[23]);
    sxn(&mut tr[7], 1.224744871391589, &g_lo[24]);
    sxn(&mut tr[8], 1.224744871391589, &g_lo[25]);
    sxn(&mut tr[17], 0.7071067811865476, &g_lo[26]);
    sxn(&mut tr[9], 1.224744871391589, &g_lo[27]);
    sxn(&mut tr[10], 1.224744871391589, &g_lo[28]);
    sxn(&mut tr[18], 0.7071067811865476, &g_lo[29]);
    sxn(&mut tr[19], 0.7071067811865476, &g_lo[30]);
    sxn(&mut tr[11], 1.224744871391589, &g_lo[31]);
    sxn(&mut tr[20], 0.7071067811865476, &g_lo[32]);
    sxn(&mut tr[12], 1.224744871391589, &g_lo[33]);
    sxn(&mut tr[13], 1.224744871391589, &g_lo[34]);
    sxn(&mut tr[21], 0.7071067811865476, &g_lo[35]);
    sxn(&mut tr[22], 0.7071067811865476, &g_lo[36]);
    sxn(&mut tr[14], 1.224744871391589, &g_lo[37]);
    sxn(&mut tr[23], 0.7071067811865476, &g_lo[38]);
    sxn(&mut tr[24], 0.7071067811865476, &g_lo[39]);
    sxn(&mut tr[15], 1.224744871391589, &g_lo[40]);
    sxn(&mut tr[25], 0.7071067811865476, &g_lo[41]);
    sxn(&mut tr[16], 1.224744871391589, &g_lo[42]);
    sxn(&mut tr[17], 1.224744871391589, &g_lo[43]);
    sxn(&mut tr[26], 0.7071067811865476, &g_lo[44]);
    sxn(&mut tr[18], 1.224744871391589, &g_lo[45]);
    sxn(&mut tr[19], 1.224744871391589, &g_lo[46]);
    sxn(&mut tr[20], 1.224744871391589, &g_lo[47]);
    sxn(&mut tr[27], 0.7071067811865476, &g_lo[48]);
    sxn(&mut tr[21], 1.224744871391589, &g_lo[49]);
    sxn(&mut tr[22], 1.224744871391589, &g_lo[50]);
    sxn(&mut tr[28], 0.7071067811865476, &g_lo[51]);
    sxn(&mut tr[23], 1.224744871391589, &g_lo[52]);
    sxn(&mut tr[24], 1.224744871391589, &g_lo[53]);
    sxn(&mut tr[29], 0.7071067811865476, &g_lo[54]);
    sxn(&mut tr[30], 0.7071067811865476, &g_lo[55]);
    sxn(&mut tr[25], 1.224744871391589, &g_lo[56]);
    sxn(&mut tr[26], 1.224744871391589, &g_lo[57]);
    sxn(&mut tr[27], 1.224744871391589, &g_lo[58]);
    sxn(&mut tr[28], 1.224744871391589, &g_lo[59]);
    sxn(&mut tr[31], 0.7071067811865476, &g_lo[60]);
    sxn(&mut tr[29], 1.224744871391589, &g_lo[61]);
    sxn(&mut tr[30], 1.224744871391589, &g_lo[62]);
    sxn(&mut tr[31], 1.224744871391589, &g_lo[63]);
    let mut ghat = [[0.0f64; L]; 32];
    for k in 0..L {
        ghat[0][k] += 0.1767766952966369 * alpha[0][k] * tr[0][k];
        ghat[0][k] += 0.17677669529663687 * alpha[3][k] * tr[3][k];
        ghat[0][k] += 0.17677669529663687 * alpha[4][k] * tr[4][k];
        ghat[0][k] += 0.17677669529663687 * alpha[5][k] * tr[5][k];
        ghat[0][k] += 0.17677669529663687 * alpha[11][k] * tr[11][k];
        ghat[0][k] += 0.17677669529663687 * alpha[14][k] * tr[14][k];
        ghat[0][k] += 0.17677669529663687 * alpha[15][k] * tr[15][k];
        ghat[0][k] += 0.1767766952966369 * alpha[25][k] * tr[25][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.17677669529663687 * alpha[0][k] * tr[1][k];
        ghat[1][k] += 0.17677669529663687 * alpha[3][k] * tr[7][k];
        ghat[1][k] += 0.17677669529663687 * alpha[4][k] * tr[9][k];
        ghat[1][k] += 0.17677669529663687 * alpha[5][k] * tr[12][k];
        ghat[1][k] += 0.1767766952966369 * alpha[11][k] * tr[18][k];
        ghat[1][k] += 0.1767766952966369 * alpha[14][k] * tr[21][k];
        ghat[1][k] += 0.1767766952966369 * alpha[15][k] * tr[23][k];
        ghat[1][k] += 0.17677669529663687 * alpha[25][k] * tr[29][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.17677669529663687 * alpha[0][k] * tr[2][k];
        ghat[2][k] += 0.17677669529663687 * alpha[3][k] * tr[8][k];
        ghat[2][k] += 0.17677669529663687 * alpha[4][k] * tr[10][k];
        ghat[2][k] += 0.17677669529663687 * alpha[5][k] * tr[13][k];
        ghat[2][k] += 0.1767766952966369 * alpha[11][k] * tr[19][k];
        ghat[2][k] += 0.1767766952966369 * alpha[14][k] * tr[22][k];
        ghat[2][k] += 0.1767766952966369 * alpha[15][k] * tr[24][k];
        ghat[2][k] += 0.17677669529663687 * alpha[25][k] * tr[30][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.17677669529663687 * alpha[0][k] * tr[3][k];
        ghat[3][k] += 0.17677669529663687 * alpha[3][k] * tr[0][k];
        ghat[3][k] += 0.17677669529663687 * alpha[4][k] * tr[11][k];
        ghat[3][k] += 0.17677669529663687 * alpha[5][k] * tr[14][k];
        ghat[3][k] += 0.17677669529663687 * alpha[11][k] * tr[4][k];
        ghat[3][k] += 0.17677669529663687 * alpha[14][k] * tr[5][k];
        ghat[3][k] += 0.1767766952966369 * alpha[15][k] * tr[25][k];
        ghat[3][k] += 0.1767766952966369 * alpha[25][k] * tr[15][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.17677669529663687 * alpha[0][k] * tr[4][k];
        ghat[4][k] += 0.17677669529663687 * alpha[3][k] * tr[11][k];
        ghat[4][k] += 0.17677669529663687 * alpha[4][k] * tr[0][k];
        ghat[4][k] += 0.17677669529663687 * alpha[5][k] * tr[15][k];
        ghat[4][k] += 0.17677669529663687 * alpha[11][k] * tr[3][k];
        ghat[4][k] += 0.1767766952966369 * alpha[14][k] * tr[25][k];
        ghat[4][k] += 0.17677669529663687 * alpha[15][k] * tr[5][k];
        ghat[4][k] += 0.1767766952966369 * alpha[25][k] * tr[14][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.17677669529663687 * alpha[0][k] * tr[5][k];
        ghat[5][k] += 0.17677669529663687 * alpha[3][k] * tr[14][k];
        ghat[5][k] += 0.17677669529663687 * alpha[4][k] * tr[15][k];
        ghat[5][k] += 0.17677669529663687 * alpha[5][k] * tr[0][k];
        ghat[5][k] += 0.1767766952966369 * alpha[11][k] * tr[25][k];
        ghat[5][k] += 0.17677669529663687 * alpha[14][k] * tr[3][k];
        ghat[5][k] += 0.17677669529663687 * alpha[15][k] * tr[4][k];
        ghat[5][k] += 0.1767766952966369 * alpha[25][k] * tr[11][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.17677669529663687 * alpha[0][k] * tr[6][k];
        ghat[6][k] += 0.1767766952966369 * alpha[3][k] * tr[16][k];
        ghat[6][k] += 0.1767766952966369 * alpha[4][k] * tr[17][k];
        ghat[6][k] += 0.1767766952966369 * alpha[5][k] * tr[20][k];
        ghat[6][k] += 0.17677669529663687 * alpha[11][k] * tr[26][k];
        ghat[6][k] += 0.17677669529663687 * alpha[14][k] * tr[27][k];
        ghat[6][k] += 0.17677669529663687 * alpha[15][k] * tr[28][k];
        ghat[6][k] += 0.1767766952966369 * alpha[25][k] * tr[31][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.17677669529663687 * alpha[0][k] * tr[7][k];
        ghat[7][k] += 0.17677669529663687 * alpha[3][k] * tr[1][k];
        ghat[7][k] += 0.1767766952966369 * alpha[4][k] * tr[18][k];
        ghat[7][k] += 0.1767766952966369 * alpha[5][k] * tr[21][k];
        ghat[7][k] += 0.1767766952966369 * alpha[11][k] * tr[9][k];
        ghat[7][k] += 0.1767766952966369 * alpha[14][k] * tr[12][k];
        ghat[7][k] += 0.17677669529663687 * alpha[15][k] * tr[29][k];
        ghat[7][k] += 0.17677669529663687 * alpha[25][k] * tr[23][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.17677669529663687 * alpha[0][k] * tr[8][k];
        ghat[8][k] += 0.17677669529663687 * alpha[3][k] * tr[2][k];
        ghat[8][k] += 0.1767766952966369 * alpha[4][k] * tr[19][k];
        ghat[8][k] += 0.1767766952966369 * alpha[5][k] * tr[22][k];
        ghat[8][k] += 0.1767766952966369 * alpha[11][k] * tr[10][k];
        ghat[8][k] += 0.1767766952966369 * alpha[14][k] * tr[13][k];
        ghat[8][k] += 0.17677669529663687 * alpha[15][k] * tr[30][k];
        ghat[8][k] += 0.17677669529663687 * alpha[25][k] * tr[24][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.17677669529663687 * alpha[0][k] * tr[9][k];
        ghat[9][k] += 0.1767766952966369 * alpha[3][k] * tr[18][k];
        ghat[9][k] += 0.17677669529663687 * alpha[4][k] * tr[1][k];
        ghat[9][k] += 0.1767766952966369 * alpha[5][k] * tr[23][k];
        ghat[9][k] += 0.1767766952966369 * alpha[11][k] * tr[7][k];
        ghat[9][k] += 0.17677669529663687 * alpha[14][k] * tr[29][k];
        ghat[9][k] += 0.1767766952966369 * alpha[15][k] * tr[12][k];
        ghat[9][k] += 0.17677669529663687 * alpha[25][k] * tr[21][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.17677669529663687 * alpha[0][k] * tr[10][k];
        ghat[10][k] += 0.1767766952966369 * alpha[3][k] * tr[19][k];
        ghat[10][k] += 0.17677669529663687 * alpha[4][k] * tr[2][k];
        ghat[10][k] += 0.1767766952966369 * alpha[5][k] * tr[24][k];
        ghat[10][k] += 0.1767766952966369 * alpha[11][k] * tr[8][k];
        ghat[10][k] += 0.17677669529663687 * alpha[14][k] * tr[30][k];
        ghat[10][k] += 0.1767766952966369 * alpha[15][k] * tr[13][k];
        ghat[10][k] += 0.17677669529663687 * alpha[25][k] * tr[22][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.17677669529663687 * alpha[0][k] * tr[11][k];
        ghat[11][k] += 0.17677669529663687 * alpha[3][k] * tr[4][k];
        ghat[11][k] += 0.17677669529663687 * alpha[4][k] * tr[3][k];
        ghat[11][k] += 0.1767766952966369 * alpha[5][k] * tr[25][k];
        ghat[11][k] += 0.17677669529663687 * alpha[11][k] * tr[0][k];
        ghat[11][k] += 0.1767766952966369 * alpha[14][k] * tr[15][k];
        ghat[11][k] += 0.1767766952966369 * alpha[15][k] * tr[14][k];
        ghat[11][k] += 0.1767766952966369 * alpha[25][k] * tr[5][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.17677669529663687 * alpha[0][k] * tr[12][k];
        ghat[12][k] += 0.1767766952966369 * alpha[3][k] * tr[21][k];
        ghat[12][k] += 0.1767766952966369 * alpha[4][k] * tr[23][k];
        ghat[12][k] += 0.17677669529663687 * alpha[5][k] * tr[1][k];
        ghat[12][k] += 0.17677669529663687 * alpha[11][k] * tr[29][k];
        ghat[12][k] += 0.1767766952966369 * alpha[14][k] * tr[7][k];
        ghat[12][k] += 0.1767766952966369 * alpha[15][k] * tr[9][k];
        ghat[12][k] += 0.17677669529663687 * alpha[25][k] * tr[18][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.17677669529663687 * alpha[0][k] * tr[13][k];
        ghat[13][k] += 0.1767766952966369 * alpha[3][k] * tr[22][k];
        ghat[13][k] += 0.1767766952966369 * alpha[4][k] * tr[24][k];
        ghat[13][k] += 0.17677669529663687 * alpha[5][k] * tr[2][k];
        ghat[13][k] += 0.17677669529663687 * alpha[11][k] * tr[30][k];
        ghat[13][k] += 0.1767766952966369 * alpha[14][k] * tr[8][k];
        ghat[13][k] += 0.1767766952966369 * alpha[15][k] * tr[10][k];
        ghat[13][k] += 0.17677669529663687 * alpha[25][k] * tr[19][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.17677669529663687 * alpha[0][k] * tr[14][k];
        ghat[14][k] += 0.17677669529663687 * alpha[3][k] * tr[5][k];
        ghat[14][k] += 0.1767766952966369 * alpha[4][k] * tr[25][k];
        ghat[14][k] += 0.17677669529663687 * alpha[5][k] * tr[3][k];
        ghat[14][k] += 0.1767766952966369 * alpha[11][k] * tr[15][k];
        ghat[14][k] += 0.17677669529663687 * alpha[14][k] * tr[0][k];
        ghat[14][k] += 0.1767766952966369 * alpha[15][k] * tr[11][k];
        ghat[14][k] += 0.1767766952966369 * alpha[25][k] * tr[4][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.17677669529663687 * alpha[0][k] * tr[15][k];
        ghat[15][k] += 0.1767766952966369 * alpha[3][k] * tr[25][k];
        ghat[15][k] += 0.17677669529663687 * alpha[4][k] * tr[5][k];
        ghat[15][k] += 0.17677669529663687 * alpha[5][k] * tr[4][k];
        ghat[15][k] += 0.1767766952966369 * alpha[11][k] * tr[14][k];
        ghat[15][k] += 0.1767766952966369 * alpha[14][k] * tr[11][k];
        ghat[15][k] += 0.17677669529663687 * alpha[15][k] * tr[0][k];
        ghat[15][k] += 0.1767766952966369 * alpha[25][k] * tr[3][k];
    }
    for k in 0..L {
        ghat[16][k] += 0.1767766952966369 * alpha[0][k] * tr[16][k];
        ghat[16][k] += 0.1767766952966369 * alpha[3][k] * tr[6][k];
        ghat[16][k] += 0.17677669529663687 * alpha[4][k] * tr[26][k];
        ghat[16][k] += 0.17677669529663687 * alpha[5][k] * tr[27][k];
        ghat[16][k] += 0.17677669529663687 * alpha[11][k] * tr[17][k];
        ghat[16][k] += 0.17677669529663687 * alpha[14][k] * tr[20][k];
        ghat[16][k] += 0.1767766952966369 * alpha[15][k] * tr[31][k];
        ghat[16][k] += 0.1767766952966369 * alpha[25][k] * tr[28][k];
    }
    for k in 0..L {
        ghat[17][k] += 0.1767766952966369 * alpha[0][k] * tr[17][k];
        ghat[17][k] += 0.17677669529663687 * alpha[3][k] * tr[26][k];
        ghat[17][k] += 0.1767766952966369 * alpha[4][k] * tr[6][k];
        ghat[17][k] += 0.17677669529663687 * alpha[5][k] * tr[28][k];
        ghat[17][k] += 0.17677669529663687 * alpha[11][k] * tr[16][k];
        ghat[17][k] += 0.1767766952966369 * alpha[14][k] * tr[31][k];
        ghat[17][k] += 0.17677669529663687 * alpha[15][k] * tr[20][k];
        ghat[17][k] += 0.1767766952966369 * alpha[25][k] * tr[27][k];
    }
    for k in 0..L {
        ghat[18][k] += 0.1767766952966369 * alpha[0][k] * tr[18][k];
        ghat[18][k] += 0.1767766952966369 * alpha[3][k] * tr[9][k];
        ghat[18][k] += 0.1767766952966369 * alpha[4][k] * tr[7][k];
        ghat[18][k] += 0.17677669529663687 * alpha[5][k] * tr[29][k];
        ghat[18][k] += 0.1767766952966369 * alpha[11][k] * tr[1][k];
        ghat[18][k] += 0.17677669529663687 * alpha[14][k] * tr[23][k];
        ghat[18][k] += 0.17677669529663687 * alpha[15][k] * tr[21][k];
        ghat[18][k] += 0.17677669529663687 * alpha[25][k] * tr[12][k];
    }
    for k in 0..L {
        ghat[19][k] += 0.1767766952966369 * alpha[0][k] * tr[19][k];
        ghat[19][k] += 0.1767766952966369 * alpha[3][k] * tr[10][k];
        ghat[19][k] += 0.1767766952966369 * alpha[4][k] * tr[8][k];
        ghat[19][k] += 0.17677669529663687 * alpha[5][k] * tr[30][k];
        ghat[19][k] += 0.1767766952966369 * alpha[11][k] * tr[2][k];
        ghat[19][k] += 0.17677669529663687 * alpha[14][k] * tr[24][k];
        ghat[19][k] += 0.17677669529663687 * alpha[15][k] * tr[22][k];
        ghat[19][k] += 0.17677669529663687 * alpha[25][k] * tr[13][k];
    }
    for k in 0..L {
        ghat[20][k] += 0.1767766952966369 * alpha[0][k] * tr[20][k];
        ghat[20][k] += 0.17677669529663687 * alpha[3][k] * tr[27][k];
        ghat[20][k] += 0.17677669529663687 * alpha[4][k] * tr[28][k];
        ghat[20][k] += 0.1767766952966369 * alpha[5][k] * tr[6][k];
        ghat[20][k] += 0.1767766952966369 * alpha[11][k] * tr[31][k];
        ghat[20][k] += 0.17677669529663687 * alpha[14][k] * tr[16][k];
        ghat[20][k] += 0.17677669529663687 * alpha[15][k] * tr[17][k];
        ghat[20][k] += 0.1767766952966369 * alpha[25][k] * tr[26][k];
    }
    for k in 0..L {
        ghat[21][k] += 0.1767766952966369 * alpha[0][k] * tr[21][k];
        ghat[21][k] += 0.1767766952966369 * alpha[3][k] * tr[12][k];
        ghat[21][k] += 0.17677669529663687 * alpha[4][k] * tr[29][k];
        ghat[21][k] += 0.1767766952966369 * alpha[5][k] * tr[7][k];
        ghat[21][k] += 0.17677669529663687 * alpha[11][k] * tr[23][k];
        ghat[21][k] += 0.1767766952966369 * alpha[14][k] * tr[1][k];
        ghat[21][k] += 0.17677669529663687 * alpha[15][k] * tr[18][k];
        ghat[21][k] += 0.17677669529663687 * alpha[25][k] * tr[9][k];
    }
    for k in 0..L {
        ghat[22][k] += 0.1767766952966369 * alpha[0][k] * tr[22][k];
        ghat[22][k] += 0.1767766952966369 * alpha[3][k] * tr[13][k];
        ghat[22][k] += 0.17677669529663687 * alpha[4][k] * tr[30][k];
        ghat[22][k] += 0.1767766952966369 * alpha[5][k] * tr[8][k];
        ghat[22][k] += 0.17677669529663687 * alpha[11][k] * tr[24][k];
        ghat[22][k] += 0.1767766952966369 * alpha[14][k] * tr[2][k];
        ghat[22][k] += 0.17677669529663687 * alpha[15][k] * tr[19][k];
        ghat[22][k] += 0.17677669529663687 * alpha[25][k] * tr[10][k];
    }
    for k in 0..L {
        ghat[23][k] += 0.1767766952966369 * alpha[0][k] * tr[23][k];
        ghat[23][k] += 0.17677669529663687 * alpha[3][k] * tr[29][k];
        ghat[23][k] += 0.1767766952966369 * alpha[4][k] * tr[12][k];
        ghat[23][k] += 0.1767766952966369 * alpha[5][k] * tr[9][k];
        ghat[23][k] += 0.17677669529663687 * alpha[11][k] * tr[21][k];
        ghat[23][k] += 0.17677669529663687 * alpha[14][k] * tr[18][k];
        ghat[23][k] += 0.1767766952966369 * alpha[15][k] * tr[1][k];
        ghat[23][k] += 0.17677669529663687 * alpha[25][k] * tr[7][k];
    }
    for k in 0..L {
        ghat[24][k] += 0.1767766952966369 * alpha[0][k] * tr[24][k];
        ghat[24][k] += 0.17677669529663687 * alpha[3][k] * tr[30][k];
        ghat[24][k] += 0.1767766952966369 * alpha[4][k] * tr[13][k];
        ghat[24][k] += 0.1767766952966369 * alpha[5][k] * tr[10][k];
        ghat[24][k] += 0.17677669529663687 * alpha[11][k] * tr[22][k];
        ghat[24][k] += 0.17677669529663687 * alpha[14][k] * tr[19][k];
        ghat[24][k] += 0.1767766952966369 * alpha[15][k] * tr[2][k];
        ghat[24][k] += 0.17677669529663687 * alpha[25][k] * tr[8][k];
    }
    for k in 0..L {
        ghat[25][k] += 0.1767766952966369 * alpha[0][k] * tr[25][k];
        ghat[25][k] += 0.1767766952966369 * alpha[3][k] * tr[15][k];
        ghat[25][k] += 0.1767766952966369 * alpha[4][k] * tr[14][k];
        ghat[25][k] += 0.1767766952966369 * alpha[5][k] * tr[11][k];
        ghat[25][k] += 0.1767766952966369 * alpha[11][k] * tr[5][k];
        ghat[25][k] += 0.1767766952966369 * alpha[14][k] * tr[4][k];
        ghat[25][k] += 0.1767766952966369 * alpha[15][k] * tr[3][k];
        ghat[25][k] += 0.1767766952966369 * alpha[25][k] * tr[0][k];
    }
    for k in 0..L {
        ghat[26][k] += 0.17677669529663687 * alpha[0][k] * tr[26][k];
        ghat[26][k] += 0.17677669529663687 * alpha[3][k] * tr[17][k];
        ghat[26][k] += 0.17677669529663687 * alpha[4][k] * tr[16][k];
        ghat[26][k] += 0.1767766952966369 * alpha[5][k] * tr[31][k];
        ghat[26][k] += 0.17677669529663687 * alpha[11][k] * tr[6][k];
        ghat[26][k] += 0.1767766952966369 * alpha[14][k] * tr[28][k];
        ghat[26][k] += 0.1767766952966369 * alpha[15][k] * tr[27][k];
        ghat[26][k] += 0.1767766952966369 * alpha[25][k] * tr[20][k];
    }
    for k in 0..L {
        ghat[27][k] += 0.17677669529663687 * alpha[0][k] * tr[27][k];
        ghat[27][k] += 0.17677669529663687 * alpha[3][k] * tr[20][k];
        ghat[27][k] += 0.1767766952966369 * alpha[4][k] * tr[31][k];
        ghat[27][k] += 0.17677669529663687 * alpha[5][k] * tr[16][k];
        ghat[27][k] += 0.1767766952966369 * alpha[11][k] * tr[28][k];
        ghat[27][k] += 0.17677669529663687 * alpha[14][k] * tr[6][k];
        ghat[27][k] += 0.1767766952966369 * alpha[15][k] * tr[26][k];
        ghat[27][k] += 0.1767766952966369 * alpha[25][k] * tr[17][k];
    }
    for k in 0..L {
        ghat[28][k] += 0.17677669529663687 * alpha[0][k] * tr[28][k];
        ghat[28][k] += 0.1767766952966369 * alpha[3][k] * tr[31][k];
        ghat[28][k] += 0.17677669529663687 * alpha[4][k] * tr[20][k];
        ghat[28][k] += 0.17677669529663687 * alpha[5][k] * tr[17][k];
        ghat[28][k] += 0.1767766952966369 * alpha[11][k] * tr[27][k];
        ghat[28][k] += 0.1767766952966369 * alpha[14][k] * tr[26][k];
        ghat[28][k] += 0.17677669529663687 * alpha[15][k] * tr[6][k];
        ghat[28][k] += 0.1767766952966369 * alpha[25][k] * tr[16][k];
    }
    for k in 0..L {
        ghat[29][k] += 0.17677669529663687 * alpha[0][k] * tr[29][k];
        ghat[29][k] += 0.17677669529663687 * alpha[3][k] * tr[23][k];
        ghat[29][k] += 0.17677669529663687 * alpha[4][k] * tr[21][k];
        ghat[29][k] += 0.17677669529663687 * alpha[5][k] * tr[18][k];
        ghat[29][k] += 0.17677669529663687 * alpha[11][k] * tr[12][k];
        ghat[29][k] += 0.17677669529663687 * alpha[14][k] * tr[9][k];
        ghat[29][k] += 0.17677669529663687 * alpha[15][k] * tr[7][k];
        ghat[29][k] += 0.17677669529663687 * alpha[25][k] * tr[1][k];
    }
    for k in 0..L {
        ghat[30][k] += 0.17677669529663687 * alpha[0][k] * tr[30][k];
        ghat[30][k] += 0.17677669529663687 * alpha[3][k] * tr[24][k];
        ghat[30][k] += 0.17677669529663687 * alpha[4][k] * tr[22][k];
        ghat[30][k] += 0.17677669529663687 * alpha[5][k] * tr[19][k];
        ghat[30][k] += 0.17677669529663687 * alpha[11][k] * tr[13][k];
        ghat[30][k] += 0.17677669529663687 * alpha[14][k] * tr[10][k];
        ghat[30][k] += 0.17677669529663687 * alpha[15][k] * tr[8][k];
        ghat[30][k] += 0.17677669529663687 * alpha[25][k] * tr[2][k];
    }
    for k in 0..L {
        ghat[31][k] += 0.1767766952966369 * alpha[0][k] * tr[31][k];
        ghat[31][k] += 0.1767766952966369 * alpha[3][k] * tr[28][k];
        ghat[31][k] += 0.1767766952966369 * alpha[4][k] * tr[27][k];
        ghat[31][k] += 0.1767766952966369 * alpha[5][k] * tr[26][k];
        ghat[31][k] += 0.1767766952966369 * alpha[11][k] * tr[20][k];
        ghat[31][k] += 0.1767766952966369 * alpha[14][k] * tr[17][k];
        ghat[31][k] += 0.1767766952966369 * alpha[15][k] * tr[16][k];
        ghat[31][k] += 0.1767766952966369 * alpha[25][k] * tr[6][k];
    }
    sxn(&mut out_lo[0], nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[3], nu * scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[4], nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], nu * scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], nu * scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[7], nu * scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[8], nu * scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[9], nu * scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[10], nu * scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[11], nu * scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[12], nu * scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[13], nu * scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[14], nu * scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[15], nu * scale * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[16], nu * scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[17], nu * scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[18], nu * scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[19], nu * scale * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[20], nu * scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[21], nu * scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[22], nu * scale * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[23], nu * scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_lo[24], nu * scale * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[25], nu * scale * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[26], nu * scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_lo[27], nu * scale * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[28], nu * scale * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[29], nu * scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_lo[30], nu * scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_lo[31], nu * scale * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[32], nu * scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_lo[33], nu * scale * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[34], nu * scale * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[35], nu * scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_lo[36], nu * scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_lo[37], nu * scale * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[38], nu * scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_lo[39], nu * scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_lo[40], nu * scale * 1.224744871391589, &ghat[15]);
    sxn(&mut out_lo[41], nu * scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_lo[42], nu * scale * 1.224744871391589, &ghat[16]);
    sxn(&mut out_lo[43], nu * scale * 1.224744871391589, &ghat[17]);
    sxn(&mut out_lo[44], nu * scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_lo[45], nu * scale * 1.224744871391589, &ghat[18]);
    sxn(&mut out_lo[46], nu * scale * 1.224744871391589, &ghat[19]);
    sxn(&mut out_lo[47], nu * scale * 1.224744871391589, &ghat[20]);
    sxn(&mut out_lo[48], nu * scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_lo[49], nu * scale * 1.224744871391589, &ghat[21]);
    sxn(&mut out_lo[50], nu * scale * 1.224744871391589, &ghat[22]);
    sxn(&mut out_lo[51], nu * scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_lo[52], nu * scale * 1.224744871391589, &ghat[23]);
    sxn(&mut out_lo[53], nu * scale * 1.224744871391589, &ghat[24]);
    sxn(&mut out_lo[54], nu * scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_lo[55], nu * scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_lo[56], nu * scale * 1.224744871391589, &ghat[25]);
    sxn(&mut out_lo[57], nu * scale * 1.224744871391589, &ghat[26]);
    sxn(&mut out_lo[58], nu * scale * 1.224744871391589, &ghat[27]);
    sxn(&mut out_lo[59], nu * scale * 1.224744871391589, &ghat[28]);
    sxn(&mut out_lo[60], nu * scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_lo[61], nu * scale * 1.224744871391589, &ghat[29]);
    sxn(&mut out_lo[62], nu * scale * 1.224744871391589, &ghat[30]);
    sxn(&mut out_lo[63], nu * scale * 1.224744871391589, &ghat[31]);
    sxn(&mut out_hi[0], -nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], -nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], -nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[3], -nu * scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[4], -nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], -nu * scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], -nu * scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[7], -nu * scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[8], -nu * scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[9], -nu * scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[10], -nu * scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[11], -nu * scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[12], -nu * scale * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[13], -nu * scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[14], -nu * scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[15], -nu * scale * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[16], -nu * scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[17], -nu * scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[18], -nu * scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[19], -nu * scale * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[20], -nu * scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[21], -nu * scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[22], -nu * scale * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[23], -nu * scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_hi[24], -nu * scale * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[25], -nu * scale * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[26], -nu * scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_hi[27], -nu * scale * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[28], -nu * scale * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[29], -nu * scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_hi[30], -nu * scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_hi[31], -nu * scale * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[32], -nu * scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_hi[33], -nu * scale * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[34], -nu * scale * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[35], -nu * scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_hi[36], -nu * scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_hi[37], -nu * scale * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[38], -nu * scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_hi[39], -nu * scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_hi[40], -nu * scale * -1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[41], -nu * scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_hi[42], -nu * scale * -1.224744871391589, &ghat[16]);
    sxn(&mut out_hi[43], -nu * scale * -1.224744871391589, &ghat[17]);
    sxn(&mut out_hi[44], -nu * scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_hi[45], -nu * scale * -1.224744871391589, &ghat[18]);
    sxn(&mut out_hi[46], -nu * scale * -1.224744871391589, &ghat[19]);
    sxn(&mut out_hi[47], -nu * scale * -1.224744871391589, &ghat[20]);
    sxn(&mut out_hi[48], -nu * scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_hi[49], -nu * scale * -1.224744871391589, &ghat[21]);
    sxn(&mut out_hi[50], -nu * scale * -1.224744871391589, &ghat[22]);
    sxn(&mut out_hi[51], -nu * scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_hi[52], -nu * scale * -1.224744871391589, &ghat[23]);
    sxn(&mut out_hi[53], -nu * scale * -1.224744871391589, &ghat[24]);
    sxn(&mut out_hi[54], -nu * scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_hi[55], -nu * scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_hi[56], -nu * scale * -1.224744871391589, &ghat[25]);
    sxn(&mut out_hi[57], -nu * scale * -1.224744871391589, &ghat[26]);
    sxn(&mut out_hi[58], -nu * scale * -1.224744871391589, &ghat[27]);
    sxn(&mut out_hi[59], -nu * scale * -1.224744871391589, &ghat[28]);
    sxn(&mut out_hi[60], -nu * scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_hi[61], -nu * scale * -1.224744871391589, &ghat[29]);
    sxn(&mut out_hi[62], -nu * scale * -1.224744871391589, &ghat[30]);
    sxn(&mut out_hi[63], -nu * scale * -1.224744871391589, &ghat[31]);
}

/// LBO drag volume term in v1: weak `∇_v · (ν(v − u) f)`, cell interior.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_vol_v1(nu: f64, v_c: f64, dv: f64, u: &[f64], f: &[f64], out: &mut [f64]) {
    lbo_3x3v_p1_ser_drag_vol_v1_body::<1>(nu, v_c, dv, u.as_chunks().0, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_drag_vol_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_vol_v1_b4(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_vol_v1_body(nu, v_c, dv, u, f, out)
}

/// [`lbo_3x3v_p1_ser_drag_vol_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_vol_v1_b4_avx2(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_vol_v1_body(nu, v_c, dv, u, f, out)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_drag_vol_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_drag_vol_v1_body<const L: usize>(nu: f64, v_c: f64, dv: f64, u: &[[f64; L]], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let u: &[[f64; L]; 8] = u.first_chunk().expect("u: 8 coefficients");
    let f: &[[f64; L]; 64] = f.first_chunk().expect("f: 64 coefficients");
    let out: &mut [[f64; L]; 64] = out.first_chunk_mut().expect("out: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 64];
    for k in 0..L {
        alpha[0][k] = -nu * v_c * 8.0;
        alpha[2][k] = -nu * 0.5 * dv * 4.618802153517007;
        alpha[0][k] += nu * 2.8284271247461903 * u[0][k];
        alpha[4][k] += nu * 2.8284271247461903 * u[1][k];
        alpha[5][k] += nu * 2.8284271247461903 * u[2][k];
        alpha[6][k] += nu * 2.8284271247461903 * u[3][k];
        alpha[16][k] += nu * 2.8284271247461903 * u[4][k];
        alpha[20][k] += nu * 2.8284271247461903 * u[5][k];
        alpha[21][k] += nu * 2.8284271247461903 * u[6][k];
        alpha[41][k] += nu * 2.8284271247461903 * u[7][k];
    }
    for k in 0..L {
        out[2][k] += scale * 0.21650635094610965 * alpha[0][k] * f[0][k];
        out[2][k] += scale * 0.21650635094610965 * alpha[2][k] * f[2][k];
        out[2][k] += scale * 0.21650635094610965 * alpha[4][k] * f[4][k];
        out[2][k] += scale * 0.21650635094610965 * alpha[5][k] * f[5][k];
        out[2][k] += scale * 0.21650635094610965 * alpha[6][k] * f[6][k];
        out[2][k] += scale * 0.21650635094610965 * alpha[16][k] * f[16][k];
        out[2][k] += scale * 0.21650635094610965 * alpha[20][k] * f[20][k];
        out[2][k] += scale * 0.21650635094610965 * alpha[21][k] * f[21][k];
        out[2][k] += scale * 0.21650635094610965 * alpha[41][k] * f[41][k];
    }
    for k in 0..L {
        out[7][k] += scale * 0.21650635094610965 * alpha[0][k] * f[1][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[2][k] * f[7][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[4][k] * f[10][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[5][k] * f[13][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[6][k] * f[17][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[16][k] * f[29][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[20][k] * f[35][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[21][k] * f[38][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[41][k] * f[54][k];
    }
    for k in 0..L {
        out[9][k] += scale * 0.21650635094610965 * alpha[0][k] * f[3][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[2][k] * f[9][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[4][k] * f[12][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[5][k] * f[15][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[6][k] * f[19][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[16][k] * f[31][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[20][k] * f[37][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[21][k] * f[40][k];
        out[9][k] += scale * 0.21650635094610965 * alpha[41][k] * f[56][k];
    }
    for k in 0..L {
        out[11][k] += scale * 0.21650635094610965 * alpha[0][k] * f[4][k];
        out[11][k] += scale * 0.21650635094610965 * alpha[2][k] * f[11][k];
        out[11][k] += scale * 0.21650635094610965 * alpha[4][k] * f[0][k];
        out[11][k] += scale * 0.21650635094610965 * alpha[5][k] * f[16][k];
        out[11][k] += scale * 0.21650635094610965 * alpha[6][k] * f[20][k];
        out[11][k] += scale * 0.21650635094610965 * alpha[16][k] * f[5][k];
        out[11][k] += scale * 0.21650635094610965 * alpha[20][k] * f[6][k];
        out[11][k] += scale * 0.21650635094610965 * alpha[21][k] * f[41][k];
        out[11][k] += scale * 0.21650635094610965 * alpha[41][k] * f[21][k];
    }
    for k in 0..L {
        out[14][k] += scale * 0.21650635094610965 * alpha[0][k] * f[5][k];
        out[14][k] += scale * 0.21650635094610965 * alpha[2][k] * f[14][k];
        out[14][k] += scale * 0.21650635094610965 * alpha[4][k] * f[16][k];
        out[14][k] += scale * 0.21650635094610965 * alpha[5][k] * f[0][k];
        out[14][k] += scale * 0.21650635094610965 * alpha[6][k] * f[21][k];
        out[14][k] += scale * 0.21650635094610965 * alpha[16][k] * f[4][k];
        out[14][k] += scale * 0.21650635094610965 * alpha[20][k] * f[41][k];
        out[14][k] += scale * 0.21650635094610965 * alpha[21][k] * f[6][k];
        out[14][k] += scale * 0.21650635094610965 * alpha[41][k] * f[20][k];
    }
    for k in 0..L {
        out[18][k] += scale * 0.21650635094610965 * alpha[0][k] * f[6][k];
        out[18][k] += scale * 0.21650635094610965 * alpha[2][k] * f[18][k];
        out[18][k] += scale * 0.21650635094610965 * alpha[4][k] * f[20][k];
        out[18][k] += scale * 0.21650635094610965 * alpha[5][k] * f[21][k];
        out[18][k] += scale * 0.21650635094610965 * alpha[6][k] * f[0][k];
        out[18][k] += scale * 0.21650635094610965 * alpha[16][k] * f[41][k];
        out[18][k] += scale * 0.21650635094610965 * alpha[20][k] * f[4][k];
        out[18][k] += scale * 0.21650635094610965 * alpha[21][k] * f[5][k];
        out[18][k] += scale * 0.21650635094610965 * alpha[41][k] * f[16][k];
    }
    for k in 0..L {
        out[22][k] += scale * 0.21650635094610965 * alpha[0][k] * f[8][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[2][k] * f[22][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[4][k] * f[24][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[5][k] * f[27][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[6][k] * f[33][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[16][k] * f[45][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[20][k] * f[49][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[21][k] * f[52][k];
        out[22][k] += scale * 0.21650635094610968 * alpha[41][k] * f[61][k];
    }
    for k in 0..L {
        out[23][k] += scale * 0.21650635094610965 * alpha[0][k] * f[10][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[2][k] * f[23][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[4][k] * f[1][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[5][k] * f[29][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[6][k] * f[35][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[16][k] * f[13][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[20][k] * f[17][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[21][k] * f[54][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[41][k] * f[38][k];
    }
    for k in 0..L {
        out[25][k] += scale * 0.21650635094610965 * alpha[0][k] * f[12][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[2][k] * f[25][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[4][k] * f[3][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[5][k] * f[31][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[6][k] * f[37][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[16][k] * f[15][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[20][k] * f[19][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[21][k] * f[56][k];
        out[25][k] += scale * 0.21650635094610965 * alpha[41][k] * f[40][k];
    }
    for k in 0..L {
        out[26][k] += scale * 0.21650635094610965 * alpha[0][k] * f[13][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[2][k] * f[26][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[4][k] * f[29][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[5][k] * f[1][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[6][k] * f[38][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[16][k] * f[10][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[20][k] * f[54][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[21][k] * f[17][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[41][k] * f[35][k];
    }
    for k in 0..L {
        out[28][k] += scale * 0.21650635094610965 * alpha[0][k] * f[15][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[2][k] * f[28][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[4][k] * f[31][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[5][k] * f[3][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[6][k] * f[40][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[16][k] * f[12][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[20][k] * f[56][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[21][k] * f[19][k];
        out[28][k] += scale * 0.21650635094610965 * alpha[41][k] * f[37][k];
    }
    for k in 0..L {
        out[30][k] += scale * 0.21650635094610965 * alpha[0][k] * f[16][k];
        out[30][k] += scale * 0.21650635094610965 * alpha[2][k] * f[30][k];
        out[30][k] += scale * 0.21650635094610965 * alpha[4][k] * f[5][k];
        out[30][k] += scale * 0.21650635094610965 * alpha[5][k] * f[4][k];
        out[30][k] += scale * 0.21650635094610965 * alpha[6][k] * f[41][k];
        out[30][k] += scale * 0.21650635094610965 * alpha[16][k] * f[0][k];
        out[30][k] += scale * 0.21650635094610965 * alpha[20][k] * f[21][k];
        out[30][k] += scale * 0.21650635094610965 * alpha[21][k] * f[20][k];
        out[30][k] += scale * 0.21650635094610965 * alpha[41][k] * f[6][k];
    }
    for k in 0..L {
        out[32][k] += scale * 0.21650635094610965 * alpha[0][k] * f[17][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[2][k] * f[32][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[4][k] * f[35][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[5][k] * f[38][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[6][k] * f[1][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[16][k] * f[54][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[20][k] * f[10][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[21][k] * f[13][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[41][k] * f[29][k];
    }
    for k in 0..L {
        out[34][k] += scale * 0.21650635094610965 * alpha[0][k] * f[19][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[2][k] * f[34][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[4][k] * f[37][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[5][k] * f[40][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[6][k] * f[3][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[16][k] * f[56][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[20][k] * f[12][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[21][k] * f[15][k];
        out[34][k] += scale * 0.21650635094610965 * alpha[41][k] * f[31][k];
    }
    for k in 0..L {
        out[36][k] += scale * 0.21650635094610965 * alpha[0][k] * f[20][k];
        out[36][k] += scale * 0.21650635094610965 * alpha[2][k] * f[36][k];
        out[36][k] += scale * 0.21650635094610965 * alpha[4][k] * f[6][k];
        out[36][k] += scale * 0.21650635094610965 * alpha[5][k] * f[41][k];
        out[36][k] += scale * 0.21650635094610965 * alpha[6][k] * f[4][k];
        out[36][k] += scale * 0.21650635094610965 * alpha[16][k] * f[21][k];
        out[36][k] += scale * 0.21650635094610965 * alpha[20][k] * f[0][k];
        out[36][k] += scale * 0.21650635094610965 * alpha[21][k] * f[16][k];
        out[36][k] += scale * 0.21650635094610965 * alpha[41][k] * f[5][k];
    }
    for k in 0..L {
        out[39][k] += scale * 0.21650635094610965 * alpha[0][k] * f[21][k];
        out[39][k] += scale * 0.21650635094610965 * alpha[2][k] * f[39][k];
        out[39][k] += scale * 0.21650635094610965 * alpha[4][k] * f[41][k];
        out[39][k] += scale * 0.21650635094610965 * alpha[5][k] * f[6][k];
        out[39][k] += scale * 0.21650635094610965 * alpha[6][k] * f[5][k];
        out[39][k] += scale * 0.21650635094610965 * alpha[16][k] * f[20][k];
        out[39][k] += scale * 0.21650635094610965 * alpha[20][k] * f[16][k];
        out[39][k] += scale * 0.21650635094610965 * alpha[21][k] * f[0][k];
        out[39][k] += scale * 0.21650635094610965 * alpha[41][k] * f[4][k];
    }
    for k in 0..L {
        out[42][k] += scale * 0.21650635094610965 * alpha[0][k] * f[24][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[2][k] * f[42][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[4][k] * f[8][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[5][k] * f[45][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[6][k] * f[49][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[16][k] * f[27][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[20][k] * f[33][k];
        out[42][k] += scale * 0.21650635094610968 * alpha[21][k] * f[61][k];
        out[42][k] += scale * 0.21650635094610968 * alpha[41][k] * f[52][k];
    }
    for k in 0..L {
        out[43][k] += scale * 0.21650635094610965 * alpha[0][k] * f[27][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[2][k] * f[43][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[4][k] * f[45][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[5][k] * f[8][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[6][k] * f[52][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[16][k] * f[24][k];
        out[43][k] += scale * 0.21650635094610968 * alpha[20][k] * f[61][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[21][k] * f[33][k];
        out[43][k] += scale * 0.21650635094610968 * alpha[41][k] * f[49][k];
    }
    for k in 0..L {
        out[44][k] += scale * 0.21650635094610965 * alpha[0][k] * f[29][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[2][k] * f[44][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[4][k] * f[13][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[5][k] * f[10][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[6][k] * f[54][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[16][k] * f[1][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[20][k] * f[38][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[21][k] * f[35][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[41][k] * f[17][k];
    }
    for k in 0..L {
        out[46][k] += scale * 0.21650635094610965 * alpha[0][k] * f[31][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[2][k] * f[46][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[4][k] * f[15][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[5][k] * f[12][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[6][k] * f[56][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[16][k] * f[3][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[20][k] * f[40][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[21][k] * f[37][k];
        out[46][k] += scale * 0.21650635094610965 * alpha[41][k] * f[19][k];
    }
    for k in 0..L {
        out[47][k] += scale * 0.21650635094610965 * alpha[0][k] * f[33][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[2][k] * f[47][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[4][k] * f[49][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[5][k] * f[52][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[6][k] * f[8][k];
        out[47][k] += scale * 0.21650635094610968 * alpha[16][k] * f[61][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[20][k] * f[24][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[21][k] * f[27][k];
        out[47][k] += scale * 0.21650635094610968 * alpha[41][k] * f[45][k];
    }
    for k in 0..L {
        out[48][k] += scale * 0.21650635094610965 * alpha[0][k] * f[35][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[2][k] * f[48][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[4][k] * f[17][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[5][k] * f[54][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[6][k] * f[10][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[16][k] * f[38][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[20][k] * f[1][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[21][k] * f[29][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[41][k] * f[13][k];
    }
    for k in 0..L {
        out[50][k] += scale * 0.21650635094610965 * alpha[0][k] * f[37][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[2][k] * f[50][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[4][k] * f[19][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[5][k] * f[56][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[6][k] * f[12][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[16][k] * f[40][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[20][k] * f[3][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[21][k] * f[31][k];
        out[50][k] += scale * 0.21650635094610965 * alpha[41][k] * f[15][k];
    }
    for k in 0..L {
        out[51][k] += scale * 0.21650635094610965 * alpha[0][k] * f[38][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[2][k] * f[51][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[4][k] * f[54][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[5][k] * f[17][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[6][k] * f[13][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[16][k] * f[35][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[20][k] * f[29][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[21][k] * f[1][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[41][k] * f[10][k];
    }
    for k in 0..L {
        out[53][k] += scale * 0.21650635094610965 * alpha[0][k] * f[40][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[2][k] * f[53][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[4][k] * f[56][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[5][k] * f[19][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[6][k] * f[15][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[16][k] * f[37][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[20][k] * f[31][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[21][k] * f[3][k];
        out[53][k] += scale * 0.21650635094610965 * alpha[41][k] * f[12][k];
    }
    for k in 0..L {
        out[55][k] += scale * 0.21650635094610965 * alpha[0][k] * f[41][k];
        out[55][k] += scale * 0.21650635094610965 * alpha[2][k] * f[55][k];
        out[55][k] += scale * 0.21650635094610965 * alpha[4][k] * f[21][k];
        out[55][k] += scale * 0.21650635094610965 * alpha[5][k] * f[20][k];
        out[55][k] += scale * 0.21650635094610965 * alpha[6][k] * f[16][k];
        out[55][k] += scale * 0.21650635094610965 * alpha[16][k] * f[6][k];
        out[55][k] += scale * 0.21650635094610965 * alpha[20][k] * f[5][k];
        out[55][k] += scale * 0.21650635094610965 * alpha[21][k] * f[4][k];
        out[55][k] += scale * 0.21650635094610965 * alpha[41][k] * f[0][k];
    }
    for k in 0..L {
        out[57][k] += scale * 0.21650635094610965 * alpha[0][k] * f[45][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[2][k] * f[57][k];
        out[57][k] += scale * 0.21650635094610965 * alpha[4][k] * f[27][k];
        out[57][k] += scale * 0.21650635094610965 * alpha[5][k] * f[24][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[6][k] * f[61][k];
        out[57][k] += scale * 0.21650635094610965 * alpha[16][k] * f[8][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[20][k] * f[52][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[21][k] * f[49][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[41][k] * f[33][k];
    }
    for k in 0..L {
        out[58][k] += scale * 0.21650635094610965 * alpha[0][k] * f[49][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[2][k] * f[58][k];
        out[58][k] += scale * 0.21650635094610965 * alpha[4][k] * f[33][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[5][k] * f[61][k];
        out[58][k] += scale * 0.21650635094610965 * alpha[6][k] * f[24][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[16][k] * f[52][k];
        out[58][k] += scale * 0.21650635094610965 * alpha[20][k] * f[8][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[21][k] * f[45][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[41][k] * f[27][k];
    }
    for k in 0..L {
        out[59][k] += scale * 0.21650635094610965 * alpha[0][k] * f[52][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[2][k] * f[59][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[4][k] * f[61][k];
        out[59][k] += scale * 0.21650635094610965 * alpha[5][k] * f[33][k];
        out[59][k] += scale * 0.21650635094610965 * alpha[6][k] * f[27][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[16][k] * f[49][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[20][k] * f[45][k];
        out[59][k] += scale * 0.21650635094610965 * alpha[21][k] * f[8][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[41][k] * f[24][k];
    }
    for k in 0..L {
        out[60][k] += scale * 0.21650635094610965 * alpha[0][k] * f[54][k];
        out[60][k] += scale * 0.21650635094610968 * alpha[2][k] * f[60][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[4][k] * f[38][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[5][k] * f[35][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[6][k] * f[29][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[16][k] * f[17][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[20][k] * f[13][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[21][k] * f[10][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[41][k] * f[1][k];
    }
    for k in 0..L {
        out[62][k] += scale * 0.21650635094610965 * alpha[0][k] * f[56][k];
        out[62][k] += scale * 0.21650635094610968 * alpha[2][k] * f[62][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[4][k] * f[40][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[5][k] * f[37][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[6][k] * f[31][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[16][k] * f[19][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[20][k] * f[15][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[21][k] * f[12][k];
        out[62][k] += scale * 0.21650635094610965 * alpha[41][k] * f[3][k];
    }
    for k in 0..L {
        out[63][k] += scale * 0.21650635094610968 * alpha[0][k] * f[61][k];
        out[63][k] += scale * 0.21650635094610962 * alpha[2][k] * f[63][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[4][k] * f[52][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[5][k] * f[49][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[6][k] * f[45][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[16][k] * f[33][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[20][k] * f[27][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[21][k] * f[24][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[41][k] * f[8][k];
    }
}

/// LBO drag surface term in v1 at one interior face (`vstar` = face
/// velocity coordinate); penalized central flux, both sides updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_surf_v1(nu: f64, vstar: f64, dv: f64, u: &[f64], f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_3x3v_p1_ser_drag_surf_v1_body::<1>(nu, vstar, dv, u.as_chunks().0, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_drag_surf_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_surf_v1_b4(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_surf_v1_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// [`lbo_3x3v_p1_ser_drag_surf_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_surf_v1_b4_avx2(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_surf_v1_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_drag_surf_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_drag_surf_v1_body<const L: usize>(nu: f64, vstar: f64, dv: f64, u: &[[f64; L]], f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let u: &[[f64; L]; 8] = u.first_chunk().expect("u: 8 coefficients");
    let f_lo: &[[f64; L]; 64] = f_lo.first_chunk().expect("f_lo: 64 coefficients");
    let f_hi: &[[f64; L]; 64] = f_hi.first_chunk().expect("f_hi: 64 coefficients");
    let out_lo: &mut [[f64; L]; 64] = out_lo.first_chunk_mut().expect("out_lo: 64 coefficients");
    let out_hi: &mut [[f64; L]; 64] = out_hi.first_chunk_mut().expect("out_hi: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 32];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] = -nu * vstar * 5.656854249492381;
        alpha[0][k] += nu * 2.0 * u[0][k];
        alpha[3][k] += nu * 2.0 * u[1][k];
        alpha[4][k] += nu * 2.0 * u[2][k];
        alpha[5][k] += nu * 2.0 * u[3][k];
        alpha[11][k] += nu * 2.0 * u[4][k];
        alpha[14][k] += nu * 2.0 * u[5][k];
        alpha[15][k] += nu * 2.0 * u[6][k];
        alpha[25][k] += nu * 2.0 * u[7][k];
        lam[k] = alpha[0][k].abs() * 0.17677669529663692 + alpha[3][k].abs() * 0.30618621784789735 + alpha[4][k].abs() * 0.30618621784789735 + alpha[5][k].abs() * 0.30618621784789735 + alpha[11][k].abs() * 0.5303300858899107 + alpha[14][k].abs() * 0.5303300858899107 + alpha[15][k].abs() * 0.5303300858899107 + alpha[25][k].abs() * 0.9185586535436917;
    }
    let mut fm = [[0.0f64; L]; 32];
    let mut fp = [[0.0f64; L]; 32];
    sxn(&mut fm[0], 0.7071067811865476, &f_lo[0]);
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[1]);
    sxn(&mut fm[0], 1.224744871391589, &f_lo[2]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[6]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[7]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[8]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[9]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[10]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[11]);
    sxn(&mut fm[8], 0.7071067811865476, &f_lo[12]);
    sxn(&mut fm[9], 0.7071067811865476, &f_lo[13]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[14]);
    sxn(&mut fm[10], 0.7071067811865476, &f_lo[15]);
    sxn(&mut fm[11], 0.7071067811865476, &f_lo[16]);
    sxn(&mut fm[12], 0.7071067811865476, &f_lo[17]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[18]);
    sxn(&mut fm[13], 0.7071067811865476, &f_lo[19]);
    sxn(&mut fm[14], 0.7071067811865476, &f_lo[20]);
    sxn(&mut fm[15], 0.7071067811865476, &f_lo[21]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[22]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[23]);
    sxn(&mut fm[16], 0.7071067811865476, &f_lo[24]);
    sxn(&mut fm[8], 1.224744871391589, &f_lo[25]);
    sxn(&mut fm[9], 1.224744871391589, &f_lo[26]);
    sxn(&mut fm[17], 0.7071067811865476, &f_lo[27]);
    sxn(&mut fm[10], 1.224744871391589, &f_lo[28]);
    sxn(&mut fm[18], 0.7071067811865476, &f_lo[29]);
    sxn(&mut fm[11], 1.224744871391589, &f_lo[30]);
    sxn(&mut fm[19], 0.7071067811865476, &f_lo[31]);
    sxn(&mut fm[12], 1.224744871391589, &f_lo[32]);
    sxn(&mut fm[20], 0.7071067811865476, &f_lo[33]);
    sxn(&mut fm[13], 1.224744871391589, &f_lo[34]);
    sxn(&mut fm[21], 0.7071067811865476, &f_lo[35]);
    sxn(&mut fm[14], 1.224744871391589, &f_lo[36]);
    sxn(&mut fm[22], 0.7071067811865476, &f_lo[37]);
    sxn(&mut fm[23], 0.7071067811865476, &f_lo[38]);
    sxn(&mut fm[15], 1.224744871391589, &f_lo[39]);
    sxn(&mut fm[24], 0.7071067811865476, &f_lo[40]);
    sxn(&mut fm[25], 0.7071067811865476, &f_lo[41]);
    sxn(&mut fm[16], 1.224744871391589, &f_lo[42]);
    sxn(&mut fm[17], 1.224744871391589, &f_lo[43]);
    sxn(&mut fm[18], 1.224744871391589, &f_lo[44]);
    sxn(&mut fm[26], 0.7071067811865476, &f_lo[45]);
    sxn(&mut fm[19], 1.224744871391589, &f_lo[46]);
    sxn(&mut fm[20], 1.224744871391589, &f_lo[47]);
    sxn(&mut fm[21], 1.224744871391589, &f_lo[48]);
    sxn(&mut fm[27], 0.7071067811865476, &f_lo[49]);
    sxn(&mut fm[22], 1.224744871391589, &f_lo[50]);
    sxn(&mut fm[23], 1.224744871391589, &f_lo[51]);
    sxn(&mut fm[28], 0.7071067811865476, &f_lo[52]);
    sxn(&mut fm[24], 1.224744871391589, &f_lo[53]);
    sxn(&mut fm[29], 0.7071067811865476, &f_lo[54]);
    sxn(&mut fm[25], 1.224744871391589, &f_lo[55]);
    sxn(&mut fm[30], 0.7071067811865476, &f_lo[56]);
    sxn(&mut fm[26], 1.224744871391589, &f_lo[57]);
    sxn(&mut fm[27], 1.224744871391589, &f_lo[58]);
    sxn(&mut fm[28], 1.224744871391589, &f_lo[59]);
    sxn(&mut fm[29], 1.224744871391589, &f_lo[60]);
    sxn(&mut fm[31], 0.7071067811865476, &f_lo[61]);
    sxn(&mut fm[30], 1.224744871391589, &f_lo[62]);
    sxn(&mut fm[31], 1.224744871391589, &f_lo[63]);
    sxn(&mut fp[0], 0.7071067811865476, &f_hi[0]);
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[1]);
    sxn(&mut fp[0], -1.224744871391589, &f_hi[2]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[6]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[7]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[8]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[9]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[10]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[11]);
    sxn(&mut fp[8], 0.7071067811865476, &f_hi[12]);
    sxn(&mut fp[9], 0.7071067811865476, &f_hi[13]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[14]);
    sxn(&mut fp[10], 0.7071067811865476, &f_hi[15]);
    sxn(&mut fp[11], 0.7071067811865476, &f_hi[16]);
    sxn(&mut fp[12], 0.7071067811865476, &f_hi[17]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[18]);
    sxn(&mut fp[13], 0.7071067811865476, &f_hi[19]);
    sxn(&mut fp[14], 0.7071067811865476, &f_hi[20]);
    sxn(&mut fp[15], 0.7071067811865476, &f_hi[21]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[22]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[23]);
    sxn(&mut fp[16], 0.7071067811865476, &f_hi[24]);
    sxn(&mut fp[8], -1.224744871391589, &f_hi[25]);
    sxn(&mut fp[9], -1.224744871391589, &f_hi[26]);
    sxn(&mut fp[17], 0.7071067811865476, &f_hi[27]);
    sxn(&mut fp[10], -1.224744871391589, &f_hi[28]);
    sxn(&mut fp[18], 0.7071067811865476, &f_hi[29]);
    sxn(&mut fp[11], -1.224744871391589, &f_hi[30]);
    sxn(&mut fp[19], 0.7071067811865476, &f_hi[31]);
    sxn(&mut fp[12], -1.224744871391589, &f_hi[32]);
    sxn(&mut fp[20], 0.7071067811865476, &f_hi[33]);
    sxn(&mut fp[13], -1.224744871391589, &f_hi[34]);
    sxn(&mut fp[21], 0.7071067811865476, &f_hi[35]);
    sxn(&mut fp[14], -1.224744871391589, &f_hi[36]);
    sxn(&mut fp[22], 0.7071067811865476, &f_hi[37]);
    sxn(&mut fp[23], 0.7071067811865476, &f_hi[38]);
    sxn(&mut fp[15], -1.224744871391589, &f_hi[39]);
    sxn(&mut fp[24], 0.7071067811865476, &f_hi[40]);
    sxn(&mut fp[25], 0.7071067811865476, &f_hi[41]);
    sxn(&mut fp[16], -1.224744871391589, &f_hi[42]);
    sxn(&mut fp[17], -1.224744871391589, &f_hi[43]);
    sxn(&mut fp[18], -1.224744871391589, &f_hi[44]);
    sxn(&mut fp[26], 0.7071067811865476, &f_hi[45]);
    sxn(&mut fp[19], -1.224744871391589, &f_hi[46]);
    sxn(&mut fp[20], -1.224744871391589, &f_hi[47]);
    sxn(&mut fp[21], -1.224744871391589, &f_hi[48]);
    sxn(&mut fp[27], 0.7071067811865476, &f_hi[49]);
    sxn(&mut fp[22], -1.224744871391589, &f_hi[50]);
    sxn(&mut fp[23], -1.224744871391589, &f_hi[51]);
    sxn(&mut fp[28], 0.7071067811865476, &f_hi[52]);
    sxn(&mut fp[24], -1.224744871391589, &f_hi[53]);
    sxn(&mut fp[29], 0.7071067811865476, &f_hi[54]);
    sxn(&mut fp[25], -1.224744871391589, &f_hi[55]);
    sxn(&mut fp[30], 0.7071067811865476, &f_hi[56]);
    sxn(&mut fp[26], -1.224744871391589, &f_hi[57]);
    sxn(&mut fp[27], -1.224744871391589, &f_hi[58]);
    sxn(&mut fp[28], -1.224744871391589, &f_hi[59]);
    sxn(&mut fp[29], -1.224744871391589, &f_hi[60]);
    sxn(&mut fp[31], 0.7071067811865476, &f_hi[61]);
    sxn(&mut fp[30], -1.224744871391589, &f_hi[62]);
    sxn(&mut fp[31], -1.224744871391589, &f_hi[63]);
    let mut favg = [[0.0f64; L]; 32];
    let mut ghat = [[0.0f64; L]; 32];
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
        favg[8][k] = 0.5 * (fm[8][k] + fp[8][k]);
        ghat[8][k] = -0.5 * lam[k] * (fp[8][k] - fm[8][k]);
        favg[9][k] = 0.5 * (fm[9][k] + fp[9][k]);
        ghat[9][k] = -0.5 * lam[k] * (fp[9][k] - fm[9][k]);
        favg[10][k] = 0.5 * (fm[10][k] + fp[10][k]);
        ghat[10][k] = -0.5 * lam[k] * (fp[10][k] - fm[10][k]);
        favg[11][k] = 0.5 * (fm[11][k] + fp[11][k]);
        ghat[11][k] = -0.5 * lam[k] * (fp[11][k] - fm[11][k]);
        favg[12][k] = 0.5 * (fm[12][k] + fp[12][k]);
        ghat[12][k] = -0.5 * lam[k] * (fp[12][k] - fm[12][k]);
        favg[13][k] = 0.5 * (fm[13][k] + fp[13][k]);
        ghat[13][k] = -0.5 * lam[k] * (fp[13][k] - fm[13][k]);
        favg[14][k] = 0.5 * (fm[14][k] + fp[14][k]);
        ghat[14][k] = -0.5 * lam[k] * (fp[14][k] - fm[14][k]);
        favg[15][k] = 0.5 * (fm[15][k] + fp[15][k]);
        ghat[15][k] = -0.5 * lam[k] * (fp[15][k] - fm[15][k]);
        favg[16][k] = 0.5 * (fm[16][k] + fp[16][k]);
        ghat[16][k] = -0.5 * lam[k] * (fp[16][k] - fm[16][k]);
        favg[17][k] = 0.5 * (fm[17][k] + fp[17][k]);
        ghat[17][k] = -0.5 * lam[k] * (fp[17][k] - fm[17][k]);
        favg[18][k] = 0.5 * (fm[18][k] + fp[18][k]);
        ghat[18][k] = -0.5 * lam[k] * (fp[18][k] - fm[18][k]);
        favg[19][k] = 0.5 * (fm[19][k] + fp[19][k]);
        ghat[19][k] = -0.5 * lam[k] * (fp[19][k] - fm[19][k]);
        favg[20][k] = 0.5 * (fm[20][k] + fp[20][k]);
        ghat[20][k] = -0.5 * lam[k] * (fp[20][k] - fm[20][k]);
        favg[21][k] = 0.5 * (fm[21][k] + fp[21][k]);
        ghat[21][k] = -0.5 * lam[k] * (fp[21][k] - fm[21][k]);
        favg[22][k] = 0.5 * (fm[22][k] + fp[22][k]);
        ghat[22][k] = -0.5 * lam[k] * (fp[22][k] - fm[22][k]);
        favg[23][k] = 0.5 * (fm[23][k] + fp[23][k]);
        ghat[23][k] = -0.5 * lam[k] * (fp[23][k] - fm[23][k]);
        favg[24][k] = 0.5 * (fm[24][k] + fp[24][k]);
        ghat[24][k] = -0.5 * lam[k] * (fp[24][k] - fm[24][k]);
        favg[25][k] = 0.5 * (fm[25][k] + fp[25][k]);
        ghat[25][k] = -0.5 * lam[k] * (fp[25][k] - fm[25][k]);
        favg[26][k] = 0.5 * (fm[26][k] + fp[26][k]);
        ghat[26][k] = -0.5 * lam[k] * (fp[26][k] - fm[26][k]);
        favg[27][k] = 0.5 * (fm[27][k] + fp[27][k]);
        ghat[27][k] = -0.5 * lam[k] * (fp[27][k] - fm[27][k]);
        favg[28][k] = 0.5 * (fm[28][k] + fp[28][k]);
        ghat[28][k] = -0.5 * lam[k] * (fp[28][k] - fm[28][k]);
        favg[29][k] = 0.5 * (fm[29][k] + fp[29][k]);
        ghat[29][k] = -0.5 * lam[k] * (fp[29][k] - fm[29][k]);
        favg[30][k] = 0.5 * (fm[30][k] + fp[30][k]);
        ghat[30][k] = -0.5 * lam[k] * (fp[30][k] - fm[30][k]);
        favg[31][k] = 0.5 * (fm[31][k] + fp[31][k]);
        ghat[31][k] = -0.5 * lam[k] * (fp[31][k] - fm[31][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.1767766952966369 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.17677669529663687 * alpha[3][k] * favg[3][k];
        ghat[0][k] += 0.17677669529663687 * alpha[4][k] * favg[4][k];
        ghat[0][k] += 0.17677669529663687 * alpha[5][k] * favg[5][k];
        ghat[0][k] += 0.17677669529663687 * alpha[11][k] * favg[11][k];
        ghat[0][k] += 0.17677669529663687 * alpha[14][k] * favg[14][k];
        ghat[0][k] += 0.17677669529663687 * alpha[15][k] * favg[15][k];
        ghat[0][k] += 0.1767766952966369 * alpha[25][k] * favg[25][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.17677669529663687 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.17677669529663687 * alpha[3][k] * favg[7][k];
        ghat[1][k] += 0.17677669529663687 * alpha[4][k] * favg[9][k];
        ghat[1][k] += 0.17677669529663687 * alpha[5][k] * favg[12][k];
        ghat[1][k] += 0.1767766952966369 * alpha[11][k] * favg[18][k];
        ghat[1][k] += 0.1767766952966369 * alpha[14][k] * favg[21][k];
        ghat[1][k] += 0.1767766952966369 * alpha[15][k] * favg[23][k];
        ghat[1][k] += 0.17677669529663687 * alpha[25][k] * favg[29][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.17677669529663687 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.17677669529663687 * alpha[3][k] * favg[8][k];
        ghat[2][k] += 0.17677669529663687 * alpha[4][k] * favg[10][k];
        ghat[2][k] += 0.17677669529663687 * alpha[5][k] * favg[13][k];
        ghat[2][k] += 0.1767766952966369 * alpha[11][k] * favg[19][k];
        ghat[2][k] += 0.1767766952966369 * alpha[14][k] * favg[22][k];
        ghat[2][k] += 0.1767766952966369 * alpha[15][k] * favg[24][k];
        ghat[2][k] += 0.17677669529663687 * alpha[25][k] * favg[30][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.17677669529663687 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.17677669529663687 * alpha[3][k] * favg[0][k];
        ghat[3][k] += 0.17677669529663687 * alpha[4][k] * favg[11][k];
        ghat[3][k] += 0.17677669529663687 * alpha[5][k] * favg[14][k];
        ghat[3][k] += 0.17677669529663687 * alpha[11][k] * favg[4][k];
        ghat[3][k] += 0.17677669529663687 * alpha[14][k] * favg[5][k];
        ghat[3][k] += 0.1767766952966369 * alpha[15][k] * favg[25][k];
        ghat[3][k] += 0.1767766952966369 * alpha[25][k] * favg[15][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.17677669529663687 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.17677669529663687 * alpha[3][k] * favg[11][k];
        ghat[4][k] += 0.17677669529663687 * alpha[4][k] * favg[0][k];
        ghat[4][k] += 0.17677669529663687 * alpha[5][k] * favg[15][k];
        ghat[4][k] += 0.17677669529663687 * alpha[11][k] * favg[3][k];
        ghat[4][k] += 0.1767766952966369 * alpha[14][k] * favg[25][k];
        ghat[4][k] += 0.17677669529663687 * alpha[15][k] * favg[5][k];
        ghat[4][k] += 0.1767766952966369 * alpha[25][k] * favg[14][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.17677669529663687 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.17677669529663687 * alpha[3][k] * favg[14][k];
        ghat[5][k] += 0.17677669529663687 * alpha[4][k] * favg[15][k];
        ghat[5][k] += 0.17677669529663687 * alpha[5][k] * favg[0][k];
        ghat[5][k] += 0.1767766952966369 * alpha[11][k] * favg[25][k];
        ghat[5][k] += 0.17677669529663687 * alpha[14][k] * favg[3][k];
        ghat[5][k] += 0.17677669529663687 * alpha[15][k] * favg[4][k];
        ghat[5][k] += 0.1767766952966369 * alpha[25][k] * favg[11][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.17677669529663687 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.1767766952966369 * alpha[3][k] * favg[16][k];
        ghat[6][k] += 0.1767766952966369 * alpha[4][k] * favg[17][k];
        ghat[6][k] += 0.1767766952966369 * alpha[5][k] * favg[20][k];
        ghat[6][k] += 0.17677669529663687 * alpha[11][k] * favg[26][k];
        ghat[6][k] += 0.17677669529663687 * alpha[14][k] * favg[27][k];
        ghat[6][k] += 0.17677669529663687 * alpha[15][k] * favg[28][k];
        ghat[6][k] += 0.1767766952966369 * alpha[25][k] * favg[31][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.17677669529663687 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.17677669529663687 * alpha[3][k] * favg[1][k];
        ghat[7][k] += 0.1767766952966369 * alpha[4][k] * favg[18][k];
        ghat[7][k] += 0.1767766952966369 * alpha[5][k] * favg[21][k];
        ghat[7][k] += 0.1767766952966369 * alpha[11][k] * favg[9][k];
        ghat[7][k] += 0.1767766952966369 * alpha[14][k] * favg[12][k];
        ghat[7][k] += 0.17677669529663687 * alpha[15][k] * favg[29][k];
        ghat[7][k] += 0.17677669529663687 * alpha[25][k] * favg[23][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.17677669529663687 * alpha[0][k] * favg[8][k];
        ghat[8][k] += 0.17677669529663687 * alpha[3][k] * favg[2][k];
        ghat[8][k] += 0.1767766952966369 * alpha[4][k] * favg[19][k];
        ghat[8][k] += 0.1767766952966369 * alpha[5][k] * favg[22][k];
        ghat[8][k] += 0.1767766952966369 * alpha[11][k] * favg[10][k];
        ghat[8][k] += 0.1767766952966369 * alpha[14][k] * favg[13][k];
        ghat[8][k] += 0.17677669529663687 * alpha[15][k] * favg[30][k];
        ghat[8][k] += 0.17677669529663687 * alpha[25][k] * favg[24][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.17677669529663687 * alpha[0][k] * favg[9][k];
        ghat[9][k] += 0.1767766952966369 * alpha[3][k] * favg[18][k];
        ghat[9][k] += 0.17677669529663687 * alpha[4][k] * favg[1][k];
        ghat[9][k] += 0.1767766952966369 * alpha[5][k] * favg[23][k];
        ghat[9][k] += 0.1767766952966369 * alpha[11][k] * favg[7][k];
        ghat[9][k] += 0.17677669529663687 * alpha[14][k] * favg[29][k];
        ghat[9][k] += 0.1767766952966369 * alpha[15][k] * favg[12][k];
        ghat[9][k] += 0.17677669529663687 * alpha[25][k] * favg[21][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.17677669529663687 * alpha[0][k] * favg[10][k];
        ghat[10][k] += 0.1767766952966369 * alpha[3][k] * favg[19][k];
        ghat[10][k] += 0.17677669529663687 * alpha[4][k] * favg[2][k];
        ghat[10][k] += 0.1767766952966369 * alpha[5][k] * favg[24][k];
        ghat[10][k] += 0.1767766952966369 * alpha[11][k] * favg[8][k];
        ghat[10][k] += 0.17677669529663687 * alpha[14][k] * favg[30][k];
        ghat[10][k] += 0.1767766952966369 * alpha[15][k] * favg[13][k];
        ghat[10][k] += 0.17677669529663687 * alpha[25][k] * favg[22][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.17677669529663687 * alpha[0][k] * favg[11][k];
        ghat[11][k] += 0.17677669529663687 * alpha[3][k] * favg[4][k];
        ghat[11][k] += 0.17677669529663687 * alpha[4][k] * favg[3][k];
        ghat[11][k] += 0.1767766952966369 * alpha[5][k] * favg[25][k];
        ghat[11][k] += 0.17677669529663687 * alpha[11][k] * favg[0][k];
        ghat[11][k] += 0.1767766952966369 * alpha[14][k] * favg[15][k];
        ghat[11][k] += 0.1767766952966369 * alpha[15][k] * favg[14][k];
        ghat[11][k] += 0.1767766952966369 * alpha[25][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.17677669529663687 * alpha[0][k] * favg[12][k];
        ghat[12][k] += 0.1767766952966369 * alpha[3][k] * favg[21][k];
        ghat[12][k] += 0.1767766952966369 * alpha[4][k] * favg[23][k];
        ghat[12][k] += 0.17677669529663687 * alpha[5][k] * favg[1][k];
        ghat[12][k] += 0.17677669529663687 * alpha[11][k] * favg[29][k];
        ghat[12][k] += 0.1767766952966369 * alpha[14][k] * favg[7][k];
        ghat[12][k] += 0.1767766952966369 * alpha[15][k] * favg[9][k];
        ghat[12][k] += 0.17677669529663687 * alpha[25][k] * favg[18][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.17677669529663687 * alpha[0][k] * favg[13][k];
        ghat[13][k] += 0.1767766952966369 * alpha[3][k] * favg[22][k];
        ghat[13][k] += 0.1767766952966369 * alpha[4][k] * favg[24][k];
        ghat[13][k] += 0.17677669529663687 * alpha[5][k] * favg[2][k];
        ghat[13][k] += 0.17677669529663687 * alpha[11][k] * favg[30][k];
        ghat[13][k] += 0.1767766952966369 * alpha[14][k] * favg[8][k];
        ghat[13][k] += 0.1767766952966369 * alpha[15][k] * favg[10][k];
        ghat[13][k] += 0.17677669529663687 * alpha[25][k] * favg[19][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.17677669529663687 * alpha[0][k] * favg[14][k];
        ghat[14][k] += 0.17677669529663687 * alpha[3][k] * favg[5][k];
        ghat[14][k] += 0.1767766952966369 * alpha[4][k] * favg[25][k];
        ghat[14][k] += 0.17677669529663687 * alpha[5][k] * favg[3][k];
        ghat[14][k] += 0.1767766952966369 * alpha[11][k] * favg[15][k];
        ghat[14][k] += 0.17677669529663687 * alpha[14][k] * favg[0][k];
        ghat[14][k] += 0.1767766952966369 * alpha[15][k] * favg[11][k];
        ghat[14][k] += 0.1767766952966369 * alpha[25][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.17677669529663687 * alpha[0][k] * favg[15][k];
        ghat[15][k] += 0.1767766952966369 * alpha[3][k] * favg[25][k];
        ghat[15][k] += 0.17677669529663687 * alpha[4][k] * favg[5][k];
        ghat[15][k] += 0.17677669529663687 * alpha[5][k] * favg[4][k];
        ghat[15][k] += 0.1767766952966369 * alpha[11][k] * favg[14][k];
        ghat[15][k] += 0.1767766952966369 * alpha[14][k] * favg[11][k];
        ghat[15][k] += 0.17677669529663687 * alpha[15][k] * favg[0][k];
        ghat[15][k] += 0.1767766952966369 * alpha[25][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[16][k] += 0.1767766952966369 * alpha[0][k] * favg[16][k];
        ghat[16][k] += 0.1767766952966369 * alpha[3][k] * favg[6][k];
        ghat[16][k] += 0.17677669529663687 * alpha[4][k] * favg[26][k];
        ghat[16][k] += 0.17677669529663687 * alpha[5][k] * favg[27][k];
        ghat[16][k] += 0.17677669529663687 * alpha[11][k] * favg[17][k];
        ghat[16][k] += 0.17677669529663687 * alpha[14][k] * favg[20][k];
        ghat[16][k] += 0.1767766952966369 * alpha[15][k] * favg[31][k];
        ghat[16][k] += 0.1767766952966369 * alpha[25][k] * favg[28][k];
    }
    for k in 0..L {
        ghat[17][k] += 0.1767766952966369 * alpha[0][k] * favg[17][k];
        ghat[17][k] += 0.17677669529663687 * alpha[3][k] * favg[26][k];
        ghat[17][k] += 0.1767766952966369 * alpha[4][k] * favg[6][k];
        ghat[17][k] += 0.17677669529663687 * alpha[5][k] * favg[28][k];
        ghat[17][k] += 0.17677669529663687 * alpha[11][k] * favg[16][k];
        ghat[17][k] += 0.1767766952966369 * alpha[14][k] * favg[31][k];
        ghat[17][k] += 0.17677669529663687 * alpha[15][k] * favg[20][k];
        ghat[17][k] += 0.1767766952966369 * alpha[25][k] * favg[27][k];
    }
    for k in 0..L {
        ghat[18][k] += 0.1767766952966369 * alpha[0][k] * favg[18][k];
        ghat[18][k] += 0.1767766952966369 * alpha[3][k] * favg[9][k];
        ghat[18][k] += 0.1767766952966369 * alpha[4][k] * favg[7][k];
        ghat[18][k] += 0.17677669529663687 * alpha[5][k] * favg[29][k];
        ghat[18][k] += 0.1767766952966369 * alpha[11][k] * favg[1][k];
        ghat[18][k] += 0.17677669529663687 * alpha[14][k] * favg[23][k];
        ghat[18][k] += 0.17677669529663687 * alpha[15][k] * favg[21][k];
        ghat[18][k] += 0.17677669529663687 * alpha[25][k] * favg[12][k];
    }
    for k in 0..L {
        ghat[19][k] += 0.1767766952966369 * alpha[0][k] * favg[19][k];
        ghat[19][k] += 0.1767766952966369 * alpha[3][k] * favg[10][k];
        ghat[19][k] += 0.1767766952966369 * alpha[4][k] * favg[8][k];
        ghat[19][k] += 0.17677669529663687 * alpha[5][k] * favg[30][k];
        ghat[19][k] += 0.1767766952966369 * alpha[11][k] * favg[2][k];
        ghat[19][k] += 0.17677669529663687 * alpha[14][k] * favg[24][k];
        ghat[19][k] += 0.17677669529663687 * alpha[15][k] * favg[22][k];
        ghat[19][k] += 0.17677669529663687 * alpha[25][k] * favg[13][k];
    }
    for k in 0..L {
        ghat[20][k] += 0.1767766952966369 * alpha[0][k] * favg[20][k];
        ghat[20][k] += 0.17677669529663687 * alpha[3][k] * favg[27][k];
        ghat[20][k] += 0.17677669529663687 * alpha[4][k] * favg[28][k];
        ghat[20][k] += 0.1767766952966369 * alpha[5][k] * favg[6][k];
        ghat[20][k] += 0.1767766952966369 * alpha[11][k] * favg[31][k];
        ghat[20][k] += 0.17677669529663687 * alpha[14][k] * favg[16][k];
        ghat[20][k] += 0.17677669529663687 * alpha[15][k] * favg[17][k];
        ghat[20][k] += 0.1767766952966369 * alpha[25][k] * favg[26][k];
    }
    for k in 0..L {
        ghat[21][k] += 0.1767766952966369 * alpha[0][k] * favg[21][k];
        ghat[21][k] += 0.1767766952966369 * alpha[3][k] * favg[12][k];
        ghat[21][k] += 0.17677669529663687 * alpha[4][k] * favg[29][k];
        ghat[21][k] += 0.1767766952966369 * alpha[5][k] * favg[7][k];
        ghat[21][k] += 0.17677669529663687 * alpha[11][k] * favg[23][k];
        ghat[21][k] += 0.1767766952966369 * alpha[14][k] * favg[1][k];
        ghat[21][k] += 0.17677669529663687 * alpha[15][k] * favg[18][k];
        ghat[21][k] += 0.17677669529663687 * alpha[25][k] * favg[9][k];
    }
    for k in 0..L {
        ghat[22][k] += 0.1767766952966369 * alpha[0][k] * favg[22][k];
        ghat[22][k] += 0.1767766952966369 * alpha[3][k] * favg[13][k];
        ghat[22][k] += 0.17677669529663687 * alpha[4][k] * favg[30][k];
        ghat[22][k] += 0.1767766952966369 * alpha[5][k] * favg[8][k];
        ghat[22][k] += 0.17677669529663687 * alpha[11][k] * favg[24][k];
        ghat[22][k] += 0.1767766952966369 * alpha[14][k] * favg[2][k];
        ghat[22][k] += 0.17677669529663687 * alpha[15][k] * favg[19][k];
        ghat[22][k] += 0.17677669529663687 * alpha[25][k] * favg[10][k];
    }
    for k in 0..L {
        ghat[23][k] += 0.1767766952966369 * alpha[0][k] * favg[23][k];
        ghat[23][k] += 0.17677669529663687 * alpha[3][k] * favg[29][k];
        ghat[23][k] += 0.1767766952966369 * alpha[4][k] * favg[12][k];
        ghat[23][k] += 0.1767766952966369 * alpha[5][k] * favg[9][k];
        ghat[23][k] += 0.17677669529663687 * alpha[11][k] * favg[21][k];
        ghat[23][k] += 0.17677669529663687 * alpha[14][k] * favg[18][k];
        ghat[23][k] += 0.1767766952966369 * alpha[15][k] * favg[1][k];
        ghat[23][k] += 0.17677669529663687 * alpha[25][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[24][k] += 0.1767766952966369 * alpha[0][k] * favg[24][k];
        ghat[24][k] += 0.17677669529663687 * alpha[3][k] * favg[30][k];
        ghat[24][k] += 0.1767766952966369 * alpha[4][k] * favg[13][k];
        ghat[24][k] += 0.1767766952966369 * alpha[5][k] * favg[10][k];
        ghat[24][k] += 0.17677669529663687 * alpha[11][k] * favg[22][k];
        ghat[24][k] += 0.17677669529663687 * alpha[14][k] * favg[19][k];
        ghat[24][k] += 0.1767766952966369 * alpha[15][k] * favg[2][k];
        ghat[24][k] += 0.17677669529663687 * alpha[25][k] * favg[8][k];
    }
    for k in 0..L {
        ghat[25][k] += 0.1767766952966369 * alpha[0][k] * favg[25][k];
        ghat[25][k] += 0.1767766952966369 * alpha[3][k] * favg[15][k];
        ghat[25][k] += 0.1767766952966369 * alpha[4][k] * favg[14][k];
        ghat[25][k] += 0.1767766952966369 * alpha[5][k] * favg[11][k];
        ghat[25][k] += 0.1767766952966369 * alpha[11][k] * favg[5][k];
        ghat[25][k] += 0.1767766952966369 * alpha[14][k] * favg[4][k];
        ghat[25][k] += 0.1767766952966369 * alpha[15][k] * favg[3][k];
        ghat[25][k] += 0.1767766952966369 * alpha[25][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[26][k] += 0.17677669529663687 * alpha[0][k] * favg[26][k];
        ghat[26][k] += 0.17677669529663687 * alpha[3][k] * favg[17][k];
        ghat[26][k] += 0.17677669529663687 * alpha[4][k] * favg[16][k];
        ghat[26][k] += 0.1767766952966369 * alpha[5][k] * favg[31][k];
        ghat[26][k] += 0.17677669529663687 * alpha[11][k] * favg[6][k];
        ghat[26][k] += 0.1767766952966369 * alpha[14][k] * favg[28][k];
        ghat[26][k] += 0.1767766952966369 * alpha[15][k] * favg[27][k];
        ghat[26][k] += 0.1767766952966369 * alpha[25][k] * favg[20][k];
    }
    for k in 0..L {
        ghat[27][k] += 0.17677669529663687 * alpha[0][k] * favg[27][k];
        ghat[27][k] += 0.17677669529663687 * alpha[3][k] * favg[20][k];
        ghat[27][k] += 0.1767766952966369 * alpha[4][k] * favg[31][k];
        ghat[27][k] += 0.17677669529663687 * alpha[5][k] * favg[16][k];
        ghat[27][k] += 0.1767766952966369 * alpha[11][k] * favg[28][k];
        ghat[27][k] += 0.17677669529663687 * alpha[14][k] * favg[6][k];
        ghat[27][k] += 0.1767766952966369 * alpha[15][k] * favg[26][k];
        ghat[27][k] += 0.1767766952966369 * alpha[25][k] * favg[17][k];
    }
    for k in 0..L {
        ghat[28][k] += 0.17677669529663687 * alpha[0][k] * favg[28][k];
        ghat[28][k] += 0.1767766952966369 * alpha[3][k] * favg[31][k];
        ghat[28][k] += 0.17677669529663687 * alpha[4][k] * favg[20][k];
        ghat[28][k] += 0.17677669529663687 * alpha[5][k] * favg[17][k];
        ghat[28][k] += 0.1767766952966369 * alpha[11][k] * favg[27][k];
        ghat[28][k] += 0.1767766952966369 * alpha[14][k] * favg[26][k];
        ghat[28][k] += 0.17677669529663687 * alpha[15][k] * favg[6][k];
        ghat[28][k] += 0.1767766952966369 * alpha[25][k] * favg[16][k];
    }
    for k in 0..L {
        ghat[29][k] += 0.17677669529663687 * alpha[0][k] * favg[29][k];
        ghat[29][k] += 0.17677669529663687 * alpha[3][k] * favg[23][k];
        ghat[29][k] += 0.17677669529663687 * alpha[4][k] * favg[21][k];
        ghat[29][k] += 0.17677669529663687 * alpha[5][k] * favg[18][k];
        ghat[29][k] += 0.17677669529663687 * alpha[11][k] * favg[12][k];
        ghat[29][k] += 0.17677669529663687 * alpha[14][k] * favg[9][k];
        ghat[29][k] += 0.17677669529663687 * alpha[15][k] * favg[7][k];
        ghat[29][k] += 0.17677669529663687 * alpha[25][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[30][k] += 0.17677669529663687 * alpha[0][k] * favg[30][k];
        ghat[30][k] += 0.17677669529663687 * alpha[3][k] * favg[24][k];
        ghat[30][k] += 0.17677669529663687 * alpha[4][k] * favg[22][k];
        ghat[30][k] += 0.17677669529663687 * alpha[5][k] * favg[19][k];
        ghat[30][k] += 0.17677669529663687 * alpha[11][k] * favg[13][k];
        ghat[30][k] += 0.17677669529663687 * alpha[14][k] * favg[10][k];
        ghat[30][k] += 0.17677669529663687 * alpha[15][k] * favg[8][k];
        ghat[30][k] += 0.17677669529663687 * alpha[25][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[31][k] += 0.1767766952966369 * alpha[0][k] * favg[31][k];
        ghat[31][k] += 0.1767766952966369 * alpha[3][k] * favg[28][k];
        ghat[31][k] += 0.1767766952966369 * alpha[4][k] * favg[27][k];
        ghat[31][k] += 0.1767766952966369 * alpha[5][k] * favg[26][k];
        ghat[31][k] += 0.1767766952966369 * alpha[11][k] * favg[20][k];
        ghat[31][k] += 0.1767766952966369 * alpha[14][k] * favg[17][k];
        ghat[31][k] += 0.1767766952966369 * alpha[15][k] * favg[16][k];
        ghat[31][k] += 0.1767766952966369 * alpha[25][k] * favg[6][k];
    }
    sxn(&mut out_lo[0], -scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], -scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[3], -scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], -scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], -scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[7], -scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[8], -scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[9], -scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[10], -scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[11], -scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[12], -scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[13], -scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[14], -scale * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[15], -scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[16], -scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[17], -scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[18], -scale * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[19], -scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[20], -scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[21], -scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[22], -scale * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[23], -scale * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[24], -scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_lo[25], -scale * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[26], -scale * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[27], -scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_lo[28], -scale * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[29], -scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_lo[30], -scale * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[31], -scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_lo[32], -scale * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[33], -scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_lo[34], -scale * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[35], -scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_lo[36], -scale * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[37], -scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_lo[38], -scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_lo[39], -scale * 1.224744871391589, &ghat[15]);
    sxn(&mut out_lo[40], -scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_lo[41], -scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_lo[42], -scale * 1.224744871391589, &ghat[16]);
    sxn(&mut out_lo[43], -scale * 1.224744871391589, &ghat[17]);
    sxn(&mut out_lo[44], -scale * 1.224744871391589, &ghat[18]);
    sxn(&mut out_lo[45], -scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_lo[46], -scale * 1.224744871391589, &ghat[19]);
    sxn(&mut out_lo[47], -scale * 1.224744871391589, &ghat[20]);
    sxn(&mut out_lo[48], -scale * 1.224744871391589, &ghat[21]);
    sxn(&mut out_lo[49], -scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_lo[50], -scale * 1.224744871391589, &ghat[22]);
    sxn(&mut out_lo[51], -scale * 1.224744871391589, &ghat[23]);
    sxn(&mut out_lo[52], -scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_lo[53], -scale * 1.224744871391589, &ghat[24]);
    sxn(&mut out_lo[54], -scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_lo[55], -scale * 1.224744871391589, &ghat[25]);
    sxn(&mut out_lo[56], -scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_lo[57], -scale * 1.224744871391589, &ghat[26]);
    sxn(&mut out_lo[58], -scale * 1.224744871391589, &ghat[27]);
    sxn(&mut out_lo[59], -scale * 1.224744871391589, &ghat[28]);
    sxn(&mut out_lo[60], -scale * 1.224744871391589, &ghat[29]);
    sxn(&mut out_lo[61], -scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_lo[62], -scale * 1.224744871391589, &ghat[30]);
    sxn(&mut out_lo[63], -scale * 1.224744871391589, &ghat[31]);
    sxn(&mut out_hi[0], scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[3], scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[7], scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[8], scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[9], scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[10], scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[11], scale * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[12], scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[13], scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[14], scale * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[15], scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[16], scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[17], scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[18], scale * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[19], scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[20], scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[21], scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[22], scale * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[23], scale * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[24], scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_hi[25], scale * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[26], scale * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[27], scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_hi[28], scale * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[29], scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_hi[30], scale * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[31], scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_hi[32], scale * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[33], scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_hi[34], scale * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[35], scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_hi[36], scale * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[37], scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_hi[38], scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_hi[39], scale * -1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[40], scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_hi[41], scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_hi[42], scale * -1.224744871391589, &ghat[16]);
    sxn(&mut out_hi[43], scale * -1.224744871391589, &ghat[17]);
    sxn(&mut out_hi[44], scale * -1.224744871391589, &ghat[18]);
    sxn(&mut out_hi[45], scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_hi[46], scale * -1.224744871391589, &ghat[19]);
    sxn(&mut out_hi[47], scale * -1.224744871391589, &ghat[20]);
    sxn(&mut out_hi[48], scale * -1.224744871391589, &ghat[21]);
    sxn(&mut out_hi[49], scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_hi[50], scale * -1.224744871391589, &ghat[22]);
    sxn(&mut out_hi[51], scale * -1.224744871391589, &ghat[23]);
    sxn(&mut out_hi[52], scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_hi[53], scale * -1.224744871391589, &ghat[24]);
    sxn(&mut out_hi[54], scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_hi[55], scale * -1.224744871391589, &ghat[25]);
    sxn(&mut out_hi[56], scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_hi[57], scale * -1.224744871391589, &ghat[26]);
    sxn(&mut out_hi[58], scale * -1.224744871391589, &ghat[27]);
    sxn(&mut out_hi[59], scale * -1.224744871391589, &ghat[28]);
    sxn(&mut out_hi[60], scale * -1.224744871391589, &ghat[29]);
    sxn(&mut out_hi[61], scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_hi[62], scale * -1.224744871391589, &ghat[30]);
    sxn(&mut out_hi[63], scale * -1.224744871391589, &ghat[31]);
}

/// LDG gradient in v1 for one cell: volume gradient-mass plus the
/// upper-neighbor trace (`f_up`; own upper trace when `at_upper`) and
/// the cell's own lower trace.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_grad_v1(dv: f64, at_upper: bool, f: &[f64], f_up: &[f64], g: &mut [f64]) {
    lbo_3x3v_p1_ser_diff_grad_v1_body::<1>(dv, at_upper, f.as_chunks().0, f_up.as_chunks().0, g.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_diff_grad_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_grad_v1_b4(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_grad_v1_body(dv, at_upper, f, f_up, g)
}

/// [`lbo_3x3v_p1_ser_diff_grad_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_grad_v1_b4_avx2(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_grad_v1_body(dv, at_upper, f, f_up, g)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_diff_grad_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_diff_grad_v1_body<const L: usize>(dv: f64, at_upper: bool, f: &[[f64; L]], f_up: &[[f64; L]], g: &mut [[f64; L]]) {
    let f: &[[f64; L]; 64] = f.first_chunk().expect("f: 64 coefficients");
    let f_up: &[[f64; L]; 64] = f_up.first_chunk().expect("f_up: 64 coefficients");
    let g: &mut [[f64; L]; 64] = g.first_chunk_mut().expect("g: 64 coefficients");
    let scale = 2.0 / dv;
    sxn(&mut g[2], -scale * 1.7320508075688772, &f[0]);
    sxn(&mut g[7], -scale * 1.7320508075688772, &f[1]);
    sxn(&mut g[9], -scale * 1.7320508075688772, &f[3]);
    sxn(&mut g[11], -scale * 1.7320508075688772, &f[4]);
    sxn(&mut g[14], -scale * 1.7320508075688772, &f[5]);
    sxn(&mut g[18], -scale * 1.7320508075688772, &f[6]);
    sxn(&mut g[22], -scale * 1.7320508075688772, &f[8]);
    sxn(&mut g[23], -scale * 1.7320508075688772, &f[10]);
    sxn(&mut g[25], -scale * 1.7320508075688772, &f[12]);
    sxn(&mut g[26], -scale * 1.7320508075688772, &f[13]);
    sxn(&mut g[28], -scale * 1.7320508075688772, &f[15]);
    sxn(&mut g[30], -scale * 1.7320508075688772, &f[16]);
    sxn(&mut g[32], -scale * 1.7320508075688772, &f[17]);
    sxn(&mut g[34], -scale * 1.7320508075688772, &f[19]);
    sxn(&mut g[36], -scale * 1.7320508075688772, &f[20]);
    sxn(&mut g[39], -scale * 1.7320508075688772, &f[21]);
    sxn(&mut g[42], -scale * 1.7320508075688772, &f[24]);
    sxn(&mut g[43], -scale * 1.7320508075688772, &f[27]);
    sxn(&mut g[44], -scale * 1.7320508075688772, &f[29]);
    sxn(&mut g[46], -scale * 1.7320508075688772, &f[31]);
    sxn(&mut g[47], -scale * 1.7320508075688772, &f[33]);
    sxn(&mut g[48], -scale * 1.7320508075688772, &f[35]);
    sxn(&mut g[50], -scale * 1.7320508075688772, &f[37]);
    sxn(&mut g[51], -scale * 1.7320508075688772, &f[38]);
    sxn(&mut g[53], -scale * 1.7320508075688772, &f[40]);
    sxn(&mut g[55], -scale * 1.7320508075688772, &f[41]);
    sxn(&mut g[57], -scale * 1.7320508075688772, &f[45]);
    sxn(&mut g[58], -scale * 1.7320508075688772, &f[49]);
    sxn(&mut g[59], -scale * 1.7320508075688772, &f[52]);
    sxn(&mut g[60], -scale * 1.7320508075688772, &f[54]);
    sxn(&mut g[62], -scale * 1.7320508075688772, &f[56]);
    sxn(&mut g[63], -scale * 1.7320508075688772, &f[61]);
    let mut tr = [[0.0f64; L]; 32];
    if at_upper {
        sxn(&mut tr[0], 0.7071067811865476, &f[0]);
        sxn(&mut tr[1], 0.7071067811865476, &f[1]);
        sxn(&mut tr[0], 1.224744871391589, &f[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f[3]);
        sxn(&mut tr[3], 0.7071067811865476, &f[4]);
        sxn(&mut tr[4], 0.7071067811865476, &f[5]);
        sxn(&mut tr[5], 0.7071067811865476, &f[6]);
        sxn(&mut tr[1], 1.224744871391589, &f[7]);
        sxn(&mut tr[6], 0.7071067811865476, &f[8]);
        sxn(&mut tr[2], 1.224744871391589, &f[9]);
        sxn(&mut tr[7], 0.7071067811865476, &f[10]);
        sxn(&mut tr[3], 1.224744871391589, &f[11]);
        sxn(&mut tr[8], 0.7071067811865476, &f[12]);
        sxn(&mut tr[9], 0.7071067811865476, &f[13]);
        sxn(&mut tr[4], 1.224744871391589, &f[14]);
        sxn(&mut tr[10], 0.7071067811865476, &f[15]);
        sxn(&mut tr[11], 0.7071067811865476, &f[16]);
        sxn(&mut tr[12], 0.7071067811865476, &f[17]);
        sxn(&mut tr[5], 1.224744871391589, &f[18]);
        sxn(&mut tr[13], 0.7071067811865476, &f[19]);
        sxn(&mut tr[14], 0.7071067811865476, &f[20]);
        sxn(&mut tr[15], 0.7071067811865476, &f[21]);
        sxn(&mut tr[6], 1.224744871391589, &f[22]);
        sxn(&mut tr[7], 1.224744871391589, &f[23]);
        sxn(&mut tr[16], 0.7071067811865476, &f[24]);
        sxn(&mut tr[8], 1.224744871391589, &f[25]);
        sxn(&mut tr[9], 1.224744871391589, &f[26]);
        sxn(&mut tr[17], 0.7071067811865476, &f[27]);
        sxn(&mut tr[10], 1.224744871391589, &f[28]);
        sxn(&mut tr[18], 0.7071067811865476, &f[29]);
        sxn(&mut tr[11], 1.224744871391589, &f[30]);
        sxn(&mut tr[19], 0.7071067811865476, &f[31]);
        sxn(&mut tr[12], 1.224744871391589, &f[32]);
        sxn(&mut tr[20], 0.7071067811865476, &f[33]);
        sxn(&mut tr[13], 1.224744871391589, &f[34]);
        sxn(&mut tr[21], 0.7071067811865476, &f[35]);
        sxn(&mut tr[14], 1.224744871391589, &f[36]);
        sxn(&mut tr[22], 0.7071067811865476, &f[37]);
        sxn(&mut tr[23], 0.7071067811865476, &f[38]);
        sxn(&mut tr[15], 1.224744871391589, &f[39]);
        sxn(&mut tr[24], 0.7071067811865476, &f[40]);
        sxn(&mut tr[25], 0.7071067811865476, &f[41]);
        sxn(&mut tr[16], 1.224744871391589, &f[42]);
        sxn(&mut tr[17], 1.224744871391589, &f[43]);
        sxn(&mut tr[18], 1.224744871391589, &f[44]);
        sxn(&mut tr[26], 0.7071067811865476, &f[45]);
        sxn(&mut tr[19], 1.224744871391589, &f[46]);
        sxn(&mut tr[20], 1.224744871391589, &f[47]);
        sxn(&mut tr[21], 1.224744871391589, &f[48]);
        sxn(&mut tr[27], 0.7071067811865476, &f[49]);
        sxn(&mut tr[22], 1.224744871391589, &f[50]);
        sxn(&mut tr[23], 1.224744871391589, &f[51]);
        sxn(&mut tr[28], 0.7071067811865476, &f[52]);
        sxn(&mut tr[24], 1.224744871391589, &f[53]);
        sxn(&mut tr[29], 0.7071067811865476, &f[54]);
        sxn(&mut tr[25], 1.224744871391589, &f[55]);
        sxn(&mut tr[30], 0.7071067811865476, &f[56]);
        sxn(&mut tr[26], 1.224744871391589, &f[57]);
        sxn(&mut tr[27], 1.224744871391589, &f[58]);
        sxn(&mut tr[28], 1.224744871391589, &f[59]);
        sxn(&mut tr[29], 1.224744871391589, &f[60]);
        sxn(&mut tr[31], 0.7071067811865476, &f[61]);
        sxn(&mut tr[30], 1.224744871391589, &f[62]);
        sxn(&mut tr[31], 1.224744871391589, &f[63]);
    } else {
        sxn(&mut tr[0], 0.7071067811865476, &f_up[0]);
        sxn(&mut tr[1], 0.7071067811865476, &f_up[1]);
        sxn(&mut tr[0], -1.224744871391589, &f_up[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f_up[3]);
        sxn(&mut tr[3], 0.7071067811865476, &f_up[4]);
        sxn(&mut tr[4], 0.7071067811865476, &f_up[5]);
        sxn(&mut tr[5], 0.7071067811865476, &f_up[6]);
        sxn(&mut tr[1], -1.224744871391589, &f_up[7]);
        sxn(&mut tr[6], 0.7071067811865476, &f_up[8]);
        sxn(&mut tr[2], -1.224744871391589, &f_up[9]);
        sxn(&mut tr[7], 0.7071067811865476, &f_up[10]);
        sxn(&mut tr[3], -1.224744871391589, &f_up[11]);
        sxn(&mut tr[8], 0.7071067811865476, &f_up[12]);
        sxn(&mut tr[9], 0.7071067811865476, &f_up[13]);
        sxn(&mut tr[4], -1.224744871391589, &f_up[14]);
        sxn(&mut tr[10], 0.7071067811865476, &f_up[15]);
        sxn(&mut tr[11], 0.7071067811865476, &f_up[16]);
        sxn(&mut tr[12], 0.7071067811865476, &f_up[17]);
        sxn(&mut tr[5], -1.224744871391589, &f_up[18]);
        sxn(&mut tr[13], 0.7071067811865476, &f_up[19]);
        sxn(&mut tr[14], 0.7071067811865476, &f_up[20]);
        sxn(&mut tr[15], 0.7071067811865476, &f_up[21]);
        sxn(&mut tr[6], -1.224744871391589, &f_up[22]);
        sxn(&mut tr[7], -1.224744871391589, &f_up[23]);
        sxn(&mut tr[16], 0.7071067811865476, &f_up[24]);
        sxn(&mut tr[8], -1.224744871391589, &f_up[25]);
        sxn(&mut tr[9], -1.224744871391589, &f_up[26]);
        sxn(&mut tr[17], 0.7071067811865476, &f_up[27]);
        sxn(&mut tr[10], -1.224744871391589, &f_up[28]);
        sxn(&mut tr[18], 0.7071067811865476, &f_up[29]);
        sxn(&mut tr[11], -1.224744871391589, &f_up[30]);
        sxn(&mut tr[19], 0.7071067811865476, &f_up[31]);
        sxn(&mut tr[12], -1.224744871391589, &f_up[32]);
        sxn(&mut tr[20], 0.7071067811865476, &f_up[33]);
        sxn(&mut tr[13], -1.224744871391589, &f_up[34]);
        sxn(&mut tr[21], 0.7071067811865476, &f_up[35]);
        sxn(&mut tr[14], -1.224744871391589, &f_up[36]);
        sxn(&mut tr[22], 0.7071067811865476, &f_up[37]);
        sxn(&mut tr[23], 0.7071067811865476, &f_up[38]);
        sxn(&mut tr[15], -1.224744871391589, &f_up[39]);
        sxn(&mut tr[24], 0.7071067811865476, &f_up[40]);
        sxn(&mut tr[25], 0.7071067811865476, &f_up[41]);
        sxn(&mut tr[16], -1.224744871391589, &f_up[42]);
        sxn(&mut tr[17], -1.224744871391589, &f_up[43]);
        sxn(&mut tr[18], -1.224744871391589, &f_up[44]);
        sxn(&mut tr[26], 0.7071067811865476, &f_up[45]);
        sxn(&mut tr[19], -1.224744871391589, &f_up[46]);
        sxn(&mut tr[20], -1.224744871391589, &f_up[47]);
        sxn(&mut tr[21], -1.224744871391589, &f_up[48]);
        sxn(&mut tr[27], 0.7071067811865476, &f_up[49]);
        sxn(&mut tr[22], -1.224744871391589, &f_up[50]);
        sxn(&mut tr[23], -1.224744871391589, &f_up[51]);
        sxn(&mut tr[28], 0.7071067811865476, &f_up[52]);
        sxn(&mut tr[24], -1.224744871391589, &f_up[53]);
        sxn(&mut tr[29], 0.7071067811865476, &f_up[54]);
        sxn(&mut tr[25], -1.224744871391589, &f_up[55]);
        sxn(&mut tr[30], 0.7071067811865476, &f_up[56]);
        sxn(&mut tr[26], -1.224744871391589, &f_up[57]);
        sxn(&mut tr[27], -1.224744871391589, &f_up[58]);
        sxn(&mut tr[28], -1.224744871391589, &f_up[59]);
        sxn(&mut tr[29], -1.224744871391589, &f_up[60]);
        sxn(&mut tr[31], 0.7071067811865476, &f_up[61]);
        sxn(&mut tr[30], -1.224744871391589, &f_up[62]);
        sxn(&mut tr[31], -1.224744871391589, &f_up[63]);
    }
    sxn(&mut g[0], scale * 0.7071067811865476, &tr[0]);
    sxn(&mut g[1], scale * 0.7071067811865476, &tr[1]);
    sxn(&mut g[2], scale * 1.224744871391589, &tr[0]);
    sxn(&mut g[3], scale * 0.7071067811865476, &tr[2]);
    sxn(&mut g[4], scale * 0.7071067811865476, &tr[3]);
    sxn(&mut g[5], scale * 0.7071067811865476, &tr[4]);
    sxn(&mut g[6], scale * 0.7071067811865476, &tr[5]);
    sxn(&mut g[7], scale * 1.224744871391589, &tr[1]);
    sxn(&mut g[8], scale * 0.7071067811865476, &tr[6]);
    sxn(&mut g[9], scale * 1.224744871391589, &tr[2]);
    sxn(&mut g[10], scale * 0.7071067811865476, &tr[7]);
    sxn(&mut g[11], scale * 1.224744871391589, &tr[3]);
    sxn(&mut g[12], scale * 0.7071067811865476, &tr[8]);
    sxn(&mut g[13], scale * 0.7071067811865476, &tr[9]);
    sxn(&mut g[14], scale * 1.224744871391589, &tr[4]);
    sxn(&mut g[15], scale * 0.7071067811865476, &tr[10]);
    sxn(&mut g[16], scale * 0.7071067811865476, &tr[11]);
    sxn(&mut g[17], scale * 0.7071067811865476, &tr[12]);
    sxn(&mut g[18], scale * 1.224744871391589, &tr[5]);
    sxn(&mut g[19], scale * 0.7071067811865476, &tr[13]);
    sxn(&mut g[20], scale * 0.7071067811865476, &tr[14]);
    sxn(&mut g[21], scale * 0.7071067811865476, &tr[15]);
    sxn(&mut g[22], scale * 1.224744871391589, &tr[6]);
    sxn(&mut g[23], scale * 1.224744871391589, &tr[7]);
    sxn(&mut g[24], scale * 0.7071067811865476, &tr[16]);
    sxn(&mut g[25], scale * 1.224744871391589, &tr[8]);
    sxn(&mut g[26], scale * 1.224744871391589, &tr[9]);
    sxn(&mut g[27], scale * 0.7071067811865476, &tr[17]);
    sxn(&mut g[28], scale * 1.224744871391589, &tr[10]);
    sxn(&mut g[29], scale * 0.7071067811865476, &tr[18]);
    sxn(&mut g[30], scale * 1.224744871391589, &tr[11]);
    sxn(&mut g[31], scale * 0.7071067811865476, &tr[19]);
    sxn(&mut g[32], scale * 1.224744871391589, &tr[12]);
    sxn(&mut g[33], scale * 0.7071067811865476, &tr[20]);
    sxn(&mut g[34], scale * 1.224744871391589, &tr[13]);
    sxn(&mut g[35], scale * 0.7071067811865476, &tr[21]);
    sxn(&mut g[36], scale * 1.224744871391589, &tr[14]);
    sxn(&mut g[37], scale * 0.7071067811865476, &tr[22]);
    sxn(&mut g[38], scale * 0.7071067811865476, &tr[23]);
    sxn(&mut g[39], scale * 1.224744871391589, &tr[15]);
    sxn(&mut g[40], scale * 0.7071067811865476, &tr[24]);
    sxn(&mut g[41], scale * 0.7071067811865476, &tr[25]);
    sxn(&mut g[42], scale * 1.224744871391589, &tr[16]);
    sxn(&mut g[43], scale * 1.224744871391589, &tr[17]);
    sxn(&mut g[44], scale * 1.224744871391589, &tr[18]);
    sxn(&mut g[45], scale * 0.7071067811865476, &tr[26]);
    sxn(&mut g[46], scale * 1.224744871391589, &tr[19]);
    sxn(&mut g[47], scale * 1.224744871391589, &tr[20]);
    sxn(&mut g[48], scale * 1.224744871391589, &tr[21]);
    sxn(&mut g[49], scale * 0.7071067811865476, &tr[27]);
    sxn(&mut g[50], scale * 1.224744871391589, &tr[22]);
    sxn(&mut g[51], scale * 1.224744871391589, &tr[23]);
    sxn(&mut g[52], scale * 0.7071067811865476, &tr[28]);
    sxn(&mut g[53], scale * 1.224744871391589, &tr[24]);
    sxn(&mut g[54], scale * 0.7071067811865476, &tr[29]);
    sxn(&mut g[55], scale * 1.224744871391589, &tr[25]);
    sxn(&mut g[56], scale * 0.7071067811865476, &tr[30]);
    sxn(&mut g[57], scale * 1.224744871391589, &tr[26]);
    sxn(&mut g[58], scale * 1.224744871391589, &tr[27]);
    sxn(&mut g[59], scale * 1.224744871391589, &tr[28]);
    sxn(&mut g[60], scale * 1.224744871391589, &tr[29]);
    sxn(&mut g[61], scale * 0.7071067811865476, &tr[31]);
    sxn(&mut g[62], scale * 1.224744871391589, &tr[30]);
    sxn(&mut g[63], scale * 1.224744871391589, &tr[31]);
    let mut tl = [[0.0f64; L]; 32];
    sxn(&mut tl[0], 0.7071067811865476, &f[0]);
    sxn(&mut tl[1], 0.7071067811865476, &f[1]);
    sxn(&mut tl[0], -1.224744871391589, &f[2]);
    sxn(&mut tl[2], 0.7071067811865476, &f[3]);
    sxn(&mut tl[3], 0.7071067811865476, &f[4]);
    sxn(&mut tl[4], 0.7071067811865476, &f[5]);
    sxn(&mut tl[5], 0.7071067811865476, &f[6]);
    sxn(&mut tl[1], -1.224744871391589, &f[7]);
    sxn(&mut tl[6], 0.7071067811865476, &f[8]);
    sxn(&mut tl[2], -1.224744871391589, &f[9]);
    sxn(&mut tl[7], 0.7071067811865476, &f[10]);
    sxn(&mut tl[3], -1.224744871391589, &f[11]);
    sxn(&mut tl[8], 0.7071067811865476, &f[12]);
    sxn(&mut tl[9], 0.7071067811865476, &f[13]);
    sxn(&mut tl[4], -1.224744871391589, &f[14]);
    sxn(&mut tl[10], 0.7071067811865476, &f[15]);
    sxn(&mut tl[11], 0.7071067811865476, &f[16]);
    sxn(&mut tl[12], 0.7071067811865476, &f[17]);
    sxn(&mut tl[5], -1.224744871391589, &f[18]);
    sxn(&mut tl[13], 0.7071067811865476, &f[19]);
    sxn(&mut tl[14], 0.7071067811865476, &f[20]);
    sxn(&mut tl[15], 0.7071067811865476, &f[21]);
    sxn(&mut tl[6], -1.224744871391589, &f[22]);
    sxn(&mut tl[7], -1.224744871391589, &f[23]);
    sxn(&mut tl[16], 0.7071067811865476, &f[24]);
    sxn(&mut tl[8], -1.224744871391589, &f[25]);
    sxn(&mut tl[9], -1.224744871391589, &f[26]);
    sxn(&mut tl[17], 0.7071067811865476, &f[27]);
    sxn(&mut tl[10], -1.224744871391589, &f[28]);
    sxn(&mut tl[18], 0.7071067811865476, &f[29]);
    sxn(&mut tl[11], -1.224744871391589, &f[30]);
    sxn(&mut tl[19], 0.7071067811865476, &f[31]);
    sxn(&mut tl[12], -1.224744871391589, &f[32]);
    sxn(&mut tl[20], 0.7071067811865476, &f[33]);
    sxn(&mut tl[13], -1.224744871391589, &f[34]);
    sxn(&mut tl[21], 0.7071067811865476, &f[35]);
    sxn(&mut tl[14], -1.224744871391589, &f[36]);
    sxn(&mut tl[22], 0.7071067811865476, &f[37]);
    sxn(&mut tl[23], 0.7071067811865476, &f[38]);
    sxn(&mut tl[15], -1.224744871391589, &f[39]);
    sxn(&mut tl[24], 0.7071067811865476, &f[40]);
    sxn(&mut tl[25], 0.7071067811865476, &f[41]);
    sxn(&mut tl[16], -1.224744871391589, &f[42]);
    sxn(&mut tl[17], -1.224744871391589, &f[43]);
    sxn(&mut tl[18], -1.224744871391589, &f[44]);
    sxn(&mut tl[26], 0.7071067811865476, &f[45]);
    sxn(&mut tl[19], -1.224744871391589, &f[46]);
    sxn(&mut tl[20], -1.224744871391589, &f[47]);
    sxn(&mut tl[21], -1.224744871391589, &f[48]);
    sxn(&mut tl[27], 0.7071067811865476, &f[49]);
    sxn(&mut tl[22], -1.224744871391589, &f[50]);
    sxn(&mut tl[23], -1.224744871391589, &f[51]);
    sxn(&mut tl[28], 0.7071067811865476, &f[52]);
    sxn(&mut tl[24], -1.224744871391589, &f[53]);
    sxn(&mut tl[29], 0.7071067811865476, &f[54]);
    sxn(&mut tl[25], -1.224744871391589, &f[55]);
    sxn(&mut tl[30], 0.7071067811865476, &f[56]);
    sxn(&mut tl[26], -1.224744871391589, &f[57]);
    sxn(&mut tl[27], -1.224744871391589, &f[58]);
    sxn(&mut tl[28], -1.224744871391589, &f[59]);
    sxn(&mut tl[29], -1.224744871391589, &f[60]);
    sxn(&mut tl[31], 0.7071067811865476, &f[61]);
    sxn(&mut tl[30], -1.224744871391589, &f[62]);
    sxn(&mut tl[31], -1.224744871391589, &f[63]);
    sxn(&mut g[0], -scale * 0.7071067811865476, &tl[0]);
    sxn(&mut g[1], -scale * 0.7071067811865476, &tl[1]);
    sxn(&mut g[2], -scale * -1.224744871391589, &tl[0]);
    sxn(&mut g[3], -scale * 0.7071067811865476, &tl[2]);
    sxn(&mut g[4], -scale * 0.7071067811865476, &tl[3]);
    sxn(&mut g[5], -scale * 0.7071067811865476, &tl[4]);
    sxn(&mut g[6], -scale * 0.7071067811865476, &tl[5]);
    sxn(&mut g[7], -scale * -1.224744871391589, &tl[1]);
    sxn(&mut g[8], -scale * 0.7071067811865476, &tl[6]);
    sxn(&mut g[9], -scale * -1.224744871391589, &tl[2]);
    sxn(&mut g[10], -scale * 0.7071067811865476, &tl[7]);
    sxn(&mut g[11], -scale * -1.224744871391589, &tl[3]);
    sxn(&mut g[12], -scale * 0.7071067811865476, &tl[8]);
    sxn(&mut g[13], -scale * 0.7071067811865476, &tl[9]);
    sxn(&mut g[14], -scale * -1.224744871391589, &tl[4]);
    sxn(&mut g[15], -scale * 0.7071067811865476, &tl[10]);
    sxn(&mut g[16], -scale * 0.7071067811865476, &tl[11]);
    sxn(&mut g[17], -scale * 0.7071067811865476, &tl[12]);
    sxn(&mut g[18], -scale * -1.224744871391589, &tl[5]);
    sxn(&mut g[19], -scale * 0.7071067811865476, &tl[13]);
    sxn(&mut g[20], -scale * 0.7071067811865476, &tl[14]);
    sxn(&mut g[21], -scale * 0.7071067811865476, &tl[15]);
    sxn(&mut g[22], -scale * -1.224744871391589, &tl[6]);
    sxn(&mut g[23], -scale * -1.224744871391589, &tl[7]);
    sxn(&mut g[24], -scale * 0.7071067811865476, &tl[16]);
    sxn(&mut g[25], -scale * -1.224744871391589, &tl[8]);
    sxn(&mut g[26], -scale * -1.224744871391589, &tl[9]);
    sxn(&mut g[27], -scale * 0.7071067811865476, &tl[17]);
    sxn(&mut g[28], -scale * -1.224744871391589, &tl[10]);
    sxn(&mut g[29], -scale * 0.7071067811865476, &tl[18]);
    sxn(&mut g[30], -scale * -1.224744871391589, &tl[11]);
    sxn(&mut g[31], -scale * 0.7071067811865476, &tl[19]);
    sxn(&mut g[32], -scale * -1.224744871391589, &tl[12]);
    sxn(&mut g[33], -scale * 0.7071067811865476, &tl[20]);
    sxn(&mut g[34], -scale * -1.224744871391589, &tl[13]);
    sxn(&mut g[35], -scale * 0.7071067811865476, &tl[21]);
    sxn(&mut g[36], -scale * -1.224744871391589, &tl[14]);
    sxn(&mut g[37], -scale * 0.7071067811865476, &tl[22]);
    sxn(&mut g[38], -scale * 0.7071067811865476, &tl[23]);
    sxn(&mut g[39], -scale * -1.224744871391589, &tl[15]);
    sxn(&mut g[40], -scale * 0.7071067811865476, &tl[24]);
    sxn(&mut g[41], -scale * 0.7071067811865476, &tl[25]);
    sxn(&mut g[42], -scale * -1.224744871391589, &tl[16]);
    sxn(&mut g[43], -scale * -1.224744871391589, &tl[17]);
    sxn(&mut g[44], -scale * -1.224744871391589, &tl[18]);
    sxn(&mut g[45], -scale * 0.7071067811865476, &tl[26]);
    sxn(&mut g[46], -scale * -1.224744871391589, &tl[19]);
    sxn(&mut g[47], -scale * -1.224744871391589, &tl[20]);
    sxn(&mut g[48], -scale * -1.224744871391589, &tl[21]);
    sxn(&mut g[49], -scale * 0.7071067811865476, &tl[27]);
    sxn(&mut g[50], -scale * -1.224744871391589, &tl[22]);
    sxn(&mut g[51], -scale * -1.224744871391589, &tl[23]);
    sxn(&mut g[52], -scale * 0.7071067811865476, &tl[28]);
    sxn(&mut g[53], -scale * -1.224744871391589, &tl[24]);
    sxn(&mut g[54], -scale * 0.7071067811865476, &tl[29]);
    sxn(&mut g[55], -scale * -1.224744871391589, &tl[25]);
    sxn(&mut g[56], -scale * 0.7071067811865476, &tl[30]);
    sxn(&mut g[57], -scale * -1.224744871391589, &tl[26]);
    sxn(&mut g[58], -scale * -1.224744871391589, &tl[27]);
    sxn(&mut g[59], -scale * -1.224744871391589, &tl[28]);
    sxn(&mut g[60], -scale * -1.224744871391589, &tl[29]);
    sxn(&mut g[61], -scale * 0.7071067811865476, &tl[31]);
    sxn(&mut g[62], -scale * -1.224744871391589, &tl[30]);
    sxn(&mut g[63], -scale * -1.224744871391589, &tl[31]);
}

/// LBO diffusion volume term in v1: weak `ν vth²(x) ∂_v g`.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_vol_v1(nu: f64, dv: f64, vth2: &[f64], g: &[f64], out: &mut [f64]) {
    lbo_3x3v_p1_ser_diff_vol_v1_body::<1>(nu, dv, vth2.as_chunks().0, g.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_diff_vol_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_vol_v1_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_vol_v1_body(nu, dv, vth2, g, out)
}

/// [`lbo_3x3v_p1_ser_diff_vol_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_vol_v1_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_vol_v1_body(nu, dv, vth2, g, out)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_diff_vol_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_diff_vol_v1_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g: &[[f64; L]], out: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 8] = vth2.first_chunk().expect("vth2: 8 coefficients");
    let g: &[[f64; L]; 64] = g.first_chunk().expect("g: 64 coefficients");
    let out: &mut [[f64; L]; 64] = out.first_chunk_mut().expect("out: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 64];
    for k in 0..L {
        alpha[0][k] = 2.8284271247461903 * vth2[0][k];
        alpha[4][k] = 2.8284271247461903 * vth2[1][k];
        alpha[5][k] = 2.8284271247461903 * vth2[2][k];
        alpha[6][k] = 2.8284271247461903 * vth2[3][k];
        alpha[16][k] = 2.8284271247461903 * vth2[4][k];
        alpha[20][k] = 2.8284271247461903 * vth2[5][k];
        alpha[21][k] = 2.8284271247461903 * vth2[6][k];
        alpha[41][k] = 2.8284271247461903 * vth2[7][k];
    }
    for k in 0..L {
        out[2][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[0][k];
        out[2][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[4][k];
        out[2][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[5][k];
        out[2][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[6][k];
        out[2][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[16][k];
        out[2][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[20][k];
        out[2][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[21][k];
        out[2][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[41][k];
    }
    for k in 0..L {
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[1][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[10][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[13][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[17][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[29][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[35][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[38][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[54][k];
    }
    for k in 0..L {
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[3][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[12][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[15][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[19][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[31][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[37][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[40][k];
        out[9][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[56][k];
    }
    for k in 0..L {
        out[11][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[4][k];
        out[11][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[0][k];
        out[11][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[16][k];
        out[11][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[20][k];
        out[11][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[5][k];
        out[11][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[6][k];
        out[11][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[41][k];
        out[11][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[21][k];
    }
    for k in 0..L {
        out[14][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[5][k];
        out[14][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[16][k];
        out[14][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[0][k];
        out[14][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[21][k];
        out[14][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[4][k];
        out[14][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[41][k];
        out[14][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[6][k];
        out[14][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[20][k];
    }
    for k in 0..L {
        out[18][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[6][k];
        out[18][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[20][k];
        out[18][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[21][k];
        out[18][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[0][k];
        out[18][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[41][k];
        out[18][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[4][k];
        out[18][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[5][k];
        out[18][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[16][k];
    }
    for k in 0..L {
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[8][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[24][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[27][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[33][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[45][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[49][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[52][k];
        out[22][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[61][k];
    }
    for k in 0..L {
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[10][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[1][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[29][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[35][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[13][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[17][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[54][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[38][k];
    }
    for k in 0..L {
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[12][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[3][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[31][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[37][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[15][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[19][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[56][k];
        out[25][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[40][k];
    }
    for k in 0..L {
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[13][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[29][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[1][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[38][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[10][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[54][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[17][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[35][k];
    }
    for k in 0..L {
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[15][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[31][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[3][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[40][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[12][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[56][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[19][k];
        out[28][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[37][k];
    }
    for k in 0..L {
        out[30][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[16][k];
        out[30][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[5][k];
        out[30][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[4][k];
        out[30][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[41][k];
        out[30][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[0][k];
        out[30][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[21][k];
        out[30][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[20][k];
        out[30][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[6][k];
    }
    for k in 0..L {
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[17][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[35][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[38][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[1][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[54][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[10][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[13][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[29][k];
    }
    for k in 0..L {
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[19][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[37][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[40][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[3][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[56][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[12][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[15][k];
        out[34][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[31][k];
    }
    for k in 0..L {
        out[36][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[20][k];
        out[36][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[6][k];
        out[36][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[41][k];
        out[36][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[4][k];
        out[36][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[21][k];
        out[36][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[0][k];
        out[36][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[16][k];
        out[36][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[5][k];
    }
    for k in 0..L {
        out[39][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[21][k];
        out[39][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[41][k];
        out[39][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[6][k];
        out[39][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[5][k];
        out[39][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[20][k];
        out[39][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[16][k];
        out[39][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[0][k];
        out[39][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[4][k];
    }
    for k in 0..L {
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[24][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[8][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[45][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[49][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[27][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[33][k];
        out[42][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[61][k];
        out[42][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[52][k];
    }
    for k in 0..L {
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[27][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[45][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[8][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[52][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[24][k];
        out[43][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[61][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[33][k];
        out[43][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[49][k];
    }
    for k in 0..L {
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[29][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[13][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[10][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[54][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[1][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[38][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[35][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[17][k];
    }
    for k in 0..L {
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[31][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[15][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[12][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[56][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[3][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[40][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[37][k];
        out[46][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[19][k];
    }
    for k in 0..L {
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[33][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[49][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[52][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[8][k];
        out[47][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[61][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[24][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[27][k];
        out[47][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[45][k];
    }
    for k in 0..L {
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[35][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[17][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[54][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[10][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[38][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[1][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[29][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[13][k];
    }
    for k in 0..L {
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[37][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[19][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[56][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[12][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[40][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[3][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[31][k];
        out[50][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[15][k];
    }
    for k in 0..L {
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[38][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[54][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[17][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[13][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[35][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[29][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[1][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[10][k];
    }
    for k in 0..L {
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[40][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[56][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[19][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[15][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[37][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[31][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[3][k];
        out[53][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[12][k];
    }
    for k in 0..L {
        out[55][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[41][k];
        out[55][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[21][k];
        out[55][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[20][k];
        out[55][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[16][k];
        out[55][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[6][k];
        out[55][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[5][k];
        out[55][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[4][k];
        out[55][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[0][k];
    }
    for k in 0..L {
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[45][k];
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[27][k];
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[24][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[6][k] * g[61][k];
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[8][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[52][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[49][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[33][k];
    }
    for k in 0..L {
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[49][k];
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[33][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[5][k] * g[61][k];
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[24][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[52][k];
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[8][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[45][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[27][k];
    }
    for k in 0..L {
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[52][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[4][k] * g[61][k];
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[33][k];
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[27][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[49][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[45][k];
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[8][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[24][k];
    }
    for k in 0..L {
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[54][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[38][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[35][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[29][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[17][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[13][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[10][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[1][k];
    }
    for k in 0..L {
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[56][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[40][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[37][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[31][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[19][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[15][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[12][k];
        out[62][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[3][k];
    }
    for k in 0..L {
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[0][k] * g[61][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[4][k] * g[52][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[5][k] * g[49][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[6][k] * g[45][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[33][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[27][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[24][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[8][k];
    }
}

/// LBO diffusion surface term in v1 at one interior face: one-sided
/// flux of the LDG gradient (lower cell's upper trace), both sides
/// updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_surf_v1(nu: f64, dv: f64, vth2: &[f64], g_lo: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_3x3v_p1_ser_diff_surf_v1_body::<1>(nu, dv, vth2.as_chunks().0, g_lo.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_diff_surf_v1`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_surf_v1_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_surf_v1_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// [`lbo_3x3v_p1_ser_diff_surf_v1_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_surf_v1_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_surf_v1_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_diff_surf_v1`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_diff_surf_v1_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g_lo: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 8] = vth2.first_chunk().expect("vth2: 8 coefficients");
    let g_lo: &[[f64; L]; 64] = g_lo.first_chunk().expect("g_lo: 64 coefficients");
    let out_lo: &mut [[f64; L]; 64] = out_lo.first_chunk_mut().expect("out_lo: 64 coefficients");
    let out_hi: &mut [[f64; L]; 64] = out_hi.first_chunk_mut().expect("out_hi: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 32];
    for k in 0..L {
        alpha[0][k] = 2.0 * vth2[0][k];
        alpha[3][k] = 2.0 * vth2[1][k];
        alpha[4][k] = 2.0 * vth2[2][k];
        alpha[5][k] = 2.0 * vth2[3][k];
        alpha[11][k] = 2.0 * vth2[4][k];
        alpha[14][k] = 2.0 * vth2[5][k];
        alpha[15][k] = 2.0 * vth2[6][k];
        alpha[25][k] = 2.0 * vth2[7][k];
    }
    let mut tr = [[0.0f64; L]; 32];
    sxn(&mut tr[0], 0.7071067811865476, &g_lo[0]);
    sxn(&mut tr[1], 0.7071067811865476, &g_lo[1]);
    sxn(&mut tr[0], 1.224744871391589, &g_lo[2]);
    sxn(&mut tr[2], 0.7071067811865476, &g_lo[3]);
    sxn(&mut tr[3], 0.7071067811865476, &g_lo[4]);
    sxn(&mut tr[4], 0.7071067811865476, &g_lo[5]);
    sxn(&mut tr[5], 0.7071067811865476, &g_lo[6]);
    sxn(&mut tr[1], 1.224744871391589, &g_lo[7]);
    sxn(&mut tr[6], 0.7071067811865476, &g_lo[8]);
    sxn(&mut tr[2], 1.224744871391589, &g_lo[9]);
    sxn(&mut tr[7], 0.7071067811865476, &g_lo[10]);
    sxn(&mut tr[3], 1.224744871391589, &g_lo[11]);
    sxn(&mut tr[8], 0.7071067811865476, &g_lo[12]);
    sxn(&mut tr[9], 0.7071067811865476, &g_lo[13]);
    sxn(&mut tr[4], 1.224744871391589, &g_lo[14]);
    sxn(&mut tr[10], 0.7071067811865476, &g_lo[15]);
    sxn(&mut tr[11], 0.7071067811865476, &g_lo[16]);
    sxn(&mut tr[12], 0.7071067811865476, &g_lo[17]);
    sxn(&mut tr[5], 1.224744871391589, &g_lo[18]);
    sxn(&mut tr[13], 0.7071067811865476, &g_lo[19]);
    sxn(&mut tr[14], 0.7071067811865476, &g_lo[20]);
    sxn(&mut tr[15], 0.7071067811865476, &g_lo[21]);
    sxn(&mut tr[6], 1.224744871391589, &g_lo[22]);
    sxn(&mut tr[7], 1.224744871391589, &g_lo[23]);
    sxn(&mut tr[16], 0.7071067811865476, &g_lo[24]);
    sxn(&mut tr[8], 1.224744871391589, &g_lo[25]);
    sxn(&mut tr[9], 1.224744871391589, &g_lo[26]);
    sxn(&mut tr[17], 0.7071067811865476, &g_lo[27]);
    sxn(&mut tr[10], 1.224744871391589, &g_lo[28]);
    sxn(&mut tr[18], 0.7071067811865476, &g_lo[29]);
    sxn(&mut tr[11], 1.224744871391589, &g_lo[30]);
    sxn(&mut tr[19], 0.7071067811865476, &g_lo[31]);
    sxn(&mut tr[12], 1.224744871391589, &g_lo[32]);
    sxn(&mut tr[20], 0.7071067811865476, &g_lo[33]);
    sxn(&mut tr[13], 1.224744871391589, &g_lo[34]);
    sxn(&mut tr[21], 0.7071067811865476, &g_lo[35]);
    sxn(&mut tr[14], 1.224744871391589, &g_lo[36]);
    sxn(&mut tr[22], 0.7071067811865476, &g_lo[37]);
    sxn(&mut tr[23], 0.7071067811865476, &g_lo[38]);
    sxn(&mut tr[15], 1.224744871391589, &g_lo[39]);
    sxn(&mut tr[24], 0.7071067811865476, &g_lo[40]);
    sxn(&mut tr[25], 0.7071067811865476, &g_lo[41]);
    sxn(&mut tr[16], 1.224744871391589, &g_lo[42]);
    sxn(&mut tr[17], 1.224744871391589, &g_lo[43]);
    sxn(&mut tr[18], 1.224744871391589, &g_lo[44]);
    sxn(&mut tr[26], 0.7071067811865476, &g_lo[45]);
    sxn(&mut tr[19], 1.224744871391589, &g_lo[46]);
    sxn(&mut tr[20], 1.224744871391589, &g_lo[47]);
    sxn(&mut tr[21], 1.224744871391589, &g_lo[48]);
    sxn(&mut tr[27], 0.7071067811865476, &g_lo[49]);
    sxn(&mut tr[22], 1.224744871391589, &g_lo[50]);
    sxn(&mut tr[23], 1.224744871391589, &g_lo[51]);
    sxn(&mut tr[28], 0.7071067811865476, &g_lo[52]);
    sxn(&mut tr[24], 1.224744871391589, &g_lo[53]);
    sxn(&mut tr[29], 0.7071067811865476, &g_lo[54]);
    sxn(&mut tr[25], 1.224744871391589, &g_lo[55]);
    sxn(&mut tr[30], 0.7071067811865476, &g_lo[56]);
    sxn(&mut tr[26], 1.224744871391589, &g_lo[57]);
    sxn(&mut tr[27], 1.224744871391589, &g_lo[58]);
    sxn(&mut tr[28], 1.224744871391589, &g_lo[59]);
    sxn(&mut tr[29], 1.224744871391589, &g_lo[60]);
    sxn(&mut tr[31], 0.7071067811865476, &g_lo[61]);
    sxn(&mut tr[30], 1.224744871391589, &g_lo[62]);
    sxn(&mut tr[31], 1.224744871391589, &g_lo[63]);
    let mut ghat = [[0.0f64; L]; 32];
    for k in 0..L {
        ghat[0][k] += 0.1767766952966369 * alpha[0][k] * tr[0][k];
        ghat[0][k] += 0.17677669529663687 * alpha[3][k] * tr[3][k];
        ghat[0][k] += 0.17677669529663687 * alpha[4][k] * tr[4][k];
        ghat[0][k] += 0.17677669529663687 * alpha[5][k] * tr[5][k];
        ghat[0][k] += 0.17677669529663687 * alpha[11][k] * tr[11][k];
        ghat[0][k] += 0.17677669529663687 * alpha[14][k] * tr[14][k];
        ghat[0][k] += 0.17677669529663687 * alpha[15][k] * tr[15][k];
        ghat[0][k] += 0.1767766952966369 * alpha[25][k] * tr[25][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.17677669529663687 * alpha[0][k] * tr[1][k];
        ghat[1][k] += 0.17677669529663687 * alpha[3][k] * tr[7][k];
        ghat[1][k] += 0.17677669529663687 * alpha[4][k] * tr[9][k];
        ghat[1][k] += 0.17677669529663687 * alpha[5][k] * tr[12][k];
        ghat[1][k] += 0.1767766952966369 * alpha[11][k] * tr[18][k];
        ghat[1][k] += 0.1767766952966369 * alpha[14][k] * tr[21][k];
        ghat[1][k] += 0.1767766952966369 * alpha[15][k] * tr[23][k];
        ghat[1][k] += 0.17677669529663687 * alpha[25][k] * tr[29][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.17677669529663687 * alpha[0][k] * tr[2][k];
        ghat[2][k] += 0.17677669529663687 * alpha[3][k] * tr[8][k];
        ghat[2][k] += 0.17677669529663687 * alpha[4][k] * tr[10][k];
        ghat[2][k] += 0.17677669529663687 * alpha[5][k] * tr[13][k];
        ghat[2][k] += 0.1767766952966369 * alpha[11][k] * tr[19][k];
        ghat[2][k] += 0.1767766952966369 * alpha[14][k] * tr[22][k];
        ghat[2][k] += 0.1767766952966369 * alpha[15][k] * tr[24][k];
        ghat[2][k] += 0.17677669529663687 * alpha[25][k] * tr[30][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.17677669529663687 * alpha[0][k] * tr[3][k];
        ghat[3][k] += 0.17677669529663687 * alpha[3][k] * tr[0][k];
        ghat[3][k] += 0.17677669529663687 * alpha[4][k] * tr[11][k];
        ghat[3][k] += 0.17677669529663687 * alpha[5][k] * tr[14][k];
        ghat[3][k] += 0.17677669529663687 * alpha[11][k] * tr[4][k];
        ghat[3][k] += 0.17677669529663687 * alpha[14][k] * tr[5][k];
        ghat[3][k] += 0.1767766952966369 * alpha[15][k] * tr[25][k];
        ghat[3][k] += 0.1767766952966369 * alpha[25][k] * tr[15][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.17677669529663687 * alpha[0][k] * tr[4][k];
        ghat[4][k] += 0.17677669529663687 * alpha[3][k] * tr[11][k];
        ghat[4][k] += 0.17677669529663687 * alpha[4][k] * tr[0][k];
        ghat[4][k] += 0.17677669529663687 * alpha[5][k] * tr[15][k];
        ghat[4][k] += 0.17677669529663687 * alpha[11][k] * tr[3][k];
        ghat[4][k] += 0.1767766952966369 * alpha[14][k] * tr[25][k];
        ghat[4][k] += 0.17677669529663687 * alpha[15][k] * tr[5][k];
        ghat[4][k] += 0.1767766952966369 * alpha[25][k] * tr[14][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.17677669529663687 * alpha[0][k] * tr[5][k];
        ghat[5][k] += 0.17677669529663687 * alpha[3][k] * tr[14][k];
        ghat[5][k] += 0.17677669529663687 * alpha[4][k] * tr[15][k];
        ghat[5][k] += 0.17677669529663687 * alpha[5][k] * tr[0][k];
        ghat[5][k] += 0.1767766952966369 * alpha[11][k] * tr[25][k];
        ghat[5][k] += 0.17677669529663687 * alpha[14][k] * tr[3][k];
        ghat[5][k] += 0.17677669529663687 * alpha[15][k] * tr[4][k];
        ghat[5][k] += 0.1767766952966369 * alpha[25][k] * tr[11][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.17677669529663687 * alpha[0][k] * tr[6][k];
        ghat[6][k] += 0.1767766952966369 * alpha[3][k] * tr[16][k];
        ghat[6][k] += 0.1767766952966369 * alpha[4][k] * tr[17][k];
        ghat[6][k] += 0.1767766952966369 * alpha[5][k] * tr[20][k];
        ghat[6][k] += 0.17677669529663687 * alpha[11][k] * tr[26][k];
        ghat[6][k] += 0.17677669529663687 * alpha[14][k] * tr[27][k];
        ghat[6][k] += 0.17677669529663687 * alpha[15][k] * tr[28][k];
        ghat[6][k] += 0.1767766952966369 * alpha[25][k] * tr[31][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.17677669529663687 * alpha[0][k] * tr[7][k];
        ghat[7][k] += 0.17677669529663687 * alpha[3][k] * tr[1][k];
        ghat[7][k] += 0.1767766952966369 * alpha[4][k] * tr[18][k];
        ghat[7][k] += 0.1767766952966369 * alpha[5][k] * tr[21][k];
        ghat[7][k] += 0.1767766952966369 * alpha[11][k] * tr[9][k];
        ghat[7][k] += 0.1767766952966369 * alpha[14][k] * tr[12][k];
        ghat[7][k] += 0.17677669529663687 * alpha[15][k] * tr[29][k];
        ghat[7][k] += 0.17677669529663687 * alpha[25][k] * tr[23][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.17677669529663687 * alpha[0][k] * tr[8][k];
        ghat[8][k] += 0.17677669529663687 * alpha[3][k] * tr[2][k];
        ghat[8][k] += 0.1767766952966369 * alpha[4][k] * tr[19][k];
        ghat[8][k] += 0.1767766952966369 * alpha[5][k] * tr[22][k];
        ghat[8][k] += 0.1767766952966369 * alpha[11][k] * tr[10][k];
        ghat[8][k] += 0.1767766952966369 * alpha[14][k] * tr[13][k];
        ghat[8][k] += 0.17677669529663687 * alpha[15][k] * tr[30][k];
        ghat[8][k] += 0.17677669529663687 * alpha[25][k] * tr[24][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.17677669529663687 * alpha[0][k] * tr[9][k];
        ghat[9][k] += 0.1767766952966369 * alpha[3][k] * tr[18][k];
        ghat[9][k] += 0.17677669529663687 * alpha[4][k] * tr[1][k];
        ghat[9][k] += 0.1767766952966369 * alpha[5][k] * tr[23][k];
        ghat[9][k] += 0.1767766952966369 * alpha[11][k] * tr[7][k];
        ghat[9][k] += 0.17677669529663687 * alpha[14][k] * tr[29][k];
        ghat[9][k] += 0.1767766952966369 * alpha[15][k] * tr[12][k];
        ghat[9][k] += 0.17677669529663687 * alpha[25][k] * tr[21][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.17677669529663687 * alpha[0][k] * tr[10][k];
        ghat[10][k] += 0.1767766952966369 * alpha[3][k] * tr[19][k];
        ghat[10][k] += 0.17677669529663687 * alpha[4][k] * tr[2][k];
        ghat[10][k] += 0.1767766952966369 * alpha[5][k] * tr[24][k];
        ghat[10][k] += 0.1767766952966369 * alpha[11][k] * tr[8][k];
        ghat[10][k] += 0.17677669529663687 * alpha[14][k] * tr[30][k];
        ghat[10][k] += 0.1767766952966369 * alpha[15][k] * tr[13][k];
        ghat[10][k] += 0.17677669529663687 * alpha[25][k] * tr[22][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.17677669529663687 * alpha[0][k] * tr[11][k];
        ghat[11][k] += 0.17677669529663687 * alpha[3][k] * tr[4][k];
        ghat[11][k] += 0.17677669529663687 * alpha[4][k] * tr[3][k];
        ghat[11][k] += 0.1767766952966369 * alpha[5][k] * tr[25][k];
        ghat[11][k] += 0.17677669529663687 * alpha[11][k] * tr[0][k];
        ghat[11][k] += 0.1767766952966369 * alpha[14][k] * tr[15][k];
        ghat[11][k] += 0.1767766952966369 * alpha[15][k] * tr[14][k];
        ghat[11][k] += 0.1767766952966369 * alpha[25][k] * tr[5][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.17677669529663687 * alpha[0][k] * tr[12][k];
        ghat[12][k] += 0.1767766952966369 * alpha[3][k] * tr[21][k];
        ghat[12][k] += 0.1767766952966369 * alpha[4][k] * tr[23][k];
        ghat[12][k] += 0.17677669529663687 * alpha[5][k] * tr[1][k];
        ghat[12][k] += 0.17677669529663687 * alpha[11][k] * tr[29][k];
        ghat[12][k] += 0.1767766952966369 * alpha[14][k] * tr[7][k];
        ghat[12][k] += 0.1767766952966369 * alpha[15][k] * tr[9][k];
        ghat[12][k] += 0.17677669529663687 * alpha[25][k] * tr[18][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.17677669529663687 * alpha[0][k] * tr[13][k];
        ghat[13][k] += 0.1767766952966369 * alpha[3][k] * tr[22][k];
        ghat[13][k] += 0.1767766952966369 * alpha[4][k] * tr[24][k];
        ghat[13][k] += 0.17677669529663687 * alpha[5][k] * tr[2][k];
        ghat[13][k] += 0.17677669529663687 * alpha[11][k] * tr[30][k];
        ghat[13][k] += 0.1767766952966369 * alpha[14][k] * tr[8][k];
        ghat[13][k] += 0.1767766952966369 * alpha[15][k] * tr[10][k];
        ghat[13][k] += 0.17677669529663687 * alpha[25][k] * tr[19][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.17677669529663687 * alpha[0][k] * tr[14][k];
        ghat[14][k] += 0.17677669529663687 * alpha[3][k] * tr[5][k];
        ghat[14][k] += 0.1767766952966369 * alpha[4][k] * tr[25][k];
        ghat[14][k] += 0.17677669529663687 * alpha[5][k] * tr[3][k];
        ghat[14][k] += 0.1767766952966369 * alpha[11][k] * tr[15][k];
        ghat[14][k] += 0.17677669529663687 * alpha[14][k] * tr[0][k];
        ghat[14][k] += 0.1767766952966369 * alpha[15][k] * tr[11][k];
        ghat[14][k] += 0.1767766952966369 * alpha[25][k] * tr[4][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.17677669529663687 * alpha[0][k] * tr[15][k];
        ghat[15][k] += 0.1767766952966369 * alpha[3][k] * tr[25][k];
        ghat[15][k] += 0.17677669529663687 * alpha[4][k] * tr[5][k];
        ghat[15][k] += 0.17677669529663687 * alpha[5][k] * tr[4][k];
        ghat[15][k] += 0.1767766952966369 * alpha[11][k] * tr[14][k];
        ghat[15][k] += 0.1767766952966369 * alpha[14][k] * tr[11][k];
        ghat[15][k] += 0.17677669529663687 * alpha[15][k] * tr[0][k];
        ghat[15][k] += 0.1767766952966369 * alpha[25][k] * tr[3][k];
    }
    for k in 0..L {
        ghat[16][k] += 0.1767766952966369 * alpha[0][k] * tr[16][k];
        ghat[16][k] += 0.1767766952966369 * alpha[3][k] * tr[6][k];
        ghat[16][k] += 0.17677669529663687 * alpha[4][k] * tr[26][k];
        ghat[16][k] += 0.17677669529663687 * alpha[5][k] * tr[27][k];
        ghat[16][k] += 0.17677669529663687 * alpha[11][k] * tr[17][k];
        ghat[16][k] += 0.17677669529663687 * alpha[14][k] * tr[20][k];
        ghat[16][k] += 0.1767766952966369 * alpha[15][k] * tr[31][k];
        ghat[16][k] += 0.1767766952966369 * alpha[25][k] * tr[28][k];
    }
    for k in 0..L {
        ghat[17][k] += 0.1767766952966369 * alpha[0][k] * tr[17][k];
        ghat[17][k] += 0.17677669529663687 * alpha[3][k] * tr[26][k];
        ghat[17][k] += 0.1767766952966369 * alpha[4][k] * tr[6][k];
        ghat[17][k] += 0.17677669529663687 * alpha[5][k] * tr[28][k];
        ghat[17][k] += 0.17677669529663687 * alpha[11][k] * tr[16][k];
        ghat[17][k] += 0.1767766952966369 * alpha[14][k] * tr[31][k];
        ghat[17][k] += 0.17677669529663687 * alpha[15][k] * tr[20][k];
        ghat[17][k] += 0.1767766952966369 * alpha[25][k] * tr[27][k];
    }
    for k in 0..L {
        ghat[18][k] += 0.1767766952966369 * alpha[0][k] * tr[18][k];
        ghat[18][k] += 0.1767766952966369 * alpha[3][k] * tr[9][k];
        ghat[18][k] += 0.1767766952966369 * alpha[4][k] * tr[7][k];
        ghat[18][k] += 0.17677669529663687 * alpha[5][k] * tr[29][k];
        ghat[18][k] += 0.1767766952966369 * alpha[11][k] * tr[1][k];
        ghat[18][k] += 0.17677669529663687 * alpha[14][k] * tr[23][k];
        ghat[18][k] += 0.17677669529663687 * alpha[15][k] * tr[21][k];
        ghat[18][k] += 0.17677669529663687 * alpha[25][k] * tr[12][k];
    }
    for k in 0..L {
        ghat[19][k] += 0.1767766952966369 * alpha[0][k] * tr[19][k];
        ghat[19][k] += 0.1767766952966369 * alpha[3][k] * tr[10][k];
        ghat[19][k] += 0.1767766952966369 * alpha[4][k] * tr[8][k];
        ghat[19][k] += 0.17677669529663687 * alpha[5][k] * tr[30][k];
        ghat[19][k] += 0.1767766952966369 * alpha[11][k] * tr[2][k];
        ghat[19][k] += 0.17677669529663687 * alpha[14][k] * tr[24][k];
        ghat[19][k] += 0.17677669529663687 * alpha[15][k] * tr[22][k];
        ghat[19][k] += 0.17677669529663687 * alpha[25][k] * tr[13][k];
    }
    for k in 0..L {
        ghat[20][k] += 0.1767766952966369 * alpha[0][k] * tr[20][k];
        ghat[20][k] += 0.17677669529663687 * alpha[3][k] * tr[27][k];
        ghat[20][k] += 0.17677669529663687 * alpha[4][k] * tr[28][k];
        ghat[20][k] += 0.1767766952966369 * alpha[5][k] * tr[6][k];
        ghat[20][k] += 0.1767766952966369 * alpha[11][k] * tr[31][k];
        ghat[20][k] += 0.17677669529663687 * alpha[14][k] * tr[16][k];
        ghat[20][k] += 0.17677669529663687 * alpha[15][k] * tr[17][k];
        ghat[20][k] += 0.1767766952966369 * alpha[25][k] * tr[26][k];
    }
    for k in 0..L {
        ghat[21][k] += 0.1767766952966369 * alpha[0][k] * tr[21][k];
        ghat[21][k] += 0.1767766952966369 * alpha[3][k] * tr[12][k];
        ghat[21][k] += 0.17677669529663687 * alpha[4][k] * tr[29][k];
        ghat[21][k] += 0.1767766952966369 * alpha[5][k] * tr[7][k];
        ghat[21][k] += 0.17677669529663687 * alpha[11][k] * tr[23][k];
        ghat[21][k] += 0.1767766952966369 * alpha[14][k] * tr[1][k];
        ghat[21][k] += 0.17677669529663687 * alpha[15][k] * tr[18][k];
        ghat[21][k] += 0.17677669529663687 * alpha[25][k] * tr[9][k];
    }
    for k in 0..L {
        ghat[22][k] += 0.1767766952966369 * alpha[0][k] * tr[22][k];
        ghat[22][k] += 0.1767766952966369 * alpha[3][k] * tr[13][k];
        ghat[22][k] += 0.17677669529663687 * alpha[4][k] * tr[30][k];
        ghat[22][k] += 0.1767766952966369 * alpha[5][k] * tr[8][k];
        ghat[22][k] += 0.17677669529663687 * alpha[11][k] * tr[24][k];
        ghat[22][k] += 0.1767766952966369 * alpha[14][k] * tr[2][k];
        ghat[22][k] += 0.17677669529663687 * alpha[15][k] * tr[19][k];
        ghat[22][k] += 0.17677669529663687 * alpha[25][k] * tr[10][k];
    }
    for k in 0..L {
        ghat[23][k] += 0.1767766952966369 * alpha[0][k] * tr[23][k];
        ghat[23][k] += 0.17677669529663687 * alpha[3][k] * tr[29][k];
        ghat[23][k] += 0.1767766952966369 * alpha[4][k] * tr[12][k];
        ghat[23][k] += 0.1767766952966369 * alpha[5][k] * tr[9][k];
        ghat[23][k] += 0.17677669529663687 * alpha[11][k] * tr[21][k];
        ghat[23][k] += 0.17677669529663687 * alpha[14][k] * tr[18][k];
        ghat[23][k] += 0.1767766952966369 * alpha[15][k] * tr[1][k];
        ghat[23][k] += 0.17677669529663687 * alpha[25][k] * tr[7][k];
    }
    for k in 0..L {
        ghat[24][k] += 0.1767766952966369 * alpha[0][k] * tr[24][k];
        ghat[24][k] += 0.17677669529663687 * alpha[3][k] * tr[30][k];
        ghat[24][k] += 0.1767766952966369 * alpha[4][k] * tr[13][k];
        ghat[24][k] += 0.1767766952966369 * alpha[5][k] * tr[10][k];
        ghat[24][k] += 0.17677669529663687 * alpha[11][k] * tr[22][k];
        ghat[24][k] += 0.17677669529663687 * alpha[14][k] * tr[19][k];
        ghat[24][k] += 0.1767766952966369 * alpha[15][k] * tr[2][k];
        ghat[24][k] += 0.17677669529663687 * alpha[25][k] * tr[8][k];
    }
    for k in 0..L {
        ghat[25][k] += 0.1767766952966369 * alpha[0][k] * tr[25][k];
        ghat[25][k] += 0.1767766952966369 * alpha[3][k] * tr[15][k];
        ghat[25][k] += 0.1767766952966369 * alpha[4][k] * tr[14][k];
        ghat[25][k] += 0.1767766952966369 * alpha[5][k] * tr[11][k];
        ghat[25][k] += 0.1767766952966369 * alpha[11][k] * tr[5][k];
        ghat[25][k] += 0.1767766952966369 * alpha[14][k] * tr[4][k];
        ghat[25][k] += 0.1767766952966369 * alpha[15][k] * tr[3][k];
        ghat[25][k] += 0.1767766952966369 * alpha[25][k] * tr[0][k];
    }
    for k in 0..L {
        ghat[26][k] += 0.17677669529663687 * alpha[0][k] * tr[26][k];
        ghat[26][k] += 0.17677669529663687 * alpha[3][k] * tr[17][k];
        ghat[26][k] += 0.17677669529663687 * alpha[4][k] * tr[16][k];
        ghat[26][k] += 0.1767766952966369 * alpha[5][k] * tr[31][k];
        ghat[26][k] += 0.17677669529663687 * alpha[11][k] * tr[6][k];
        ghat[26][k] += 0.1767766952966369 * alpha[14][k] * tr[28][k];
        ghat[26][k] += 0.1767766952966369 * alpha[15][k] * tr[27][k];
        ghat[26][k] += 0.1767766952966369 * alpha[25][k] * tr[20][k];
    }
    for k in 0..L {
        ghat[27][k] += 0.17677669529663687 * alpha[0][k] * tr[27][k];
        ghat[27][k] += 0.17677669529663687 * alpha[3][k] * tr[20][k];
        ghat[27][k] += 0.1767766952966369 * alpha[4][k] * tr[31][k];
        ghat[27][k] += 0.17677669529663687 * alpha[5][k] * tr[16][k];
        ghat[27][k] += 0.1767766952966369 * alpha[11][k] * tr[28][k];
        ghat[27][k] += 0.17677669529663687 * alpha[14][k] * tr[6][k];
        ghat[27][k] += 0.1767766952966369 * alpha[15][k] * tr[26][k];
        ghat[27][k] += 0.1767766952966369 * alpha[25][k] * tr[17][k];
    }
    for k in 0..L {
        ghat[28][k] += 0.17677669529663687 * alpha[0][k] * tr[28][k];
        ghat[28][k] += 0.1767766952966369 * alpha[3][k] * tr[31][k];
        ghat[28][k] += 0.17677669529663687 * alpha[4][k] * tr[20][k];
        ghat[28][k] += 0.17677669529663687 * alpha[5][k] * tr[17][k];
        ghat[28][k] += 0.1767766952966369 * alpha[11][k] * tr[27][k];
        ghat[28][k] += 0.1767766952966369 * alpha[14][k] * tr[26][k];
        ghat[28][k] += 0.17677669529663687 * alpha[15][k] * tr[6][k];
        ghat[28][k] += 0.1767766952966369 * alpha[25][k] * tr[16][k];
    }
    for k in 0..L {
        ghat[29][k] += 0.17677669529663687 * alpha[0][k] * tr[29][k];
        ghat[29][k] += 0.17677669529663687 * alpha[3][k] * tr[23][k];
        ghat[29][k] += 0.17677669529663687 * alpha[4][k] * tr[21][k];
        ghat[29][k] += 0.17677669529663687 * alpha[5][k] * tr[18][k];
        ghat[29][k] += 0.17677669529663687 * alpha[11][k] * tr[12][k];
        ghat[29][k] += 0.17677669529663687 * alpha[14][k] * tr[9][k];
        ghat[29][k] += 0.17677669529663687 * alpha[15][k] * tr[7][k];
        ghat[29][k] += 0.17677669529663687 * alpha[25][k] * tr[1][k];
    }
    for k in 0..L {
        ghat[30][k] += 0.17677669529663687 * alpha[0][k] * tr[30][k];
        ghat[30][k] += 0.17677669529663687 * alpha[3][k] * tr[24][k];
        ghat[30][k] += 0.17677669529663687 * alpha[4][k] * tr[22][k];
        ghat[30][k] += 0.17677669529663687 * alpha[5][k] * tr[19][k];
        ghat[30][k] += 0.17677669529663687 * alpha[11][k] * tr[13][k];
        ghat[30][k] += 0.17677669529663687 * alpha[14][k] * tr[10][k];
        ghat[30][k] += 0.17677669529663687 * alpha[15][k] * tr[8][k];
        ghat[30][k] += 0.17677669529663687 * alpha[25][k] * tr[2][k];
    }
    for k in 0..L {
        ghat[31][k] += 0.1767766952966369 * alpha[0][k] * tr[31][k];
        ghat[31][k] += 0.1767766952966369 * alpha[3][k] * tr[28][k];
        ghat[31][k] += 0.1767766952966369 * alpha[4][k] * tr[27][k];
        ghat[31][k] += 0.1767766952966369 * alpha[5][k] * tr[26][k];
        ghat[31][k] += 0.1767766952966369 * alpha[11][k] * tr[20][k];
        ghat[31][k] += 0.1767766952966369 * alpha[14][k] * tr[17][k];
        ghat[31][k] += 0.1767766952966369 * alpha[15][k] * tr[16][k];
        ghat[31][k] += 0.1767766952966369 * alpha[25][k] * tr[6][k];
    }
    sxn(&mut out_lo[0], nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[2], nu * scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[3], nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], nu * scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], nu * scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[7], nu * scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[8], nu * scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[9], nu * scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[10], nu * scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[11], nu * scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[12], nu * scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[13], nu * scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[14], nu * scale * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[15], nu * scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[16], nu * scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[17], nu * scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[18], nu * scale * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[19], nu * scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[20], nu * scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[21], nu * scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[22], nu * scale * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[23], nu * scale * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[24], nu * scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_lo[25], nu * scale * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[26], nu * scale * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[27], nu * scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_lo[28], nu * scale * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[29], nu * scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_lo[30], nu * scale * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[31], nu * scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_lo[32], nu * scale * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[33], nu * scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_lo[34], nu * scale * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[35], nu * scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_lo[36], nu * scale * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[37], nu * scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_lo[38], nu * scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_lo[39], nu * scale * 1.224744871391589, &ghat[15]);
    sxn(&mut out_lo[40], nu * scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_lo[41], nu * scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_lo[42], nu * scale * 1.224744871391589, &ghat[16]);
    sxn(&mut out_lo[43], nu * scale * 1.224744871391589, &ghat[17]);
    sxn(&mut out_lo[44], nu * scale * 1.224744871391589, &ghat[18]);
    sxn(&mut out_lo[45], nu * scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_lo[46], nu * scale * 1.224744871391589, &ghat[19]);
    sxn(&mut out_lo[47], nu * scale * 1.224744871391589, &ghat[20]);
    sxn(&mut out_lo[48], nu * scale * 1.224744871391589, &ghat[21]);
    sxn(&mut out_lo[49], nu * scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_lo[50], nu * scale * 1.224744871391589, &ghat[22]);
    sxn(&mut out_lo[51], nu * scale * 1.224744871391589, &ghat[23]);
    sxn(&mut out_lo[52], nu * scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_lo[53], nu * scale * 1.224744871391589, &ghat[24]);
    sxn(&mut out_lo[54], nu * scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_lo[55], nu * scale * 1.224744871391589, &ghat[25]);
    sxn(&mut out_lo[56], nu * scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_lo[57], nu * scale * 1.224744871391589, &ghat[26]);
    sxn(&mut out_lo[58], nu * scale * 1.224744871391589, &ghat[27]);
    sxn(&mut out_lo[59], nu * scale * 1.224744871391589, &ghat[28]);
    sxn(&mut out_lo[60], nu * scale * 1.224744871391589, &ghat[29]);
    sxn(&mut out_lo[61], nu * scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_lo[62], nu * scale * 1.224744871391589, &ghat[30]);
    sxn(&mut out_lo[63], nu * scale * 1.224744871391589, &ghat[31]);
    sxn(&mut out_hi[0], -nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], -nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[2], -nu * scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[3], -nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], -nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], -nu * scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], -nu * scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[7], -nu * scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[8], -nu * scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[9], -nu * scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[10], -nu * scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[11], -nu * scale * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[12], -nu * scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[13], -nu * scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[14], -nu * scale * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[15], -nu * scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[16], -nu * scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[17], -nu * scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[18], -nu * scale * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[19], -nu * scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[20], -nu * scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[21], -nu * scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[22], -nu * scale * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[23], -nu * scale * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[24], -nu * scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_hi[25], -nu * scale * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[26], -nu * scale * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[27], -nu * scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_hi[28], -nu * scale * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[29], -nu * scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_hi[30], -nu * scale * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[31], -nu * scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_hi[32], -nu * scale * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[33], -nu * scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_hi[34], -nu * scale * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[35], -nu * scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_hi[36], -nu * scale * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[37], -nu * scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_hi[38], -nu * scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_hi[39], -nu * scale * -1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[40], -nu * scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_hi[41], -nu * scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_hi[42], -nu * scale * -1.224744871391589, &ghat[16]);
    sxn(&mut out_hi[43], -nu * scale * -1.224744871391589, &ghat[17]);
    sxn(&mut out_hi[44], -nu * scale * -1.224744871391589, &ghat[18]);
    sxn(&mut out_hi[45], -nu * scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_hi[46], -nu * scale * -1.224744871391589, &ghat[19]);
    sxn(&mut out_hi[47], -nu * scale * -1.224744871391589, &ghat[20]);
    sxn(&mut out_hi[48], -nu * scale * -1.224744871391589, &ghat[21]);
    sxn(&mut out_hi[49], -nu * scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_hi[50], -nu * scale * -1.224744871391589, &ghat[22]);
    sxn(&mut out_hi[51], -nu * scale * -1.224744871391589, &ghat[23]);
    sxn(&mut out_hi[52], -nu * scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_hi[53], -nu * scale * -1.224744871391589, &ghat[24]);
    sxn(&mut out_hi[54], -nu * scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_hi[55], -nu * scale * -1.224744871391589, &ghat[25]);
    sxn(&mut out_hi[56], -nu * scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_hi[57], -nu * scale * -1.224744871391589, &ghat[26]);
    sxn(&mut out_hi[58], -nu * scale * -1.224744871391589, &ghat[27]);
    sxn(&mut out_hi[59], -nu * scale * -1.224744871391589, &ghat[28]);
    sxn(&mut out_hi[60], -nu * scale * -1.224744871391589, &ghat[29]);
    sxn(&mut out_hi[61], -nu * scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_hi[62], -nu * scale * -1.224744871391589, &ghat[30]);
    sxn(&mut out_hi[63], -nu * scale * -1.224744871391589, &ghat[31]);
}

/// LBO drag volume term in v2: weak `∇_v · (ν(v − u) f)`, cell interior.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_vol_v2(nu: f64, v_c: f64, dv: f64, u: &[f64], f: &[f64], out: &mut [f64]) {
    lbo_3x3v_p1_ser_drag_vol_v2_body::<1>(nu, v_c, dv, u.as_chunks().0, f.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_drag_vol_v2`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_vol_v2_b4(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_vol_v2_body(nu, v_c, dv, u, f, out)
}

/// [`lbo_3x3v_p1_ser_drag_vol_v2_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_vol_v2_b4_avx2(nu: f64, v_c: f64, dv: f64, u: &[[f64; LANES]], f: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_vol_v2_body(nu, v_c, dv, u, f, out)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_drag_vol_v2`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_drag_vol_v2_body<const L: usize>(nu: f64, v_c: f64, dv: f64, u: &[[f64; L]], f: &[[f64; L]], out: &mut [[f64; L]]) {
    let u: &[[f64; L]; 8] = u.first_chunk().expect("u: 8 coefficients");
    let f: &[[f64; L]; 64] = f.first_chunk().expect("f: 64 coefficients");
    let out: &mut [[f64; L]; 64] = out.first_chunk_mut().expect("out: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 64];
    for k in 0..L {
        alpha[0][k] = -nu * v_c * 8.0;
        alpha[1][k] = -nu * 0.5 * dv * 4.618802153517007;
        alpha[0][k] += nu * 2.8284271247461903 * u[0][k];
        alpha[4][k] += nu * 2.8284271247461903 * u[1][k];
        alpha[5][k] += nu * 2.8284271247461903 * u[2][k];
        alpha[6][k] += nu * 2.8284271247461903 * u[3][k];
        alpha[16][k] += nu * 2.8284271247461903 * u[4][k];
        alpha[20][k] += nu * 2.8284271247461903 * u[5][k];
        alpha[21][k] += nu * 2.8284271247461903 * u[6][k];
        alpha[41][k] += nu * 2.8284271247461903 * u[7][k];
    }
    for k in 0..L {
        out[1][k] += scale * 0.21650635094610965 * alpha[0][k] * f[0][k];
        out[1][k] += scale * 0.21650635094610965 * alpha[1][k] * f[1][k];
        out[1][k] += scale * 0.21650635094610965 * alpha[4][k] * f[4][k];
        out[1][k] += scale * 0.21650635094610965 * alpha[5][k] * f[5][k];
        out[1][k] += scale * 0.21650635094610965 * alpha[6][k] * f[6][k];
        out[1][k] += scale * 0.21650635094610965 * alpha[16][k] * f[16][k];
        out[1][k] += scale * 0.21650635094610965 * alpha[20][k] * f[20][k];
        out[1][k] += scale * 0.21650635094610965 * alpha[21][k] * f[21][k];
        out[1][k] += scale * 0.21650635094610965 * alpha[41][k] * f[41][k];
    }
    for k in 0..L {
        out[7][k] += scale * 0.21650635094610965 * alpha[0][k] * f[2][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[1][k] * f[7][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[4][k] * f[11][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[5][k] * f[14][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[6][k] * f[18][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[16][k] * f[30][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[20][k] * f[36][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[21][k] * f[39][k];
        out[7][k] += scale * 0.21650635094610965 * alpha[41][k] * f[55][k];
    }
    for k in 0..L {
        out[8][k] += scale * 0.21650635094610965 * alpha[0][k] * f[3][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[1][k] * f[8][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[4][k] * f[12][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[5][k] * f[15][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[6][k] * f[19][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[16][k] * f[31][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[20][k] * f[37][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[21][k] * f[40][k];
        out[8][k] += scale * 0.21650635094610965 * alpha[41][k] * f[56][k];
    }
    for k in 0..L {
        out[10][k] += scale * 0.21650635094610965 * alpha[0][k] * f[4][k];
        out[10][k] += scale * 0.21650635094610965 * alpha[1][k] * f[10][k];
        out[10][k] += scale * 0.21650635094610965 * alpha[4][k] * f[0][k];
        out[10][k] += scale * 0.21650635094610965 * alpha[5][k] * f[16][k];
        out[10][k] += scale * 0.21650635094610965 * alpha[6][k] * f[20][k];
        out[10][k] += scale * 0.21650635094610965 * alpha[16][k] * f[5][k];
        out[10][k] += scale * 0.21650635094610965 * alpha[20][k] * f[6][k];
        out[10][k] += scale * 0.21650635094610965 * alpha[21][k] * f[41][k];
        out[10][k] += scale * 0.21650635094610965 * alpha[41][k] * f[21][k];
    }
    for k in 0..L {
        out[13][k] += scale * 0.21650635094610965 * alpha[0][k] * f[5][k];
        out[13][k] += scale * 0.21650635094610965 * alpha[1][k] * f[13][k];
        out[13][k] += scale * 0.21650635094610965 * alpha[4][k] * f[16][k];
        out[13][k] += scale * 0.21650635094610965 * alpha[5][k] * f[0][k];
        out[13][k] += scale * 0.21650635094610965 * alpha[6][k] * f[21][k];
        out[13][k] += scale * 0.21650635094610965 * alpha[16][k] * f[4][k];
        out[13][k] += scale * 0.21650635094610965 * alpha[20][k] * f[41][k];
        out[13][k] += scale * 0.21650635094610965 * alpha[21][k] * f[6][k];
        out[13][k] += scale * 0.21650635094610965 * alpha[41][k] * f[20][k];
    }
    for k in 0..L {
        out[17][k] += scale * 0.21650635094610965 * alpha[0][k] * f[6][k];
        out[17][k] += scale * 0.21650635094610965 * alpha[1][k] * f[17][k];
        out[17][k] += scale * 0.21650635094610965 * alpha[4][k] * f[20][k];
        out[17][k] += scale * 0.21650635094610965 * alpha[5][k] * f[21][k];
        out[17][k] += scale * 0.21650635094610965 * alpha[6][k] * f[0][k];
        out[17][k] += scale * 0.21650635094610965 * alpha[16][k] * f[41][k];
        out[17][k] += scale * 0.21650635094610965 * alpha[20][k] * f[4][k];
        out[17][k] += scale * 0.21650635094610965 * alpha[21][k] * f[5][k];
        out[17][k] += scale * 0.21650635094610965 * alpha[41][k] * f[16][k];
    }
    for k in 0..L {
        out[22][k] += scale * 0.21650635094610965 * alpha[0][k] * f[9][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[1][k] * f[22][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[4][k] * f[25][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[5][k] * f[28][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[6][k] * f[34][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[16][k] * f[46][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[20][k] * f[50][k];
        out[22][k] += scale * 0.21650635094610965 * alpha[21][k] * f[53][k];
        out[22][k] += scale * 0.21650635094610968 * alpha[41][k] * f[62][k];
    }
    for k in 0..L {
        out[23][k] += scale * 0.21650635094610965 * alpha[0][k] * f[11][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[1][k] * f[23][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[4][k] * f[2][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[5][k] * f[30][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[6][k] * f[36][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[16][k] * f[14][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[20][k] * f[18][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[21][k] * f[55][k];
        out[23][k] += scale * 0.21650635094610965 * alpha[41][k] * f[39][k];
    }
    for k in 0..L {
        out[24][k] += scale * 0.21650635094610965 * alpha[0][k] * f[12][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[1][k] * f[24][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[4][k] * f[3][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[5][k] * f[31][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[6][k] * f[37][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[16][k] * f[15][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[20][k] * f[19][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[21][k] * f[56][k];
        out[24][k] += scale * 0.21650635094610965 * alpha[41][k] * f[40][k];
    }
    for k in 0..L {
        out[26][k] += scale * 0.21650635094610965 * alpha[0][k] * f[14][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[1][k] * f[26][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[4][k] * f[30][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[5][k] * f[2][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[6][k] * f[39][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[16][k] * f[11][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[20][k] * f[55][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[21][k] * f[18][k];
        out[26][k] += scale * 0.21650635094610965 * alpha[41][k] * f[36][k];
    }
    for k in 0..L {
        out[27][k] += scale * 0.21650635094610965 * alpha[0][k] * f[15][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[1][k] * f[27][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[4][k] * f[31][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[5][k] * f[3][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[6][k] * f[40][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[16][k] * f[12][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[20][k] * f[56][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[21][k] * f[19][k];
        out[27][k] += scale * 0.21650635094610965 * alpha[41][k] * f[37][k];
    }
    for k in 0..L {
        out[29][k] += scale * 0.21650635094610965 * alpha[0][k] * f[16][k];
        out[29][k] += scale * 0.21650635094610965 * alpha[1][k] * f[29][k];
        out[29][k] += scale * 0.21650635094610965 * alpha[4][k] * f[5][k];
        out[29][k] += scale * 0.21650635094610965 * alpha[5][k] * f[4][k];
        out[29][k] += scale * 0.21650635094610965 * alpha[6][k] * f[41][k];
        out[29][k] += scale * 0.21650635094610965 * alpha[16][k] * f[0][k];
        out[29][k] += scale * 0.21650635094610965 * alpha[20][k] * f[21][k];
        out[29][k] += scale * 0.21650635094610965 * alpha[21][k] * f[20][k];
        out[29][k] += scale * 0.21650635094610965 * alpha[41][k] * f[6][k];
    }
    for k in 0..L {
        out[32][k] += scale * 0.21650635094610965 * alpha[0][k] * f[18][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[1][k] * f[32][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[4][k] * f[36][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[5][k] * f[39][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[6][k] * f[2][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[16][k] * f[55][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[20][k] * f[11][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[21][k] * f[14][k];
        out[32][k] += scale * 0.21650635094610965 * alpha[41][k] * f[30][k];
    }
    for k in 0..L {
        out[33][k] += scale * 0.21650635094610965 * alpha[0][k] * f[19][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[1][k] * f[33][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[4][k] * f[37][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[5][k] * f[40][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[6][k] * f[3][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[16][k] * f[56][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[20][k] * f[12][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[21][k] * f[15][k];
        out[33][k] += scale * 0.21650635094610965 * alpha[41][k] * f[31][k];
    }
    for k in 0..L {
        out[35][k] += scale * 0.21650635094610965 * alpha[0][k] * f[20][k];
        out[35][k] += scale * 0.21650635094610965 * alpha[1][k] * f[35][k];
        out[35][k] += scale * 0.21650635094610965 * alpha[4][k] * f[6][k];
        out[35][k] += scale * 0.21650635094610965 * alpha[5][k] * f[41][k];
        out[35][k] += scale * 0.21650635094610965 * alpha[6][k] * f[4][k];
        out[35][k] += scale * 0.21650635094610965 * alpha[16][k] * f[21][k];
        out[35][k] += scale * 0.21650635094610965 * alpha[20][k] * f[0][k];
        out[35][k] += scale * 0.21650635094610965 * alpha[21][k] * f[16][k];
        out[35][k] += scale * 0.21650635094610965 * alpha[41][k] * f[5][k];
    }
    for k in 0..L {
        out[38][k] += scale * 0.21650635094610965 * alpha[0][k] * f[21][k];
        out[38][k] += scale * 0.21650635094610965 * alpha[1][k] * f[38][k];
        out[38][k] += scale * 0.21650635094610965 * alpha[4][k] * f[41][k];
        out[38][k] += scale * 0.21650635094610965 * alpha[5][k] * f[6][k];
        out[38][k] += scale * 0.21650635094610965 * alpha[6][k] * f[5][k];
        out[38][k] += scale * 0.21650635094610965 * alpha[16][k] * f[20][k];
        out[38][k] += scale * 0.21650635094610965 * alpha[20][k] * f[16][k];
        out[38][k] += scale * 0.21650635094610965 * alpha[21][k] * f[0][k];
        out[38][k] += scale * 0.21650635094610965 * alpha[41][k] * f[4][k];
    }
    for k in 0..L {
        out[42][k] += scale * 0.21650635094610965 * alpha[0][k] * f[25][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[1][k] * f[42][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[4][k] * f[9][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[5][k] * f[46][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[6][k] * f[50][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[16][k] * f[28][k];
        out[42][k] += scale * 0.21650635094610965 * alpha[20][k] * f[34][k];
        out[42][k] += scale * 0.21650635094610968 * alpha[21][k] * f[62][k];
        out[42][k] += scale * 0.21650635094610968 * alpha[41][k] * f[53][k];
    }
    for k in 0..L {
        out[43][k] += scale * 0.21650635094610965 * alpha[0][k] * f[28][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[1][k] * f[43][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[4][k] * f[46][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[5][k] * f[9][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[6][k] * f[53][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[16][k] * f[25][k];
        out[43][k] += scale * 0.21650635094610968 * alpha[20][k] * f[62][k];
        out[43][k] += scale * 0.21650635094610965 * alpha[21][k] * f[34][k];
        out[43][k] += scale * 0.21650635094610968 * alpha[41][k] * f[50][k];
    }
    for k in 0..L {
        out[44][k] += scale * 0.21650635094610965 * alpha[0][k] * f[30][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[1][k] * f[44][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[4][k] * f[14][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[5][k] * f[11][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[6][k] * f[55][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[16][k] * f[2][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[20][k] * f[39][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[21][k] * f[36][k];
        out[44][k] += scale * 0.21650635094610965 * alpha[41][k] * f[18][k];
    }
    for k in 0..L {
        out[45][k] += scale * 0.21650635094610965 * alpha[0][k] * f[31][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[1][k] * f[45][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[4][k] * f[15][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[5][k] * f[12][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[6][k] * f[56][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[16][k] * f[3][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[20][k] * f[40][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[21][k] * f[37][k];
        out[45][k] += scale * 0.21650635094610965 * alpha[41][k] * f[19][k];
    }
    for k in 0..L {
        out[47][k] += scale * 0.21650635094610965 * alpha[0][k] * f[34][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[1][k] * f[47][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[4][k] * f[50][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[5][k] * f[53][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[6][k] * f[9][k];
        out[47][k] += scale * 0.21650635094610968 * alpha[16][k] * f[62][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[20][k] * f[25][k];
        out[47][k] += scale * 0.21650635094610965 * alpha[21][k] * f[28][k];
        out[47][k] += scale * 0.21650635094610968 * alpha[41][k] * f[46][k];
    }
    for k in 0..L {
        out[48][k] += scale * 0.21650635094610965 * alpha[0][k] * f[36][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[1][k] * f[48][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[4][k] * f[18][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[5][k] * f[55][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[6][k] * f[11][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[16][k] * f[39][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[20][k] * f[2][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[21][k] * f[30][k];
        out[48][k] += scale * 0.21650635094610965 * alpha[41][k] * f[14][k];
    }
    for k in 0..L {
        out[49][k] += scale * 0.21650635094610965 * alpha[0][k] * f[37][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[1][k] * f[49][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[4][k] * f[19][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[5][k] * f[56][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[6][k] * f[12][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[16][k] * f[40][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[20][k] * f[3][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[21][k] * f[31][k];
        out[49][k] += scale * 0.21650635094610965 * alpha[41][k] * f[15][k];
    }
    for k in 0..L {
        out[51][k] += scale * 0.21650635094610965 * alpha[0][k] * f[39][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[1][k] * f[51][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[4][k] * f[55][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[5][k] * f[18][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[6][k] * f[14][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[16][k] * f[36][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[20][k] * f[30][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[21][k] * f[2][k];
        out[51][k] += scale * 0.21650635094610965 * alpha[41][k] * f[11][k];
    }
    for k in 0..L {
        out[52][k] += scale * 0.21650635094610965 * alpha[0][k] * f[40][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[1][k] * f[52][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[4][k] * f[56][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[5][k] * f[19][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[6][k] * f[15][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[16][k] * f[37][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[20][k] * f[31][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[21][k] * f[3][k];
        out[52][k] += scale * 0.21650635094610965 * alpha[41][k] * f[12][k];
    }
    for k in 0..L {
        out[54][k] += scale * 0.21650635094610965 * alpha[0][k] * f[41][k];
        out[54][k] += scale * 0.21650635094610965 * alpha[1][k] * f[54][k];
        out[54][k] += scale * 0.21650635094610965 * alpha[4][k] * f[21][k];
        out[54][k] += scale * 0.21650635094610965 * alpha[5][k] * f[20][k];
        out[54][k] += scale * 0.21650635094610965 * alpha[6][k] * f[16][k];
        out[54][k] += scale * 0.21650635094610965 * alpha[16][k] * f[6][k];
        out[54][k] += scale * 0.21650635094610965 * alpha[20][k] * f[5][k];
        out[54][k] += scale * 0.21650635094610965 * alpha[21][k] * f[4][k];
        out[54][k] += scale * 0.21650635094610965 * alpha[41][k] * f[0][k];
    }
    for k in 0..L {
        out[57][k] += scale * 0.21650635094610965 * alpha[0][k] * f[46][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[1][k] * f[57][k];
        out[57][k] += scale * 0.21650635094610965 * alpha[4][k] * f[28][k];
        out[57][k] += scale * 0.21650635094610965 * alpha[5][k] * f[25][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[6][k] * f[62][k];
        out[57][k] += scale * 0.21650635094610965 * alpha[16][k] * f[9][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[20][k] * f[53][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[21][k] * f[50][k];
        out[57][k] += scale * 0.21650635094610968 * alpha[41][k] * f[34][k];
    }
    for k in 0..L {
        out[58][k] += scale * 0.21650635094610965 * alpha[0][k] * f[50][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[1][k] * f[58][k];
        out[58][k] += scale * 0.21650635094610965 * alpha[4][k] * f[34][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[5][k] * f[62][k];
        out[58][k] += scale * 0.21650635094610965 * alpha[6][k] * f[25][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[16][k] * f[53][k];
        out[58][k] += scale * 0.21650635094610965 * alpha[20][k] * f[9][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[21][k] * f[46][k];
        out[58][k] += scale * 0.21650635094610968 * alpha[41][k] * f[28][k];
    }
    for k in 0..L {
        out[59][k] += scale * 0.21650635094610965 * alpha[0][k] * f[53][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[1][k] * f[59][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[4][k] * f[62][k];
        out[59][k] += scale * 0.21650635094610965 * alpha[5][k] * f[34][k];
        out[59][k] += scale * 0.21650635094610965 * alpha[6][k] * f[28][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[16][k] * f[50][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[20][k] * f[46][k];
        out[59][k] += scale * 0.21650635094610965 * alpha[21][k] * f[9][k];
        out[59][k] += scale * 0.21650635094610968 * alpha[41][k] * f[25][k];
    }
    for k in 0..L {
        out[60][k] += scale * 0.21650635094610965 * alpha[0][k] * f[55][k];
        out[60][k] += scale * 0.21650635094610968 * alpha[1][k] * f[60][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[4][k] * f[39][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[5][k] * f[36][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[6][k] * f[30][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[16][k] * f[18][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[20][k] * f[14][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[21][k] * f[11][k];
        out[60][k] += scale * 0.21650635094610965 * alpha[41][k] * f[2][k];
    }
    for k in 0..L {
        out[61][k] += scale * 0.21650635094610965 * alpha[0][k] * f[56][k];
        out[61][k] += scale * 0.21650635094610968 * alpha[1][k] * f[61][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[4][k] * f[40][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[5][k] * f[37][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[6][k] * f[31][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[16][k] * f[19][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[20][k] * f[15][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[21][k] * f[12][k];
        out[61][k] += scale * 0.21650635094610965 * alpha[41][k] * f[3][k];
    }
    for k in 0..L {
        out[63][k] += scale * 0.21650635094610968 * alpha[0][k] * f[62][k];
        out[63][k] += scale * 0.21650635094610962 * alpha[1][k] * f[63][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[4][k] * f[53][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[5][k] * f[50][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[6][k] * f[46][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[16][k] * f[34][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[20][k] * f[28][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[21][k] * f[25][k];
        out[63][k] += scale * 0.21650635094610968 * alpha[41][k] * f[9][k];
    }
}

/// LBO drag surface term in v2 at one interior face (`vstar` = face
/// velocity coordinate); penalized central flux, both sides updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_surf_v2(nu: f64, vstar: f64, dv: f64, u: &[f64], f_lo: &[f64], f_hi: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_3x3v_p1_ser_drag_surf_v2_body::<1>(nu, vstar, dv, u.as_chunks().0, f_lo.as_chunks().0, f_hi.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_drag_surf_v2`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_surf_v2_b4(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_surf_v2_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// [`lbo_3x3v_p1_ser_drag_surf_v2_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_drag_surf_v2_b4_avx2(nu: f64, vstar: f64, dv: f64, u: &[[f64; LANES]], f_lo: &[[f64; LANES]], f_hi: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_drag_surf_v2_body(nu, vstar, dv, u, f_lo, f_hi, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_drag_surf_v2`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_drag_surf_v2_body<const L: usize>(nu: f64, vstar: f64, dv: f64, u: &[[f64; L]], f_lo: &[[f64; L]], f_hi: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let u: &[[f64; L]; 8] = u.first_chunk().expect("u: 8 coefficients");
    let f_lo: &[[f64; L]; 64] = f_lo.first_chunk().expect("f_lo: 64 coefficients");
    let f_hi: &[[f64; L]; 64] = f_hi.first_chunk().expect("f_hi: 64 coefficients");
    let out_lo: &mut [[f64; L]; 64] = out_lo.first_chunk_mut().expect("out_lo: 64 coefficients");
    let out_hi: &mut [[f64; L]; 64] = out_hi.first_chunk_mut().expect("out_hi: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 32];
    let mut lam = [0.0f64; L];
    for k in 0..L {
        alpha[0][k] = -nu * vstar * 5.656854249492381;
        alpha[0][k] += nu * 2.0 * u[0][k];
        alpha[3][k] += nu * 2.0 * u[1][k];
        alpha[4][k] += nu * 2.0 * u[2][k];
        alpha[5][k] += nu * 2.0 * u[3][k];
        alpha[11][k] += nu * 2.0 * u[4][k];
        alpha[14][k] += nu * 2.0 * u[5][k];
        alpha[15][k] += nu * 2.0 * u[6][k];
        alpha[25][k] += nu * 2.0 * u[7][k];
        lam[k] = alpha[0][k].abs() * 0.17677669529663692 + alpha[3][k].abs() * 0.30618621784789735 + alpha[4][k].abs() * 0.30618621784789735 + alpha[5][k].abs() * 0.30618621784789735 + alpha[11][k].abs() * 0.5303300858899107 + alpha[14][k].abs() * 0.5303300858899107 + alpha[15][k].abs() * 0.5303300858899107 + alpha[25][k].abs() * 0.9185586535436917;
    }
    let mut fm = [[0.0f64; L]; 32];
    let mut fp = [[0.0f64; L]; 32];
    for k in 0..L {
        fm[0][k] += 0.7071067811865476 * f_lo[0][k];
        fm[0][k] += 1.224744871391589 * f_lo[1][k];
    }
    sxn(&mut fm[1], 0.7071067811865476, &f_lo[2]);
    sxn(&mut fm[2], 0.7071067811865476, &f_lo[3]);
    sxn(&mut fm[3], 0.7071067811865476, &f_lo[4]);
    sxn(&mut fm[4], 0.7071067811865476, &f_lo[5]);
    sxn(&mut fm[5], 0.7071067811865476, &f_lo[6]);
    sxn(&mut fm[1], 1.224744871391589, &f_lo[7]);
    sxn(&mut fm[2], 1.224744871391589, &f_lo[8]);
    sxn(&mut fm[6], 0.7071067811865476, &f_lo[9]);
    sxn(&mut fm[3], 1.224744871391589, &f_lo[10]);
    sxn(&mut fm[7], 0.7071067811865476, &f_lo[11]);
    sxn(&mut fm[8], 0.7071067811865476, &f_lo[12]);
    sxn(&mut fm[4], 1.224744871391589, &f_lo[13]);
    sxn(&mut fm[9], 0.7071067811865476, &f_lo[14]);
    sxn(&mut fm[10], 0.7071067811865476, &f_lo[15]);
    sxn(&mut fm[11], 0.7071067811865476, &f_lo[16]);
    sxn(&mut fm[5], 1.224744871391589, &f_lo[17]);
    sxn(&mut fm[12], 0.7071067811865476, &f_lo[18]);
    sxn(&mut fm[13], 0.7071067811865476, &f_lo[19]);
    sxn(&mut fm[14], 0.7071067811865476, &f_lo[20]);
    sxn(&mut fm[15], 0.7071067811865476, &f_lo[21]);
    sxn(&mut fm[6], 1.224744871391589, &f_lo[22]);
    sxn(&mut fm[7], 1.224744871391589, &f_lo[23]);
    sxn(&mut fm[8], 1.224744871391589, &f_lo[24]);
    sxn(&mut fm[16], 0.7071067811865476, &f_lo[25]);
    sxn(&mut fm[9], 1.224744871391589, &f_lo[26]);
    sxn(&mut fm[10], 1.224744871391589, &f_lo[27]);
    sxn(&mut fm[17], 0.7071067811865476, &f_lo[28]);
    sxn(&mut fm[11], 1.224744871391589, &f_lo[29]);
    sxn(&mut fm[18], 0.7071067811865476, &f_lo[30]);
    sxn(&mut fm[19], 0.7071067811865476, &f_lo[31]);
    sxn(&mut fm[12], 1.224744871391589, &f_lo[32]);
    sxn(&mut fm[13], 1.224744871391589, &f_lo[33]);
    sxn(&mut fm[20], 0.7071067811865476, &f_lo[34]);
    sxn(&mut fm[14], 1.224744871391589, &f_lo[35]);
    sxn(&mut fm[21], 0.7071067811865476, &f_lo[36]);
    sxn(&mut fm[22], 0.7071067811865476, &f_lo[37]);
    sxn(&mut fm[15], 1.224744871391589, &f_lo[38]);
    sxn(&mut fm[23], 0.7071067811865476, &f_lo[39]);
    sxn(&mut fm[24], 0.7071067811865476, &f_lo[40]);
    sxn(&mut fm[25], 0.7071067811865476, &f_lo[41]);
    sxn(&mut fm[16], 1.224744871391589, &f_lo[42]);
    sxn(&mut fm[17], 1.224744871391589, &f_lo[43]);
    sxn(&mut fm[18], 1.224744871391589, &f_lo[44]);
    sxn(&mut fm[19], 1.224744871391589, &f_lo[45]);
    sxn(&mut fm[26], 0.7071067811865476, &f_lo[46]);
    sxn(&mut fm[20], 1.224744871391589, &f_lo[47]);
    sxn(&mut fm[21], 1.224744871391589, &f_lo[48]);
    sxn(&mut fm[22], 1.224744871391589, &f_lo[49]);
    sxn(&mut fm[27], 0.7071067811865476, &f_lo[50]);
    sxn(&mut fm[23], 1.224744871391589, &f_lo[51]);
    sxn(&mut fm[24], 1.224744871391589, &f_lo[52]);
    sxn(&mut fm[28], 0.7071067811865476, &f_lo[53]);
    sxn(&mut fm[25], 1.224744871391589, &f_lo[54]);
    sxn(&mut fm[29], 0.7071067811865476, &f_lo[55]);
    sxn(&mut fm[30], 0.7071067811865476, &f_lo[56]);
    sxn(&mut fm[26], 1.224744871391589, &f_lo[57]);
    sxn(&mut fm[27], 1.224744871391589, &f_lo[58]);
    sxn(&mut fm[28], 1.224744871391589, &f_lo[59]);
    sxn(&mut fm[29], 1.224744871391589, &f_lo[60]);
    sxn(&mut fm[30], 1.224744871391589, &f_lo[61]);
    for k in 0..L {
        fm[31][k] += 0.7071067811865476 * f_lo[62][k];
        fm[31][k] += 1.224744871391589 * f_lo[63][k];
    }
    for k in 0..L {
        fp[0][k] += 0.7071067811865476 * f_hi[0][k];
        fp[0][k] += -1.224744871391589 * f_hi[1][k];
    }
    sxn(&mut fp[1], 0.7071067811865476, &f_hi[2]);
    sxn(&mut fp[2], 0.7071067811865476, &f_hi[3]);
    sxn(&mut fp[3], 0.7071067811865476, &f_hi[4]);
    sxn(&mut fp[4], 0.7071067811865476, &f_hi[5]);
    sxn(&mut fp[5], 0.7071067811865476, &f_hi[6]);
    sxn(&mut fp[1], -1.224744871391589, &f_hi[7]);
    sxn(&mut fp[2], -1.224744871391589, &f_hi[8]);
    sxn(&mut fp[6], 0.7071067811865476, &f_hi[9]);
    sxn(&mut fp[3], -1.224744871391589, &f_hi[10]);
    sxn(&mut fp[7], 0.7071067811865476, &f_hi[11]);
    sxn(&mut fp[8], 0.7071067811865476, &f_hi[12]);
    sxn(&mut fp[4], -1.224744871391589, &f_hi[13]);
    sxn(&mut fp[9], 0.7071067811865476, &f_hi[14]);
    sxn(&mut fp[10], 0.7071067811865476, &f_hi[15]);
    sxn(&mut fp[11], 0.7071067811865476, &f_hi[16]);
    sxn(&mut fp[5], -1.224744871391589, &f_hi[17]);
    sxn(&mut fp[12], 0.7071067811865476, &f_hi[18]);
    sxn(&mut fp[13], 0.7071067811865476, &f_hi[19]);
    sxn(&mut fp[14], 0.7071067811865476, &f_hi[20]);
    sxn(&mut fp[15], 0.7071067811865476, &f_hi[21]);
    sxn(&mut fp[6], -1.224744871391589, &f_hi[22]);
    sxn(&mut fp[7], -1.224744871391589, &f_hi[23]);
    sxn(&mut fp[8], -1.224744871391589, &f_hi[24]);
    sxn(&mut fp[16], 0.7071067811865476, &f_hi[25]);
    sxn(&mut fp[9], -1.224744871391589, &f_hi[26]);
    sxn(&mut fp[10], -1.224744871391589, &f_hi[27]);
    sxn(&mut fp[17], 0.7071067811865476, &f_hi[28]);
    sxn(&mut fp[11], -1.224744871391589, &f_hi[29]);
    sxn(&mut fp[18], 0.7071067811865476, &f_hi[30]);
    sxn(&mut fp[19], 0.7071067811865476, &f_hi[31]);
    sxn(&mut fp[12], -1.224744871391589, &f_hi[32]);
    sxn(&mut fp[13], -1.224744871391589, &f_hi[33]);
    sxn(&mut fp[20], 0.7071067811865476, &f_hi[34]);
    sxn(&mut fp[14], -1.224744871391589, &f_hi[35]);
    sxn(&mut fp[21], 0.7071067811865476, &f_hi[36]);
    sxn(&mut fp[22], 0.7071067811865476, &f_hi[37]);
    sxn(&mut fp[15], -1.224744871391589, &f_hi[38]);
    sxn(&mut fp[23], 0.7071067811865476, &f_hi[39]);
    sxn(&mut fp[24], 0.7071067811865476, &f_hi[40]);
    sxn(&mut fp[25], 0.7071067811865476, &f_hi[41]);
    sxn(&mut fp[16], -1.224744871391589, &f_hi[42]);
    sxn(&mut fp[17], -1.224744871391589, &f_hi[43]);
    sxn(&mut fp[18], -1.224744871391589, &f_hi[44]);
    sxn(&mut fp[19], -1.224744871391589, &f_hi[45]);
    sxn(&mut fp[26], 0.7071067811865476, &f_hi[46]);
    sxn(&mut fp[20], -1.224744871391589, &f_hi[47]);
    sxn(&mut fp[21], -1.224744871391589, &f_hi[48]);
    sxn(&mut fp[22], -1.224744871391589, &f_hi[49]);
    sxn(&mut fp[27], 0.7071067811865476, &f_hi[50]);
    sxn(&mut fp[23], -1.224744871391589, &f_hi[51]);
    sxn(&mut fp[24], -1.224744871391589, &f_hi[52]);
    sxn(&mut fp[28], 0.7071067811865476, &f_hi[53]);
    sxn(&mut fp[25], -1.224744871391589, &f_hi[54]);
    sxn(&mut fp[29], 0.7071067811865476, &f_hi[55]);
    sxn(&mut fp[30], 0.7071067811865476, &f_hi[56]);
    sxn(&mut fp[26], -1.224744871391589, &f_hi[57]);
    sxn(&mut fp[27], -1.224744871391589, &f_hi[58]);
    sxn(&mut fp[28], -1.224744871391589, &f_hi[59]);
    sxn(&mut fp[29], -1.224744871391589, &f_hi[60]);
    sxn(&mut fp[30], -1.224744871391589, &f_hi[61]);
    for k in 0..L {
        fp[31][k] += 0.7071067811865476 * f_hi[62][k];
        fp[31][k] += -1.224744871391589 * f_hi[63][k];
    }
    let mut favg = [[0.0f64; L]; 32];
    let mut ghat = [[0.0f64; L]; 32];
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
        favg[8][k] = 0.5 * (fm[8][k] + fp[8][k]);
        ghat[8][k] = -0.5 * lam[k] * (fp[8][k] - fm[8][k]);
        favg[9][k] = 0.5 * (fm[9][k] + fp[9][k]);
        ghat[9][k] = -0.5 * lam[k] * (fp[9][k] - fm[9][k]);
        favg[10][k] = 0.5 * (fm[10][k] + fp[10][k]);
        ghat[10][k] = -0.5 * lam[k] * (fp[10][k] - fm[10][k]);
        favg[11][k] = 0.5 * (fm[11][k] + fp[11][k]);
        ghat[11][k] = -0.5 * lam[k] * (fp[11][k] - fm[11][k]);
        favg[12][k] = 0.5 * (fm[12][k] + fp[12][k]);
        ghat[12][k] = -0.5 * lam[k] * (fp[12][k] - fm[12][k]);
        favg[13][k] = 0.5 * (fm[13][k] + fp[13][k]);
        ghat[13][k] = -0.5 * lam[k] * (fp[13][k] - fm[13][k]);
        favg[14][k] = 0.5 * (fm[14][k] + fp[14][k]);
        ghat[14][k] = -0.5 * lam[k] * (fp[14][k] - fm[14][k]);
        favg[15][k] = 0.5 * (fm[15][k] + fp[15][k]);
        ghat[15][k] = -0.5 * lam[k] * (fp[15][k] - fm[15][k]);
        favg[16][k] = 0.5 * (fm[16][k] + fp[16][k]);
        ghat[16][k] = -0.5 * lam[k] * (fp[16][k] - fm[16][k]);
        favg[17][k] = 0.5 * (fm[17][k] + fp[17][k]);
        ghat[17][k] = -0.5 * lam[k] * (fp[17][k] - fm[17][k]);
        favg[18][k] = 0.5 * (fm[18][k] + fp[18][k]);
        ghat[18][k] = -0.5 * lam[k] * (fp[18][k] - fm[18][k]);
        favg[19][k] = 0.5 * (fm[19][k] + fp[19][k]);
        ghat[19][k] = -0.5 * lam[k] * (fp[19][k] - fm[19][k]);
        favg[20][k] = 0.5 * (fm[20][k] + fp[20][k]);
        ghat[20][k] = -0.5 * lam[k] * (fp[20][k] - fm[20][k]);
        favg[21][k] = 0.5 * (fm[21][k] + fp[21][k]);
        ghat[21][k] = -0.5 * lam[k] * (fp[21][k] - fm[21][k]);
        favg[22][k] = 0.5 * (fm[22][k] + fp[22][k]);
        ghat[22][k] = -0.5 * lam[k] * (fp[22][k] - fm[22][k]);
        favg[23][k] = 0.5 * (fm[23][k] + fp[23][k]);
        ghat[23][k] = -0.5 * lam[k] * (fp[23][k] - fm[23][k]);
        favg[24][k] = 0.5 * (fm[24][k] + fp[24][k]);
        ghat[24][k] = -0.5 * lam[k] * (fp[24][k] - fm[24][k]);
        favg[25][k] = 0.5 * (fm[25][k] + fp[25][k]);
        ghat[25][k] = -0.5 * lam[k] * (fp[25][k] - fm[25][k]);
        favg[26][k] = 0.5 * (fm[26][k] + fp[26][k]);
        ghat[26][k] = -0.5 * lam[k] * (fp[26][k] - fm[26][k]);
        favg[27][k] = 0.5 * (fm[27][k] + fp[27][k]);
        ghat[27][k] = -0.5 * lam[k] * (fp[27][k] - fm[27][k]);
        favg[28][k] = 0.5 * (fm[28][k] + fp[28][k]);
        ghat[28][k] = -0.5 * lam[k] * (fp[28][k] - fm[28][k]);
        favg[29][k] = 0.5 * (fm[29][k] + fp[29][k]);
        ghat[29][k] = -0.5 * lam[k] * (fp[29][k] - fm[29][k]);
        favg[30][k] = 0.5 * (fm[30][k] + fp[30][k]);
        ghat[30][k] = -0.5 * lam[k] * (fp[30][k] - fm[30][k]);
        favg[31][k] = 0.5 * (fm[31][k] + fp[31][k]);
        ghat[31][k] = -0.5 * lam[k] * (fp[31][k] - fm[31][k]);
    }
    for k in 0..L {
        ghat[0][k] += 0.1767766952966369 * alpha[0][k] * favg[0][k];
        ghat[0][k] += 0.17677669529663687 * alpha[3][k] * favg[3][k];
        ghat[0][k] += 0.17677669529663687 * alpha[4][k] * favg[4][k];
        ghat[0][k] += 0.17677669529663687 * alpha[5][k] * favg[5][k];
        ghat[0][k] += 0.17677669529663687 * alpha[11][k] * favg[11][k];
        ghat[0][k] += 0.17677669529663687 * alpha[14][k] * favg[14][k];
        ghat[0][k] += 0.17677669529663687 * alpha[15][k] * favg[15][k];
        ghat[0][k] += 0.1767766952966369 * alpha[25][k] * favg[25][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.17677669529663687 * alpha[0][k] * favg[1][k];
        ghat[1][k] += 0.17677669529663687 * alpha[3][k] * favg[7][k];
        ghat[1][k] += 0.17677669529663687 * alpha[4][k] * favg[9][k];
        ghat[1][k] += 0.17677669529663687 * alpha[5][k] * favg[12][k];
        ghat[1][k] += 0.1767766952966369 * alpha[11][k] * favg[18][k];
        ghat[1][k] += 0.1767766952966369 * alpha[14][k] * favg[21][k];
        ghat[1][k] += 0.1767766952966369 * alpha[15][k] * favg[23][k];
        ghat[1][k] += 0.17677669529663687 * alpha[25][k] * favg[29][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.17677669529663687 * alpha[0][k] * favg[2][k];
        ghat[2][k] += 0.17677669529663687 * alpha[3][k] * favg[8][k];
        ghat[2][k] += 0.17677669529663687 * alpha[4][k] * favg[10][k];
        ghat[2][k] += 0.17677669529663687 * alpha[5][k] * favg[13][k];
        ghat[2][k] += 0.1767766952966369 * alpha[11][k] * favg[19][k];
        ghat[2][k] += 0.1767766952966369 * alpha[14][k] * favg[22][k];
        ghat[2][k] += 0.1767766952966369 * alpha[15][k] * favg[24][k];
        ghat[2][k] += 0.17677669529663687 * alpha[25][k] * favg[30][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.17677669529663687 * alpha[0][k] * favg[3][k];
        ghat[3][k] += 0.17677669529663687 * alpha[3][k] * favg[0][k];
        ghat[3][k] += 0.17677669529663687 * alpha[4][k] * favg[11][k];
        ghat[3][k] += 0.17677669529663687 * alpha[5][k] * favg[14][k];
        ghat[3][k] += 0.17677669529663687 * alpha[11][k] * favg[4][k];
        ghat[3][k] += 0.17677669529663687 * alpha[14][k] * favg[5][k];
        ghat[3][k] += 0.1767766952966369 * alpha[15][k] * favg[25][k];
        ghat[3][k] += 0.1767766952966369 * alpha[25][k] * favg[15][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.17677669529663687 * alpha[0][k] * favg[4][k];
        ghat[4][k] += 0.17677669529663687 * alpha[3][k] * favg[11][k];
        ghat[4][k] += 0.17677669529663687 * alpha[4][k] * favg[0][k];
        ghat[4][k] += 0.17677669529663687 * alpha[5][k] * favg[15][k];
        ghat[4][k] += 0.17677669529663687 * alpha[11][k] * favg[3][k];
        ghat[4][k] += 0.1767766952966369 * alpha[14][k] * favg[25][k];
        ghat[4][k] += 0.17677669529663687 * alpha[15][k] * favg[5][k];
        ghat[4][k] += 0.1767766952966369 * alpha[25][k] * favg[14][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.17677669529663687 * alpha[0][k] * favg[5][k];
        ghat[5][k] += 0.17677669529663687 * alpha[3][k] * favg[14][k];
        ghat[5][k] += 0.17677669529663687 * alpha[4][k] * favg[15][k];
        ghat[5][k] += 0.17677669529663687 * alpha[5][k] * favg[0][k];
        ghat[5][k] += 0.1767766952966369 * alpha[11][k] * favg[25][k];
        ghat[5][k] += 0.17677669529663687 * alpha[14][k] * favg[3][k];
        ghat[5][k] += 0.17677669529663687 * alpha[15][k] * favg[4][k];
        ghat[5][k] += 0.1767766952966369 * alpha[25][k] * favg[11][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.17677669529663687 * alpha[0][k] * favg[6][k];
        ghat[6][k] += 0.1767766952966369 * alpha[3][k] * favg[16][k];
        ghat[6][k] += 0.1767766952966369 * alpha[4][k] * favg[17][k];
        ghat[6][k] += 0.1767766952966369 * alpha[5][k] * favg[20][k];
        ghat[6][k] += 0.17677669529663687 * alpha[11][k] * favg[26][k];
        ghat[6][k] += 0.17677669529663687 * alpha[14][k] * favg[27][k];
        ghat[6][k] += 0.17677669529663687 * alpha[15][k] * favg[28][k];
        ghat[6][k] += 0.1767766952966369 * alpha[25][k] * favg[31][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.17677669529663687 * alpha[0][k] * favg[7][k];
        ghat[7][k] += 0.17677669529663687 * alpha[3][k] * favg[1][k];
        ghat[7][k] += 0.1767766952966369 * alpha[4][k] * favg[18][k];
        ghat[7][k] += 0.1767766952966369 * alpha[5][k] * favg[21][k];
        ghat[7][k] += 0.1767766952966369 * alpha[11][k] * favg[9][k];
        ghat[7][k] += 0.1767766952966369 * alpha[14][k] * favg[12][k];
        ghat[7][k] += 0.17677669529663687 * alpha[15][k] * favg[29][k];
        ghat[7][k] += 0.17677669529663687 * alpha[25][k] * favg[23][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.17677669529663687 * alpha[0][k] * favg[8][k];
        ghat[8][k] += 0.17677669529663687 * alpha[3][k] * favg[2][k];
        ghat[8][k] += 0.1767766952966369 * alpha[4][k] * favg[19][k];
        ghat[8][k] += 0.1767766952966369 * alpha[5][k] * favg[22][k];
        ghat[8][k] += 0.1767766952966369 * alpha[11][k] * favg[10][k];
        ghat[8][k] += 0.1767766952966369 * alpha[14][k] * favg[13][k];
        ghat[8][k] += 0.17677669529663687 * alpha[15][k] * favg[30][k];
        ghat[8][k] += 0.17677669529663687 * alpha[25][k] * favg[24][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.17677669529663687 * alpha[0][k] * favg[9][k];
        ghat[9][k] += 0.1767766952966369 * alpha[3][k] * favg[18][k];
        ghat[9][k] += 0.17677669529663687 * alpha[4][k] * favg[1][k];
        ghat[9][k] += 0.1767766952966369 * alpha[5][k] * favg[23][k];
        ghat[9][k] += 0.1767766952966369 * alpha[11][k] * favg[7][k];
        ghat[9][k] += 0.17677669529663687 * alpha[14][k] * favg[29][k];
        ghat[9][k] += 0.1767766952966369 * alpha[15][k] * favg[12][k];
        ghat[9][k] += 0.17677669529663687 * alpha[25][k] * favg[21][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.17677669529663687 * alpha[0][k] * favg[10][k];
        ghat[10][k] += 0.1767766952966369 * alpha[3][k] * favg[19][k];
        ghat[10][k] += 0.17677669529663687 * alpha[4][k] * favg[2][k];
        ghat[10][k] += 0.1767766952966369 * alpha[5][k] * favg[24][k];
        ghat[10][k] += 0.1767766952966369 * alpha[11][k] * favg[8][k];
        ghat[10][k] += 0.17677669529663687 * alpha[14][k] * favg[30][k];
        ghat[10][k] += 0.1767766952966369 * alpha[15][k] * favg[13][k];
        ghat[10][k] += 0.17677669529663687 * alpha[25][k] * favg[22][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.17677669529663687 * alpha[0][k] * favg[11][k];
        ghat[11][k] += 0.17677669529663687 * alpha[3][k] * favg[4][k];
        ghat[11][k] += 0.17677669529663687 * alpha[4][k] * favg[3][k];
        ghat[11][k] += 0.1767766952966369 * alpha[5][k] * favg[25][k];
        ghat[11][k] += 0.17677669529663687 * alpha[11][k] * favg[0][k];
        ghat[11][k] += 0.1767766952966369 * alpha[14][k] * favg[15][k];
        ghat[11][k] += 0.1767766952966369 * alpha[15][k] * favg[14][k];
        ghat[11][k] += 0.1767766952966369 * alpha[25][k] * favg[5][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.17677669529663687 * alpha[0][k] * favg[12][k];
        ghat[12][k] += 0.1767766952966369 * alpha[3][k] * favg[21][k];
        ghat[12][k] += 0.1767766952966369 * alpha[4][k] * favg[23][k];
        ghat[12][k] += 0.17677669529663687 * alpha[5][k] * favg[1][k];
        ghat[12][k] += 0.17677669529663687 * alpha[11][k] * favg[29][k];
        ghat[12][k] += 0.1767766952966369 * alpha[14][k] * favg[7][k];
        ghat[12][k] += 0.1767766952966369 * alpha[15][k] * favg[9][k];
        ghat[12][k] += 0.17677669529663687 * alpha[25][k] * favg[18][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.17677669529663687 * alpha[0][k] * favg[13][k];
        ghat[13][k] += 0.1767766952966369 * alpha[3][k] * favg[22][k];
        ghat[13][k] += 0.1767766952966369 * alpha[4][k] * favg[24][k];
        ghat[13][k] += 0.17677669529663687 * alpha[5][k] * favg[2][k];
        ghat[13][k] += 0.17677669529663687 * alpha[11][k] * favg[30][k];
        ghat[13][k] += 0.1767766952966369 * alpha[14][k] * favg[8][k];
        ghat[13][k] += 0.1767766952966369 * alpha[15][k] * favg[10][k];
        ghat[13][k] += 0.17677669529663687 * alpha[25][k] * favg[19][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.17677669529663687 * alpha[0][k] * favg[14][k];
        ghat[14][k] += 0.17677669529663687 * alpha[3][k] * favg[5][k];
        ghat[14][k] += 0.1767766952966369 * alpha[4][k] * favg[25][k];
        ghat[14][k] += 0.17677669529663687 * alpha[5][k] * favg[3][k];
        ghat[14][k] += 0.1767766952966369 * alpha[11][k] * favg[15][k];
        ghat[14][k] += 0.17677669529663687 * alpha[14][k] * favg[0][k];
        ghat[14][k] += 0.1767766952966369 * alpha[15][k] * favg[11][k];
        ghat[14][k] += 0.1767766952966369 * alpha[25][k] * favg[4][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.17677669529663687 * alpha[0][k] * favg[15][k];
        ghat[15][k] += 0.1767766952966369 * alpha[3][k] * favg[25][k];
        ghat[15][k] += 0.17677669529663687 * alpha[4][k] * favg[5][k];
        ghat[15][k] += 0.17677669529663687 * alpha[5][k] * favg[4][k];
        ghat[15][k] += 0.1767766952966369 * alpha[11][k] * favg[14][k];
        ghat[15][k] += 0.1767766952966369 * alpha[14][k] * favg[11][k];
        ghat[15][k] += 0.17677669529663687 * alpha[15][k] * favg[0][k];
        ghat[15][k] += 0.1767766952966369 * alpha[25][k] * favg[3][k];
    }
    for k in 0..L {
        ghat[16][k] += 0.1767766952966369 * alpha[0][k] * favg[16][k];
        ghat[16][k] += 0.1767766952966369 * alpha[3][k] * favg[6][k];
        ghat[16][k] += 0.17677669529663687 * alpha[4][k] * favg[26][k];
        ghat[16][k] += 0.17677669529663687 * alpha[5][k] * favg[27][k];
        ghat[16][k] += 0.17677669529663687 * alpha[11][k] * favg[17][k];
        ghat[16][k] += 0.17677669529663687 * alpha[14][k] * favg[20][k];
        ghat[16][k] += 0.1767766952966369 * alpha[15][k] * favg[31][k];
        ghat[16][k] += 0.1767766952966369 * alpha[25][k] * favg[28][k];
    }
    for k in 0..L {
        ghat[17][k] += 0.1767766952966369 * alpha[0][k] * favg[17][k];
        ghat[17][k] += 0.17677669529663687 * alpha[3][k] * favg[26][k];
        ghat[17][k] += 0.1767766952966369 * alpha[4][k] * favg[6][k];
        ghat[17][k] += 0.17677669529663687 * alpha[5][k] * favg[28][k];
        ghat[17][k] += 0.17677669529663687 * alpha[11][k] * favg[16][k];
        ghat[17][k] += 0.1767766952966369 * alpha[14][k] * favg[31][k];
        ghat[17][k] += 0.17677669529663687 * alpha[15][k] * favg[20][k];
        ghat[17][k] += 0.1767766952966369 * alpha[25][k] * favg[27][k];
    }
    for k in 0..L {
        ghat[18][k] += 0.1767766952966369 * alpha[0][k] * favg[18][k];
        ghat[18][k] += 0.1767766952966369 * alpha[3][k] * favg[9][k];
        ghat[18][k] += 0.1767766952966369 * alpha[4][k] * favg[7][k];
        ghat[18][k] += 0.17677669529663687 * alpha[5][k] * favg[29][k];
        ghat[18][k] += 0.1767766952966369 * alpha[11][k] * favg[1][k];
        ghat[18][k] += 0.17677669529663687 * alpha[14][k] * favg[23][k];
        ghat[18][k] += 0.17677669529663687 * alpha[15][k] * favg[21][k];
        ghat[18][k] += 0.17677669529663687 * alpha[25][k] * favg[12][k];
    }
    for k in 0..L {
        ghat[19][k] += 0.1767766952966369 * alpha[0][k] * favg[19][k];
        ghat[19][k] += 0.1767766952966369 * alpha[3][k] * favg[10][k];
        ghat[19][k] += 0.1767766952966369 * alpha[4][k] * favg[8][k];
        ghat[19][k] += 0.17677669529663687 * alpha[5][k] * favg[30][k];
        ghat[19][k] += 0.1767766952966369 * alpha[11][k] * favg[2][k];
        ghat[19][k] += 0.17677669529663687 * alpha[14][k] * favg[24][k];
        ghat[19][k] += 0.17677669529663687 * alpha[15][k] * favg[22][k];
        ghat[19][k] += 0.17677669529663687 * alpha[25][k] * favg[13][k];
    }
    for k in 0..L {
        ghat[20][k] += 0.1767766952966369 * alpha[0][k] * favg[20][k];
        ghat[20][k] += 0.17677669529663687 * alpha[3][k] * favg[27][k];
        ghat[20][k] += 0.17677669529663687 * alpha[4][k] * favg[28][k];
        ghat[20][k] += 0.1767766952966369 * alpha[5][k] * favg[6][k];
        ghat[20][k] += 0.1767766952966369 * alpha[11][k] * favg[31][k];
        ghat[20][k] += 0.17677669529663687 * alpha[14][k] * favg[16][k];
        ghat[20][k] += 0.17677669529663687 * alpha[15][k] * favg[17][k];
        ghat[20][k] += 0.1767766952966369 * alpha[25][k] * favg[26][k];
    }
    for k in 0..L {
        ghat[21][k] += 0.1767766952966369 * alpha[0][k] * favg[21][k];
        ghat[21][k] += 0.1767766952966369 * alpha[3][k] * favg[12][k];
        ghat[21][k] += 0.17677669529663687 * alpha[4][k] * favg[29][k];
        ghat[21][k] += 0.1767766952966369 * alpha[5][k] * favg[7][k];
        ghat[21][k] += 0.17677669529663687 * alpha[11][k] * favg[23][k];
        ghat[21][k] += 0.1767766952966369 * alpha[14][k] * favg[1][k];
        ghat[21][k] += 0.17677669529663687 * alpha[15][k] * favg[18][k];
        ghat[21][k] += 0.17677669529663687 * alpha[25][k] * favg[9][k];
    }
    for k in 0..L {
        ghat[22][k] += 0.1767766952966369 * alpha[0][k] * favg[22][k];
        ghat[22][k] += 0.1767766952966369 * alpha[3][k] * favg[13][k];
        ghat[22][k] += 0.17677669529663687 * alpha[4][k] * favg[30][k];
        ghat[22][k] += 0.1767766952966369 * alpha[5][k] * favg[8][k];
        ghat[22][k] += 0.17677669529663687 * alpha[11][k] * favg[24][k];
        ghat[22][k] += 0.1767766952966369 * alpha[14][k] * favg[2][k];
        ghat[22][k] += 0.17677669529663687 * alpha[15][k] * favg[19][k];
        ghat[22][k] += 0.17677669529663687 * alpha[25][k] * favg[10][k];
    }
    for k in 0..L {
        ghat[23][k] += 0.1767766952966369 * alpha[0][k] * favg[23][k];
        ghat[23][k] += 0.17677669529663687 * alpha[3][k] * favg[29][k];
        ghat[23][k] += 0.1767766952966369 * alpha[4][k] * favg[12][k];
        ghat[23][k] += 0.1767766952966369 * alpha[5][k] * favg[9][k];
        ghat[23][k] += 0.17677669529663687 * alpha[11][k] * favg[21][k];
        ghat[23][k] += 0.17677669529663687 * alpha[14][k] * favg[18][k];
        ghat[23][k] += 0.1767766952966369 * alpha[15][k] * favg[1][k];
        ghat[23][k] += 0.17677669529663687 * alpha[25][k] * favg[7][k];
    }
    for k in 0..L {
        ghat[24][k] += 0.1767766952966369 * alpha[0][k] * favg[24][k];
        ghat[24][k] += 0.17677669529663687 * alpha[3][k] * favg[30][k];
        ghat[24][k] += 0.1767766952966369 * alpha[4][k] * favg[13][k];
        ghat[24][k] += 0.1767766952966369 * alpha[5][k] * favg[10][k];
        ghat[24][k] += 0.17677669529663687 * alpha[11][k] * favg[22][k];
        ghat[24][k] += 0.17677669529663687 * alpha[14][k] * favg[19][k];
        ghat[24][k] += 0.1767766952966369 * alpha[15][k] * favg[2][k];
        ghat[24][k] += 0.17677669529663687 * alpha[25][k] * favg[8][k];
    }
    for k in 0..L {
        ghat[25][k] += 0.1767766952966369 * alpha[0][k] * favg[25][k];
        ghat[25][k] += 0.1767766952966369 * alpha[3][k] * favg[15][k];
        ghat[25][k] += 0.1767766952966369 * alpha[4][k] * favg[14][k];
        ghat[25][k] += 0.1767766952966369 * alpha[5][k] * favg[11][k];
        ghat[25][k] += 0.1767766952966369 * alpha[11][k] * favg[5][k];
        ghat[25][k] += 0.1767766952966369 * alpha[14][k] * favg[4][k];
        ghat[25][k] += 0.1767766952966369 * alpha[15][k] * favg[3][k];
        ghat[25][k] += 0.1767766952966369 * alpha[25][k] * favg[0][k];
    }
    for k in 0..L {
        ghat[26][k] += 0.17677669529663687 * alpha[0][k] * favg[26][k];
        ghat[26][k] += 0.17677669529663687 * alpha[3][k] * favg[17][k];
        ghat[26][k] += 0.17677669529663687 * alpha[4][k] * favg[16][k];
        ghat[26][k] += 0.1767766952966369 * alpha[5][k] * favg[31][k];
        ghat[26][k] += 0.17677669529663687 * alpha[11][k] * favg[6][k];
        ghat[26][k] += 0.1767766952966369 * alpha[14][k] * favg[28][k];
        ghat[26][k] += 0.1767766952966369 * alpha[15][k] * favg[27][k];
        ghat[26][k] += 0.1767766952966369 * alpha[25][k] * favg[20][k];
    }
    for k in 0..L {
        ghat[27][k] += 0.17677669529663687 * alpha[0][k] * favg[27][k];
        ghat[27][k] += 0.17677669529663687 * alpha[3][k] * favg[20][k];
        ghat[27][k] += 0.1767766952966369 * alpha[4][k] * favg[31][k];
        ghat[27][k] += 0.17677669529663687 * alpha[5][k] * favg[16][k];
        ghat[27][k] += 0.1767766952966369 * alpha[11][k] * favg[28][k];
        ghat[27][k] += 0.17677669529663687 * alpha[14][k] * favg[6][k];
        ghat[27][k] += 0.1767766952966369 * alpha[15][k] * favg[26][k];
        ghat[27][k] += 0.1767766952966369 * alpha[25][k] * favg[17][k];
    }
    for k in 0..L {
        ghat[28][k] += 0.17677669529663687 * alpha[0][k] * favg[28][k];
        ghat[28][k] += 0.1767766952966369 * alpha[3][k] * favg[31][k];
        ghat[28][k] += 0.17677669529663687 * alpha[4][k] * favg[20][k];
        ghat[28][k] += 0.17677669529663687 * alpha[5][k] * favg[17][k];
        ghat[28][k] += 0.1767766952966369 * alpha[11][k] * favg[27][k];
        ghat[28][k] += 0.1767766952966369 * alpha[14][k] * favg[26][k];
        ghat[28][k] += 0.17677669529663687 * alpha[15][k] * favg[6][k];
        ghat[28][k] += 0.1767766952966369 * alpha[25][k] * favg[16][k];
    }
    for k in 0..L {
        ghat[29][k] += 0.17677669529663687 * alpha[0][k] * favg[29][k];
        ghat[29][k] += 0.17677669529663687 * alpha[3][k] * favg[23][k];
        ghat[29][k] += 0.17677669529663687 * alpha[4][k] * favg[21][k];
        ghat[29][k] += 0.17677669529663687 * alpha[5][k] * favg[18][k];
        ghat[29][k] += 0.17677669529663687 * alpha[11][k] * favg[12][k];
        ghat[29][k] += 0.17677669529663687 * alpha[14][k] * favg[9][k];
        ghat[29][k] += 0.17677669529663687 * alpha[15][k] * favg[7][k];
        ghat[29][k] += 0.17677669529663687 * alpha[25][k] * favg[1][k];
    }
    for k in 0..L {
        ghat[30][k] += 0.17677669529663687 * alpha[0][k] * favg[30][k];
        ghat[30][k] += 0.17677669529663687 * alpha[3][k] * favg[24][k];
        ghat[30][k] += 0.17677669529663687 * alpha[4][k] * favg[22][k];
        ghat[30][k] += 0.17677669529663687 * alpha[5][k] * favg[19][k];
        ghat[30][k] += 0.17677669529663687 * alpha[11][k] * favg[13][k];
        ghat[30][k] += 0.17677669529663687 * alpha[14][k] * favg[10][k];
        ghat[30][k] += 0.17677669529663687 * alpha[15][k] * favg[8][k];
        ghat[30][k] += 0.17677669529663687 * alpha[25][k] * favg[2][k];
    }
    for k in 0..L {
        ghat[31][k] += 0.1767766952966369 * alpha[0][k] * favg[31][k];
        ghat[31][k] += 0.1767766952966369 * alpha[3][k] * favg[28][k];
        ghat[31][k] += 0.1767766952966369 * alpha[4][k] * favg[27][k];
        ghat[31][k] += 0.1767766952966369 * alpha[5][k] * favg[26][k];
        ghat[31][k] += 0.1767766952966369 * alpha[11][k] * favg[20][k];
        ghat[31][k] += 0.1767766952966369 * alpha[14][k] * favg[17][k];
        ghat[31][k] += 0.1767766952966369 * alpha[15][k] * favg[16][k];
        ghat[31][k] += 0.1767766952966369 * alpha[25][k] * favg[6][k];
    }
    sxn(&mut out_lo[0], -scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], -scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[2], -scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[3], -scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], -scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], -scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], -scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[7], -scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[8], -scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[9], -scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[10], -scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[11], -scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[12], -scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[13], -scale * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[14], -scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[15], -scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[16], -scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[17], -scale * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[18], -scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[19], -scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[20], -scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[21], -scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[22], -scale * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[23], -scale * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[24], -scale * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[25], -scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_lo[26], -scale * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[27], -scale * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[28], -scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_lo[29], -scale * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[30], -scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_lo[31], -scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_lo[32], -scale * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[33], -scale * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[34], -scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_lo[35], -scale * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[36], -scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_lo[37], -scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_lo[38], -scale * 1.224744871391589, &ghat[15]);
    sxn(&mut out_lo[39], -scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_lo[40], -scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_lo[41], -scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_lo[42], -scale * 1.224744871391589, &ghat[16]);
    sxn(&mut out_lo[43], -scale * 1.224744871391589, &ghat[17]);
    sxn(&mut out_lo[44], -scale * 1.224744871391589, &ghat[18]);
    sxn(&mut out_lo[45], -scale * 1.224744871391589, &ghat[19]);
    sxn(&mut out_lo[46], -scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_lo[47], -scale * 1.224744871391589, &ghat[20]);
    sxn(&mut out_lo[48], -scale * 1.224744871391589, &ghat[21]);
    sxn(&mut out_lo[49], -scale * 1.224744871391589, &ghat[22]);
    sxn(&mut out_lo[50], -scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_lo[51], -scale * 1.224744871391589, &ghat[23]);
    sxn(&mut out_lo[52], -scale * 1.224744871391589, &ghat[24]);
    sxn(&mut out_lo[53], -scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_lo[54], -scale * 1.224744871391589, &ghat[25]);
    sxn(&mut out_lo[55], -scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_lo[56], -scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_lo[57], -scale * 1.224744871391589, &ghat[26]);
    sxn(&mut out_lo[58], -scale * 1.224744871391589, &ghat[27]);
    sxn(&mut out_lo[59], -scale * 1.224744871391589, &ghat[28]);
    sxn(&mut out_lo[60], -scale * 1.224744871391589, &ghat[29]);
    sxn(&mut out_lo[61], -scale * 1.224744871391589, &ghat[30]);
    sxn(&mut out_lo[62], -scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_lo[63], -scale * 1.224744871391589, &ghat[31]);
    sxn(&mut out_hi[0], scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[2], scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[3], scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[7], scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[8], scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[9], scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[10], scale * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[11], scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[12], scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[13], scale * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[14], scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[15], scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[16], scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[17], scale * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[18], scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[19], scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[20], scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[21], scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[22], scale * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[23], scale * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[24], scale * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[25], scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_hi[26], scale * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[27], scale * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[28], scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_hi[29], scale * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[30], scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_hi[31], scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_hi[32], scale * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[33], scale * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[34], scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_hi[35], scale * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[36], scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_hi[37], scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_hi[38], scale * -1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[39], scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_hi[40], scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_hi[41], scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_hi[42], scale * -1.224744871391589, &ghat[16]);
    sxn(&mut out_hi[43], scale * -1.224744871391589, &ghat[17]);
    sxn(&mut out_hi[44], scale * -1.224744871391589, &ghat[18]);
    sxn(&mut out_hi[45], scale * -1.224744871391589, &ghat[19]);
    sxn(&mut out_hi[46], scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_hi[47], scale * -1.224744871391589, &ghat[20]);
    sxn(&mut out_hi[48], scale * -1.224744871391589, &ghat[21]);
    sxn(&mut out_hi[49], scale * -1.224744871391589, &ghat[22]);
    sxn(&mut out_hi[50], scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_hi[51], scale * -1.224744871391589, &ghat[23]);
    sxn(&mut out_hi[52], scale * -1.224744871391589, &ghat[24]);
    sxn(&mut out_hi[53], scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_hi[54], scale * -1.224744871391589, &ghat[25]);
    sxn(&mut out_hi[55], scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_hi[56], scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_hi[57], scale * -1.224744871391589, &ghat[26]);
    sxn(&mut out_hi[58], scale * -1.224744871391589, &ghat[27]);
    sxn(&mut out_hi[59], scale * -1.224744871391589, &ghat[28]);
    sxn(&mut out_hi[60], scale * -1.224744871391589, &ghat[29]);
    sxn(&mut out_hi[61], scale * -1.224744871391589, &ghat[30]);
    sxn(&mut out_hi[62], scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_hi[63], scale * -1.224744871391589, &ghat[31]);
}

/// LDG gradient in v2 for one cell: volume gradient-mass plus the
/// upper-neighbor trace (`f_up`; own upper trace when `at_upper`) and
/// the cell's own lower trace.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_grad_v2(dv: f64, at_upper: bool, f: &[f64], f_up: &[f64], g: &mut [f64]) {
    lbo_3x3v_p1_ser_diff_grad_v2_body::<1>(dv, at_upper, f.as_chunks().0, f_up.as_chunks().0, g.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_diff_grad_v2`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_grad_v2_b4(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_grad_v2_body(dv, at_upper, f, f_up, g)
}

/// [`lbo_3x3v_p1_ser_diff_grad_v2_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_grad_v2_b4_avx2(dv: f64, at_upper: bool, f: &[[f64; LANES]], f_up: &[[f64; LANES]], g: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_grad_v2_body(dv, at_upper, f, f_up, g)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_diff_grad_v2`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_diff_grad_v2_body<const L: usize>(dv: f64, at_upper: bool, f: &[[f64; L]], f_up: &[[f64; L]], g: &mut [[f64; L]]) {
    let f: &[[f64; L]; 64] = f.first_chunk().expect("f: 64 coefficients");
    let f_up: &[[f64; L]; 64] = f_up.first_chunk().expect("f_up: 64 coefficients");
    let g: &mut [[f64; L]; 64] = g.first_chunk_mut().expect("g: 64 coefficients");
    let scale = 2.0 / dv;
    sxn(&mut g[1], -scale * 1.7320508075688772, &f[0]);
    sxn(&mut g[7], -scale * 1.7320508075688772, &f[2]);
    sxn(&mut g[8], -scale * 1.7320508075688772, &f[3]);
    sxn(&mut g[10], -scale * 1.7320508075688772, &f[4]);
    sxn(&mut g[13], -scale * 1.7320508075688772, &f[5]);
    sxn(&mut g[17], -scale * 1.7320508075688772, &f[6]);
    sxn(&mut g[22], -scale * 1.7320508075688772, &f[9]);
    sxn(&mut g[23], -scale * 1.7320508075688772, &f[11]);
    sxn(&mut g[24], -scale * 1.7320508075688772, &f[12]);
    sxn(&mut g[26], -scale * 1.7320508075688772, &f[14]);
    sxn(&mut g[27], -scale * 1.7320508075688772, &f[15]);
    sxn(&mut g[29], -scale * 1.7320508075688772, &f[16]);
    sxn(&mut g[32], -scale * 1.7320508075688772, &f[18]);
    sxn(&mut g[33], -scale * 1.7320508075688772, &f[19]);
    sxn(&mut g[35], -scale * 1.7320508075688772, &f[20]);
    sxn(&mut g[38], -scale * 1.7320508075688772, &f[21]);
    sxn(&mut g[42], -scale * 1.7320508075688772, &f[25]);
    sxn(&mut g[43], -scale * 1.7320508075688772, &f[28]);
    sxn(&mut g[44], -scale * 1.7320508075688772, &f[30]);
    sxn(&mut g[45], -scale * 1.7320508075688772, &f[31]);
    sxn(&mut g[47], -scale * 1.7320508075688772, &f[34]);
    sxn(&mut g[48], -scale * 1.7320508075688772, &f[36]);
    sxn(&mut g[49], -scale * 1.7320508075688772, &f[37]);
    sxn(&mut g[51], -scale * 1.7320508075688772, &f[39]);
    sxn(&mut g[52], -scale * 1.7320508075688772, &f[40]);
    sxn(&mut g[54], -scale * 1.7320508075688772, &f[41]);
    sxn(&mut g[57], -scale * 1.7320508075688772, &f[46]);
    sxn(&mut g[58], -scale * 1.7320508075688772, &f[50]);
    sxn(&mut g[59], -scale * 1.7320508075688772, &f[53]);
    sxn(&mut g[60], -scale * 1.7320508075688772, &f[55]);
    sxn(&mut g[61], -scale * 1.7320508075688772, &f[56]);
    sxn(&mut g[63], -scale * 1.7320508075688772, &f[62]);
    let mut tr = [[0.0f64; L]; 32];
    if at_upper {
        for k in 0..L {
            tr[0][k] += 0.7071067811865476 * f[0][k];
            tr[0][k] += 1.224744871391589 * f[1][k];
        }
        sxn(&mut tr[1], 0.7071067811865476, &f[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f[3]);
        sxn(&mut tr[3], 0.7071067811865476, &f[4]);
        sxn(&mut tr[4], 0.7071067811865476, &f[5]);
        sxn(&mut tr[5], 0.7071067811865476, &f[6]);
        sxn(&mut tr[1], 1.224744871391589, &f[7]);
        sxn(&mut tr[2], 1.224744871391589, &f[8]);
        sxn(&mut tr[6], 0.7071067811865476, &f[9]);
        sxn(&mut tr[3], 1.224744871391589, &f[10]);
        sxn(&mut tr[7], 0.7071067811865476, &f[11]);
        sxn(&mut tr[8], 0.7071067811865476, &f[12]);
        sxn(&mut tr[4], 1.224744871391589, &f[13]);
        sxn(&mut tr[9], 0.7071067811865476, &f[14]);
        sxn(&mut tr[10], 0.7071067811865476, &f[15]);
        sxn(&mut tr[11], 0.7071067811865476, &f[16]);
        sxn(&mut tr[5], 1.224744871391589, &f[17]);
        sxn(&mut tr[12], 0.7071067811865476, &f[18]);
        sxn(&mut tr[13], 0.7071067811865476, &f[19]);
        sxn(&mut tr[14], 0.7071067811865476, &f[20]);
        sxn(&mut tr[15], 0.7071067811865476, &f[21]);
        sxn(&mut tr[6], 1.224744871391589, &f[22]);
        sxn(&mut tr[7], 1.224744871391589, &f[23]);
        sxn(&mut tr[8], 1.224744871391589, &f[24]);
        sxn(&mut tr[16], 0.7071067811865476, &f[25]);
        sxn(&mut tr[9], 1.224744871391589, &f[26]);
        sxn(&mut tr[10], 1.224744871391589, &f[27]);
        sxn(&mut tr[17], 0.7071067811865476, &f[28]);
        sxn(&mut tr[11], 1.224744871391589, &f[29]);
        sxn(&mut tr[18], 0.7071067811865476, &f[30]);
        sxn(&mut tr[19], 0.7071067811865476, &f[31]);
        sxn(&mut tr[12], 1.224744871391589, &f[32]);
        sxn(&mut tr[13], 1.224744871391589, &f[33]);
        sxn(&mut tr[20], 0.7071067811865476, &f[34]);
        sxn(&mut tr[14], 1.224744871391589, &f[35]);
        sxn(&mut tr[21], 0.7071067811865476, &f[36]);
        sxn(&mut tr[22], 0.7071067811865476, &f[37]);
        sxn(&mut tr[15], 1.224744871391589, &f[38]);
        sxn(&mut tr[23], 0.7071067811865476, &f[39]);
        sxn(&mut tr[24], 0.7071067811865476, &f[40]);
        sxn(&mut tr[25], 0.7071067811865476, &f[41]);
        sxn(&mut tr[16], 1.224744871391589, &f[42]);
        sxn(&mut tr[17], 1.224744871391589, &f[43]);
        sxn(&mut tr[18], 1.224744871391589, &f[44]);
        sxn(&mut tr[19], 1.224744871391589, &f[45]);
        sxn(&mut tr[26], 0.7071067811865476, &f[46]);
        sxn(&mut tr[20], 1.224744871391589, &f[47]);
        sxn(&mut tr[21], 1.224744871391589, &f[48]);
        sxn(&mut tr[22], 1.224744871391589, &f[49]);
        sxn(&mut tr[27], 0.7071067811865476, &f[50]);
        sxn(&mut tr[23], 1.224744871391589, &f[51]);
        sxn(&mut tr[24], 1.224744871391589, &f[52]);
        sxn(&mut tr[28], 0.7071067811865476, &f[53]);
        sxn(&mut tr[25], 1.224744871391589, &f[54]);
        sxn(&mut tr[29], 0.7071067811865476, &f[55]);
        sxn(&mut tr[30], 0.7071067811865476, &f[56]);
        sxn(&mut tr[26], 1.224744871391589, &f[57]);
        sxn(&mut tr[27], 1.224744871391589, &f[58]);
        sxn(&mut tr[28], 1.224744871391589, &f[59]);
        sxn(&mut tr[29], 1.224744871391589, &f[60]);
        sxn(&mut tr[30], 1.224744871391589, &f[61]);
        for k in 0..L {
            tr[31][k] += 0.7071067811865476 * f[62][k];
            tr[31][k] += 1.224744871391589 * f[63][k];
        }
    } else {
        for k in 0..L {
            tr[0][k] += 0.7071067811865476 * f_up[0][k];
            tr[0][k] += -1.224744871391589 * f_up[1][k];
        }
        sxn(&mut tr[1], 0.7071067811865476, &f_up[2]);
        sxn(&mut tr[2], 0.7071067811865476, &f_up[3]);
        sxn(&mut tr[3], 0.7071067811865476, &f_up[4]);
        sxn(&mut tr[4], 0.7071067811865476, &f_up[5]);
        sxn(&mut tr[5], 0.7071067811865476, &f_up[6]);
        sxn(&mut tr[1], -1.224744871391589, &f_up[7]);
        sxn(&mut tr[2], -1.224744871391589, &f_up[8]);
        sxn(&mut tr[6], 0.7071067811865476, &f_up[9]);
        sxn(&mut tr[3], -1.224744871391589, &f_up[10]);
        sxn(&mut tr[7], 0.7071067811865476, &f_up[11]);
        sxn(&mut tr[8], 0.7071067811865476, &f_up[12]);
        sxn(&mut tr[4], -1.224744871391589, &f_up[13]);
        sxn(&mut tr[9], 0.7071067811865476, &f_up[14]);
        sxn(&mut tr[10], 0.7071067811865476, &f_up[15]);
        sxn(&mut tr[11], 0.7071067811865476, &f_up[16]);
        sxn(&mut tr[5], -1.224744871391589, &f_up[17]);
        sxn(&mut tr[12], 0.7071067811865476, &f_up[18]);
        sxn(&mut tr[13], 0.7071067811865476, &f_up[19]);
        sxn(&mut tr[14], 0.7071067811865476, &f_up[20]);
        sxn(&mut tr[15], 0.7071067811865476, &f_up[21]);
        sxn(&mut tr[6], -1.224744871391589, &f_up[22]);
        sxn(&mut tr[7], -1.224744871391589, &f_up[23]);
        sxn(&mut tr[8], -1.224744871391589, &f_up[24]);
        sxn(&mut tr[16], 0.7071067811865476, &f_up[25]);
        sxn(&mut tr[9], -1.224744871391589, &f_up[26]);
        sxn(&mut tr[10], -1.224744871391589, &f_up[27]);
        sxn(&mut tr[17], 0.7071067811865476, &f_up[28]);
        sxn(&mut tr[11], -1.224744871391589, &f_up[29]);
        sxn(&mut tr[18], 0.7071067811865476, &f_up[30]);
        sxn(&mut tr[19], 0.7071067811865476, &f_up[31]);
        sxn(&mut tr[12], -1.224744871391589, &f_up[32]);
        sxn(&mut tr[13], -1.224744871391589, &f_up[33]);
        sxn(&mut tr[20], 0.7071067811865476, &f_up[34]);
        sxn(&mut tr[14], -1.224744871391589, &f_up[35]);
        sxn(&mut tr[21], 0.7071067811865476, &f_up[36]);
        sxn(&mut tr[22], 0.7071067811865476, &f_up[37]);
        sxn(&mut tr[15], -1.224744871391589, &f_up[38]);
        sxn(&mut tr[23], 0.7071067811865476, &f_up[39]);
        sxn(&mut tr[24], 0.7071067811865476, &f_up[40]);
        sxn(&mut tr[25], 0.7071067811865476, &f_up[41]);
        sxn(&mut tr[16], -1.224744871391589, &f_up[42]);
        sxn(&mut tr[17], -1.224744871391589, &f_up[43]);
        sxn(&mut tr[18], -1.224744871391589, &f_up[44]);
        sxn(&mut tr[19], -1.224744871391589, &f_up[45]);
        sxn(&mut tr[26], 0.7071067811865476, &f_up[46]);
        sxn(&mut tr[20], -1.224744871391589, &f_up[47]);
        sxn(&mut tr[21], -1.224744871391589, &f_up[48]);
        sxn(&mut tr[22], -1.224744871391589, &f_up[49]);
        sxn(&mut tr[27], 0.7071067811865476, &f_up[50]);
        sxn(&mut tr[23], -1.224744871391589, &f_up[51]);
        sxn(&mut tr[24], -1.224744871391589, &f_up[52]);
        sxn(&mut tr[28], 0.7071067811865476, &f_up[53]);
        sxn(&mut tr[25], -1.224744871391589, &f_up[54]);
        sxn(&mut tr[29], 0.7071067811865476, &f_up[55]);
        sxn(&mut tr[30], 0.7071067811865476, &f_up[56]);
        sxn(&mut tr[26], -1.224744871391589, &f_up[57]);
        sxn(&mut tr[27], -1.224744871391589, &f_up[58]);
        sxn(&mut tr[28], -1.224744871391589, &f_up[59]);
        sxn(&mut tr[29], -1.224744871391589, &f_up[60]);
        sxn(&mut tr[30], -1.224744871391589, &f_up[61]);
        for k in 0..L {
            tr[31][k] += 0.7071067811865476 * f_up[62][k];
            tr[31][k] += -1.224744871391589 * f_up[63][k];
        }
    }
    sxn(&mut g[0], scale * 0.7071067811865476, &tr[0]);
    sxn(&mut g[1], scale * 1.224744871391589, &tr[0]);
    sxn(&mut g[2], scale * 0.7071067811865476, &tr[1]);
    sxn(&mut g[3], scale * 0.7071067811865476, &tr[2]);
    sxn(&mut g[4], scale * 0.7071067811865476, &tr[3]);
    sxn(&mut g[5], scale * 0.7071067811865476, &tr[4]);
    sxn(&mut g[6], scale * 0.7071067811865476, &tr[5]);
    sxn(&mut g[7], scale * 1.224744871391589, &tr[1]);
    sxn(&mut g[8], scale * 1.224744871391589, &tr[2]);
    sxn(&mut g[9], scale * 0.7071067811865476, &tr[6]);
    sxn(&mut g[10], scale * 1.224744871391589, &tr[3]);
    sxn(&mut g[11], scale * 0.7071067811865476, &tr[7]);
    sxn(&mut g[12], scale * 0.7071067811865476, &tr[8]);
    sxn(&mut g[13], scale * 1.224744871391589, &tr[4]);
    sxn(&mut g[14], scale * 0.7071067811865476, &tr[9]);
    sxn(&mut g[15], scale * 0.7071067811865476, &tr[10]);
    sxn(&mut g[16], scale * 0.7071067811865476, &tr[11]);
    sxn(&mut g[17], scale * 1.224744871391589, &tr[5]);
    sxn(&mut g[18], scale * 0.7071067811865476, &tr[12]);
    sxn(&mut g[19], scale * 0.7071067811865476, &tr[13]);
    sxn(&mut g[20], scale * 0.7071067811865476, &tr[14]);
    sxn(&mut g[21], scale * 0.7071067811865476, &tr[15]);
    sxn(&mut g[22], scale * 1.224744871391589, &tr[6]);
    sxn(&mut g[23], scale * 1.224744871391589, &tr[7]);
    sxn(&mut g[24], scale * 1.224744871391589, &tr[8]);
    sxn(&mut g[25], scale * 0.7071067811865476, &tr[16]);
    sxn(&mut g[26], scale * 1.224744871391589, &tr[9]);
    sxn(&mut g[27], scale * 1.224744871391589, &tr[10]);
    sxn(&mut g[28], scale * 0.7071067811865476, &tr[17]);
    sxn(&mut g[29], scale * 1.224744871391589, &tr[11]);
    sxn(&mut g[30], scale * 0.7071067811865476, &tr[18]);
    sxn(&mut g[31], scale * 0.7071067811865476, &tr[19]);
    sxn(&mut g[32], scale * 1.224744871391589, &tr[12]);
    sxn(&mut g[33], scale * 1.224744871391589, &tr[13]);
    sxn(&mut g[34], scale * 0.7071067811865476, &tr[20]);
    sxn(&mut g[35], scale * 1.224744871391589, &tr[14]);
    sxn(&mut g[36], scale * 0.7071067811865476, &tr[21]);
    sxn(&mut g[37], scale * 0.7071067811865476, &tr[22]);
    sxn(&mut g[38], scale * 1.224744871391589, &tr[15]);
    sxn(&mut g[39], scale * 0.7071067811865476, &tr[23]);
    sxn(&mut g[40], scale * 0.7071067811865476, &tr[24]);
    sxn(&mut g[41], scale * 0.7071067811865476, &tr[25]);
    sxn(&mut g[42], scale * 1.224744871391589, &tr[16]);
    sxn(&mut g[43], scale * 1.224744871391589, &tr[17]);
    sxn(&mut g[44], scale * 1.224744871391589, &tr[18]);
    sxn(&mut g[45], scale * 1.224744871391589, &tr[19]);
    sxn(&mut g[46], scale * 0.7071067811865476, &tr[26]);
    sxn(&mut g[47], scale * 1.224744871391589, &tr[20]);
    sxn(&mut g[48], scale * 1.224744871391589, &tr[21]);
    sxn(&mut g[49], scale * 1.224744871391589, &tr[22]);
    sxn(&mut g[50], scale * 0.7071067811865476, &tr[27]);
    sxn(&mut g[51], scale * 1.224744871391589, &tr[23]);
    sxn(&mut g[52], scale * 1.224744871391589, &tr[24]);
    sxn(&mut g[53], scale * 0.7071067811865476, &tr[28]);
    sxn(&mut g[54], scale * 1.224744871391589, &tr[25]);
    sxn(&mut g[55], scale * 0.7071067811865476, &tr[29]);
    sxn(&mut g[56], scale * 0.7071067811865476, &tr[30]);
    sxn(&mut g[57], scale * 1.224744871391589, &tr[26]);
    sxn(&mut g[58], scale * 1.224744871391589, &tr[27]);
    sxn(&mut g[59], scale * 1.224744871391589, &tr[28]);
    sxn(&mut g[60], scale * 1.224744871391589, &tr[29]);
    sxn(&mut g[61], scale * 1.224744871391589, &tr[30]);
    sxn(&mut g[62], scale * 0.7071067811865476, &tr[31]);
    sxn(&mut g[63], scale * 1.224744871391589, &tr[31]);
    let mut tl = [[0.0f64; L]; 32];
    for k in 0..L {
        tl[0][k] += 0.7071067811865476 * f[0][k];
        tl[0][k] += -1.224744871391589 * f[1][k];
    }
    sxn(&mut tl[1], 0.7071067811865476, &f[2]);
    sxn(&mut tl[2], 0.7071067811865476, &f[3]);
    sxn(&mut tl[3], 0.7071067811865476, &f[4]);
    sxn(&mut tl[4], 0.7071067811865476, &f[5]);
    sxn(&mut tl[5], 0.7071067811865476, &f[6]);
    sxn(&mut tl[1], -1.224744871391589, &f[7]);
    sxn(&mut tl[2], -1.224744871391589, &f[8]);
    sxn(&mut tl[6], 0.7071067811865476, &f[9]);
    sxn(&mut tl[3], -1.224744871391589, &f[10]);
    sxn(&mut tl[7], 0.7071067811865476, &f[11]);
    sxn(&mut tl[8], 0.7071067811865476, &f[12]);
    sxn(&mut tl[4], -1.224744871391589, &f[13]);
    sxn(&mut tl[9], 0.7071067811865476, &f[14]);
    sxn(&mut tl[10], 0.7071067811865476, &f[15]);
    sxn(&mut tl[11], 0.7071067811865476, &f[16]);
    sxn(&mut tl[5], -1.224744871391589, &f[17]);
    sxn(&mut tl[12], 0.7071067811865476, &f[18]);
    sxn(&mut tl[13], 0.7071067811865476, &f[19]);
    sxn(&mut tl[14], 0.7071067811865476, &f[20]);
    sxn(&mut tl[15], 0.7071067811865476, &f[21]);
    sxn(&mut tl[6], -1.224744871391589, &f[22]);
    sxn(&mut tl[7], -1.224744871391589, &f[23]);
    sxn(&mut tl[8], -1.224744871391589, &f[24]);
    sxn(&mut tl[16], 0.7071067811865476, &f[25]);
    sxn(&mut tl[9], -1.224744871391589, &f[26]);
    sxn(&mut tl[10], -1.224744871391589, &f[27]);
    sxn(&mut tl[17], 0.7071067811865476, &f[28]);
    sxn(&mut tl[11], -1.224744871391589, &f[29]);
    sxn(&mut tl[18], 0.7071067811865476, &f[30]);
    sxn(&mut tl[19], 0.7071067811865476, &f[31]);
    sxn(&mut tl[12], -1.224744871391589, &f[32]);
    sxn(&mut tl[13], -1.224744871391589, &f[33]);
    sxn(&mut tl[20], 0.7071067811865476, &f[34]);
    sxn(&mut tl[14], -1.224744871391589, &f[35]);
    sxn(&mut tl[21], 0.7071067811865476, &f[36]);
    sxn(&mut tl[22], 0.7071067811865476, &f[37]);
    sxn(&mut tl[15], -1.224744871391589, &f[38]);
    sxn(&mut tl[23], 0.7071067811865476, &f[39]);
    sxn(&mut tl[24], 0.7071067811865476, &f[40]);
    sxn(&mut tl[25], 0.7071067811865476, &f[41]);
    sxn(&mut tl[16], -1.224744871391589, &f[42]);
    sxn(&mut tl[17], -1.224744871391589, &f[43]);
    sxn(&mut tl[18], -1.224744871391589, &f[44]);
    sxn(&mut tl[19], -1.224744871391589, &f[45]);
    sxn(&mut tl[26], 0.7071067811865476, &f[46]);
    sxn(&mut tl[20], -1.224744871391589, &f[47]);
    sxn(&mut tl[21], -1.224744871391589, &f[48]);
    sxn(&mut tl[22], -1.224744871391589, &f[49]);
    sxn(&mut tl[27], 0.7071067811865476, &f[50]);
    sxn(&mut tl[23], -1.224744871391589, &f[51]);
    sxn(&mut tl[24], -1.224744871391589, &f[52]);
    sxn(&mut tl[28], 0.7071067811865476, &f[53]);
    sxn(&mut tl[25], -1.224744871391589, &f[54]);
    sxn(&mut tl[29], 0.7071067811865476, &f[55]);
    sxn(&mut tl[30], 0.7071067811865476, &f[56]);
    sxn(&mut tl[26], -1.224744871391589, &f[57]);
    sxn(&mut tl[27], -1.224744871391589, &f[58]);
    sxn(&mut tl[28], -1.224744871391589, &f[59]);
    sxn(&mut tl[29], -1.224744871391589, &f[60]);
    sxn(&mut tl[30], -1.224744871391589, &f[61]);
    for k in 0..L {
        tl[31][k] += 0.7071067811865476 * f[62][k];
        tl[31][k] += -1.224744871391589 * f[63][k];
    }
    sxn(&mut g[0], -scale * 0.7071067811865476, &tl[0]);
    sxn(&mut g[1], -scale * -1.224744871391589, &tl[0]);
    sxn(&mut g[2], -scale * 0.7071067811865476, &tl[1]);
    sxn(&mut g[3], -scale * 0.7071067811865476, &tl[2]);
    sxn(&mut g[4], -scale * 0.7071067811865476, &tl[3]);
    sxn(&mut g[5], -scale * 0.7071067811865476, &tl[4]);
    sxn(&mut g[6], -scale * 0.7071067811865476, &tl[5]);
    sxn(&mut g[7], -scale * -1.224744871391589, &tl[1]);
    sxn(&mut g[8], -scale * -1.224744871391589, &tl[2]);
    sxn(&mut g[9], -scale * 0.7071067811865476, &tl[6]);
    sxn(&mut g[10], -scale * -1.224744871391589, &tl[3]);
    sxn(&mut g[11], -scale * 0.7071067811865476, &tl[7]);
    sxn(&mut g[12], -scale * 0.7071067811865476, &tl[8]);
    sxn(&mut g[13], -scale * -1.224744871391589, &tl[4]);
    sxn(&mut g[14], -scale * 0.7071067811865476, &tl[9]);
    sxn(&mut g[15], -scale * 0.7071067811865476, &tl[10]);
    sxn(&mut g[16], -scale * 0.7071067811865476, &tl[11]);
    sxn(&mut g[17], -scale * -1.224744871391589, &tl[5]);
    sxn(&mut g[18], -scale * 0.7071067811865476, &tl[12]);
    sxn(&mut g[19], -scale * 0.7071067811865476, &tl[13]);
    sxn(&mut g[20], -scale * 0.7071067811865476, &tl[14]);
    sxn(&mut g[21], -scale * 0.7071067811865476, &tl[15]);
    sxn(&mut g[22], -scale * -1.224744871391589, &tl[6]);
    sxn(&mut g[23], -scale * -1.224744871391589, &tl[7]);
    sxn(&mut g[24], -scale * -1.224744871391589, &tl[8]);
    sxn(&mut g[25], -scale * 0.7071067811865476, &tl[16]);
    sxn(&mut g[26], -scale * -1.224744871391589, &tl[9]);
    sxn(&mut g[27], -scale * -1.224744871391589, &tl[10]);
    sxn(&mut g[28], -scale * 0.7071067811865476, &tl[17]);
    sxn(&mut g[29], -scale * -1.224744871391589, &tl[11]);
    sxn(&mut g[30], -scale * 0.7071067811865476, &tl[18]);
    sxn(&mut g[31], -scale * 0.7071067811865476, &tl[19]);
    sxn(&mut g[32], -scale * -1.224744871391589, &tl[12]);
    sxn(&mut g[33], -scale * -1.224744871391589, &tl[13]);
    sxn(&mut g[34], -scale * 0.7071067811865476, &tl[20]);
    sxn(&mut g[35], -scale * -1.224744871391589, &tl[14]);
    sxn(&mut g[36], -scale * 0.7071067811865476, &tl[21]);
    sxn(&mut g[37], -scale * 0.7071067811865476, &tl[22]);
    sxn(&mut g[38], -scale * -1.224744871391589, &tl[15]);
    sxn(&mut g[39], -scale * 0.7071067811865476, &tl[23]);
    sxn(&mut g[40], -scale * 0.7071067811865476, &tl[24]);
    sxn(&mut g[41], -scale * 0.7071067811865476, &tl[25]);
    sxn(&mut g[42], -scale * -1.224744871391589, &tl[16]);
    sxn(&mut g[43], -scale * -1.224744871391589, &tl[17]);
    sxn(&mut g[44], -scale * -1.224744871391589, &tl[18]);
    sxn(&mut g[45], -scale * -1.224744871391589, &tl[19]);
    sxn(&mut g[46], -scale * 0.7071067811865476, &tl[26]);
    sxn(&mut g[47], -scale * -1.224744871391589, &tl[20]);
    sxn(&mut g[48], -scale * -1.224744871391589, &tl[21]);
    sxn(&mut g[49], -scale * -1.224744871391589, &tl[22]);
    sxn(&mut g[50], -scale * 0.7071067811865476, &tl[27]);
    sxn(&mut g[51], -scale * -1.224744871391589, &tl[23]);
    sxn(&mut g[52], -scale * -1.224744871391589, &tl[24]);
    sxn(&mut g[53], -scale * 0.7071067811865476, &tl[28]);
    sxn(&mut g[54], -scale * -1.224744871391589, &tl[25]);
    sxn(&mut g[55], -scale * 0.7071067811865476, &tl[29]);
    sxn(&mut g[56], -scale * 0.7071067811865476, &tl[30]);
    sxn(&mut g[57], -scale * -1.224744871391589, &tl[26]);
    sxn(&mut g[58], -scale * -1.224744871391589, &tl[27]);
    sxn(&mut g[59], -scale * -1.224744871391589, &tl[28]);
    sxn(&mut g[60], -scale * -1.224744871391589, &tl[29]);
    sxn(&mut g[61], -scale * -1.224744871391589, &tl[30]);
    sxn(&mut g[62], -scale * 0.7071067811865476, &tl[31]);
    sxn(&mut g[63], -scale * -1.224744871391589, &tl[31]);
}

/// LBO diffusion volume term in v2: weak `ν vth²(x) ∂_v g`.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_vol_v2(nu: f64, dv: f64, vth2: &[f64], g: &[f64], out: &mut [f64]) {
    lbo_3x3v_p1_ser_diff_vol_v2_body::<1>(nu, dv, vth2.as_chunks().0, g.as_chunks().0, out.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_diff_vol_v2`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_vol_v2_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_vol_v2_body(nu, dv, vth2, g, out)
}

/// [`lbo_3x3v_p1_ser_diff_vol_v2_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_vol_v2_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g: &[[f64; LANES]], out: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_vol_v2_body(nu, dv, vth2, g, out)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_diff_vol_v2`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_diff_vol_v2_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g: &[[f64; L]], out: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 8] = vth2.first_chunk().expect("vth2: 8 coefficients");
    let g: &[[f64; L]; 64] = g.first_chunk().expect("g: 64 coefficients");
    let out: &mut [[f64; L]; 64] = out.first_chunk_mut().expect("out: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 64];
    for k in 0..L {
        alpha[0][k] = 2.8284271247461903 * vth2[0][k];
        alpha[4][k] = 2.8284271247461903 * vth2[1][k];
        alpha[5][k] = 2.8284271247461903 * vth2[2][k];
        alpha[6][k] = 2.8284271247461903 * vth2[3][k];
        alpha[16][k] = 2.8284271247461903 * vth2[4][k];
        alpha[20][k] = 2.8284271247461903 * vth2[5][k];
        alpha[21][k] = 2.8284271247461903 * vth2[6][k];
        alpha[41][k] = 2.8284271247461903 * vth2[7][k];
    }
    for k in 0..L {
        out[1][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[0][k];
        out[1][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[4][k];
        out[1][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[5][k];
        out[1][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[6][k];
        out[1][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[16][k];
        out[1][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[20][k];
        out[1][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[21][k];
        out[1][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[41][k];
    }
    for k in 0..L {
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[2][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[11][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[14][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[18][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[30][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[36][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[39][k];
        out[7][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[55][k];
    }
    for k in 0..L {
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[3][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[12][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[15][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[19][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[31][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[37][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[40][k];
        out[8][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[56][k];
    }
    for k in 0..L {
        out[10][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[4][k];
        out[10][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[0][k];
        out[10][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[16][k];
        out[10][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[20][k];
        out[10][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[5][k];
        out[10][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[6][k];
        out[10][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[41][k];
        out[10][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[21][k];
    }
    for k in 0..L {
        out[13][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[5][k];
        out[13][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[16][k];
        out[13][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[0][k];
        out[13][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[21][k];
        out[13][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[4][k];
        out[13][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[41][k];
        out[13][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[6][k];
        out[13][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[20][k];
    }
    for k in 0..L {
        out[17][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[6][k];
        out[17][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[20][k];
        out[17][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[21][k];
        out[17][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[0][k];
        out[17][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[41][k];
        out[17][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[4][k];
        out[17][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[5][k];
        out[17][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[16][k];
    }
    for k in 0..L {
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[9][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[25][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[28][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[34][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[46][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[50][k];
        out[22][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[53][k];
        out[22][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[62][k];
    }
    for k in 0..L {
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[11][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[2][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[30][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[36][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[14][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[18][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[55][k];
        out[23][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[39][k];
    }
    for k in 0..L {
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[12][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[3][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[31][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[37][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[15][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[19][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[56][k];
        out[24][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[40][k];
    }
    for k in 0..L {
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[14][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[30][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[2][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[39][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[11][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[55][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[18][k];
        out[26][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[36][k];
    }
    for k in 0..L {
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[15][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[31][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[3][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[40][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[12][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[56][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[19][k];
        out[27][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[37][k];
    }
    for k in 0..L {
        out[29][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[16][k];
        out[29][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[5][k];
        out[29][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[4][k];
        out[29][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[41][k];
        out[29][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[0][k];
        out[29][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[21][k];
        out[29][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[20][k];
        out[29][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[6][k];
    }
    for k in 0..L {
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[18][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[36][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[39][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[2][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[55][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[11][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[14][k];
        out[32][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[30][k];
    }
    for k in 0..L {
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[19][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[37][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[40][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[3][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[56][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[12][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[15][k];
        out[33][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[31][k];
    }
    for k in 0..L {
        out[35][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[20][k];
        out[35][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[6][k];
        out[35][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[41][k];
        out[35][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[4][k];
        out[35][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[21][k];
        out[35][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[0][k];
        out[35][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[16][k];
        out[35][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[5][k];
    }
    for k in 0..L {
        out[38][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[21][k];
        out[38][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[41][k];
        out[38][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[6][k];
        out[38][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[5][k];
        out[38][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[20][k];
        out[38][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[16][k];
        out[38][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[0][k];
        out[38][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[4][k];
    }
    for k in 0..L {
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[25][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[9][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[46][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[50][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[28][k];
        out[42][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[34][k];
        out[42][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[62][k];
        out[42][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[53][k];
    }
    for k in 0..L {
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[28][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[46][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[9][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[53][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[25][k];
        out[43][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[62][k];
        out[43][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[34][k];
        out[43][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[50][k];
    }
    for k in 0..L {
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[30][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[14][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[11][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[55][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[2][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[39][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[36][k];
        out[44][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[18][k];
    }
    for k in 0..L {
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[31][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[15][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[12][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[56][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[3][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[40][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[37][k];
        out[45][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[19][k];
    }
    for k in 0..L {
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[34][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[50][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[53][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[9][k];
        out[47][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[62][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[25][k];
        out[47][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[28][k];
        out[47][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[46][k];
    }
    for k in 0..L {
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[36][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[18][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[55][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[11][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[39][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[2][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[30][k];
        out[48][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[14][k];
    }
    for k in 0..L {
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[37][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[19][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[56][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[12][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[40][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[3][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[31][k];
        out[49][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[15][k];
    }
    for k in 0..L {
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[39][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[55][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[18][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[14][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[36][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[30][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[2][k];
        out[51][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[11][k];
    }
    for k in 0..L {
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[40][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[56][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[19][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[15][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[37][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[31][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[3][k];
        out[52][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[12][k];
    }
    for k in 0..L {
        out[54][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[41][k];
        out[54][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[21][k];
        out[54][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[20][k];
        out[54][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[16][k];
        out[54][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[6][k];
        out[54][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[5][k];
        out[54][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[4][k];
        out[54][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[0][k];
    }
    for k in 0..L {
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[46][k];
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[28][k];
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[25][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[6][k] * g[62][k];
        out[57][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[9][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[53][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[50][k];
        out[57][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[34][k];
    }
    for k in 0..L {
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[50][k];
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[34][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[5][k] * g[62][k];
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[25][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[53][k];
        out[58][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[9][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[46][k];
        out[58][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[28][k];
    }
    for k in 0..L {
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[53][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[4][k] * g[62][k];
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[34][k];
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[28][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[50][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[46][k];
        out[59][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[9][k];
        out[59][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[25][k];
    }
    for k in 0..L {
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[55][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[39][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[36][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[30][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[18][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[14][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[11][k];
        out[60][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[2][k];
    }
    for k in 0..L {
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[0][k] * g[56][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[4][k] * g[40][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[5][k] * g[37][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[6][k] * g[31][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[16][k] * g[19][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[20][k] * g[15][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[21][k] * g[12][k];
        out[61][k] += -nu * scale * 0.21650635094610965 * alpha[41][k] * g[3][k];
    }
    for k in 0..L {
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[0][k] * g[62][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[4][k] * g[53][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[5][k] * g[50][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[6][k] * g[46][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[16][k] * g[34][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[20][k] * g[28][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[21][k] * g[25][k];
        out[63][k] += -nu * scale * 0.21650635094610968 * alpha[41][k] * g[9][k];
    }
}

/// LBO diffusion surface term in v2 at one interior face: one-sided
/// flux of the LDG gradient (lower cell's upper trace), both sides
/// updated.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_surf_v2(nu: f64, dv: f64, vth2: &[f64], g_lo: &[f64], out_lo: &mut [f64], out_hi: &mut [f64]) {
    lbo_3x3v_p1_ser_diff_surf_v2_body::<1>(nu, dv, vth2.as_chunks().0, g_lo.as_chunks().0, out_lo.as_chunks_mut().0, out_hi.as_chunks_mut().0)
}

/// [`lbo_3x3v_p1_ser_diff_surf_v2`] over `LANES` pencils: the same body, bit-identical per lane.
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_surf_v2_b4(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_surf_v2_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// [`lbo_3x3v_p1_ser_diff_surf_v2_b4`] compiled for AVX2. Reach it through `crate::dispatch`,
/// which checks the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::all)]
#[rustfmt::skip]
pub fn lbo_3x3v_p1_ser_diff_surf_v2_b4_avx2(nu: f64, dv: f64, vth2: &[[f64; LANES]], g_lo: &[[f64; LANES]], out_lo: &mut [[f64; LANES]], out_hi: &mut [[f64; LANES]]) {
    lbo_3x3v_p1_ser_diff_surf_v2_body(nu, dv, vth2, g_lo, out_lo, out_hi)
}

/// Shared lane-generic body of [`lbo_3x3v_p1_ser_diff_surf_v2`] and its batched entry points.
#[allow(clippy::all)]
#[rustfmt::skip]
#[inline(always)]
fn lbo_3x3v_p1_ser_diff_surf_v2_body<const L: usize>(nu: f64, dv: f64, vth2: &[[f64; L]], g_lo: &[[f64; L]], out_lo: &mut [[f64; L]], out_hi: &mut [[f64; L]]) {
    let vth2: &[[f64; L]; 8] = vth2.first_chunk().expect("vth2: 8 coefficients");
    let g_lo: &[[f64; L]; 64] = g_lo.first_chunk().expect("g_lo: 64 coefficients");
    let out_lo: &mut [[f64; L]; 64] = out_lo.first_chunk_mut().expect("out_lo: 64 coefficients");
    let out_hi: &mut [[f64; L]; 64] = out_hi.first_chunk_mut().expect("out_hi: 64 coefficients");
    let scale = 2.0 / dv;
    let mut alpha = [[0.0f64; L]; 32];
    for k in 0..L {
        alpha[0][k] = 2.0 * vth2[0][k];
        alpha[3][k] = 2.0 * vth2[1][k];
        alpha[4][k] = 2.0 * vth2[2][k];
        alpha[5][k] = 2.0 * vth2[3][k];
        alpha[11][k] = 2.0 * vth2[4][k];
        alpha[14][k] = 2.0 * vth2[5][k];
        alpha[15][k] = 2.0 * vth2[6][k];
        alpha[25][k] = 2.0 * vth2[7][k];
    }
    let mut tr = [[0.0f64; L]; 32];
    for k in 0..L {
        tr[0][k] += 0.7071067811865476 * g_lo[0][k];
        tr[0][k] += 1.224744871391589 * g_lo[1][k];
    }
    sxn(&mut tr[1], 0.7071067811865476, &g_lo[2]);
    sxn(&mut tr[2], 0.7071067811865476, &g_lo[3]);
    sxn(&mut tr[3], 0.7071067811865476, &g_lo[4]);
    sxn(&mut tr[4], 0.7071067811865476, &g_lo[5]);
    sxn(&mut tr[5], 0.7071067811865476, &g_lo[6]);
    sxn(&mut tr[1], 1.224744871391589, &g_lo[7]);
    sxn(&mut tr[2], 1.224744871391589, &g_lo[8]);
    sxn(&mut tr[6], 0.7071067811865476, &g_lo[9]);
    sxn(&mut tr[3], 1.224744871391589, &g_lo[10]);
    sxn(&mut tr[7], 0.7071067811865476, &g_lo[11]);
    sxn(&mut tr[8], 0.7071067811865476, &g_lo[12]);
    sxn(&mut tr[4], 1.224744871391589, &g_lo[13]);
    sxn(&mut tr[9], 0.7071067811865476, &g_lo[14]);
    sxn(&mut tr[10], 0.7071067811865476, &g_lo[15]);
    sxn(&mut tr[11], 0.7071067811865476, &g_lo[16]);
    sxn(&mut tr[5], 1.224744871391589, &g_lo[17]);
    sxn(&mut tr[12], 0.7071067811865476, &g_lo[18]);
    sxn(&mut tr[13], 0.7071067811865476, &g_lo[19]);
    sxn(&mut tr[14], 0.7071067811865476, &g_lo[20]);
    sxn(&mut tr[15], 0.7071067811865476, &g_lo[21]);
    sxn(&mut tr[6], 1.224744871391589, &g_lo[22]);
    sxn(&mut tr[7], 1.224744871391589, &g_lo[23]);
    sxn(&mut tr[8], 1.224744871391589, &g_lo[24]);
    sxn(&mut tr[16], 0.7071067811865476, &g_lo[25]);
    sxn(&mut tr[9], 1.224744871391589, &g_lo[26]);
    sxn(&mut tr[10], 1.224744871391589, &g_lo[27]);
    sxn(&mut tr[17], 0.7071067811865476, &g_lo[28]);
    sxn(&mut tr[11], 1.224744871391589, &g_lo[29]);
    sxn(&mut tr[18], 0.7071067811865476, &g_lo[30]);
    sxn(&mut tr[19], 0.7071067811865476, &g_lo[31]);
    sxn(&mut tr[12], 1.224744871391589, &g_lo[32]);
    sxn(&mut tr[13], 1.224744871391589, &g_lo[33]);
    sxn(&mut tr[20], 0.7071067811865476, &g_lo[34]);
    sxn(&mut tr[14], 1.224744871391589, &g_lo[35]);
    sxn(&mut tr[21], 0.7071067811865476, &g_lo[36]);
    sxn(&mut tr[22], 0.7071067811865476, &g_lo[37]);
    sxn(&mut tr[15], 1.224744871391589, &g_lo[38]);
    sxn(&mut tr[23], 0.7071067811865476, &g_lo[39]);
    sxn(&mut tr[24], 0.7071067811865476, &g_lo[40]);
    sxn(&mut tr[25], 0.7071067811865476, &g_lo[41]);
    sxn(&mut tr[16], 1.224744871391589, &g_lo[42]);
    sxn(&mut tr[17], 1.224744871391589, &g_lo[43]);
    sxn(&mut tr[18], 1.224744871391589, &g_lo[44]);
    sxn(&mut tr[19], 1.224744871391589, &g_lo[45]);
    sxn(&mut tr[26], 0.7071067811865476, &g_lo[46]);
    sxn(&mut tr[20], 1.224744871391589, &g_lo[47]);
    sxn(&mut tr[21], 1.224744871391589, &g_lo[48]);
    sxn(&mut tr[22], 1.224744871391589, &g_lo[49]);
    sxn(&mut tr[27], 0.7071067811865476, &g_lo[50]);
    sxn(&mut tr[23], 1.224744871391589, &g_lo[51]);
    sxn(&mut tr[24], 1.224744871391589, &g_lo[52]);
    sxn(&mut tr[28], 0.7071067811865476, &g_lo[53]);
    sxn(&mut tr[25], 1.224744871391589, &g_lo[54]);
    sxn(&mut tr[29], 0.7071067811865476, &g_lo[55]);
    sxn(&mut tr[30], 0.7071067811865476, &g_lo[56]);
    sxn(&mut tr[26], 1.224744871391589, &g_lo[57]);
    sxn(&mut tr[27], 1.224744871391589, &g_lo[58]);
    sxn(&mut tr[28], 1.224744871391589, &g_lo[59]);
    sxn(&mut tr[29], 1.224744871391589, &g_lo[60]);
    sxn(&mut tr[30], 1.224744871391589, &g_lo[61]);
    for k in 0..L {
        tr[31][k] += 0.7071067811865476 * g_lo[62][k];
        tr[31][k] += 1.224744871391589 * g_lo[63][k];
    }
    let mut ghat = [[0.0f64; L]; 32];
    for k in 0..L {
        ghat[0][k] += 0.1767766952966369 * alpha[0][k] * tr[0][k];
        ghat[0][k] += 0.17677669529663687 * alpha[3][k] * tr[3][k];
        ghat[0][k] += 0.17677669529663687 * alpha[4][k] * tr[4][k];
        ghat[0][k] += 0.17677669529663687 * alpha[5][k] * tr[5][k];
        ghat[0][k] += 0.17677669529663687 * alpha[11][k] * tr[11][k];
        ghat[0][k] += 0.17677669529663687 * alpha[14][k] * tr[14][k];
        ghat[0][k] += 0.17677669529663687 * alpha[15][k] * tr[15][k];
        ghat[0][k] += 0.1767766952966369 * alpha[25][k] * tr[25][k];
    }
    for k in 0..L {
        ghat[1][k] += 0.17677669529663687 * alpha[0][k] * tr[1][k];
        ghat[1][k] += 0.17677669529663687 * alpha[3][k] * tr[7][k];
        ghat[1][k] += 0.17677669529663687 * alpha[4][k] * tr[9][k];
        ghat[1][k] += 0.17677669529663687 * alpha[5][k] * tr[12][k];
        ghat[1][k] += 0.1767766952966369 * alpha[11][k] * tr[18][k];
        ghat[1][k] += 0.1767766952966369 * alpha[14][k] * tr[21][k];
        ghat[1][k] += 0.1767766952966369 * alpha[15][k] * tr[23][k];
        ghat[1][k] += 0.17677669529663687 * alpha[25][k] * tr[29][k];
    }
    for k in 0..L {
        ghat[2][k] += 0.17677669529663687 * alpha[0][k] * tr[2][k];
        ghat[2][k] += 0.17677669529663687 * alpha[3][k] * tr[8][k];
        ghat[2][k] += 0.17677669529663687 * alpha[4][k] * tr[10][k];
        ghat[2][k] += 0.17677669529663687 * alpha[5][k] * tr[13][k];
        ghat[2][k] += 0.1767766952966369 * alpha[11][k] * tr[19][k];
        ghat[2][k] += 0.1767766952966369 * alpha[14][k] * tr[22][k];
        ghat[2][k] += 0.1767766952966369 * alpha[15][k] * tr[24][k];
        ghat[2][k] += 0.17677669529663687 * alpha[25][k] * tr[30][k];
    }
    for k in 0..L {
        ghat[3][k] += 0.17677669529663687 * alpha[0][k] * tr[3][k];
        ghat[3][k] += 0.17677669529663687 * alpha[3][k] * tr[0][k];
        ghat[3][k] += 0.17677669529663687 * alpha[4][k] * tr[11][k];
        ghat[3][k] += 0.17677669529663687 * alpha[5][k] * tr[14][k];
        ghat[3][k] += 0.17677669529663687 * alpha[11][k] * tr[4][k];
        ghat[3][k] += 0.17677669529663687 * alpha[14][k] * tr[5][k];
        ghat[3][k] += 0.1767766952966369 * alpha[15][k] * tr[25][k];
        ghat[3][k] += 0.1767766952966369 * alpha[25][k] * tr[15][k];
    }
    for k in 0..L {
        ghat[4][k] += 0.17677669529663687 * alpha[0][k] * tr[4][k];
        ghat[4][k] += 0.17677669529663687 * alpha[3][k] * tr[11][k];
        ghat[4][k] += 0.17677669529663687 * alpha[4][k] * tr[0][k];
        ghat[4][k] += 0.17677669529663687 * alpha[5][k] * tr[15][k];
        ghat[4][k] += 0.17677669529663687 * alpha[11][k] * tr[3][k];
        ghat[4][k] += 0.1767766952966369 * alpha[14][k] * tr[25][k];
        ghat[4][k] += 0.17677669529663687 * alpha[15][k] * tr[5][k];
        ghat[4][k] += 0.1767766952966369 * alpha[25][k] * tr[14][k];
    }
    for k in 0..L {
        ghat[5][k] += 0.17677669529663687 * alpha[0][k] * tr[5][k];
        ghat[5][k] += 0.17677669529663687 * alpha[3][k] * tr[14][k];
        ghat[5][k] += 0.17677669529663687 * alpha[4][k] * tr[15][k];
        ghat[5][k] += 0.17677669529663687 * alpha[5][k] * tr[0][k];
        ghat[5][k] += 0.1767766952966369 * alpha[11][k] * tr[25][k];
        ghat[5][k] += 0.17677669529663687 * alpha[14][k] * tr[3][k];
        ghat[5][k] += 0.17677669529663687 * alpha[15][k] * tr[4][k];
        ghat[5][k] += 0.1767766952966369 * alpha[25][k] * tr[11][k];
    }
    for k in 0..L {
        ghat[6][k] += 0.17677669529663687 * alpha[0][k] * tr[6][k];
        ghat[6][k] += 0.1767766952966369 * alpha[3][k] * tr[16][k];
        ghat[6][k] += 0.1767766952966369 * alpha[4][k] * tr[17][k];
        ghat[6][k] += 0.1767766952966369 * alpha[5][k] * tr[20][k];
        ghat[6][k] += 0.17677669529663687 * alpha[11][k] * tr[26][k];
        ghat[6][k] += 0.17677669529663687 * alpha[14][k] * tr[27][k];
        ghat[6][k] += 0.17677669529663687 * alpha[15][k] * tr[28][k];
        ghat[6][k] += 0.1767766952966369 * alpha[25][k] * tr[31][k];
    }
    for k in 0..L {
        ghat[7][k] += 0.17677669529663687 * alpha[0][k] * tr[7][k];
        ghat[7][k] += 0.17677669529663687 * alpha[3][k] * tr[1][k];
        ghat[7][k] += 0.1767766952966369 * alpha[4][k] * tr[18][k];
        ghat[7][k] += 0.1767766952966369 * alpha[5][k] * tr[21][k];
        ghat[7][k] += 0.1767766952966369 * alpha[11][k] * tr[9][k];
        ghat[7][k] += 0.1767766952966369 * alpha[14][k] * tr[12][k];
        ghat[7][k] += 0.17677669529663687 * alpha[15][k] * tr[29][k];
        ghat[7][k] += 0.17677669529663687 * alpha[25][k] * tr[23][k];
    }
    for k in 0..L {
        ghat[8][k] += 0.17677669529663687 * alpha[0][k] * tr[8][k];
        ghat[8][k] += 0.17677669529663687 * alpha[3][k] * tr[2][k];
        ghat[8][k] += 0.1767766952966369 * alpha[4][k] * tr[19][k];
        ghat[8][k] += 0.1767766952966369 * alpha[5][k] * tr[22][k];
        ghat[8][k] += 0.1767766952966369 * alpha[11][k] * tr[10][k];
        ghat[8][k] += 0.1767766952966369 * alpha[14][k] * tr[13][k];
        ghat[8][k] += 0.17677669529663687 * alpha[15][k] * tr[30][k];
        ghat[8][k] += 0.17677669529663687 * alpha[25][k] * tr[24][k];
    }
    for k in 0..L {
        ghat[9][k] += 0.17677669529663687 * alpha[0][k] * tr[9][k];
        ghat[9][k] += 0.1767766952966369 * alpha[3][k] * tr[18][k];
        ghat[9][k] += 0.17677669529663687 * alpha[4][k] * tr[1][k];
        ghat[9][k] += 0.1767766952966369 * alpha[5][k] * tr[23][k];
        ghat[9][k] += 0.1767766952966369 * alpha[11][k] * tr[7][k];
        ghat[9][k] += 0.17677669529663687 * alpha[14][k] * tr[29][k];
        ghat[9][k] += 0.1767766952966369 * alpha[15][k] * tr[12][k];
        ghat[9][k] += 0.17677669529663687 * alpha[25][k] * tr[21][k];
    }
    for k in 0..L {
        ghat[10][k] += 0.17677669529663687 * alpha[0][k] * tr[10][k];
        ghat[10][k] += 0.1767766952966369 * alpha[3][k] * tr[19][k];
        ghat[10][k] += 0.17677669529663687 * alpha[4][k] * tr[2][k];
        ghat[10][k] += 0.1767766952966369 * alpha[5][k] * tr[24][k];
        ghat[10][k] += 0.1767766952966369 * alpha[11][k] * tr[8][k];
        ghat[10][k] += 0.17677669529663687 * alpha[14][k] * tr[30][k];
        ghat[10][k] += 0.1767766952966369 * alpha[15][k] * tr[13][k];
        ghat[10][k] += 0.17677669529663687 * alpha[25][k] * tr[22][k];
    }
    for k in 0..L {
        ghat[11][k] += 0.17677669529663687 * alpha[0][k] * tr[11][k];
        ghat[11][k] += 0.17677669529663687 * alpha[3][k] * tr[4][k];
        ghat[11][k] += 0.17677669529663687 * alpha[4][k] * tr[3][k];
        ghat[11][k] += 0.1767766952966369 * alpha[5][k] * tr[25][k];
        ghat[11][k] += 0.17677669529663687 * alpha[11][k] * tr[0][k];
        ghat[11][k] += 0.1767766952966369 * alpha[14][k] * tr[15][k];
        ghat[11][k] += 0.1767766952966369 * alpha[15][k] * tr[14][k];
        ghat[11][k] += 0.1767766952966369 * alpha[25][k] * tr[5][k];
    }
    for k in 0..L {
        ghat[12][k] += 0.17677669529663687 * alpha[0][k] * tr[12][k];
        ghat[12][k] += 0.1767766952966369 * alpha[3][k] * tr[21][k];
        ghat[12][k] += 0.1767766952966369 * alpha[4][k] * tr[23][k];
        ghat[12][k] += 0.17677669529663687 * alpha[5][k] * tr[1][k];
        ghat[12][k] += 0.17677669529663687 * alpha[11][k] * tr[29][k];
        ghat[12][k] += 0.1767766952966369 * alpha[14][k] * tr[7][k];
        ghat[12][k] += 0.1767766952966369 * alpha[15][k] * tr[9][k];
        ghat[12][k] += 0.17677669529663687 * alpha[25][k] * tr[18][k];
    }
    for k in 0..L {
        ghat[13][k] += 0.17677669529663687 * alpha[0][k] * tr[13][k];
        ghat[13][k] += 0.1767766952966369 * alpha[3][k] * tr[22][k];
        ghat[13][k] += 0.1767766952966369 * alpha[4][k] * tr[24][k];
        ghat[13][k] += 0.17677669529663687 * alpha[5][k] * tr[2][k];
        ghat[13][k] += 0.17677669529663687 * alpha[11][k] * tr[30][k];
        ghat[13][k] += 0.1767766952966369 * alpha[14][k] * tr[8][k];
        ghat[13][k] += 0.1767766952966369 * alpha[15][k] * tr[10][k];
        ghat[13][k] += 0.17677669529663687 * alpha[25][k] * tr[19][k];
    }
    for k in 0..L {
        ghat[14][k] += 0.17677669529663687 * alpha[0][k] * tr[14][k];
        ghat[14][k] += 0.17677669529663687 * alpha[3][k] * tr[5][k];
        ghat[14][k] += 0.1767766952966369 * alpha[4][k] * tr[25][k];
        ghat[14][k] += 0.17677669529663687 * alpha[5][k] * tr[3][k];
        ghat[14][k] += 0.1767766952966369 * alpha[11][k] * tr[15][k];
        ghat[14][k] += 0.17677669529663687 * alpha[14][k] * tr[0][k];
        ghat[14][k] += 0.1767766952966369 * alpha[15][k] * tr[11][k];
        ghat[14][k] += 0.1767766952966369 * alpha[25][k] * tr[4][k];
    }
    for k in 0..L {
        ghat[15][k] += 0.17677669529663687 * alpha[0][k] * tr[15][k];
        ghat[15][k] += 0.1767766952966369 * alpha[3][k] * tr[25][k];
        ghat[15][k] += 0.17677669529663687 * alpha[4][k] * tr[5][k];
        ghat[15][k] += 0.17677669529663687 * alpha[5][k] * tr[4][k];
        ghat[15][k] += 0.1767766952966369 * alpha[11][k] * tr[14][k];
        ghat[15][k] += 0.1767766952966369 * alpha[14][k] * tr[11][k];
        ghat[15][k] += 0.17677669529663687 * alpha[15][k] * tr[0][k];
        ghat[15][k] += 0.1767766952966369 * alpha[25][k] * tr[3][k];
    }
    for k in 0..L {
        ghat[16][k] += 0.1767766952966369 * alpha[0][k] * tr[16][k];
        ghat[16][k] += 0.1767766952966369 * alpha[3][k] * tr[6][k];
        ghat[16][k] += 0.17677669529663687 * alpha[4][k] * tr[26][k];
        ghat[16][k] += 0.17677669529663687 * alpha[5][k] * tr[27][k];
        ghat[16][k] += 0.17677669529663687 * alpha[11][k] * tr[17][k];
        ghat[16][k] += 0.17677669529663687 * alpha[14][k] * tr[20][k];
        ghat[16][k] += 0.1767766952966369 * alpha[15][k] * tr[31][k];
        ghat[16][k] += 0.1767766952966369 * alpha[25][k] * tr[28][k];
    }
    for k in 0..L {
        ghat[17][k] += 0.1767766952966369 * alpha[0][k] * tr[17][k];
        ghat[17][k] += 0.17677669529663687 * alpha[3][k] * tr[26][k];
        ghat[17][k] += 0.1767766952966369 * alpha[4][k] * tr[6][k];
        ghat[17][k] += 0.17677669529663687 * alpha[5][k] * tr[28][k];
        ghat[17][k] += 0.17677669529663687 * alpha[11][k] * tr[16][k];
        ghat[17][k] += 0.1767766952966369 * alpha[14][k] * tr[31][k];
        ghat[17][k] += 0.17677669529663687 * alpha[15][k] * tr[20][k];
        ghat[17][k] += 0.1767766952966369 * alpha[25][k] * tr[27][k];
    }
    for k in 0..L {
        ghat[18][k] += 0.1767766952966369 * alpha[0][k] * tr[18][k];
        ghat[18][k] += 0.1767766952966369 * alpha[3][k] * tr[9][k];
        ghat[18][k] += 0.1767766952966369 * alpha[4][k] * tr[7][k];
        ghat[18][k] += 0.17677669529663687 * alpha[5][k] * tr[29][k];
        ghat[18][k] += 0.1767766952966369 * alpha[11][k] * tr[1][k];
        ghat[18][k] += 0.17677669529663687 * alpha[14][k] * tr[23][k];
        ghat[18][k] += 0.17677669529663687 * alpha[15][k] * tr[21][k];
        ghat[18][k] += 0.17677669529663687 * alpha[25][k] * tr[12][k];
    }
    for k in 0..L {
        ghat[19][k] += 0.1767766952966369 * alpha[0][k] * tr[19][k];
        ghat[19][k] += 0.1767766952966369 * alpha[3][k] * tr[10][k];
        ghat[19][k] += 0.1767766952966369 * alpha[4][k] * tr[8][k];
        ghat[19][k] += 0.17677669529663687 * alpha[5][k] * tr[30][k];
        ghat[19][k] += 0.1767766952966369 * alpha[11][k] * tr[2][k];
        ghat[19][k] += 0.17677669529663687 * alpha[14][k] * tr[24][k];
        ghat[19][k] += 0.17677669529663687 * alpha[15][k] * tr[22][k];
        ghat[19][k] += 0.17677669529663687 * alpha[25][k] * tr[13][k];
    }
    for k in 0..L {
        ghat[20][k] += 0.1767766952966369 * alpha[0][k] * tr[20][k];
        ghat[20][k] += 0.17677669529663687 * alpha[3][k] * tr[27][k];
        ghat[20][k] += 0.17677669529663687 * alpha[4][k] * tr[28][k];
        ghat[20][k] += 0.1767766952966369 * alpha[5][k] * tr[6][k];
        ghat[20][k] += 0.1767766952966369 * alpha[11][k] * tr[31][k];
        ghat[20][k] += 0.17677669529663687 * alpha[14][k] * tr[16][k];
        ghat[20][k] += 0.17677669529663687 * alpha[15][k] * tr[17][k];
        ghat[20][k] += 0.1767766952966369 * alpha[25][k] * tr[26][k];
    }
    for k in 0..L {
        ghat[21][k] += 0.1767766952966369 * alpha[0][k] * tr[21][k];
        ghat[21][k] += 0.1767766952966369 * alpha[3][k] * tr[12][k];
        ghat[21][k] += 0.17677669529663687 * alpha[4][k] * tr[29][k];
        ghat[21][k] += 0.1767766952966369 * alpha[5][k] * tr[7][k];
        ghat[21][k] += 0.17677669529663687 * alpha[11][k] * tr[23][k];
        ghat[21][k] += 0.1767766952966369 * alpha[14][k] * tr[1][k];
        ghat[21][k] += 0.17677669529663687 * alpha[15][k] * tr[18][k];
        ghat[21][k] += 0.17677669529663687 * alpha[25][k] * tr[9][k];
    }
    for k in 0..L {
        ghat[22][k] += 0.1767766952966369 * alpha[0][k] * tr[22][k];
        ghat[22][k] += 0.1767766952966369 * alpha[3][k] * tr[13][k];
        ghat[22][k] += 0.17677669529663687 * alpha[4][k] * tr[30][k];
        ghat[22][k] += 0.1767766952966369 * alpha[5][k] * tr[8][k];
        ghat[22][k] += 0.17677669529663687 * alpha[11][k] * tr[24][k];
        ghat[22][k] += 0.1767766952966369 * alpha[14][k] * tr[2][k];
        ghat[22][k] += 0.17677669529663687 * alpha[15][k] * tr[19][k];
        ghat[22][k] += 0.17677669529663687 * alpha[25][k] * tr[10][k];
    }
    for k in 0..L {
        ghat[23][k] += 0.1767766952966369 * alpha[0][k] * tr[23][k];
        ghat[23][k] += 0.17677669529663687 * alpha[3][k] * tr[29][k];
        ghat[23][k] += 0.1767766952966369 * alpha[4][k] * tr[12][k];
        ghat[23][k] += 0.1767766952966369 * alpha[5][k] * tr[9][k];
        ghat[23][k] += 0.17677669529663687 * alpha[11][k] * tr[21][k];
        ghat[23][k] += 0.17677669529663687 * alpha[14][k] * tr[18][k];
        ghat[23][k] += 0.1767766952966369 * alpha[15][k] * tr[1][k];
        ghat[23][k] += 0.17677669529663687 * alpha[25][k] * tr[7][k];
    }
    for k in 0..L {
        ghat[24][k] += 0.1767766952966369 * alpha[0][k] * tr[24][k];
        ghat[24][k] += 0.17677669529663687 * alpha[3][k] * tr[30][k];
        ghat[24][k] += 0.1767766952966369 * alpha[4][k] * tr[13][k];
        ghat[24][k] += 0.1767766952966369 * alpha[5][k] * tr[10][k];
        ghat[24][k] += 0.17677669529663687 * alpha[11][k] * tr[22][k];
        ghat[24][k] += 0.17677669529663687 * alpha[14][k] * tr[19][k];
        ghat[24][k] += 0.1767766952966369 * alpha[15][k] * tr[2][k];
        ghat[24][k] += 0.17677669529663687 * alpha[25][k] * tr[8][k];
    }
    for k in 0..L {
        ghat[25][k] += 0.1767766952966369 * alpha[0][k] * tr[25][k];
        ghat[25][k] += 0.1767766952966369 * alpha[3][k] * tr[15][k];
        ghat[25][k] += 0.1767766952966369 * alpha[4][k] * tr[14][k];
        ghat[25][k] += 0.1767766952966369 * alpha[5][k] * tr[11][k];
        ghat[25][k] += 0.1767766952966369 * alpha[11][k] * tr[5][k];
        ghat[25][k] += 0.1767766952966369 * alpha[14][k] * tr[4][k];
        ghat[25][k] += 0.1767766952966369 * alpha[15][k] * tr[3][k];
        ghat[25][k] += 0.1767766952966369 * alpha[25][k] * tr[0][k];
    }
    for k in 0..L {
        ghat[26][k] += 0.17677669529663687 * alpha[0][k] * tr[26][k];
        ghat[26][k] += 0.17677669529663687 * alpha[3][k] * tr[17][k];
        ghat[26][k] += 0.17677669529663687 * alpha[4][k] * tr[16][k];
        ghat[26][k] += 0.1767766952966369 * alpha[5][k] * tr[31][k];
        ghat[26][k] += 0.17677669529663687 * alpha[11][k] * tr[6][k];
        ghat[26][k] += 0.1767766952966369 * alpha[14][k] * tr[28][k];
        ghat[26][k] += 0.1767766952966369 * alpha[15][k] * tr[27][k];
        ghat[26][k] += 0.1767766952966369 * alpha[25][k] * tr[20][k];
    }
    for k in 0..L {
        ghat[27][k] += 0.17677669529663687 * alpha[0][k] * tr[27][k];
        ghat[27][k] += 0.17677669529663687 * alpha[3][k] * tr[20][k];
        ghat[27][k] += 0.1767766952966369 * alpha[4][k] * tr[31][k];
        ghat[27][k] += 0.17677669529663687 * alpha[5][k] * tr[16][k];
        ghat[27][k] += 0.1767766952966369 * alpha[11][k] * tr[28][k];
        ghat[27][k] += 0.17677669529663687 * alpha[14][k] * tr[6][k];
        ghat[27][k] += 0.1767766952966369 * alpha[15][k] * tr[26][k];
        ghat[27][k] += 0.1767766952966369 * alpha[25][k] * tr[17][k];
    }
    for k in 0..L {
        ghat[28][k] += 0.17677669529663687 * alpha[0][k] * tr[28][k];
        ghat[28][k] += 0.1767766952966369 * alpha[3][k] * tr[31][k];
        ghat[28][k] += 0.17677669529663687 * alpha[4][k] * tr[20][k];
        ghat[28][k] += 0.17677669529663687 * alpha[5][k] * tr[17][k];
        ghat[28][k] += 0.1767766952966369 * alpha[11][k] * tr[27][k];
        ghat[28][k] += 0.1767766952966369 * alpha[14][k] * tr[26][k];
        ghat[28][k] += 0.17677669529663687 * alpha[15][k] * tr[6][k];
        ghat[28][k] += 0.1767766952966369 * alpha[25][k] * tr[16][k];
    }
    for k in 0..L {
        ghat[29][k] += 0.17677669529663687 * alpha[0][k] * tr[29][k];
        ghat[29][k] += 0.17677669529663687 * alpha[3][k] * tr[23][k];
        ghat[29][k] += 0.17677669529663687 * alpha[4][k] * tr[21][k];
        ghat[29][k] += 0.17677669529663687 * alpha[5][k] * tr[18][k];
        ghat[29][k] += 0.17677669529663687 * alpha[11][k] * tr[12][k];
        ghat[29][k] += 0.17677669529663687 * alpha[14][k] * tr[9][k];
        ghat[29][k] += 0.17677669529663687 * alpha[15][k] * tr[7][k];
        ghat[29][k] += 0.17677669529663687 * alpha[25][k] * tr[1][k];
    }
    for k in 0..L {
        ghat[30][k] += 0.17677669529663687 * alpha[0][k] * tr[30][k];
        ghat[30][k] += 0.17677669529663687 * alpha[3][k] * tr[24][k];
        ghat[30][k] += 0.17677669529663687 * alpha[4][k] * tr[22][k];
        ghat[30][k] += 0.17677669529663687 * alpha[5][k] * tr[19][k];
        ghat[30][k] += 0.17677669529663687 * alpha[11][k] * tr[13][k];
        ghat[30][k] += 0.17677669529663687 * alpha[14][k] * tr[10][k];
        ghat[30][k] += 0.17677669529663687 * alpha[15][k] * tr[8][k];
        ghat[30][k] += 0.17677669529663687 * alpha[25][k] * tr[2][k];
    }
    for k in 0..L {
        ghat[31][k] += 0.1767766952966369 * alpha[0][k] * tr[31][k];
        ghat[31][k] += 0.1767766952966369 * alpha[3][k] * tr[28][k];
        ghat[31][k] += 0.1767766952966369 * alpha[4][k] * tr[27][k];
        ghat[31][k] += 0.1767766952966369 * alpha[5][k] * tr[26][k];
        ghat[31][k] += 0.1767766952966369 * alpha[11][k] * tr[20][k];
        ghat[31][k] += 0.1767766952966369 * alpha[14][k] * tr[17][k];
        ghat[31][k] += 0.1767766952966369 * alpha[15][k] * tr[16][k];
        ghat[31][k] += 0.1767766952966369 * alpha[25][k] * tr[6][k];
    }
    sxn(&mut out_lo[0], nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_lo[1], nu * scale * 1.224744871391589, &ghat[0]);
    sxn(&mut out_lo[2], nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_lo[3], nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_lo[4], nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_lo[5], nu * scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_lo[6], nu * scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_lo[7], nu * scale * 1.224744871391589, &ghat[1]);
    sxn(&mut out_lo[8], nu * scale * 1.224744871391589, &ghat[2]);
    sxn(&mut out_lo[9], nu * scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_lo[10], nu * scale * 1.224744871391589, &ghat[3]);
    sxn(&mut out_lo[11], nu * scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_lo[12], nu * scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_lo[13], nu * scale * 1.224744871391589, &ghat[4]);
    sxn(&mut out_lo[14], nu * scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_lo[15], nu * scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_lo[16], nu * scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_lo[17], nu * scale * 1.224744871391589, &ghat[5]);
    sxn(&mut out_lo[18], nu * scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_lo[19], nu * scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_lo[20], nu * scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_lo[21], nu * scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_lo[22], nu * scale * 1.224744871391589, &ghat[6]);
    sxn(&mut out_lo[23], nu * scale * 1.224744871391589, &ghat[7]);
    sxn(&mut out_lo[24], nu * scale * 1.224744871391589, &ghat[8]);
    sxn(&mut out_lo[25], nu * scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_lo[26], nu * scale * 1.224744871391589, &ghat[9]);
    sxn(&mut out_lo[27], nu * scale * 1.224744871391589, &ghat[10]);
    sxn(&mut out_lo[28], nu * scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_lo[29], nu * scale * 1.224744871391589, &ghat[11]);
    sxn(&mut out_lo[30], nu * scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_lo[31], nu * scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_lo[32], nu * scale * 1.224744871391589, &ghat[12]);
    sxn(&mut out_lo[33], nu * scale * 1.224744871391589, &ghat[13]);
    sxn(&mut out_lo[34], nu * scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_lo[35], nu * scale * 1.224744871391589, &ghat[14]);
    sxn(&mut out_lo[36], nu * scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_lo[37], nu * scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_lo[38], nu * scale * 1.224744871391589, &ghat[15]);
    sxn(&mut out_lo[39], nu * scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_lo[40], nu * scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_lo[41], nu * scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_lo[42], nu * scale * 1.224744871391589, &ghat[16]);
    sxn(&mut out_lo[43], nu * scale * 1.224744871391589, &ghat[17]);
    sxn(&mut out_lo[44], nu * scale * 1.224744871391589, &ghat[18]);
    sxn(&mut out_lo[45], nu * scale * 1.224744871391589, &ghat[19]);
    sxn(&mut out_lo[46], nu * scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_lo[47], nu * scale * 1.224744871391589, &ghat[20]);
    sxn(&mut out_lo[48], nu * scale * 1.224744871391589, &ghat[21]);
    sxn(&mut out_lo[49], nu * scale * 1.224744871391589, &ghat[22]);
    sxn(&mut out_lo[50], nu * scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_lo[51], nu * scale * 1.224744871391589, &ghat[23]);
    sxn(&mut out_lo[52], nu * scale * 1.224744871391589, &ghat[24]);
    sxn(&mut out_lo[53], nu * scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_lo[54], nu * scale * 1.224744871391589, &ghat[25]);
    sxn(&mut out_lo[55], nu * scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_lo[56], nu * scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_lo[57], nu * scale * 1.224744871391589, &ghat[26]);
    sxn(&mut out_lo[58], nu * scale * 1.224744871391589, &ghat[27]);
    sxn(&mut out_lo[59], nu * scale * 1.224744871391589, &ghat[28]);
    sxn(&mut out_lo[60], nu * scale * 1.224744871391589, &ghat[29]);
    sxn(&mut out_lo[61], nu * scale * 1.224744871391589, &ghat[30]);
    sxn(&mut out_lo[62], nu * scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_lo[63], nu * scale * 1.224744871391589, &ghat[31]);
    sxn(&mut out_hi[0], -nu * scale * 0.7071067811865476, &ghat[0]);
    sxn(&mut out_hi[1], -nu * scale * -1.224744871391589, &ghat[0]);
    sxn(&mut out_hi[2], -nu * scale * 0.7071067811865476, &ghat[1]);
    sxn(&mut out_hi[3], -nu * scale * 0.7071067811865476, &ghat[2]);
    sxn(&mut out_hi[4], -nu * scale * 0.7071067811865476, &ghat[3]);
    sxn(&mut out_hi[5], -nu * scale * 0.7071067811865476, &ghat[4]);
    sxn(&mut out_hi[6], -nu * scale * 0.7071067811865476, &ghat[5]);
    sxn(&mut out_hi[7], -nu * scale * -1.224744871391589, &ghat[1]);
    sxn(&mut out_hi[8], -nu * scale * -1.224744871391589, &ghat[2]);
    sxn(&mut out_hi[9], -nu * scale * 0.7071067811865476, &ghat[6]);
    sxn(&mut out_hi[10], -nu * scale * -1.224744871391589, &ghat[3]);
    sxn(&mut out_hi[11], -nu * scale * 0.7071067811865476, &ghat[7]);
    sxn(&mut out_hi[12], -nu * scale * 0.7071067811865476, &ghat[8]);
    sxn(&mut out_hi[13], -nu * scale * -1.224744871391589, &ghat[4]);
    sxn(&mut out_hi[14], -nu * scale * 0.7071067811865476, &ghat[9]);
    sxn(&mut out_hi[15], -nu * scale * 0.7071067811865476, &ghat[10]);
    sxn(&mut out_hi[16], -nu * scale * 0.7071067811865476, &ghat[11]);
    sxn(&mut out_hi[17], -nu * scale * -1.224744871391589, &ghat[5]);
    sxn(&mut out_hi[18], -nu * scale * 0.7071067811865476, &ghat[12]);
    sxn(&mut out_hi[19], -nu * scale * 0.7071067811865476, &ghat[13]);
    sxn(&mut out_hi[20], -nu * scale * 0.7071067811865476, &ghat[14]);
    sxn(&mut out_hi[21], -nu * scale * 0.7071067811865476, &ghat[15]);
    sxn(&mut out_hi[22], -nu * scale * -1.224744871391589, &ghat[6]);
    sxn(&mut out_hi[23], -nu * scale * -1.224744871391589, &ghat[7]);
    sxn(&mut out_hi[24], -nu * scale * -1.224744871391589, &ghat[8]);
    sxn(&mut out_hi[25], -nu * scale * 0.7071067811865476, &ghat[16]);
    sxn(&mut out_hi[26], -nu * scale * -1.224744871391589, &ghat[9]);
    sxn(&mut out_hi[27], -nu * scale * -1.224744871391589, &ghat[10]);
    sxn(&mut out_hi[28], -nu * scale * 0.7071067811865476, &ghat[17]);
    sxn(&mut out_hi[29], -nu * scale * -1.224744871391589, &ghat[11]);
    sxn(&mut out_hi[30], -nu * scale * 0.7071067811865476, &ghat[18]);
    sxn(&mut out_hi[31], -nu * scale * 0.7071067811865476, &ghat[19]);
    sxn(&mut out_hi[32], -nu * scale * -1.224744871391589, &ghat[12]);
    sxn(&mut out_hi[33], -nu * scale * -1.224744871391589, &ghat[13]);
    sxn(&mut out_hi[34], -nu * scale * 0.7071067811865476, &ghat[20]);
    sxn(&mut out_hi[35], -nu * scale * -1.224744871391589, &ghat[14]);
    sxn(&mut out_hi[36], -nu * scale * 0.7071067811865476, &ghat[21]);
    sxn(&mut out_hi[37], -nu * scale * 0.7071067811865476, &ghat[22]);
    sxn(&mut out_hi[38], -nu * scale * -1.224744871391589, &ghat[15]);
    sxn(&mut out_hi[39], -nu * scale * 0.7071067811865476, &ghat[23]);
    sxn(&mut out_hi[40], -nu * scale * 0.7071067811865476, &ghat[24]);
    sxn(&mut out_hi[41], -nu * scale * 0.7071067811865476, &ghat[25]);
    sxn(&mut out_hi[42], -nu * scale * -1.224744871391589, &ghat[16]);
    sxn(&mut out_hi[43], -nu * scale * -1.224744871391589, &ghat[17]);
    sxn(&mut out_hi[44], -nu * scale * -1.224744871391589, &ghat[18]);
    sxn(&mut out_hi[45], -nu * scale * -1.224744871391589, &ghat[19]);
    sxn(&mut out_hi[46], -nu * scale * 0.7071067811865476, &ghat[26]);
    sxn(&mut out_hi[47], -nu * scale * -1.224744871391589, &ghat[20]);
    sxn(&mut out_hi[48], -nu * scale * -1.224744871391589, &ghat[21]);
    sxn(&mut out_hi[49], -nu * scale * -1.224744871391589, &ghat[22]);
    sxn(&mut out_hi[50], -nu * scale * 0.7071067811865476, &ghat[27]);
    sxn(&mut out_hi[51], -nu * scale * -1.224744871391589, &ghat[23]);
    sxn(&mut out_hi[52], -nu * scale * -1.224744871391589, &ghat[24]);
    sxn(&mut out_hi[53], -nu * scale * 0.7071067811865476, &ghat[28]);
    sxn(&mut out_hi[54], -nu * scale * -1.224744871391589, &ghat[25]);
    sxn(&mut out_hi[55], -nu * scale * 0.7071067811865476, &ghat[29]);
    sxn(&mut out_hi[56], -nu * scale * 0.7071067811865476, &ghat[30]);
    sxn(&mut out_hi[57], -nu * scale * -1.224744871391589, &ghat[26]);
    sxn(&mut out_hi[58], -nu * scale * -1.224744871391589, &ghat[27]);
    sxn(&mut out_hi[59], -nu * scale * -1.224744871391589, &ghat[28]);
    sxn(&mut out_hi[60], -nu * scale * -1.224744871391589, &ghat[29]);
    sxn(&mut out_hi[61], -nu * scale * -1.224744871391589, &ghat[30]);
    sxn(&mut out_hi[62], -nu * scale * 0.7071067811865476, &ghat[31]);
    sxn(&mut out_hi[63], -nu * scale * -1.224744871391589, &ghat[31]);
}
