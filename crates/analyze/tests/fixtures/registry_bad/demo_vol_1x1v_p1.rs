pub fn demo_vol_1x1v_p1(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_vol_1x1v_p1_b4(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_vol_1x1v_p1_b4_avx2(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_vol_1x1v_p1_b8_avx512(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
