pub fn demo_surf_1x1v_p1_x0(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_surf_1x1v_p1_x0_b4(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_surf_1x1v_p1_x0_b4_avx2(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_surf_1x1v_p1_v0(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
