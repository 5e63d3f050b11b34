pub fn demo_lbo_1x1v_p1_drag_vol_v0(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_drag_vol_v0_b4(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_drag_vol_v0_b4_avx2(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_drag_surf_v0(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_drag_surf_v0_b4(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_drag_surf_v0_b4_avx2(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_diff_grad_v0(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_diff_grad_v0_b4(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_diff_grad_v0_b4_avx2(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_diff_vol_v0(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_diff_vol_v0_b4(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_diff_vol_v0_b4_avx2(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
pub fn demo_lbo_1x1v_p1_diff_surf_v0(f: &[f64], out: &mut [f64]) {
    out[0] += f[0];
}
