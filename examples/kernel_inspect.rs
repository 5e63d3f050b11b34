//! Print the Fig. 1 artifact: the auto-generated, fully unrolled volume
//! kernel for 1X2V, p = 1, tensor basis — plus its operation-count audit
//! against the alias-free quadrature (nodal) pipeline.
//!
//! ```text
//! cargo run --release --example kernel_inspect
//! ```

use dg_nodal::{alias_free_points, QuadEval};
use vlasov_dg::basis::{Basis, BasisKind};
use vlasov_dg::kernels::codegen::{count_update_statements, volume_kernel_source};
use vlasov_dg::kernels::{kernels_for, PhaseLayout};

fn main() {
    let p = 1;
    let pk = kernels_for(BasisKind::Tensor, PhaseLayout::new(1, 2), p);
    let src = volume_kernel_source(&pk, "vlasov_vol_1x2v_p1_tensor");

    println!("// ===== Fig. 1: generated volume kernel (Rust) =====");
    println!("{src}");

    let report = pk.op_report();
    let statements = count_update_statements(&src);
    let modal = report.streaming_volume + report.accel_volume;
    // The same volume evaluation through the quadrature tables `dg_nodal`
    // runs, at the alias-free ⌈(3p+1)/2⌉ Gauss points per dimension.
    let face_bases: Vec<&Basis> = pk.surfaces.iter().map(|s| &s.kernel.face.basis).collect();
    let quad = QuadEval::new(&pk.phase_basis, &face_bases, alias_free_points(p));
    let nodal = quad.volume_mults(pk.np(), pk.layout.ndim());
    println!("// ===== operation audit =====");
    println!("// Np = {} (tensor p=1, 1X2V)", report.np);
    println!("// volume update statements      : {statements}");
    println!("// modal multiplications (volume): {modal}");
    println!(
        "// modal α-assembly              : {}",
        report.alpha_assembly
    );
    println!("// modal surface                 : {}", report.surface);
    println!("// modal total per cell          : {}", report.total());
    println!("// nodal multiplications (volume): {nodal}");
    println!(
        "// nodal / modal (volume)        : {:.2}×  (paper: ~70 modal vs ~250 nodal)",
        nodal as f64 / modal as f64
    );
}
