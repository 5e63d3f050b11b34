//! Committed auto-generated kernels and their dispatch registry.
//!
//! Generated by `cargo run -p dg-kernels --bin gen_kernel` from
//! [`crate::codegen::MANIFEST`] — do not edit by hand. Gkeyll commits
//! its Maxima-generated C++ kernels into the repository; these are the
//! same artifact in Rust, and [`crate::dispatch`] routes solvers onto
//! them. Equivalence and no-drift tests live in `tests.rs` (handwritten).

/// The Vlasov volume kernels, in a module (and so a codegen unit) of their own.
mod vol {
    use crate::dispatch::LANES;
    use crate::panel::sxn;

    include!("vlasov_vol_1x1v_p1_ser.rs");
    include!("vlasov_vol_1x1v_p2_ser.rs");
    include!("vlasov_vol_1x2v_p1_tensor.rs");
    include!("vlasov_vol_1x2v_p1_ser.rs");
    include!("vlasov_vol_1x2v_p2_ser.rs");
    include!("vlasov_vol_2x2v_p1_ser.rs");
    include!("vlasov_vol_2x2v_p2_ser.rs");
    include!("vlasov_vol_2x3v_p1_ser.rs");
    include!("vlasov_vol_2x3v_p2_ser.rs");
    include!("vlasov_vol_3x3v_p1_ser.rs");
}

/// The Vlasov surface kernels, in a module (and so a codegen unit) of their own.
mod surf {
    use crate::dispatch::LANES;
    use crate::panel::sxn;

    include!("vlasov_surf_1x1v_p1_ser.rs");
    include!("vlasov_surf_1x1v_p2_ser.rs");
    include!("vlasov_surf_1x2v_p1_tensor.rs");
    include!("vlasov_surf_1x2v_p1_ser.rs");
    include!("vlasov_surf_1x2v_p2_ser.rs");
    include!("vlasov_surf_2x2v_p1_ser.rs");
    include!("vlasov_surf_2x2v_p2_ser.rs");
    include!("vlasov_surf_2x3v_p1_ser.rs");
    include!("vlasov_surf_2x3v_p2_ser.rs");
    include!("vlasov_surf_3x3v_p1_ser.rs");
}

/// The LBO stage kernels, in a module (and so a codegen unit) of their own.
mod lbo {
    use crate::dispatch::LANES;
    use crate::panel::sxn;

    include!("lbo_1x1v_p1_ser.rs");
    include!("lbo_1x1v_p2_ser.rs");
    include!("lbo_1x2v_p1_tensor.rs");
    include!("lbo_1x2v_p1_ser.rs");
    include!("lbo_1x2v_p2_ser.rs");
    include!("lbo_2x2v_p1_ser.rs");
    include!("lbo_2x2v_p2_ser.rs");
    include!("lbo_2x3v_p1_ser.rs");
    include!("lbo_2x3v_p2_ser.rs");
    include!("lbo_3x3v_p1_ser.rs");
}

include!("vlasov_mom_1x1v_p1_ser.rs");
include!("vlasov_mom_1x1v_p2_ser.rs");
include!("vlasov_mom_1x2v_p1_tensor.rs");
include!("vlasov_mom_1x2v_p1_ser.rs");
include!("vlasov_mom_1x2v_p2_ser.rs");
include!("vlasov_mom_2x2v_p1_ser.rs");
include!("vlasov_mom_2x2v_p2_ser.rs");
include!("vlasov_mom_2x3v_p1_ser.rs");
include!("vlasov_mom_2x3v_p2_ser.rs");
include!("vlasov_mom_3x3v_p1_ser.rs");

use crate::dispatch::{
    KernelKey, LboBatchFns, LboKernelEntry, MomentKernelEntry, SurfaceKernelEntry,
    VolumeKernelEntry,
};
use dg_basis::BasisKind;
use lbo::*;
use surf::*;
use vol::*;

/// Registry of all committed unrolled volume kernels (one row per
/// manifest entry, in manifest order).
pub static VOLUME_REGISTRY: &[VolumeKernelEntry] = &[
    VolumeKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 1,
            poly_order: 1,
        },
        name: "vlasov_vol_1x1v_p1_ser",
        func: vlasov_vol_1x1v_p1_ser,
        batch: vlasov_vol_1x1v_p1_ser_b4,
        #[cfg(target_arch = "x86_64")]
        batch_avx2: vlasov_vol_1x1v_p1_ser_b4_avx2,
        #[cfg(target_arch = "x86_64")]
        batch_avx512: vlasov_vol_1x1v_p1_ser_b8_avx512,
    },
    VolumeKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 1,
            poly_order: 2,
        },
        name: "vlasov_vol_1x1v_p2_ser",
        func: vlasov_vol_1x1v_p2_ser,
        batch: vlasov_vol_1x1v_p2_ser_b4,
        #[cfg(target_arch = "x86_64")]
        batch_avx2: vlasov_vol_1x1v_p2_ser_b4_avx2,
        #[cfg(target_arch = "x86_64")]
        batch_avx512: vlasov_vol_1x1v_p2_ser_b8_avx512,
    },
    VolumeKernelEntry {
        key: KernelKey {
            kind: BasisKind::Tensor,
            cdim: 1,
            vdim: 2,
            poly_order: 1,
        },
        name: "vlasov_vol_1x2v_p1_tensor",
        func: vlasov_vol_1x2v_p1_tensor,
        batch: vlasov_vol_1x2v_p1_tensor_b4,
        #[cfg(target_arch = "x86_64")]
        batch_avx2: vlasov_vol_1x2v_p1_tensor_b4_avx2,
        #[cfg(target_arch = "x86_64")]
        batch_avx512: vlasov_vol_1x2v_p1_tensor_b8_avx512,
    },
    VolumeKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 2,
            poly_order: 1,
        },
        name: "vlasov_vol_1x2v_p1_ser",
        func: vlasov_vol_1x2v_p1_ser,
        batch: vlasov_vol_1x2v_p1_ser_b4,
        #[cfg(target_arch = "x86_64")]
        batch_avx2: vlasov_vol_1x2v_p1_ser_b4_avx2,
        #[cfg(target_arch = "x86_64")]
        batch_avx512: vlasov_vol_1x2v_p1_ser_b8_avx512,
    },
    VolumeKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 2,
            poly_order: 2,
        },
        name: "vlasov_vol_1x2v_p2_ser",
        func: vlasov_vol_1x2v_p2_ser,
        batch: vlasov_vol_1x2v_p2_ser_b4,
        #[cfg(target_arch = "x86_64")]
        batch_avx2: vlasov_vol_1x2v_p2_ser_b4_avx2,
        #[cfg(target_arch = "x86_64")]
        batch_avx512: vlasov_vol_1x2v_p2_ser_b8_avx512,
    },
    VolumeKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 2,
            poly_order: 1,
        },
        name: "vlasov_vol_2x2v_p1_ser",
        func: vlasov_vol_2x2v_p1_ser,
        batch: vlasov_vol_2x2v_p1_ser_b4,
        #[cfg(target_arch = "x86_64")]
        batch_avx2: vlasov_vol_2x2v_p1_ser_b4_avx2,
        #[cfg(target_arch = "x86_64")]
        batch_avx512: vlasov_vol_2x2v_p1_ser_b8_avx512,
    },
    VolumeKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 2,
            poly_order: 2,
        },
        name: "vlasov_vol_2x2v_p2_ser",
        func: vlasov_vol_2x2v_p2_ser,
        batch: vlasov_vol_2x2v_p2_ser_b4,
        #[cfg(target_arch = "x86_64")]
        batch_avx2: vlasov_vol_2x2v_p2_ser_b4_avx2,
        #[cfg(target_arch = "x86_64")]
        batch_avx512: vlasov_vol_2x2v_p2_ser_b8_avx512,
    },
    VolumeKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 3,
            poly_order: 1,
        },
        name: "vlasov_vol_2x3v_p1_ser",
        func: vlasov_vol_2x3v_p1_ser,
        batch: vlasov_vol_2x3v_p1_ser_b4,
        #[cfg(target_arch = "x86_64")]
        batch_avx2: vlasov_vol_2x3v_p1_ser_b4_avx2,
        #[cfg(target_arch = "x86_64")]
        batch_avx512: vlasov_vol_2x3v_p1_ser_b8_avx512,
    },
    VolumeKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 3,
            poly_order: 2,
        },
        name: "vlasov_vol_2x3v_p2_ser",
        func: vlasov_vol_2x3v_p2_ser,
        batch: vlasov_vol_2x3v_p2_ser_b4,
        #[cfg(target_arch = "x86_64")]
        batch_avx2: vlasov_vol_2x3v_p2_ser_b4_avx2,
        #[cfg(target_arch = "x86_64")]
        batch_avx512: vlasov_vol_2x3v_p2_ser_b8_avx512,
    },
    VolumeKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 3,
            vdim: 3,
            poly_order: 1,
        },
        name: "vlasov_vol_3x3v_p1_ser",
        func: vlasov_vol_3x3v_p1_ser,
        batch: vlasov_vol_3x3v_p1_ser_b4,
        #[cfg(target_arch = "x86_64")]
        batch_avx2: vlasov_vol_3x3v_p1_ser_b4_avx2,
        #[cfg(target_arch = "x86_64")]
        batch_avx512: vlasov_vol_3x3v_p1_ser_b8_avx512,
    },
];

/// Registry of all committed unrolled surface kernels (one row per
/// manifest entry; per-direction functions, configuration first).
pub static SURFACE_REGISTRY: &[SurfaceKernelEntry] = &[
    SurfaceKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 1,
            poly_order: 1,
        },
        name: "vlasov_surf_1x1v_p1_ser",
        dirs: &[vlasov_surf_1x1v_p1_ser_x0, vlasov_surf_1x1v_p1_ser_v0],
        batch: &[vlasov_surf_1x1v_p1_ser_x0_b4, vlasov_surf_1x1v_p1_ser_v0_b4],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            vlasov_surf_1x1v_p1_ser_x0_b4_avx2,
            vlasov_surf_1x1v_p1_ser_v0_b4_avx2,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx512: &[
            vlasov_surf_1x1v_p1_ser_x0_b8_avx512,
            vlasov_surf_1x1v_p1_ser_v0_b8_avx512,
        ],
    },
    SurfaceKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 1,
            poly_order: 2,
        },
        name: "vlasov_surf_1x1v_p2_ser",
        dirs: &[vlasov_surf_1x1v_p2_ser_x0, vlasov_surf_1x1v_p2_ser_v0],
        batch: &[vlasov_surf_1x1v_p2_ser_x0_b4, vlasov_surf_1x1v_p2_ser_v0_b4],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            vlasov_surf_1x1v_p2_ser_x0_b4_avx2,
            vlasov_surf_1x1v_p2_ser_v0_b4_avx2,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx512: &[
            vlasov_surf_1x1v_p2_ser_x0_b8_avx512,
            vlasov_surf_1x1v_p2_ser_v0_b8_avx512,
        ],
    },
    SurfaceKernelEntry {
        key: KernelKey {
            kind: BasisKind::Tensor,
            cdim: 1,
            vdim: 2,
            poly_order: 1,
        },
        name: "vlasov_surf_1x2v_p1_tensor",
        dirs: &[
            vlasov_surf_1x2v_p1_tensor_x0,
            vlasov_surf_1x2v_p1_tensor_v0,
            vlasov_surf_1x2v_p1_tensor_v1,
        ],
        batch: &[
            vlasov_surf_1x2v_p1_tensor_x0_b4,
            vlasov_surf_1x2v_p1_tensor_v0_b4,
            vlasov_surf_1x2v_p1_tensor_v1_b4,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            vlasov_surf_1x2v_p1_tensor_x0_b4_avx2,
            vlasov_surf_1x2v_p1_tensor_v0_b4_avx2,
            vlasov_surf_1x2v_p1_tensor_v1_b4_avx2,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx512: &[
            vlasov_surf_1x2v_p1_tensor_x0_b8_avx512,
            vlasov_surf_1x2v_p1_tensor_v0_b8_avx512,
            vlasov_surf_1x2v_p1_tensor_v1_b8_avx512,
        ],
    },
    SurfaceKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 2,
            poly_order: 1,
        },
        name: "vlasov_surf_1x2v_p1_ser",
        dirs: &[
            vlasov_surf_1x2v_p1_ser_x0,
            vlasov_surf_1x2v_p1_ser_v0,
            vlasov_surf_1x2v_p1_ser_v1,
        ],
        batch: &[
            vlasov_surf_1x2v_p1_ser_x0_b4,
            vlasov_surf_1x2v_p1_ser_v0_b4,
            vlasov_surf_1x2v_p1_ser_v1_b4,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            vlasov_surf_1x2v_p1_ser_x0_b4_avx2,
            vlasov_surf_1x2v_p1_ser_v0_b4_avx2,
            vlasov_surf_1x2v_p1_ser_v1_b4_avx2,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx512: &[
            vlasov_surf_1x2v_p1_ser_x0_b8_avx512,
            vlasov_surf_1x2v_p1_ser_v0_b8_avx512,
            vlasov_surf_1x2v_p1_ser_v1_b8_avx512,
        ],
    },
    SurfaceKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 2,
            poly_order: 2,
        },
        name: "vlasov_surf_1x2v_p2_ser",
        dirs: &[
            vlasov_surf_1x2v_p2_ser_x0,
            vlasov_surf_1x2v_p2_ser_v0,
            vlasov_surf_1x2v_p2_ser_v1,
        ],
        batch: &[
            vlasov_surf_1x2v_p2_ser_x0_b4,
            vlasov_surf_1x2v_p2_ser_v0_b4,
            vlasov_surf_1x2v_p2_ser_v1_b4,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            vlasov_surf_1x2v_p2_ser_x0_b4_avx2,
            vlasov_surf_1x2v_p2_ser_v0_b4_avx2,
            vlasov_surf_1x2v_p2_ser_v1_b4_avx2,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx512: &[
            vlasov_surf_1x2v_p2_ser_x0_b8_avx512,
            vlasov_surf_1x2v_p2_ser_v0_b8_avx512,
            vlasov_surf_1x2v_p2_ser_v1_b8_avx512,
        ],
    },
    SurfaceKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 2,
            poly_order: 1,
        },
        name: "vlasov_surf_2x2v_p1_ser",
        dirs: &[
            vlasov_surf_2x2v_p1_ser_x0,
            vlasov_surf_2x2v_p1_ser_x1,
            vlasov_surf_2x2v_p1_ser_v0,
            vlasov_surf_2x2v_p1_ser_v1,
        ],
        batch: &[
            vlasov_surf_2x2v_p1_ser_x0_b4,
            vlasov_surf_2x2v_p1_ser_x1_b4,
            vlasov_surf_2x2v_p1_ser_v0_b4,
            vlasov_surf_2x2v_p1_ser_v1_b4,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            vlasov_surf_2x2v_p1_ser_x0_b4_avx2,
            vlasov_surf_2x2v_p1_ser_x1_b4_avx2,
            vlasov_surf_2x2v_p1_ser_v0_b4_avx2,
            vlasov_surf_2x2v_p1_ser_v1_b4_avx2,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx512: &[
            vlasov_surf_2x2v_p1_ser_x0_b8_avx512,
            vlasov_surf_2x2v_p1_ser_x1_b8_avx512,
            vlasov_surf_2x2v_p1_ser_v0_b8_avx512,
            vlasov_surf_2x2v_p1_ser_v1_b8_avx512,
        ],
    },
    SurfaceKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 2,
            poly_order: 2,
        },
        name: "vlasov_surf_2x2v_p2_ser",
        dirs: &[
            vlasov_surf_2x2v_p2_ser_x0,
            vlasov_surf_2x2v_p2_ser_x1,
            vlasov_surf_2x2v_p2_ser_v0,
            vlasov_surf_2x2v_p2_ser_v1,
        ],
        batch: &[
            vlasov_surf_2x2v_p2_ser_x0_b4,
            vlasov_surf_2x2v_p2_ser_x1_b4,
            vlasov_surf_2x2v_p2_ser_v0_b4,
            vlasov_surf_2x2v_p2_ser_v1_b4,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            vlasov_surf_2x2v_p2_ser_x0_b4_avx2,
            vlasov_surf_2x2v_p2_ser_x1_b4_avx2,
            vlasov_surf_2x2v_p2_ser_v0_b4_avx2,
            vlasov_surf_2x2v_p2_ser_v1_b4_avx2,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx512: &[
            vlasov_surf_2x2v_p2_ser_x0_b8_avx512,
            vlasov_surf_2x2v_p2_ser_x1_b8_avx512,
            vlasov_surf_2x2v_p2_ser_v0_b8_avx512,
            vlasov_surf_2x2v_p2_ser_v1_b8_avx512,
        ],
    },
    SurfaceKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 3,
            poly_order: 1,
        },
        name: "vlasov_surf_2x3v_p1_ser",
        dirs: &[
            vlasov_surf_2x3v_p1_ser_x0,
            vlasov_surf_2x3v_p1_ser_x1,
            vlasov_surf_2x3v_p1_ser_v0,
            vlasov_surf_2x3v_p1_ser_v1,
            vlasov_surf_2x3v_p1_ser_v2,
        ],
        batch: &[
            vlasov_surf_2x3v_p1_ser_x0_b4,
            vlasov_surf_2x3v_p1_ser_x1_b4,
            vlasov_surf_2x3v_p1_ser_v0_b4,
            vlasov_surf_2x3v_p1_ser_v1_b4,
            vlasov_surf_2x3v_p1_ser_v2_b4,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            vlasov_surf_2x3v_p1_ser_x0_b4_avx2,
            vlasov_surf_2x3v_p1_ser_x1_b4_avx2,
            vlasov_surf_2x3v_p1_ser_v0_b4_avx2,
            vlasov_surf_2x3v_p1_ser_v1_b4_avx2,
            vlasov_surf_2x3v_p1_ser_v2_b4_avx2,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx512: &[
            vlasov_surf_2x3v_p1_ser_x0_b8_avx512,
            vlasov_surf_2x3v_p1_ser_x1_b8_avx512,
            vlasov_surf_2x3v_p1_ser_v0_b8_avx512,
            vlasov_surf_2x3v_p1_ser_v1_b8_avx512,
            vlasov_surf_2x3v_p1_ser_v2_b8_avx512,
        ],
    },
    SurfaceKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 3,
            poly_order: 2,
        },
        name: "vlasov_surf_2x3v_p2_ser",
        dirs: &[
            vlasov_surf_2x3v_p2_ser_x0,
            vlasov_surf_2x3v_p2_ser_x1,
            vlasov_surf_2x3v_p2_ser_v0,
            vlasov_surf_2x3v_p2_ser_v1,
            vlasov_surf_2x3v_p2_ser_v2,
        ],
        batch: &[
            vlasov_surf_2x3v_p2_ser_x0_b4,
            vlasov_surf_2x3v_p2_ser_x1_b4,
            vlasov_surf_2x3v_p2_ser_v0_b4,
            vlasov_surf_2x3v_p2_ser_v1_b4,
            vlasov_surf_2x3v_p2_ser_v2_b4,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            vlasov_surf_2x3v_p2_ser_x0_b4_avx2,
            vlasov_surf_2x3v_p2_ser_x1_b4_avx2,
            vlasov_surf_2x3v_p2_ser_v0_b4_avx2,
            vlasov_surf_2x3v_p2_ser_v1_b4_avx2,
            vlasov_surf_2x3v_p2_ser_v2_b4_avx2,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx512: &[
            vlasov_surf_2x3v_p2_ser_x0_b8_avx512,
            vlasov_surf_2x3v_p2_ser_x1_b8_avx512,
            vlasov_surf_2x3v_p2_ser_v0_b8_avx512,
            vlasov_surf_2x3v_p2_ser_v1_b8_avx512,
            vlasov_surf_2x3v_p2_ser_v2_b8_avx512,
        ],
    },
    SurfaceKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 3,
            vdim: 3,
            poly_order: 1,
        },
        name: "vlasov_surf_3x3v_p1_ser",
        dirs: &[
            vlasov_surf_3x3v_p1_ser_x0,
            vlasov_surf_3x3v_p1_ser_x1,
            vlasov_surf_3x3v_p1_ser_x2,
            vlasov_surf_3x3v_p1_ser_v0,
            vlasov_surf_3x3v_p1_ser_v1,
            vlasov_surf_3x3v_p1_ser_v2,
        ],
        batch: &[
            vlasov_surf_3x3v_p1_ser_x0_b4,
            vlasov_surf_3x3v_p1_ser_x1_b4,
            vlasov_surf_3x3v_p1_ser_x2_b4,
            vlasov_surf_3x3v_p1_ser_v0_b4,
            vlasov_surf_3x3v_p1_ser_v1_b4,
            vlasov_surf_3x3v_p1_ser_v2_b4,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            vlasov_surf_3x3v_p1_ser_x0_b4_avx2,
            vlasov_surf_3x3v_p1_ser_x1_b4_avx2,
            vlasov_surf_3x3v_p1_ser_x2_b4_avx2,
            vlasov_surf_3x3v_p1_ser_v0_b4_avx2,
            vlasov_surf_3x3v_p1_ser_v1_b4_avx2,
            vlasov_surf_3x3v_p1_ser_v2_b4_avx2,
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx512: &[
            vlasov_surf_3x3v_p1_ser_x0_b8_avx512,
            vlasov_surf_3x3v_p1_ser_x1_b8_avx512,
            vlasov_surf_3x3v_p1_ser_x2_b8_avx512,
            vlasov_surf_3x3v_p1_ser_v0_b8_avx512,
            vlasov_surf_3x3v_p1_ser_v1_b8_avx512,
            vlasov_surf_3x3v_p1_ser_v2_b8_avx512,
        ],
    },
];

/// Registry of all committed unrolled moment kernels (M0 / per-dir M1 /
/// M2, one row per manifest entry).
pub static MOMENT_REGISTRY: &[MomentKernelEntry] = &[
    MomentKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 1,
            poly_order: 1,
        },
        name: "vlasov_mom_1x1v_p1_ser",
        m0: vlasov_mom_1x1v_p1_ser_m0,
        m1: &[vlasov_mom_1x1v_p1_ser_m1_v0],
        m2: vlasov_mom_1x1v_p1_ser_m2,
    },
    MomentKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 1,
            poly_order: 2,
        },
        name: "vlasov_mom_1x1v_p2_ser",
        m0: vlasov_mom_1x1v_p2_ser_m0,
        m1: &[vlasov_mom_1x1v_p2_ser_m1_v0],
        m2: vlasov_mom_1x1v_p2_ser_m2,
    },
    MomentKernelEntry {
        key: KernelKey {
            kind: BasisKind::Tensor,
            cdim: 1,
            vdim: 2,
            poly_order: 1,
        },
        name: "vlasov_mom_1x2v_p1_tensor",
        m0: vlasov_mom_1x2v_p1_tensor_m0,
        m1: &[
            vlasov_mom_1x2v_p1_tensor_m1_v0,
            vlasov_mom_1x2v_p1_tensor_m1_v1,
        ],
        m2: vlasov_mom_1x2v_p1_tensor_m2,
    },
    MomentKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 2,
            poly_order: 1,
        },
        name: "vlasov_mom_1x2v_p1_ser",
        m0: vlasov_mom_1x2v_p1_ser_m0,
        m1: &[vlasov_mom_1x2v_p1_ser_m1_v0, vlasov_mom_1x2v_p1_ser_m1_v1],
        m2: vlasov_mom_1x2v_p1_ser_m2,
    },
    MomentKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 2,
            poly_order: 2,
        },
        name: "vlasov_mom_1x2v_p2_ser",
        m0: vlasov_mom_1x2v_p2_ser_m0,
        m1: &[vlasov_mom_1x2v_p2_ser_m1_v0, vlasov_mom_1x2v_p2_ser_m1_v1],
        m2: vlasov_mom_1x2v_p2_ser_m2,
    },
    MomentKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 2,
            poly_order: 1,
        },
        name: "vlasov_mom_2x2v_p1_ser",
        m0: vlasov_mom_2x2v_p1_ser_m0,
        m1: &[vlasov_mom_2x2v_p1_ser_m1_v0, vlasov_mom_2x2v_p1_ser_m1_v1],
        m2: vlasov_mom_2x2v_p1_ser_m2,
    },
    MomentKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 2,
            poly_order: 2,
        },
        name: "vlasov_mom_2x2v_p2_ser",
        m0: vlasov_mom_2x2v_p2_ser_m0,
        m1: &[vlasov_mom_2x2v_p2_ser_m1_v0, vlasov_mom_2x2v_p2_ser_m1_v1],
        m2: vlasov_mom_2x2v_p2_ser_m2,
    },
    MomentKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 3,
            poly_order: 1,
        },
        name: "vlasov_mom_2x3v_p1_ser",
        m0: vlasov_mom_2x3v_p1_ser_m0,
        m1: &[
            vlasov_mom_2x3v_p1_ser_m1_v0,
            vlasov_mom_2x3v_p1_ser_m1_v1,
            vlasov_mom_2x3v_p1_ser_m1_v2,
        ],
        m2: vlasov_mom_2x3v_p1_ser_m2,
    },
    MomentKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 3,
            poly_order: 2,
        },
        name: "vlasov_mom_2x3v_p2_ser",
        m0: vlasov_mom_2x3v_p2_ser_m0,
        m1: &[
            vlasov_mom_2x3v_p2_ser_m1_v0,
            vlasov_mom_2x3v_p2_ser_m1_v1,
            vlasov_mom_2x3v_p2_ser_m1_v2,
        ],
        m2: vlasov_mom_2x3v_p2_ser_m2,
    },
    MomentKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 3,
            vdim: 3,
            poly_order: 1,
        },
        name: "vlasov_mom_3x3v_p1_ser",
        m0: vlasov_mom_3x3v_p1_ser_m0,
        m1: &[
            vlasov_mom_3x3v_p1_ser_m1_v0,
            vlasov_mom_3x3v_p1_ser_m1_v1,
            vlasov_mom_3x3v_p1_ser_m1_v2,
        ],
        m2: vlasov_mom_3x3v_p1_ser_m2,
    },
];

/// Registry of all committed unrolled LBO collision kernels (five stage
/// functions per velocity direction, one row per manifest entry).
pub static LBO_REGISTRY: &[LboKernelEntry] = &[
    LboKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 1,
            poly_order: 1,
        },
        name: "lbo_1x1v_p1_ser",
        drag_vol: &[lbo_1x1v_p1_ser_drag_vol_v0],
        drag_surf: &[lbo_1x1v_p1_ser_drag_surf_v0],
        diff_grad: &[lbo_1x1v_p1_ser_diff_grad_v0],
        diff_vol: &[lbo_1x1v_p1_ser_diff_vol_v0],
        diff_surf: &[lbo_1x1v_p1_ser_diff_surf_v0],
        batch: &[LboBatchFns {
            drag_vol: lbo_1x1v_p1_ser_drag_vol_v0_b4,
            drag_surf: lbo_1x1v_p1_ser_drag_surf_v0_b4,
            diff_grad: lbo_1x1v_p1_ser_diff_grad_v0_b4,
            diff_vol: lbo_1x1v_p1_ser_diff_vol_v0_b4,
            diff_surf: lbo_1x1v_p1_ser_diff_surf_v0_b4,
        }],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[LboBatchFns {
            drag_vol: lbo_1x1v_p1_ser_drag_vol_v0_b4_avx2,
            drag_surf: lbo_1x1v_p1_ser_drag_surf_v0_b4_avx2,
            diff_grad: lbo_1x1v_p1_ser_diff_grad_v0_b4_avx2,
            diff_vol: lbo_1x1v_p1_ser_diff_vol_v0_b4_avx2,
            diff_surf: lbo_1x1v_p1_ser_diff_surf_v0_b4_avx2,
        }],
    },
    LboKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 1,
            poly_order: 2,
        },
        name: "lbo_1x1v_p2_ser",
        drag_vol: &[lbo_1x1v_p2_ser_drag_vol_v0],
        drag_surf: &[lbo_1x1v_p2_ser_drag_surf_v0],
        diff_grad: &[lbo_1x1v_p2_ser_diff_grad_v0],
        diff_vol: &[lbo_1x1v_p2_ser_diff_vol_v0],
        diff_surf: &[lbo_1x1v_p2_ser_diff_surf_v0],
        batch: &[LboBatchFns {
            drag_vol: lbo_1x1v_p2_ser_drag_vol_v0_b4,
            drag_surf: lbo_1x1v_p2_ser_drag_surf_v0_b4,
            diff_grad: lbo_1x1v_p2_ser_diff_grad_v0_b4,
            diff_vol: lbo_1x1v_p2_ser_diff_vol_v0_b4,
            diff_surf: lbo_1x1v_p2_ser_diff_surf_v0_b4,
        }],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[LboBatchFns {
            drag_vol: lbo_1x1v_p2_ser_drag_vol_v0_b4_avx2,
            drag_surf: lbo_1x1v_p2_ser_drag_surf_v0_b4_avx2,
            diff_grad: lbo_1x1v_p2_ser_diff_grad_v0_b4_avx2,
            diff_vol: lbo_1x1v_p2_ser_diff_vol_v0_b4_avx2,
            diff_surf: lbo_1x1v_p2_ser_diff_surf_v0_b4_avx2,
        }],
    },
    LboKernelEntry {
        key: KernelKey {
            kind: BasisKind::Tensor,
            cdim: 1,
            vdim: 2,
            poly_order: 1,
        },
        name: "lbo_1x2v_p1_tensor",
        drag_vol: &[
            lbo_1x2v_p1_tensor_drag_vol_v0,
            lbo_1x2v_p1_tensor_drag_vol_v1,
        ],
        drag_surf: &[
            lbo_1x2v_p1_tensor_drag_surf_v0,
            lbo_1x2v_p1_tensor_drag_surf_v1,
        ],
        diff_grad: &[
            lbo_1x2v_p1_tensor_diff_grad_v0,
            lbo_1x2v_p1_tensor_diff_grad_v1,
        ],
        diff_vol: &[
            lbo_1x2v_p1_tensor_diff_vol_v0,
            lbo_1x2v_p1_tensor_diff_vol_v1,
        ],
        diff_surf: &[
            lbo_1x2v_p1_tensor_diff_surf_v0,
            lbo_1x2v_p1_tensor_diff_surf_v1,
        ],
        batch: &[
            LboBatchFns {
                drag_vol: lbo_1x2v_p1_tensor_drag_vol_v0_b4,
                drag_surf: lbo_1x2v_p1_tensor_drag_surf_v0_b4,
                diff_grad: lbo_1x2v_p1_tensor_diff_grad_v0_b4,
                diff_vol: lbo_1x2v_p1_tensor_diff_vol_v0_b4,
                diff_surf: lbo_1x2v_p1_tensor_diff_surf_v0_b4,
            },
            LboBatchFns {
                drag_vol: lbo_1x2v_p1_tensor_drag_vol_v1_b4,
                drag_surf: lbo_1x2v_p1_tensor_drag_surf_v1_b4,
                diff_grad: lbo_1x2v_p1_tensor_diff_grad_v1_b4,
                diff_vol: lbo_1x2v_p1_tensor_diff_vol_v1_b4,
                diff_surf: lbo_1x2v_p1_tensor_diff_surf_v1_b4,
            },
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            LboBatchFns {
                drag_vol: lbo_1x2v_p1_tensor_drag_vol_v0_b4_avx2,
                drag_surf: lbo_1x2v_p1_tensor_drag_surf_v0_b4_avx2,
                diff_grad: lbo_1x2v_p1_tensor_diff_grad_v0_b4_avx2,
                diff_vol: lbo_1x2v_p1_tensor_diff_vol_v0_b4_avx2,
                diff_surf: lbo_1x2v_p1_tensor_diff_surf_v0_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_1x2v_p1_tensor_drag_vol_v1_b4_avx2,
                drag_surf: lbo_1x2v_p1_tensor_drag_surf_v1_b4_avx2,
                diff_grad: lbo_1x2v_p1_tensor_diff_grad_v1_b4_avx2,
                diff_vol: lbo_1x2v_p1_tensor_diff_vol_v1_b4_avx2,
                diff_surf: lbo_1x2v_p1_tensor_diff_surf_v1_b4_avx2,
            },
        ],
    },
    LboKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 2,
            poly_order: 1,
        },
        name: "lbo_1x2v_p1_ser",
        drag_vol: &[lbo_1x2v_p1_ser_drag_vol_v0, lbo_1x2v_p1_ser_drag_vol_v1],
        drag_surf: &[lbo_1x2v_p1_ser_drag_surf_v0, lbo_1x2v_p1_ser_drag_surf_v1],
        diff_grad: &[lbo_1x2v_p1_ser_diff_grad_v0, lbo_1x2v_p1_ser_diff_grad_v1],
        diff_vol: &[lbo_1x2v_p1_ser_diff_vol_v0, lbo_1x2v_p1_ser_diff_vol_v1],
        diff_surf: &[lbo_1x2v_p1_ser_diff_surf_v0, lbo_1x2v_p1_ser_diff_surf_v1],
        batch: &[
            LboBatchFns {
                drag_vol: lbo_1x2v_p1_ser_drag_vol_v0_b4,
                drag_surf: lbo_1x2v_p1_ser_drag_surf_v0_b4,
                diff_grad: lbo_1x2v_p1_ser_diff_grad_v0_b4,
                diff_vol: lbo_1x2v_p1_ser_diff_vol_v0_b4,
                diff_surf: lbo_1x2v_p1_ser_diff_surf_v0_b4,
            },
            LboBatchFns {
                drag_vol: lbo_1x2v_p1_ser_drag_vol_v1_b4,
                drag_surf: lbo_1x2v_p1_ser_drag_surf_v1_b4,
                diff_grad: lbo_1x2v_p1_ser_diff_grad_v1_b4,
                diff_vol: lbo_1x2v_p1_ser_diff_vol_v1_b4,
                diff_surf: lbo_1x2v_p1_ser_diff_surf_v1_b4,
            },
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            LboBatchFns {
                drag_vol: lbo_1x2v_p1_ser_drag_vol_v0_b4_avx2,
                drag_surf: lbo_1x2v_p1_ser_drag_surf_v0_b4_avx2,
                diff_grad: lbo_1x2v_p1_ser_diff_grad_v0_b4_avx2,
                diff_vol: lbo_1x2v_p1_ser_diff_vol_v0_b4_avx2,
                diff_surf: lbo_1x2v_p1_ser_diff_surf_v0_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_1x2v_p1_ser_drag_vol_v1_b4_avx2,
                drag_surf: lbo_1x2v_p1_ser_drag_surf_v1_b4_avx2,
                diff_grad: lbo_1x2v_p1_ser_diff_grad_v1_b4_avx2,
                diff_vol: lbo_1x2v_p1_ser_diff_vol_v1_b4_avx2,
                diff_surf: lbo_1x2v_p1_ser_diff_surf_v1_b4_avx2,
            },
        ],
    },
    LboKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 1,
            vdim: 2,
            poly_order: 2,
        },
        name: "lbo_1x2v_p2_ser",
        drag_vol: &[lbo_1x2v_p2_ser_drag_vol_v0, lbo_1x2v_p2_ser_drag_vol_v1],
        drag_surf: &[lbo_1x2v_p2_ser_drag_surf_v0, lbo_1x2v_p2_ser_drag_surf_v1],
        diff_grad: &[lbo_1x2v_p2_ser_diff_grad_v0, lbo_1x2v_p2_ser_diff_grad_v1],
        diff_vol: &[lbo_1x2v_p2_ser_diff_vol_v0, lbo_1x2v_p2_ser_diff_vol_v1],
        diff_surf: &[lbo_1x2v_p2_ser_diff_surf_v0, lbo_1x2v_p2_ser_diff_surf_v1],
        batch: &[
            LboBatchFns {
                drag_vol: lbo_1x2v_p2_ser_drag_vol_v0_b4,
                drag_surf: lbo_1x2v_p2_ser_drag_surf_v0_b4,
                diff_grad: lbo_1x2v_p2_ser_diff_grad_v0_b4,
                diff_vol: lbo_1x2v_p2_ser_diff_vol_v0_b4,
                diff_surf: lbo_1x2v_p2_ser_diff_surf_v0_b4,
            },
            LboBatchFns {
                drag_vol: lbo_1x2v_p2_ser_drag_vol_v1_b4,
                drag_surf: lbo_1x2v_p2_ser_drag_surf_v1_b4,
                diff_grad: lbo_1x2v_p2_ser_diff_grad_v1_b4,
                diff_vol: lbo_1x2v_p2_ser_diff_vol_v1_b4,
                diff_surf: lbo_1x2v_p2_ser_diff_surf_v1_b4,
            },
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            LboBatchFns {
                drag_vol: lbo_1x2v_p2_ser_drag_vol_v0_b4_avx2,
                drag_surf: lbo_1x2v_p2_ser_drag_surf_v0_b4_avx2,
                diff_grad: lbo_1x2v_p2_ser_diff_grad_v0_b4_avx2,
                diff_vol: lbo_1x2v_p2_ser_diff_vol_v0_b4_avx2,
                diff_surf: lbo_1x2v_p2_ser_diff_surf_v0_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_1x2v_p2_ser_drag_vol_v1_b4_avx2,
                drag_surf: lbo_1x2v_p2_ser_drag_surf_v1_b4_avx2,
                diff_grad: lbo_1x2v_p2_ser_diff_grad_v1_b4_avx2,
                diff_vol: lbo_1x2v_p2_ser_diff_vol_v1_b4_avx2,
                diff_surf: lbo_1x2v_p2_ser_diff_surf_v1_b4_avx2,
            },
        ],
    },
    LboKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 2,
            poly_order: 1,
        },
        name: "lbo_2x2v_p1_ser",
        drag_vol: &[lbo_2x2v_p1_ser_drag_vol_v0, lbo_2x2v_p1_ser_drag_vol_v1],
        drag_surf: &[lbo_2x2v_p1_ser_drag_surf_v0, lbo_2x2v_p1_ser_drag_surf_v1],
        diff_grad: &[lbo_2x2v_p1_ser_diff_grad_v0, lbo_2x2v_p1_ser_diff_grad_v1],
        diff_vol: &[lbo_2x2v_p1_ser_diff_vol_v0, lbo_2x2v_p1_ser_diff_vol_v1],
        diff_surf: &[lbo_2x2v_p1_ser_diff_surf_v0, lbo_2x2v_p1_ser_diff_surf_v1],
        batch: &[
            LboBatchFns {
                drag_vol: lbo_2x2v_p1_ser_drag_vol_v0_b4,
                drag_surf: lbo_2x2v_p1_ser_drag_surf_v0_b4,
                diff_grad: lbo_2x2v_p1_ser_diff_grad_v0_b4,
                diff_vol: lbo_2x2v_p1_ser_diff_vol_v0_b4,
                diff_surf: lbo_2x2v_p1_ser_diff_surf_v0_b4,
            },
            LboBatchFns {
                drag_vol: lbo_2x2v_p1_ser_drag_vol_v1_b4,
                drag_surf: lbo_2x2v_p1_ser_drag_surf_v1_b4,
                diff_grad: lbo_2x2v_p1_ser_diff_grad_v1_b4,
                diff_vol: lbo_2x2v_p1_ser_diff_vol_v1_b4,
                diff_surf: lbo_2x2v_p1_ser_diff_surf_v1_b4,
            },
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            LboBatchFns {
                drag_vol: lbo_2x2v_p1_ser_drag_vol_v0_b4_avx2,
                drag_surf: lbo_2x2v_p1_ser_drag_surf_v0_b4_avx2,
                diff_grad: lbo_2x2v_p1_ser_diff_grad_v0_b4_avx2,
                diff_vol: lbo_2x2v_p1_ser_diff_vol_v0_b4_avx2,
                diff_surf: lbo_2x2v_p1_ser_diff_surf_v0_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_2x2v_p1_ser_drag_vol_v1_b4_avx2,
                drag_surf: lbo_2x2v_p1_ser_drag_surf_v1_b4_avx2,
                diff_grad: lbo_2x2v_p1_ser_diff_grad_v1_b4_avx2,
                diff_vol: lbo_2x2v_p1_ser_diff_vol_v1_b4_avx2,
                diff_surf: lbo_2x2v_p1_ser_diff_surf_v1_b4_avx2,
            },
        ],
    },
    LboKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 2,
            poly_order: 2,
        },
        name: "lbo_2x2v_p2_ser",
        drag_vol: &[lbo_2x2v_p2_ser_drag_vol_v0, lbo_2x2v_p2_ser_drag_vol_v1],
        drag_surf: &[lbo_2x2v_p2_ser_drag_surf_v0, lbo_2x2v_p2_ser_drag_surf_v1],
        diff_grad: &[lbo_2x2v_p2_ser_diff_grad_v0, lbo_2x2v_p2_ser_diff_grad_v1],
        diff_vol: &[lbo_2x2v_p2_ser_diff_vol_v0, lbo_2x2v_p2_ser_diff_vol_v1],
        diff_surf: &[lbo_2x2v_p2_ser_diff_surf_v0, lbo_2x2v_p2_ser_diff_surf_v1],
        batch: &[
            LboBatchFns {
                drag_vol: lbo_2x2v_p2_ser_drag_vol_v0_b4,
                drag_surf: lbo_2x2v_p2_ser_drag_surf_v0_b4,
                diff_grad: lbo_2x2v_p2_ser_diff_grad_v0_b4,
                diff_vol: lbo_2x2v_p2_ser_diff_vol_v0_b4,
                diff_surf: lbo_2x2v_p2_ser_diff_surf_v0_b4,
            },
            LboBatchFns {
                drag_vol: lbo_2x2v_p2_ser_drag_vol_v1_b4,
                drag_surf: lbo_2x2v_p2_ser_drag_surf_v1_b4,
                diff_grad: lbo_2x2v_p2_ser_diff_grad_v1_b4,
                diff_vol: lbo_2x2v_p2_ser_diff_vol_v1_b4,
                diff_surf: lbo_2x2v_p2_ser_diff_surf_v1_b4,
            },
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            LboBatchFns {
                drag_vol: lbo_2x2v_p2_ser_drag_vol_v0_b4_avx2,
                drag_surf: lbo_2x2v_p2_ser_drag_surf_v0_b4_avx2,
                diff_grad: lbo_2x2v_p2_ser_diff_grad_v0_b4_avx2,
                diff_vol: lbo_2x2v_p2_ser_diff_vol_v0_b4_avx2,
                diff_surf: lbo_2x2v_p2_ser_diff_surf_v0_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_2x2v_p2_ser_drag_vol_v1_b4_avx2,
                drag_surf: lbo_2x2v_p2_ser_drag_surf_v1_b4_avx2,
                diff_grad: lbo_2x2v_p2_ser_diff_grad_v1_b4_avx2,
                diff_vol: lbo_2x2v_p2_ser_diff_vol_v1_b4_avx2,
                diff_surf: lbo_2x2v_p2_ser_diff_surf_v1_b4_avx2,
            },
        ],
    },
    LboKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 3,
            poly_order: 1,
        },
        name: "lbo_2x3v_p1_ser",
        drag_vol: &[
            lbo_2x3v_p1_ser_drag_vol_v0,
            lbo_2x3v_p1_ser_drag_vol_v1,
            lbo_2x3v_p1_ser_drag_vol_v2,
        ],
        drag_surf: &[
            lbo_2x3v_p1_ser_drag_surf_v0,
            lbo_2x3v_p1_ser_drag_surf_v1,
            lbo_2x3v_p1_ser_drag_surf_v2,
        ],
        diff_grad: &[
            lbo_2x3v_p1_ser_diff_grad_v0,
            lbo_2x3v_p1_ser_diff_grad_v1,
            lbo_2x3v_p1_ser_diff_grad_v2,
        ],
        diff_vol: &[
            lbo_2x3v_p1_ser_diff_vol_v0,
            lbo_2x3v_p1_ser_diff_vol_v1,
            lbo_2x3v_p1_ser_diff_vol_v2,
        ],
        diff_surf: &[
            lbo_2x3v_p1_ser_diff_surf_v0,
            lbo_2x3v_p1_ser_diff_surf_v1,
            lbo_2x3v_p1_ser_diff_surf_v2,
        ],
        batch: &[
            LboBatchFns {
                drag_vol: lbo_2x3v_p1_ser_drag_vol_v0_b4,
                drag_surf: lbo_2x3v_p1_ser_drag_surf_v0_b4,
                diff_grad: lbo_2x3v_p1_ser_diff_grad_v0_b4,
                diff_vol: lbo_2x3v_p1_ser_diff_vol_v0_b4,
                diff_surf: lbo_2x3v_p1_ser_diff_surf_v0_b4,
            },
            LboBatchFns {
                drag_vol: lbo_2x3v_p1_ser_drag_vol_v1_b4,
                drag_surf: lbo_2x3v_p1_ser_drag_surf_v1_b4,
                diff_grad: lbo_2x3v_p1_ser_diff_grad_v1_b4,
                diff_vol: lbo_2x3v_p1_ser_diff_vol_v1_b4,
                diff_surf: lbo_2x3v_p1_ser_diff_surf_v1_b4,
            },
            LboBatchFns {
                drag_vol: lbo_2x3v_p1_ser_drag_vol_v2_b4,
                drag_surf: lbo_2x3v_p1_ser_drag_surf_v2_b4,
                diff_grad: lbo_2x3v_p1_ser_diff_grad_v2_b4,
                diff_vol: lbo_2x3v_p1_ser_diff_vol_v2_b4,
                diff_surf: lbo_2x3v_p1_ser_diff_surf_v2_b4,
            },
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            LboBatchFns {
                drag_vol: lbo_2x3v_p1_ser_drag_vol_v0_b4_avx2,
                drag_surf: lbo_2x3v_p1_ser_drag_surf_v0_b4_avx2,
                diff_grad: lbo_2x3v_p1_ser_diff_grad_v0_b4_avx2,
                diff_vol: lbo_2x3v_p1_ser_diff_vol_v0_b4_avx2,
                diff_surf: lbo_2x3v_p1_ser_diff_surf_v0_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_2x3v_p1_ser_drag_vol_v1_b4_avx2,
                drag_surf: lbo_2x3v_p1_ser_drag_surf_v1_b4_avx2,
                diff_grad: lbo_2x3v_p1_ser_diff_grad_v1_b4_avx2,
                diff_vol: lbo_2x3v_p1_ser_diff_vol_v1_b4_avx2,
                diff_surf: lbo_2x3v_p1_ser_diff_surf_v1_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_2x3v_p1_ser_drag_vol_v2_b4_avx2,
                drag_surf: lbo_2x3v_p1_ser_drag_surf_v2_b4_avx2,
                diff_grad: lbo_2x3v_p1_ser_diff_grad_v2_b4_avx2,
                diff_vol: lbo_2x3v_p1_ser_diff_vol_v2_b4_avx2,
                diff_surf: lbo_2x3v_p1_ser_diff_surf_v2_b4_avx2,
            },
        ],
    },
    LboKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 2,
            vdim: 3,
            poly_order: 2,
        },
        name: "lbo_2x3v_p2_ser",
        drag_vol: &[
            lbo_2x3v_p2_ser_drag_vol_v0,
            lbo_2x3v_p2_ser_drag_vol_v1,
            lbo_2x3v_p2_ser_drag_vol_v2,
        ],
        drag_surf: &[
            lbo_2x3v_p2_ser_drag_surf_v0,
            lbo_2x3v_p2_ser_drag_surf_v1,
            lbo_2x3v_p2_ser_drag_surf_v2,
        ],
        diff_grad: &[
            lbo_2x3v_p2_ser_diff_grad_v0,
            lbo_2x3v_p2_ser_diff_grad_v1,
            lbo_2x3v_p2_ser_diff_grad_v2,
        ],
        diff_vol: &[
            lbo_2x3v_p2_ser_diff_vol_v0,
            lbo_2x3v_p2_ser_diff_vol_v1,
            lbo_2x3v_p2_ser_diff_vol_v2,
        ],
        diff_surf: &[
            lbo_2x3v_p2_ser_diff_surf_v0,
            lbo_2x3v_p2_ser_diff_surf_v1,
            lbo_2x3v_p2_ser_diff_surf_v2,
        ],
        batch: &[
            LboBatchFns {
                drag_vol: lbo_2x3v_p2_ser_drag_vol_v0_b4,
                drag_surf: lbo_2x3v_p2_ser_drag_surf_v0_b4,
                diff_grad: lbo_2x3v_p2_ser_diff_grad_v0_b4,
                diff_vol: lbo_2x3v_p2_ser_diff_vol_v0_b4,
                diff_surf: lbo_2x3v_p2_ser_diff_surf_v0_b4,
            },
            LboBatchFns {
                drag_vol: lbo_2x3v_p2_ser_drag_vol_v1_b4,
                drag_surf: lbo_2x3v_p2_ser_drag_surf_v1_b4,
                diff_grad: lbo_2x3v_p2_ser_diff_grad_v1_b4,
                diff_vol: lbo_2x3v_p2_ser_diff_vol_v1_b4,
                diff_surf: lbo_2x3v_p2_ser_diff_surf_v1_b4,
            },
            LboBatchFns {
                drag_vol: lbo_2x3v_p2_ser_drag_vol_v2_b4,
                drag_surf: lbo_2x3v_p2_ser_drag_surf_v2_b4,
                diff_grad: lbo_2x3v_p2_ser_diff_grad_v2_b4,
                diff_vol: lbo_2x3v_p2_ser_diff_vol_v2_b4,
                diff_surf: lbo_2x3v_p2_ser_diff_surf_v2_b4,
            },
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            LboBatchFns {
                drag_vol: lbo_2x3v_p2_ser_drag_vol_v0_b4_avx2,
                drag_surf: lbo_2x3v_p2_ser_drag_surf_v0_b4_avx2,
                diff_grad: lbo_2x3v_p2_ser_diff_grad_v0_b4_avx2,
                diff_vol: lbo_2x3v_p2_ser_diff_vol_v0_b4_avx2,
                diff_surf: lbo_2x3v_p2_ser_diff_surf_v0_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_2x3v_p2_ser_drag_vol_v1_b4_avx2,
                drag_surf: lbo_2x3v_p2_ser_drag_surf_v1_b4_avx2,
                diff_grad: lbo_2x3v_p2_ser_diff_grad_v1_b4_avx2,
                diff_vol: lbo_2x3v_p2_ser_diff_vol_v1_b4_avx2,
                diff_surf: lbo_2x3v_p2_ser_diff_surf_v1_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_2x3v_p2_ser_drag_vol_v2_b4_avx2,
                drag_surf: lbo_2x3v_p2_ser_drag_surf_v2_b4_avx2,
                diff_grad: lbo_2x3v_p2_ser_diff_grad_v2_b4_avx2,
                diff_vol: lbo_2x3v_p2_ser_diff_vol_v2_b4_avx2,
                diff_surf: lbo_2x3v_p2_ser_diff_surf_v2_b4_avx2,
            },
        ],
    },
    LboKernelEntry {
        key: KernelKey {
            kind: BasisKind::Serendipity,
            cdim: 3,
            vdim: 3,
            poly_order: 1,
        },
        name: "lbo_3x3v_p1_ser",
        drag_vol: &[
            lbo_3x3v_p1_ser_drag_vol_v0,
            lbo_3x3v_p1_ser_drag_vol_v1,
            lbo_3x3v_p1_ser_drag_vol_v2,
        ],
        drag_surf: &[
            lbo_3x3v_p1_ser_drag_surf_v0,
            lbo_3x3v_p1_ser_drag_surf_v1,
            lbo_3x3v_p1_ser_drag_surf_v2,
        ],
        diff_grad: &[
            lbo_3x3v_p1_ser_diff_grad_v0,
            lbo_3x3v_p1_ser_diff_grad_v1,
            lbo_3x3v_p1_ser_diff_grad_v2,
        ],
        diff_vol: &[
            lbo_3x3v_p1_ser_diff_vol_v0,
            lbo_3x3v_p1_ser_diff_vol_v1,
            lbo_3x3v_p1_ser_diff_vol_v2,
        ],
        diff_surf: &[
            lbo_3x3v_p1_ser_diff_surf_v0,
            lbo_3x3v_p1_ser_diff_surf_v1,
            lbo_3x3v_p1_ser_diff_surf_v2,
        ],
        batch: &[
            LboBatchFns {
                drag_vol: lbo_3x3v_p1_ser_drag_vol_v0_b4,
                drag_surf: lbo_3x3v_p1_ser_drag_surf_v0_b4,
                diff_grad: lbo_3x3v_p1_ser_diff_grad_v0_b4,
                diff_vol: lbo_3x3v_p1_ser_diff_vol_v0_b4,
                diff_surf: lbo_3x3v_p1_ser_diff_surf_v0_b4,
            },
            LboBatchFns {
                drag_vol: lbo_3x3v_p1_ser_drag_vol_v1_b4,
                drag_surf: lbo_3x3v_p1_ser_drag_surf_v1_b4,
                diff_grad: lbo_3x3v_p1_ser_diff_grad_v1_b4,
                diff_vol: lbo_3x3v_p1_ser_diff_vol_v1_b4,
                diff_surf: lbo_3x3v_p1_ser_diff_surf_v1_b4,
            },
            LboBatchFns {
                drag_vol: lbo_3x3v_p1_ser_drag_vol_v2_b4,
                drag_surf: lbo_3x3v_p1_ser_drag_surf_v2_b4,
                diff_grad: lbo_3x3v_p1_ser_diff_grad_v2_b4,
                diff_vol: lbo_3x3v_p1_ser_diff_vol_v2_b4,
                diff_surf: lbo_3x3v_p1_ser_diff_surf_v2_b4,
            },
        ],
        #[cfg(target_arch = "x86_64")]
        batch_avx2: &[
            LboBatchFns {
                drag_vol: lbo_3x3v_p1_ser_drag_vol_v0_b4_avx2,
                drag_surf: lbo_3x3v_p1_ser_drag_surf_v0_b4_avx2,
                diff_grad: lbo_3x3v_p1_ser_diff_grad_v0_b4_avx2,
                diff_vol: lbo_3x3v_p1_ser_diff_vol_v0_b4_avx2,
                diff_surf: lbo_3x3v_p1_ser_diff_surf_v0_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_3x3v_p1_ser_drag_vol_v1_b4_avx2,
                drag_surf: lbo_3x3v_p1_ser_drag_surf_v1_b4_avx2,
                diff_grad: lbo_3x3v_p1_ser_diff_grad_v1_b4_avx2,
                diff_vol: lbo_3x3v_p1_ser_diff_vol_v1_b4_avx2,
                diff_surf: lbo_3x3v_p1_ser_diff_surf_v1_b4_avx2,
            },
            LboBatchFns {
                drag_vol: lbo_3x3v_p1_ser_drag_vol_v2_b4_avx2,
                drag_surf: lbo_3x3v_p1_ser_drag_surf_v2_b4_avx2,
                diff_grad: lbo_3x3v_p1_ser_diff_grad_v2_b4_avx2,
                diff_vol: lbo_3x3v_p1_ser_diff_vol_v2_b4_avx2,
                diff_surf: lbo_3x3v_p1_ser_diff_surf_v2_b4_avx2,
            },
        ],
    },
];

#[cfg(test)]
mod tests;
