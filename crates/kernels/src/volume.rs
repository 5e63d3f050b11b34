//! Volume-integral kernels: `out_l += (2/Δ_dir) Σ_{m,n} C^dir_{lmn} α_m f_n`.
//!
//! Two specializations, mirroring the structure of the Vlasov phase-space
//! flux `α = (v, q/m (E + v×B))`:
//!
//! * **streaming** (configuration directions): `α = v_d` is affine in one
//!   reference coordinate, so only two modes of `α` are non-zero and the
//!   triple contraction collapses to two sparse *matrices* applied with
//!   per-cell affine weights — the big win visible in the paper's Fig. 1
//!   kernel;
//! * **acceleration** (velocity directions): `α` is the projection of
//!   `q/m (E_h + v × B_h)`, supported on configuration modes times at most
//!   one linear velocity factor; the triple tensor is built with `m`
//!   restricted to exactly that support.

use crate::tables1d::ExactTables;
use crate::triple::{build_triple, DimTable, SparseTriple, TripleEntry, TripleSpec};
use dg_basis::{expand, Basis};
use dg_poly::mpoly::Exps;
use dg_poly::MAX_DIM;

/// Sparse matrix piece of a streaming kernel: `out[l] += c · f[n]`.
#[derive(Clone, Debug, Default)]
pub struct SparseMat {
    pub entries: Vec<(u16, u16, f64)>,
}

impl SparseMat {
    #[inline]
    pub fn apply(&self, f: &[f64], scale: f64, out: &mut [f64]) {
        for &(l, n, c) in &self.entries {
            out[l as usize] += scale * c * f[n as usize];
        }
    }

    pub fn nnz(&self) -> usize {
        self.entries.len()
    }
}

/// Volume kernel for the streaming term `∇_x · (v f)` along one
/// configuration direction.
#[derive(Clone, Debug)]
pub struct StreamingVolume {
    /// Configuration direction (phase dimension index `< cdim`).
    pub dir: usize,
    /// Paired velocity phase-dimension (`cdim + dir`).
    pub vdim_of: usize,
    /// Contraction against the constant mode of `α = v`.
    pub s0: SparseMat,
    /// Contraction against the linear-in-`ξ_{v}` mode of `α = v`.
    pub s1: SparseMat,
    /// Modal coefficient of `1` (constant mode of the phase basis).
    pub c0: f64,
    /// Modal coefficient of `ξ_v` (linear mode).
    pub c1: f64,
}

impl StreamingVolume {
    pub fn build(basis: &Basis, tables: &ExactTables, dir: usize, vdim_of: usize) -> Self {
        let ndim = basis.ndim();
        assert!(dir < ndim && vdim_of < ndim && dir != vdim_of);
        let dim_tables: Vec<DimTable> = (0..ndim)
            .map(|d| {
                if d == dir {
                    DimTable::Grad
                } else {
                    DimTable::Mass
                }
            })
            .collect();
        // α = v is supported on the constant mode and the linear mode in
        // the paired velocity dimension.
        let mut caps: Exps = [0; MAX_DIM];
        caps[vdim_of] = 1;
        let spec = TripleSpec {
            basis_l: basis,
            basis_m: basis,
            basis_n: basis,
            dim_tables: &dim_tables,
            m_caps: Some(&caps),
            m_filter: None,
        };
        let st = build_triple(&spec, tables);

        let mut lin: Exps = [0; MAX_DIM];
        lin[vdim_of] = 1;
        let lin_idx = basis.find(&lin).expect("linear mode exists for p ≥ 1") as u16;
        let mut s0 = SparseMat::default();
        let mut s1 = SparseMat::default();
        for e in &st.entries {
            if e.m == 0 {
                s0.entries.push((e.l, e.n, e.coeff));
            } else {
                debug_assert_eq!(e.m, lin_idx);
                s1.entries.push((e.l, e.n, e.coeff));
            }
        }
        let c0 = expand::const_coeff(basis);
        let (_, c1) = expand::linear_coeff(basis, vdim_of).expect("p ≥ 1");
        StreamingVolume {
            dir,
            vdim_of,
            s0,
            s1,
            c0,
            c1,
        }
    }

    /// Apply for a cell whose velocity coordinate along `vdim_of` has
    /// center `v_c` and width `dv`: `α = v_c + (dv/2) ξ`.
    #[inline]
    pub fn apply(&self, f: &[f64], v_c: f64, dv: f64, scale: f64, out: &mut [f64]) {
        self.s0.apply(f, scale * v_c * self.c0, out);
        self.s1.apply(f, scale * 0.5 * dv * self.c1, out);
    }

    pub fn mult_count(&self) -> usize {
        // One multiply per entry plus the two hoisted scale products.
        self.s0.nnz() + self.s1.nnz() + 2
    }
}

/// Volume kernel for the acceleration term `∇_v · (α f)` along one velocity
/// direction; `α` is provided per cell as a modal expansion (built by
/// [`crate::accel::AccelProject`]).
#[derive(Clone, Debug)]
pub struct AccelVolume {
    /// Velocity direction index `j` (the phase dimension is `cdim + j`).
    pub vdir: usize,
    pub tensor: SparseTriple,
}

impl AccelVolume {
    /// `cdim`/`vdim` describe the phase-space split of `basis`'s dims.
    pub fn build(
        basis: &Basis,
        tables: &ExactTables,
        cdim: usize,
        vdim: usize,
        vdir: usize,
    ) -> Self {
        let ndim = basis.ndim();
        assert_eq!(ndim, cdim + vdim);
        let phase_dim = cdim + vdir;
        let dim_tables: Vec<DimTable> = (0..ndim)
            .map(|d| {
                if d == phase_dim {
                    DimTable::Grad
                } else {
                    DimTable::Mass
                }
            })
            .collect();
        // α_j = q/m (E_j + (v×B)_j): configuration modes arbitrary, velocity
        // content at most one linear factor in a direction k ≠ j.
        let mut caps: Exps = [0; MAX_DIM];
        let p = basis.poly_order() as u8;
        for (d, cap) in caps.iter_mut().enumerate().take(cdim) {
            let _ = d;
            *cap = p;
        }
        for k in 0..vdim {
            if k != vdir {
                caps[cdim + k] = 1;
            }
        }
        let filter = move |e: &Exps| -> bool {
            // at most one linear velocity factor
            e[cdim..cdim + vdim].iter().filter(|&&x| x > 0).count() <= 1
        };
        let spec = TripleSpec {
            basis_l: basis,
            basis_m: basis,
            basis_n: basis,
            dim_tables: &dim_tables,
            m_caps: Some(&caps),
            m_filter: Some(&filter),
        };
        AccelVolume {
            vdir,
            tensor: build_triple(&spec, tables),
        }
    }

    /// `out[l] += scale Σ C_lmn α[m] f[n]`.
    #[inline]
    pub fn apply(&self, alpha: &[f64], f: &[f64], scale: f64, out: &mut [f64]) {
        self.tensor.apply(alpha, f, scale, out);
    }

    pub fn mult_count(&self) -> usize {
        self.tensor.mult_count()
    }

    /// Entries of the underlying tensor (for codegen / audits).
    pub fn entries(&self) -> &[TripleEntry] {
        &self.tensor.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::volume_registry;
    use dg_basis::BasisKind;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The l = 0 row of every volume tensor vanishes (∂w_0 = 0), so a
        /// volume term never changes a cell mean: mass moves only through
        /// faces. Checked on the generated kernel of every `MANIFEST`
        /// configuration, on random cell data: `out[0]` stays bitwise
        /// `0.0` from a zeroed output.
        #[test]
        fn streaming_volume_is_divergence_free_in_mean(
            qm in -3.0..3.0f64,
            w_raw in proptest::collection::vec(-2.0..2.0f64, 6),
            dxv_raw in proptest::collection::vec(0.1..2.0f64, 6),
            em_raw in proptest::collection::vec(-1.0..1.0f64, 8 * 16),
            f_raw in proptest::collection::vec(-1.0..1.0f64, 128),
        ) {
            for entry in volume_registry() {
                let k = entry.key;
                let ndim = k.cdim + k.vdim;
                let np = Basis::new(k.kind, ndim, k.poly_order).len();
                let nc = Basis::new(k.kind, k.cdim, k.poly_order).len();
                let mut out = vec![0.0; np];
                (entry.func)(&w_raw[..ndim], &dxv_raw[..ndim], qm, &em_raw[..8 * nc], &f_raw[..np], &mut out);
                prop_assert!(
                    out[0].to_bits() == 0,
                    "{}: the volume term moved the cell mean by {}", entry.name, out[0]
                );
            }
        }
    }

    #[test]
    fn streaming_matches_general_triple_contraction() {
        // Applying (s0, s1) with affine weights equals contracting the full
        // tensor with the modal expansion of v.
        let basis = Basis::new(BasisKind::Tensor, 2, 2); // 1X1V
        let tables = ExactTables::new(2);
        let sv = StreamingVolume::build(&basis, &tables, 0, 1);

        let np = basis.len();
        let f: Vec<f64> = (0..np).map(|i| (0.3 + i as f64).sin()).collect();
        let (v_c, dv) = (1.7, 0.4);

        let mut out = vec![0.0; np];
        sv.apply(&f, v_c, dv, 1.0, &mut out);

        // General path: full tensor, α = v expansion.
        let dim_tables = [DimTable::Grad, DimTable::Mass];
        let spec = TripleSpec {
            basis_l: &basis,
            basis_m: &basis,
            basis_n: &basis,
            dim_tables: &dim_tables,
            m_caps: None,
            m_filter: None,
        };
        let full = build_triple(&spec, &tables);
        let mut alpha = vec![0.0; np];
        expand::affine(&basis, 1, v_c, 0.5 * dv, &mut alpha);
        let mut want = vec![0.0; np];
        full.apply(&alpha, &f, 1.0, &mut want);

        for i in 0..np {
            assert!((out[i] - want[i]).abs() < 1e-12, "mode {i}");
        }
    }

    #[test]
    fn fig1_ballpark_mult_count() {
        // Paper, Fig. 1: the 1X2V p=1 tensor volume kernel has ~70
        // multiplications (both streaming and acceleration volume parts).
        let basis = Basis::new(BasisKind::Tensor, 3, 1);
        let tables = ExactTables::new(1);
        let sv = StreamingVolume::build(&basis, &tables, 0, 1);
        let a0 = AccelVolume::build(&basis, &tables, 1, 2, 0);
        let a1 = AccelVolume::build(&basis, &tables, 1, 2, 1);
        let total = sv.mult_count() + a0.mult_count() + a1.mult_count();
        // The exact number depends on how α-assembly is attributed; the
        // paper's count is ~70, quadrature-based nodal ~250. Assert we land
        // in the alias-free-modal ballpark, nowhere near the nodal cost.
        assert!(
            (30..=150).contains(&total),
            "unexpected mult count {total} for the Fig. 1 kernel"
        );
    }
}
