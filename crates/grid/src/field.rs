//! Flat DG coefficient storage.

/// Mutable access to per-cell coefficient blocks, abstracting over a whole
/// field ([`DgField`]) and a contiguous sub-range of one ([`DgFieldSlice`]).
///
/// This is the seam the shared-memory parallel layer threads through: each
/// "rank" receives a disjoint [`DgFieldSlice`] of the output field (the
/// configuration-major layout makes every rank's cells contiguous), so the
/// update kernels run unchanged and Rust's borrow rules prove the absence
/// of write races — the paper's no-ghost-layer intra-node decomposition.
pub trait CellStoreMut {
    fn ncoeff(&self) -> usize;
    /// Mutable coefficient block of cell `i` (global cell numbering).
    fn cell_mut(&mut self, i: usize) -> &mut [f64];
    /// Two disjoint cells at once (face updates touch both sides).
    fn cell_pair_mut(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]);
    /// The pairwise distinct cells `idx[..n]` at once (a panel unpack writes
    /// a whole lane group); slots `n..` come back empty, whatever they name.
    fn cells_mut<const N: usize>(&mut self, idx: &[usize; N], n: usize) -> [&mut [f64]; N];
}

/// [`CellStoreMut::cells_mut`] over a flat coefficient slice whose first
/// cell is `first_cell`.
fn disjoint_cells_mut<'a, const N: usize>(
    data: &'a mut [f64],
    ncoeff: usize,
    first_cell: usize,
    idx: &[usize; N],
    n: usize,
) -> [&'a mut [f64]; N] {
    let local = |cell: usize| {
        cell.checked_sub(first_cell)
            .expect("cell below this store's range")
    };
    // A run of consecutive cells — every panel of the cell sweeps, and of
    // the face sweeps along the slowest velocity direction — is one block
    // cut into cells: no pairwise overlap checks (23 ns for eight cells,
    // as much as unpacking them at Np = 8).
    if ncoeff > 0 && n > 0 && idx[..n].windows(2).all(|w| w[1] == w[0] + 1) {
        let first = local(idx[0]);
        let mut cells = data[first * ncoeff..(first + n) * ncoeff].chunks_exact_mut(ncoeff);
        return std::array::from_fn(|_| cells.next().unwrap_or_default());
    }
    // Spare slots ask for the empty range, which overlaps nothing.
    let ranges = std::array::from_fn(|k| {
        if k < n {
            local(idx[k]) * ncoeff..(local(idx[k]) + 1) * ncoeff
        } else {
            0..0
        }
    });
    data.get_disjoint_mut(ranges)
        .expect("distinct cells inside this store")
}

/// Modal DG coefficients for every cell of some grid: `ncoeff` doubles per
/// cell (for a distribution function `ncoeff = Np`; for the EM field
/// `ncoeff = ncomp × Nc`), cell-major and contiguous.
#[derive(Clone, Debug, PartialEq)]
pub struct DgField {
    ncells: usize,
    ncoeff: usize,
    data: Vec<f64>,
}

impl DgField {
    pub fn zeros(ncells: usize, ncoeff: usize) -> Self {
        DgField {
            ncells,
            ncoeff,
            data: vec![0.0; ncells * ncoeff],
        }
    }

    /// The field whose cell-major coefficients are `data`.
    ///
    /// # Panics
    ///
    /// When `data` does not hold exactly `ncells × ncoeff` values.
    pub fn from_vec(ncells: usize, ncoeff: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            ncells.checked_mul(ncoeff),
            Some(data.len()),
            "{ncells} cells × {ncoeff} coefficients"
        );
        DgField {
            ncells,
            ncoeff,
            data,
        }
    }

    pub fn ncells(&self) -> usize {
        self.ncells
    }

    pub fn ncoeff(&self) -> usize {
        self.ncoeff
    }

    #[inline]
    pub fn cell(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncoeff..(i + 1) * self.ncoeff]
    }

    #[inline]
    pub fn cell_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncoeff..(i + 1) * self.ncoeff]
    }

    /// Two disjoint cells mutably (face updates write both sides).
    #[inline]
    pub fn cell_pair_mut(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(i, j);
        let nc = self.ncoeff;
        if i < j {
            let (a, b) = self.data.split_at_mut(j * nc);
            (&mut a[i * nc..(i + 1) * nc], &mut b[..nc])
        } else {
            let (a, b) = self.data.split_at_mut(i * nc);
            let bi = &mut b[..nc];
            (bi, &mut a[j * nc..(j + 1) * nc])
        }
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `self += a · rhs` — the forward-Euler / RK-stage accumulation.
    pub fn axpy(&mut self, a: f64, rhs: &DgField) {
        debug_assert_eq!(self.data.len(), rhs.data.len());
        for (x, y) in self.data.iter_mut().zip(&rhs.data) {
            *x += a * y;
        }
    }

    /// `self = a·self + b·other` — SSP-RK convex combinations.
    pub fn lincomb(&mut self, a: f64, b: f64, other: &DgField) {
        debug_assert_eq!(self.data.len(), other.data.len());
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x = a * *x + b * y;
        }
    }

    pub fn copy_from(&mut self, other: &DgField) {
        self.data.copy_from_slice(&other.data);
    }

    /// `self = u + a·r` in one sweep — [`Self::copy_from`] then
    /// [`Self::axpy`], element for element the same expression.
    pub fn euler_from(&mut self, u: &DgField, a: f64, r: &DgField) {
        debug_assert_eq!(self.data.len(), u.data.len());
        debug_assert_eq!(self.data.len(), r.data.len());
        for (x, (u, r)) in self.data.iter_mut().zip(u.data.iter().zip(&r.data)) {
            *x = u + a * r;
        }
    }

    /// `self = b·(self + a·r) + c·u` in one sweep — [`Self::axpy`] then
    /// [`Self::lincomb`], element for element the same expressions.
    pub fn euler_lincomb(&mut self, a: f64, r: &DgField, b: f64, c: f64, u: &DgField) {
        debug_assert_eq!(self.data.len(), r.data.len());
        debug_assert_eq!(self.data.len(), u.data.len());
        for (x, (r, u)) in self.data.iter_mut().zip(r.data.iter().zip(&u.data)) {
            *x = b * (*x + a * r) + c * u;
        }
    }

    /// `self = b·self + c·(s + a·r)` in one sweep — `s.axpy(a, r)` then
    /// `self.lincomb(b, c, s)`, element for element the same expressions,
    /// without writing `s`.
    pub fn lincomb_euler(&mut self, b: f64, c: f64, s: &DgField, a: f64, r: &DgField) {
        debug_assert_eq!(self.data.len(), s.data.len());
        debug_assert_eq!(self.data.len(), r.data.len());
        for (x, (s, r)) in self.data.iter_mut().zip(s.data.iter().zip(&r.data)) {
            *x = b * *x + c * (s + a * r);
        }
    }

    /// L2 norm of the raw coefficient vector (≡ the L2 norm of the DG
    /// function up to the constant reference-volume Jacobian, by
    /// orthonormality — the paper's field-energy bookkeeping).
    pub fn coeff_norm_sq(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Maximum absolute coefficient (stability monitoring). NaN
    /// propagates: `f64::max` would silently prefer its non-NaN operand,
    /// reporting an all-NaN field as `0.0` and blinding the blow-up
    /// guard that watches this value.
    ///
    /// Runs on every step of every run, so it folds over eight independent
    /// running maxima with a sticky NaN flag instead of one serial
    /// compare-select chain (whose latency, not its work, set the pace);
    /// a maximum does not depend on the order it is taken in, so the value
    /// is the serial fold's bit for bit, and NaN iff any coefficient is.
    pub fn max_abs(&self) -> f64 {
        const WAYS: usize = 8;
        let mut max = [0.0f64; WAYS];
        let mut nan = false;
        let mut fold = |m: &mut f64, x: &f64| {
            let a = x.abs();
            nan |= a.is_nan();
            *m = if a > *m { a } else { *m };
        };
        let (chunks, tail) = self.data.as_chunks::<WAYS>();
        for chunk in chunks {
            max.iter_mut().zip(chunk).for_each(|(m, x)| fold(m, x));
        }
        max.iter_mut().zip(tail).for_each(|(m, x)| fold(m, x));
        if nan {
            return f64::NAN;
        }
        max.into_iter().fold(0.0, |m, a| if a > m { a } else { m })
    }

    /// Split into disjoint mutable views at the given cell boundaries
    /// (ascending, within `0..=ncells`); view `k` covers cells
    /// `boundaries[k]..boundaries[k+1]` with `0` and `ncells` implied at the
    /// ends.
    pub fn split_cells_mut(&mut self, boundaries: &[usize]) -> Vec<DgFieldSlice<'_>> {
        let ncoeff = self.ncoeff;
        let mut out = Vec::with_capacity(boundaries.len() + 1);
        let mut start = 0usize;
        let mut rest: &mut [f64] = &mut self.data;
        for &b in boundaries.iter().chain(std::iter::once(&self.ncells)) {
            assert!(b >= start && b <= self.ncells, "boundaries must ascend");
            let (head, tail) = rest.split_at_mut((b - start) * ncoeff);
            out.push(DgFieldSlice {
                first_cell: start,
                ncoeff,
                data: head,
            });
            rest = tail;
            start = b;
        }
        out
    }
}

impl CellStoreMut for DgField {
    fn ncoeff(&self) -> usize {
        self.ncoeff
    }

    #[inline]
    fn cell_mut(&mut self, i: usize) -> &mut [f64] {
        DgField::cell_mut(self, i)
    }

    #[inline]
    fn cell_pair_mut(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        DgField::cell_pair_mut(self, i, j)
    }

    #[inline]
    fn cells_mut<const N: usize>(&mut self, idx: &[usize; N], n: usize) -> [&mut [f64]; N] {
        disjoint_cells_mut(&mut self.data, self.ncoeff, 0, idx, n)
    }
}

/// A contiguous, exclusively borrowed cell range of a [`DgField`], indexed
/// with *global* cell numbers.
#[derive(Debug)]
pub struct DgFieldSlice<'a> {
    first_cell: usize,
    ncoeff: usize,
    data: &'a mut [f64],
}

impl DgFieldSlice<'_> {
    /// Build a view over `ncells` cells starting at global cell
    /// `first_cell`, from a raw pointer to that cell's first coefficient.
    ///
    /// This is the allocation-free sibling of
    /// [`DgField::split_cells_mut`] for the threaded RHS sweep: each
    /// worker derives its own disjoint view from the field's base pointer
    /// without materializing a `Vec` of views per call.
    ///
    /// # Safety
    ///
    /// `data` must point to `ncells * ncoeff` valid, exclusively borrowed
    /// `f64`s (no other live reference — shared or mutable — may overlap
    /// them for `'a`), laid out as `ncells` consecutive cells of `ncoeff`
    /// coefficients each.
    pub unsafe fn from_raw<'a>(
        data: *mut f64,
        first_cell: usize,
        ncells: usize,
        ncoeff: usize,
    ) -> DgFieldSlice<'a> {
        DgFieldSlice {
            first_cell,
            ncoeff,
            data: std::slice::from_raw_parts_mut(data, ncells * ncoeff),
        }
    }

    pub fn first_cell(&self) -> usize {
        self.first_cell
    }

    pub fn ncells(&self) -> usize {
        self.data.len() / self.ncoeff
    }

    /// Does this view own the given global cell index?
    pub fn owns(&self, i: usize) -> bool {
        i >= self.first_cell && i < self.first_cell + self.ncells()
    }

    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }
}

impl CellStoreMut for DgFieldSlice<'_> {
    fn ncoeff(&self) -> usize {
        self.ncoeff
    }

    #[inline]
    fn cell_mut(&mut self, i: usize) -> &mut [f64] {
        let local = i
            .checked_sub(self.first_cell)
            .expect("cell below this rank's range");
        &mut self.data[local * self.ncoeff..(local + 1) * self.ncoeff]
    }

    #[inline]
    fn cell_pair_mut(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(i, j);
        let li = i.checked_sub(self.first_cell).expect("cell below range");
        let lj = j.checked_sub(self.first_cell).expect("cell below range");
        let nc = self.ncoeff;
        if li < lj {
            let (a, b) = self.data.split_at_mut(lj * nc);
            (&mut a[li * nc..(li + 1) * nc], &mut b[..nc])
        } else {
            let (a, b) = self.data.split_at_mut(li * nc);
            let bi = &mut b[..nc];
            (bi, &mut a[lj * nc..(lj + 1) * nc])
        }
    }

    #[inline]
    fn cells_mut<const N: usize>(&mut self, idx: &[usize; N], n: usize) -> [&mut [f64]; N] {
        disjoint_cells_mut(self.data, self.ncoeff, self.first_cell, idx, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_views_partition_storage() {
        let mut f = DgField::zeros(4, 3);
        for i in 0..4 {
            for k in 0..3 {
                f.cell_mut(i)[k] = (i * 3 + k) as f64;
            }
        }
        assert_eq!(
            f.as_slice(),
            &(0..12).map(|x| x as f64).collect::<Vec<_>>()[..]
        );
        assert_eq!(f.cell(2), &[6.0, 7.0, 8.0]);
    }

    #[test]
    fn cell_pair_mut_both_orders() {
        let mut f = DgField::zeros(3, 2);
        {
            let (a, b) = f.cell_pair_mut(0, 2);
            a[0] = 1.0;
            b[1] = 2.0;
        }
        {
            let (a, b) = f.cell_pair_mut(2, 0);
            assert_eq!(a[1], 2.0);
            assert_eq!(b[0], 1.0);
        }
    }

    #[test]
    #[should_panic]
    fn cell_pair_mut_rejects_aliasing() {
        let mut f = DgField::zeros(3, 2);
        let _ = f.cell_pair_mut(1, 1);
    }

    #[test]
    fn cells_mut_any_order_spare_slots_empty() {
        let mut f = DgField::zeros(5, 2);
        {
            // Slot 2 is spare: its index (a repeat) is never looked at.
            let [a, b, spare] = CellStoreMut::cells_mut(&mut f, &[4, 1, 1], 2);
            a[0] = 4.0;
            b[1] = 1.0;
            assert!(spare.is_empty());
        }
        assert_eq!(f.cell(4), &[4.0, 0.0]);
        assert_eq!(f.cell(1), &[0.0, 1.0]);
        // A consecutive run (cut from one block), partial and full.
        {
            let [a, b, spare] = CellStoreMut::cells_mut(&mut f, &[2, 3, 3], 2);
            a[1] = 2.0;
            b[0] = 3.0;
            assert!(spare.is_empty());
            let [a, _, c] = CellStoreMut::cells_mut(&mut f, &[2, 3, 4], 3);
            assert_eq!((a[1], c[0]), (2.0, 4.0));
        }
        assert_eq!(f.cell(3), &[3.0, 0.0]);
        // Through a view, with global numbering.
        let mut views = f.split_cells_mut(&[3]);
        let [c] = views[1].cells_mut(&[4], 1);
        assert_eq!(c, &[4.0, 0.0]);
        let [b, c] = views[1].cells_mut(&[3, 4], 2);
        assert_eq!((b[0], c[0]), (3.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "distinct cells")]
    fn cells_mut_rejects_aliasing() {
        let mut f = DgField::zeros(3, 2);
        let _ = CellStoreMut::cells_mut(&mut f, &[1, 1], 2);
    }

    #[test]
    fn linear_ops() {
        let mut a = DgField::zeros(2, 2);
        let mut b = DgField::zeros(2, 2);
        a.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        b.as_mut_slice().copy_from_slice(&[10.0, 20.0, 30.0, 40.0]);
        a.axpy(0.1, &b);
        assert_eq!(a.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        a.lincomb(0.5, 0.25, &b);
        assert_eq!(a.as_slice(), &[3.5, 7.0, 10.5, 14.0]);
        assert!((b.coeff_norm_sq() - 3000.0).abs() < 1e-12);
        assert_eq!(b.max_abs(), 40.0);
    }

    #[test]
    fn fused_stage_ops_match_their_two_op_sequences_bitwise() {
        // Signed zeros (where `0 + x` and `x` differ), subnormals, ±inf and
        // NaN in every operand, against each other and ordinary values.
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.5,
            -2.25e-3,
            0.1,
            -1.0 / 3.0,
            7.0e300,
        ];
        let n = specials.len();
        let field = |k: usize| {
            let data = (0..n * n * n).map(|i| specials[(i / n.pow(k as u32)) % n]);
            DgField::from_vec(n * n * n, 1, data.collect())
        };
        let (x0, u, r) = (field(0), field(1), field(2));
        // Every non-NaN result bit for bit. Which NaN an operation returns
        // (sign, payload) Rust leaves unspecified — the compiler may swap
        // the operands of a `+` — so a NaN need only meet a NaN.
        let same = |got: &DgField, want: &DgField, what: &str| {
            for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{what} at {i}: fused {a:e} vs two ops {b:e}"
                );
            }
        };
        for dt in [0.0, -0.0, 1e-3, f64::MIN_POSITIVE] {
            let mut want = x0.clone();
            want.copy_from(&u);
            want.axpy(dt, &r);
            let mut got = x0.clone();
            got.euler_from(&u, dt, &r);
            same(&got, &want, "euler_from");

            let mut want = x0.clone();
            want.axpy(dt, &r);
            want.lincomb(0.25, 0.75, &u);
            let mut got = x0.clone();
            got.euler_lincomb(dt, &r, 0.25, 0.75, &u);
            same(&got, &want, "euler_lincomb");

            let (mut s, mut want) = (x0.clone(), u.clone());
            s.axpy(dt, &r);
            want.lincomb(1.0 / 3.0, 2.0 / 3.0, &s);
            let mut got = u.clone();
            got.lincomb_euler(1.0 / 3.0, 2.0 / 3.0, &x0, dt, &r);
            same(&got, &want, "lincomb_euler");
        }
    }

    /// The serial compare-select fold `max_abs` used to be.
    fn max_abs_serial(data: &[f64]) -> f64 {
        data.iter().fold(0.0f64, |m, &x| {
            let a = x.abs();
            if a > m || a.is_nan() {
                a
            } else {
                m
            }
        })
    }

    #[test]
    fn max_abs_matches_the_serial_fold() {
        // Lengths around the eight-way chunking (empty, shorter than a
        // chunk, exact chunks, every remainder) on pseudo-random data of
        // mixed magnitude, then with the specials planted where the
        // chunked fold could lose them: the head, mid-chunk, and the
        // remainder tail.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            unit * 10f64.powi((state % 7) as i32 - 3)
        };
        for len in (0..=41).chain([64, 1000, 1003]) {
            let mut f = DgField::zeros(1, len);
            f.as_mut_slice().iter_mut().for_each(|x| *x = next());
            let check = |f: &DgField, what: &str| {
                let (got, want) = (f.max_abs(), max_abs_serial(f.as_slice()));
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "len {len} {what}: {got:e} vs serial {want:e}"
                );
            };
            check(&f, "random");
            if len == 0 {
                assert_eq!(f.max_abs(), 0.0);
                continue;
            }
            let spots = [0, len / 2, (len / 8 * 8 + 3).min(len - 1), len - 1];
            for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, -1e9] {
                for at in spots {
                    let mut g = f.clone();
                    g.as_mut_slice()[at] = special;
                    check(&g, &format!("{special:?} at {at}"));
                    assert_eq!(g.max_abs().is_nan(), special.is_nan());
                }
            }
            // NaN stays sticky behind an infinity, and −0.0 alone reads +0.0.
            let mut g = f.clone();
            g.as_mut_slice()[0] = f64::NAN;
            g.as_mut_slice()[len - 1] = f64::INFINITY;
            check(&g, "NaN then inf");
            g.as_mut_slice().fill(-0.0);
            assert_eq!(g.max_abs().to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn max_abs_propagates_nan() {
        let mut f = DgField::zeros(2, 2);
        f.as_mut_slice().copy_from_slice(&[1.0, -3.0, 2.0, 0.5]);
        assert_eq!(f.max_abs(), 3.0);
        // A state that is entirely NaN (no infinities left after an
        // inf - inf) must still read as non-finite.
        f.as_mut_slice().fill(f64::NAN);
        assert!(f.max_abs().is_nan());
        // And a single NaN among finite values is not masked.
        f.as_mut_slice().copy_from_slice(&[1.0, f64::NAN, 2.0, 0.5]);
        assert!(f.max_abs().is_nan());
    }
}

#[cfg(test)]
mod slice_tests {
    use super::*;

    #[test]
    fn split_views_partition_and_translate_indices() {
        let mut f = DgField::zeros(6, 2);
        for i in 0..6 {
            f.cell_mut(i)[0] = i as f64;
        }
        let mut views = f.split_cells_mut(&[2, 4]);
        assert_eq!(views.len(), 3);
        assert_eq!(views[0].first_cell(), 0);
        assert_eq!(views[1].first_cell(), 2);
        assert_eq!(views[2].first_cell(), 4);
        assert_eq!(views[1].ncells(), 2);
        assert!(views[1].owns(3) && !views[1].owns(4));
        // Global indexing through the trait.
        assert_eq!(views[1].cell_mut(2)[0], 2.0);
        assert_eq!(views[2].cell_mut(5)[0], 5.0);
        let (a, b) = views[0].cell_pair_mut(0, 1);
        a[1] = 10.0;
        b[1] = 11.0;
        drop(views);
        assert_eq!(f.cell(0)[1], 10.0);
        assert_eq!(f.cell(1)[1], 11.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_access_panics() {
        let mut f = DgField::zeros(4, 1);
        let mut views = f.split_cells_mut(&[2]);
        let _ = views[0].cell_mut(3);
    }
}
