//! Structure-of-arrays lane panels: the aligned scratch buffer the batched
//! kernels read and write, and the moves between cell-major fields and
//! panels.
//!
//! A batched kernel works on `[f64; L]` **lane groups** — coefficient `n`
//! of `L` cells (or faces, or pencils) side by side — so every sweep packs
//! its cells into a panel, runs the kernel, and adds the accumulated panel
//! back into the cells. Those two moves are `L × L` block transposes, and
//! they are a third of a Vlasov RHS: [`PanelMoves`] carries them as
//! `std::arch` register transposes compiled for the ISA of the kernel entry
//! point they travel with (left to LLVM, the same transposes in safe Rust
//! came out *slower* than the element-by-element copy), with the lane copy
//! as the portable form and for the `Np % L` trailing coefficients.

/// A buffer of `f64` whose lane-group view starts on a 64-byte boundary, so
/// a group of up to eight lanes is one aligned access and never straddles a
/// cache line (a misaligned panel costs the 4-lane AVX2 entry points ≈ 8 %
/// on 1x2v p2: every other group does). Safe code: up to seven leading
/// `f64` of a plain `Vec<f64>` are skipped, and the offset is recomputed per
/// access, so clones and moves stay aligned. The lane width is chosen by
/// the caller per access — one panel serves whichever entry point an
/// operator resolved.
#[derive(Clone, Debug, Default)]
pub struct LanePanel {
    buf: Vec<f64>,
    len: usize,
}

/// Alignment of a [`LanePanel`]'s lane groups, in `f64`s (64 bytes).
const ALIGN: usize = 8;

impl LanePanel {
    /// A zeroed panel of `len` `f64`s (`len / L` groups at lane width `L`).
    pub fn zeros(len: usize) -> Self {
        LanePanel {
            buf: vec![0.0; len + ALIGN - 1],
            len,
        }
    }

    /// Make room for at least `len` `f64`s: a fresh zeroed panel when this
    /// one is shorter, nothing otherwise — so a sweep can size its scratch
    /// on first use and reuse it after.
    pub fn ensure(&mut self, len: usize) {
        if self.len < len {
            *self = Self::zeros(len);
        }
    }

    /// The panel as `len / L` lane groups of width `L`, mutably (reading
    /// goes through this as well: a panel is scratch, only ever held
    /// exclusively).
    #[inline]
    pub fn lanes_mut<const L: usize>(&mut self) -> &mut [[f64; L]] {
        const { assert!(L <= ALIGN && ALIGN.is_multiple_of(L)) };
        // `align_offset` counts in `f64`; it may decline (`usize::MAX`), in
        // which case the panel is merely unaligned — as is a `Default` one,
        // which has no spare elements to skip (and none to hand out).
        let skip = match self.buf.as_ptr().align_offset(ALIGN * size_of::<f64>()) {
            skip if skip < ALIGN && skip + self.len <= self.buf.len() => skip,
            _ => 0,
        };
        self.buf[skip..skip + self.len].as_chunks_mut().0
    }
}

/// `out[k] += c * x[k]` over the lanes of a lane group (lane-constant
/// coefficient) — the lane-generic kernels' one-off accumulate (traces,
/// lifts); runs of accumulates into one target are emitted as explicit lane
/// loops instead. `#[inline(always)]` so the generated kernels stay
/// straight-line code.
#[inline(always)]
pub fn sxn<const L: usize>(out: &mut [f64; L], c: f64, x: &[f64; L]) {
    for k in 0..L {
        out[k] += c * x[k];
    }
}

/// `panel[n][lane] = cells[lane][n]`, element by element: the portable
/// pack, and the reference the transposes are tested against.
pub fn pack_lane_copy<const L: usize>(panel: &mut [[f64; L]], cells: [&[f64]; L]) {
    let np = panel.len();
    for (lane, cell) in cells.iter().enumerate() {
        for (p, &c) in panel.iter_mut().zip(&cell[..np]) {
            p[lane] = c;
        }
    }
}

/// `cells[lane][n] += panel[n][lane]`, element by element; an empty cell
/// slice marks a spare lane and receives nothing. The portable unpack-add,
/// and the reference the transposes are tested against.
pub fn unpack_add_lane_copy<const L: usize>(cells: [&mut [f64]; L], panel: &[[f64; L]]) {
    for (lane, cell) in cells.into_iter().enumerate() {
        if cell.is_empty() {
            continue;
        }
        for (o, p) in cell[..panel.len()].iter_mut().zip(panel) {
            *o += p[lane];
        }
    }
}

type PackFn<const L: usize> = unsafe fn(panel: &mut [[f64; L]], cells: [&[f64]; L]);
type UnpackAddFn<const L: usize> = unsafe fn(cells: [&mut [f64]; L], panel: &[[f64; L]]);

/// The pack and unpack-add of one ISA at lane width `L`. Selected together
/// with a kernel entry point by [`crate::dispatch`], so a sweep moves its
/// panels with the instructions its kernel was compiled for. The pointers
/// are private and only the constructors below store one, each after the
/// check its target features need — which is what makes the two call
/// methods safe.
#[derive(Clone, Copy, Debug)]
pub struct PanelMoves<const L: usize> {
    pack: PackFn<L>,
    unpack_add: UnpackAddFn<L>,
}

impl<const L: usize> PanelMoves<L> {
    /// The lane-copy moves (no CPU requirement).
    pub fn lane_copy() -> Self {
        PanelMoves {
            pack: pack_lane_copy::<L>,
            unpack_add: unpack_add_lane_copy::<L>,
        }
    }

    /// Pack `cells` into `panel`: `panel[n][lane] = cells[lane][n]` for
    /// every coefficient `n < panel.len()`. A partial panel repeats its last
    /// cell in the spare lanes, so there is always a full set to read.
    ///
    /// # Panics
    ///
    /// When a cell holds fewer than `panel.len()` coefficients.
    #[inline]
    pub fn pack(&self, panel: &mut [[f64; L]], cells: [&[f64]; L]) {
        // SAFETY: the pointer is either the safe lane copy or a
        // `#[target_feature]` transpose, and `PanelMoves::<4>::avx2` /
        // `PanelMoves::<8>::avx512` — the only places the latter are stored
        // — do so only after `is_x86_feature_detected!` confirmed the
        // feature on this CPU. The feature is the functions' only extra
        // requirement; their arguments are ordinary checked slices.
        unsafe { (self.pack)(panel, cells) }
    }

    /// Add `panel` into `cells`: `cells[lane][n] += panel[n][lane]`. An
    /// empty cell slice marks a spare lane and receives nothing.
    ///
    /// # Panics
    ///
    /// When a non-empty cell holds fewer than `panel.len()` coefficients.
    #[inline]
    pub fn unpack_add(&self, cells: [&mut [f64]; L], panel: &[[f64; L]]) {
        // SAFETY: as for `Self::pack` — a `#[target_feature]` pointer is
        // only ever stored after the runtime check for that feature.
        unsafe { (self.unpack_add)(cells, panel) }
    }
}

impl PanelMoves<4> {
    /// 4×4 register transposes; `None` unless this is an `x86_64` CPU with
    /// AVX2.
    pub fn avx2() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(PanelMoves {
                pack: x86::pack_avx2,
                unpack_add: x86::unpack_add_avx2,
            });
        }
        None
    }
}

impl PanelMoves<8> {
    /// 8×8 register transposes; `None` unless this is an `x86_64` CPU with
    /// AVX-512F.
    pub fn avx512() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Some(PanelMoves {
                pack: x86::pack_avx512,
                unpack_add: x86::unpack_add_avx512,
            });
        }
        None
    }
}

/// Each cell's leading `np` coefficients as `L`-wide rows, and the `np % L`
/// remainders. (Here rather than in the `#[target_feature]` functions that
/// use it: a closure written inside one of those inherits the feature and
/// can then not be inlined into the generic `array::map` that calls it.)
#[cfg(target_arch = "x86_64")]
#[inline]
fn split_cells<const L: usize>(cells: [&[f64]; L], np: usize) -> ([&[[f64; L]]; L], [&[f64]; L]) {
    let parts = cells.map(|c| c[..np].as_chunks::<L>());
    (parts.map(|p| p.0), parts.map(|p| p.1))
}

/// [`split_cells`], mutably; an empty cell (a spare lane) has neither rows
/// nor remainder.
#[cfg(target_arch = "x86_64")]
#[inline]
fn split_cells_mut<const L: usize>(
    cells: [&mut [f64]; L],
    np: usize,
) -> ([&mut [[f64; L]]; L], [&mut [f64]; L]) {
    let mut rows: [&mut [[f64; L]]; L] = std::array::from_fn(|_| Default::default());
    let mut tails: [&mut [f64]; L] = std::array::from_fn(|_| Default::default());
    for (k, cell) in cells.into_iter().enumerate() {
        let np = if cell.is_empty() { 0 } else { np };
        (rows[k], tails[k]) = cell[..np].as_chunks_mut();
    }
    (rows, tails)
}

/// The `std::arch` transposes. Every function here performs loads, stores
/// and — in the unpack-adds — one IEEE addition per element, the same
/// addition the lane copy performs, so the two forms agree bit for bit
/// (proptest below). Register arrays are built and walked by index, not
/// through `array::map` or iterators: those are generic functions compiled
/// without the target feature, and a vector that crosses into one travels
/// through memory.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{pack_lane_copy, split_cells, split_cells_mut, unpack_add_lane_copy};
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load4(x: &[f64; 4]) -> __m256d {
        // SAFETY: `x` is a reference to four `f64`: 32 readable bytes, and
        // the unaligned load has no alignment requirement.
        unsafe { _mm256_loadu_pd(x.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store4(x: &mut [f64; 4], v: __m256d) {
        // SAFETY: `x` is an exclusive reference to four `f64`: 32 writable
        // bytes, and the unaligned store has no alignment requirement.
        unsafe { _mm256_storeu_pd(x.as_mut_ptr(), v) }
    }

    /// `[lo[at], lo[at + 1], hi[at], hi[at + 1]]`: two 128-bit loads, the
    /// second inserted from memory — which, unlike a register shuffle, does
    /// not need the one shuffle port.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load2x2(lo: &[f64; 4], hi: &[f64; 4], at: usize) -> __m256d {
        let (lo, hi) = (&lo[at..at + 2], &hi[at..at + 2]);
        // SAFETY: `lo` and `hi` are slices of two `f64` each (the range
        // indexing above checked it): 16 readable bytes behind either
        // pointer, and the unaligned loads have no alignment requirement.
        unsafe { _mm256_loadu2_m128d(hi.as_ptr(), lo.as_ptr()) }
    }

    /// `t[i][j] = r[j][i]`, loading as it goes: the halves of rows `(0, 2)`
    /// and `(1, 3)` are paired at load time, so one interleave per output
    /// row finishes the job (4 shuffles where transposing loaded rows in
    /// registers takes 8).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose4(r: [&[f64; 4]; 4]) -> [__m256d; 4] {
        let (a0, a1) = (load2x2(r[0], r[2], 0), load2x2(r[1], r[3], 0));
        let (a2, a3) = (load2x2(r[0], r[2], 2), load2x2(r[1], r[3], 2));
        [
            _mm256_unpacklo_pd(a0, a1),
            _mm256_unpackhi_pd(a0, a1),
            _mm256_unpacklo_pd(a2, a3),
            _mm256_unpackhi_pd(a2, a3),
        ]
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn pack_avx2(panel: &mut [[f64; 4]], cells: [&[f64]; 4]) {
        let (rows, tails) = split_cells(cells, panel.len());
        let (blocks, tail) = panel.as_chunks_mut::<4>();
        for (b, block) in blocks.iter_mut().enumerate() {
            let t = transpose4([&rows[0][b], &rows[1][b], &rows[2][b], &rows[3][b]]);
            for k in 0..4 {
                store4(&mut block[k], t[k]);
            }
        }
        if !tail.is_empty() {
            pack_lane_copy(tail, tails);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn unpack_add_avx2(cells: [&mut [f64]; 4], panel: &[[f64; 4]]) {
        let (outs, tails) = split_cells_mut(cells, panel.len());
        let (blocks, tail) = panel.as_chunks::<4>();
        for (b, block) in blocks.iter().enumerate() {
            let t = transpose4([&block[0], &block[1], &block[2], &block[3]]);
            for k in 0..4 {
                if let Some(o) = outs[k].get_mut(b) {
                    store4(o, _mm256_add_pd(load4(o), t[k]));
                }
            }
        }
        if !tail.is_empty() {
            unpack_add_lane_copy(tails, tail);
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load8(x: &[f64; 8]) -> __m512d {
        // SAFETY: `x` is a reference to eight `f64`: 64 readable bytes, and
        // the unaligned load has no alignment requirement.
        unsafe { _mm512_loadu_pd(x.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store8(x: &mut [f64; 8], v: __m512d) {
        // SAFETY: `x` is an exclusive reference to eight `f64`: 64 writable
        // bytes, and the unaligned store has no alignment requirement.
        unsafe { _mm512_storeu_pd(x.as_mut_ptr(), v) }
    }

    /// `[lo[at..at + 4] | hi[at..at + 4]]`: two 256-bit loads, the second
    /// inserted from memory (see [`load2x2`]).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load4x2(lo: &[f64; 8], hi: &[f64; 8], at: usize) -> __m512d {
        let (lo, hi) = (&lo[at..at + 4], &hi[at..at + 4]);
        // SAFETY: `lo` and `hi` are slices of four `f64` each (the range
        // indexing above checked it): 32 readable bytes behind either
        // pointer, and the unaligned loads have no alignment requirement.
        unsafe {
            _mm512_insertf64x4(
                _mm512_castpd256_pd512(_mm256_loadu_pd(lo.as_ptr())),
                _mm256_loadu_pd(hi.as_ptr()),
                1,
            )
        }
    }

    /// `t[i][j] = r[j][i]`, loading as it goes. For each half of the
    /// columns (`at` = 0, 4): rows `(0, 2)`, `(1, 3)`, `(4, 6)`, `(5, 7)`
    /// are paired at load time; interleaving the first two pairs leaves
    /// `[r0[c], r1[c]]` and `[r2[c], r3[c]]` in 128-bit quarters 0 and 2
    /// (`c = at` or `at + 1`) and the same for `c + 2` in quarters 1 and 3,
    /// likewise rows 4–7 from the other two; one quarter shuffle per output
    /// row — `0x88` takes quarters 0 and 2 of each operand, `0xDD` quarters
    /// 1 and 3 — gathers a column. 16 shuffles where transposing loaded
    /// rows in registers takes 24.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose8(r: [&[f64; 8]; 8]) -> [__m512d; 8] {
        let zero = _mm512_setzero_pd();
        let mut t = [zero; 8];
        for at in [0, 4] {
            let (a, b) = (load4x2(r[0], r[2], at), load4x2(r[1], r[3], at));
            let (c, d) = (load4x2(r[4], r[6], at), load4x2(r[5], r[7], at));
            let (even_lo, even_hi) = (_mm512_unpacklo_pd(a, b), _mm512_unpacklo_pd(c, d));
            let (odd_lo, odd_hi) = (_mm512_unpackhi_pd(a, b), _mm512_unpackhi_pd(c, d));
            t[at] = _mm512_shuffle_f64x2(even_lo, even_hi, 0x88);
            t[at + 1] = _mm512_shuffle_f64x2(odd_lo, odd_hi, 0x88);
            t[at + 2] = _mm512_shuffle_f64x2(even_lo, even_hi, 0xDD);
            t[at + 3] = _mm512_shuffle_f64x2(odd_lo, odd_hi, 0xDD);
        }
        t
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn pack_avx512(panel: &mut [[f64; 8]], cells: [&[f64]; 8]) {
        let (rows, tails) = split_cells(cells, panel.len());
        let (blocks, tail) = panel.as_chunks_mut::<8>();
        for (b, block) in blocks.iter_mut().enumerate() {
            let t = transpose8([
                &rows[0][b],
                &rows[1][b],
                &rows[2][b],
                &rows[3][b],
                &rows[4][b],
                &rows[5][b],
                &rows[6][b],
                &rows[7][b],
            ]);
            for k in 0..8 {
                store8(&mut block[k], t[k]);
            }
        }
        if !tail.is_empty() {
            pack_lane_copy(tail, tails);
        }
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn unpack_add_avx512(cells: [&mut [f64]; 8], panel: &[[f64; 8]]) {
        let (outs, tails) = split_cells_mut(cells, panel.len());
        let (blocks, tail) = panel.as_chunks::<8>();
        for (b, block) in blocks.iter().enumerate() {
            let t = transpose8([
                &block[0], &block[1], &block[2], &block[3], &block[4], &block[5], &block[6],
                &block[7],
            ]);
            for k in 0..8 {
                if let Some(o) = outs[k].get_mut(b) {
                    store8(o, _mm512_add_pd(load8(o), t[k]));
                }
            }
        }
        if !tail.is_empty() {
            unpack_add_lane_copy(tails, tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lane_groups_are_cache_line_aligned_at_every_width() {
        // Also after a clone and a move: the offset is per access.
        let a = LanePanel::zeros(3 * 8);
        let mut panels = vec![a.clone(), a];
        panels.push(LanePanel::zeros(8));
        for p in &mut panels {
            assert_eq!(p.lanes_mut::<8>().as_ptr() as usize % 64, 0);
            assert_eq!(p.lanes_mut::<4>().as_ptr() as usize % 64, 0);
            assert_eq!(p.lanes_mut::<4>().len(), 2 * p.lanes_mut::<8>().len());
        }
        assert_eq!(panels[2].lanes_mut::<1>().len(), 8);
        assert!(LanePanel::zeros(0).lanes_mut::<4>().is_empty());
        assert!(LanePanel::default().lanes_mut::<8>().is_empty());
    }

    /// Both moves of `moves` against the lane copy, on `lanes` real cells of
    /// `np` coefficients: the pack of a partial panel repeats the last cell,
    /// the unpack-add leaves the spare lanes' cells (empty slices) alone and
    /// adds into non-zero incoming `out`.
    fn moves_match_lane_copy<const L: usize>(
        moves: PanelMoves<L>,
        np: usize,
        lanes: usize,
        f: &[f64],
        out0: &[f64],
        acc: &[f64],
    ) {
        let cell = |raw: &[f64], k: usize| raw[k * 112..k * 112 + np].to_vec();
        let cells: [Vec<f64>; L] = std::array::from_fn(|k| cell(f, k.min(lanes - 1)));
        let panel: Vec<[f64; L]> = (0..np)
            .map(|n| std::array::from_fn(|k| acc[k * 112 + n]))
            .collect();
        let run = |moves: PanelMoves<L>| {
            let mut packed = vec![[0.0; L]; np];
            moves.pack(&mut packed, std::array::from_fn(|k| &cells[k][..]));
            let mut out: Vec<Vec<f64>> = (0..lanes).map(|k| cell(out0, k)).collect();
            let mut slots: [&mut [f64]; L] = std::array::from_fn(|_| Default::default());
            for (slot, cell) in slots.iter_mut().zip(&mut out) {
                *slot = cell;
            }
            moves.unpack_add(slots, &panel);
            (packed, out)
        };
        let ((got_pack, got), (want_pack, want)) = (run(moves), run(PanelMoves::lane_copy()));
        assert!(got_pack == want_pack, "pack np={np} lanes={lanes}");
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            for n in 0..np {
                assert!(
                    g[n].to_bits() == w[n].to_bits(),
                    "unpack-add np={np} lanes={lanes} cell {k} mode {n}: {} vs {}",
                    g[n],
                    w[n]
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The `std::arch` transposes are the lane copy, bit for bit: every
        /// `Np` the registry has a multiple-of-4 kernel for (4 and 20 leave
        /// a lane-copied remainder at 8 lanes), every lane count 1..=L.
        #[test]
        fn transposed_moves_match_lane_copy_bitwise(
            f in proptest::collection::vec(-1.0..1.0f64, 112 * 8),
            out0 in proptest::collection::vec(-1.0..1.0f64, 112 * 8),
            acc in proptest::collection::vec(-1.0..1.0f64, 112 * 8),
        ) {
            static ARMS: [std::sync::Once; 2] = [const { std::sync::Once::new() }; 2];
            let (avx2, avx512) = (PanelMoves::<4>::avx2(), PanelMoves::<8>::avx512());
            ARMS[0].call_once(|| match avx2 {
                Some(_) => println!("transposed_moves_match_lane_copy_bitwise: avx2 4x4 arm ran"),
                None => println!("transposed_moves_match_lane_copy_bitwise: avx2 4x4 arm skipped: no avx2"),
            });
            ARMS[1].call_once(|| match avx512 {
                Some(_) => println!("transposed_moves_match_lane_copy_bitwise: avx512 8x8 arm ran"),
                None => println!("transposed_moves_match_lane_copy_bitwise: avx512 8x8 arm skipped: no avx512f"),
            });
            for np in [4, 8, 20, 48, 112] {
                for lanes in 1..=8 {
                    if let (Some(moves), true) = (avx2, lanes <= 4) {
                        moves_match_lane_copy(moves, np, lanes, &f, &out0, &acc);
                    }
                    if let Some(moves) = avx512 {
                        moves_match_lane_copy(moves, np, lanes, &f, &out0, &acc);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn a_short_cell_is_rejected_not_read_past() {
        let cells = [&[1.0, 2.0][..]; 4];
        let moves = PanelMoves::<4>::avx2().unwrap_or_else(PanelMoves::lane_copy);
        moves.pack(&mut [[0.0; 4]; 3], cells);
    }
}
