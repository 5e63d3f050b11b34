//! The hot collection layer: padded per-slot accumulators, the
//! noop-or-active [`Collector`] handle, and RAII [`SpanGuard`] timers.
//!
//! This file is part of the `dg-analyze` hot-path set: nothing here may
//! allocate outside the waived constructors, and all clock reads go
//! through [`now_ns`] (the one waived `Instant` site in the hot set —
//! see the `telemetry_span` rule).
//!
//! Concurrency contract: every writer owns exactly one slot (slot 0 is
//! the main thread, which also runs every cell block at one thread; on a
//! worker pool block `b`'s workspace gets slot `1 + b`), so all atomic
//! traffic is single-writer `Relaxed` on cache-line-padded memory — no
//! contention, no ordering requirements, and *no effect on the
//! simulation state*: telemetry only ever reads clocks and bumps its own
//! accumulators, which is why telemetry-on trajectories are bit-identical
//! to telemetry-off ones.

use crate::phase::{Counter, Phase, NCOUNTERS, NPHASES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Process-wide monotonic epoch: all span timestamps are nanoseconds
/// since the first clock read, so timestamps from different slots are
/// directly comparable.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the process telemetry epoch.
///
/// The single blessed clock read of the hot set: spans and the run
/// driver both use it, so the `telemetry_span` analyze rule can forbid
/// raw `Instant` use everywhere else on the hot path.
#[inline]
pub fn now_ns() -> u64 {
    // dg-analyze: allow(telemetry_span) — this IS the blessed clock; OnceLock init is a one-time branch, not an allocation
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One writer's accumulator block, padded to two cache lines so
/// adjacent slots never false-share.
#[repr(align(128))]
pub struct Slot {
    ns: [AtomicU64; NPHASES],
    calls: [AtomicU64; NPHASES],
    counters: [AtomicU64; NCOUNTERS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn reset(&self) {
        for a in self.ns.iter().chain(&self.calls).chain(&self.counters) {
            a.store(0, Ordering::Relaxed);
        }
    }

    /// Fold this slot into `snap`.
    fn accumulate_into(&self, snap: &mut Snapshot) {
        for (i, a) in self.ns.iter().enumerate() {
            snap.ns[i] += a.load(Ordering::Relaxed);
        }
        for (i, a) in self.calls.iter().enumerate() {
            snap.calls[i] += a.load(Ordering::Relaxed);
        }
        for (i, a) in self.counters.iter().enumerate() {
            snap.counters[i] += a.load(Ordering::Relaxed);
        }
    }
}

/// The shared accumulator table: one padded [`Slot`] per writer.
///
/// Constructed once per run (sized by the backend's
/// `telemetry_slots()`), then handed out as [`Collector`] handles.
pub struct Registry {
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl Registry {
    /// A registry with `nslots` writer slots (at least one).
    // dg-analyze: allow(hot_alloc) — registry construction is cold (once per run)
    pub fn new(nslots: usize) -> Registry {
        Registry {
            slots: (0..nslots.max(1)).map(|_| Slot::new()).collect(),
        }
    }

    /// Number of writer slots.
    pub fn nslots(&self) -> usize {
        self.slots.len()
    }

    /// An active collector writing into `slot` (clamped to the last
    /// slot so a mis-sized backend degrades to contention, never UB).
    pub fn collector(self: &Arc<Self>, slot: usize) -> Collector {
        Collector::Active {
            reg: Arc::clone(self),
            slot: slot.min(self.slots.len() - 1),
        }
    }

    /// Zero every accumulator (bench reuse between sections).
    pub fn reset(&self) {
        for s in self.slots.iter() {
            s.reset();
        }
    }

    /// Merge all slots in ascending slot order into one [`Snapshot`].
    ///
    /// The order is deterministic by construction; and since the merged
    /// quantities are integer ns/counts, the result is independent of
    /// slot assignment anyway. Allocation-free (fixed arrays).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for s in self.slots.iter() {
            s.accumulate_into(&mut snap);
        }
        snap
    }

    /// Snapshot of a single slot (per-worker breakdowns).
    pub fn slot_snapshot(&self, slot: usize) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(s) = self.slots.get(slot) {
            s.accumulate_into(&mut snap);
        }
        snap
    }
}

/// A writer handle resolved once at construction, mirroring the
/// `KernelDispatch` pattern: the noop/active decision is a single
/// branch on an enum discriminant at each span/count site, and the
/// noop arm touches no clock and no memory.
#[derive(Clone, Debug, Default)]
pub enum Collector {
    /// Telemetry disabled: spans and counts compile to a discriminant
    /// test.
    #[default]
    Noop,
    /// Telemetry enabled: writes go to `reg.slots[slot]`.
    Active {
        /// The shared accumulator table.
        reg: Arc<Registry>,
        /// This writer's slot index.
        slot: usize,
    },
}

impl Collector {
    /// True when this collector records anything.
    #[inline(always)]
    pub fn is_active(&self) -> bool {
        matches!(self, Collector::Active { .. })
    }

    /// Start a RAII span for `phase`; time accrues until the guard
    /// drops. Noop collectors skip the clock read entirely. The guard
    /// *owns* a registry handle (one refcount bump, no allocation)
    /// rather than borrowing it, so spanning `ws.probe` does not hold a
    /// borrow of the workspace across the timed sweep.
    #[inline(always)]
    pub fn span(&self, phase: Phase) -> SpanGuard {
        match self {
            Collector::Noop => SpanGuard { inner: None },
            Collector::Active { reg, slot } => SpanGuard {
                inner: Some((Arc::clone(reg), *slot, phase, now_ns())),
            },
        }
    }

    /// Add `n` to counter `c`.
    #[inline(always)]
    pub fn count(&self, c: Counter, n: u64) {
        if let Collector::Active { reg, slot } = self {
            reg.slots[*slot].counters[c.idx()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The registry behind an active collector.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        match self {
            Collector::Noop => None,
            Collector::Active { reg, .. } => Some(reg),
        }
    }
}

/// RAII span: created by [`Collector::span`], adds its elapsed ns (and
/// one call) to the owning slot when dropped. No allocation, no clock
/// read on the noop path.
pub struct SpanGuard {
    inner: Option<(Arc<Registry>, usize, Phase, u64)>,
}

impl Drop for SpanGuard {
    #[inline(always)]
    fn drop(&mut self) {
        if let Some((reg, slot, phase, start)) = self.inner.take() {
            let dt = now_ns().saturating_sub(start);
            let s = &reg.slots[slot];
            s.ns[phase.idx()].fetch_add(dt, Ordering::Relaxed);
            s.calls[phase.idx()].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Time a lexical scope: `span!(ws.probe, Phase::Volume);` expands to a
/// hygienic RAII guard binding that drops at end of scope. This is the
/// only span API permitted on the hot path (`telemetry_span` rule):
/// it cannot allocate and costs one branch when the collector is noop.
#[macro_export]
macro_rules! span {
    ($collector:expr, $phase:expr) => {
        let _span_guard = $collector.span($phase);
    };
}

/// An additive, `Copy` view of accumulated phase timings and counters.
///
/// Fixed arrays only: snapshots can be taken, merged, and diffed on the
/// hot path without allocating (the `MetricsObserver` diffs successive
/// snapshots to stream per-interval rows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Accumulated nanoseconds per phase (indexed by `Phase::idx`).
    pub ns: [u64; NPHASES],
    /// Span count per phase.
    pub calls: [u64; NPHASES],
    /// Counter totals (indexed by `Counter::idx`).
    pub counters: [u64; NCOUNTERS],
}

impl Snapshot {
    /// Nanoseconds accumulated in `phase`.
    #[inline]
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.ns[phase.idx()]
    }

    /// Number of spans recorded for `phase`.
    #[inline]
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.calls[phase.idx()]
    }

    /// Total of counter `c`.
    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.idx()]
    }

    /// Sum of all phase timers (the instrumented fraction of the run).
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Add `other` into `self` (commutative, associative — integer
    /// sums, so merge order cannot change the result).
    pub fn merge(&mut self, other: &Snapshot) {
        for i in 0..NPHASES {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
        for i in 0..NCOUNTERS {
            self.counters[i] += other.counters[i];
        }
    }

    /// `self - earlier`, saturating: the activity between two
    /// snapshots of the same registry.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = Snapshot::default();
        for i in 0..NPHASES {
            d.ns[i] = self.ns[i].saturating_sub(earlier.ns[i]);
            d.calls[i] = self.calls[i].saturating_sub(earlier.calls[i]);
        }
        for i in 0..NCOUNTERS {
            d.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_collector_records_nothing() {
        let c = Collector::Noop;
        {
            span!(c, Phase::Volume);
            c.count(Counter::RhsEvals, 3);
        }
        assert!(!c.is_active());
        assert!(c.registry().is_none());
    }

    #[test]
    fn active_spans_and_counts_accumulate() {
        let reg = Arc::new(Registry::new(2));
        let c0 = reg.collector(0);
        let c1 = reg.collector(1);
        {
            span!(c0, Phase::Volume);
            span!(c1, Phase::Surface);
            c0.count(Counter::CellsSwept, 10);
            c1.count(Counter::CellsSwept, 5);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = reg.snapshot();
        assert!(snap.phase_ns(Phase::Volume) > 0);
        assert!(snap.phase_ns(Phase::Surface) > 0);
        assert_eq!(snap.phase_calls(Phase::Volume), 1);
        assert_eq!(snap.counter(Counter::CellsSwept), 15);
        assert_eq!(reg.slot_snapshot(0).counter(Counter::CellsSwept), 10);
        assert_eq!(reg.slot_snapshot(1).counter(Counter::CellsSwept), 5);
        reg.reset();
        assert_eq!(reg.snapshot(), Snapshot::default());
    }

    #[test]
    fn collector_slot_is_clamped() {
        let reg = Arc::new(Registry::new(1));
        let c = reg.collector(99);
        c.count(Counter::Retries, 1);
        assert_eq!(reg.snapshot().counter(Counter::Retries), 1);
    }

    #[test]
    fn snapshot_merge_and_delta_are_exact() {
        let mut a = Snapshot::default();
        a.ns[0] = 5;
        a.counters[1] = 7;
        let mut b = Snapshot::default();
        b.ns[0] = 3;
        b.calls[0] = 2;
        b.counters[1] = 1;
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.ns[0], 8);
        assert_eq!(m.calls[0], 2);
        assert_eq!(m.counters[1], 8);
        let d = m.delta(&a);
        assert_eq!(d, b);
        // Delta saturates rather than wrapping.
        assert_eq!(a.delta(&m).ns[0], 0);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
