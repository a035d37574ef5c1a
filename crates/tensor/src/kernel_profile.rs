//! Per-shape GEMM tallies: calls, time and FLOPs for every distinct
//! `op(A)·op(B)` shape that passes through [`super::gemm`] or
//! [`super::gemm_bias_act`], and every int8 shape through
//! [`super::int8::gemm_i8`] (its own [`Op::I8`] tag).
//!
//! The collector is a fixed open-addressed table of atomic slots, so the
//! hot path is lock-free and allocation-free: pack the shape into one
//! `u64` key, probe, `fetch_add`. It is disabled by default (one relaxed
//! boolean load per GEMM call); [`enable`] installs a shared
//! [`Clock`] — a sim clock makes the recorded times a pure function of
//! the simulation (all zero unless the sim advances mid-call), a wall
//! clock gives real timings.
//!
//! State is process-global, like [`super::set_threads`]: tests that
//! enable profiling must serialize on their own lock and call [`reset`].

use mdl_obs::{Clock, MetricsRegistry};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use super::Trans;

/// Distinct shapes tracked before new ones spill into
/// [`GemmProfile::overflow`].
const SLOTS: usize = 128;

struct Slot {
    /// Packed shape key; 0 marks an empty slot (no real shape packs to 0
    /// because `m >= 1` sets a high bit).
    key: AtomicU64,
    calls: AtomicU64,
    ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // template for array init only
const EMPTY_SLOT: Slot =
    Slot { key: AtomicU64::new(0), calls: AtomicU64::new(0), ns: AtomicU64::new(0) };

static ENABLED: AtomicBool = AtomicBool::new(false);
static CLOCK: Mutex<Option<Clock>> = Mutex::new(None);
/// Bumped by [`enable`]/[`disable`] to invalidate per-thread clock caches.
static CLOCK_EPOCH: AtomicU64 = AtomicU64::new(1);
static TABLE: [Slot; SLOTS] = [EMPTY_SLOT; SLOTS];
static OVERFLOW: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(epoch, clock)` cache so the hot path reads the clock without
    /// taking the [`CLOCK`] mutex; refreshed when the epoch moves.
    static CACHED_CLOCK: RefCell<(u64, Option<Clock>)> = const { RefCell::new((0, None)) };
}

/// Which GEMM a tally counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The f32 kernel, with its operands' orientations.
    F32(Trans, Trans),
    /// The int8 kernel (`a` as stored times the input-major weight).
    I8,
}

impl Op {
    fn code(self) -> u64 {
        match self {
            Op::F32(ta, tb) => ((ta == Trans::T) as u64) << 1 | (tb == Trans::T) as u64,
            Op::I8 => 4,
        }
    }

    fn from_code(code: u64) -> Self {
        let t = |b: u64| if b != 0 { Trans::T } else { Trans::N };
        if code == 4 {
            Op::I8
        } else {
            Op::F32(t(code & 2), t(code & 1))
        }
    }
}

/// `op:4 | m:20 | n:20 | k:20`; dimensions above 2^20-1 clamp (tallied
/// together, never miscounted).
fn pack(op: Op, m: usize, n: usize, k: usize) -> u64 {
    const MASK: u64 = (1 << 20) - 1;
    // the +1 on op keeps every real key nonzero even for degenerate shapes
    (op.code() + 1) << 60
        | (m as u64).min(MASK) << 40
        | (n as u64).min(MASK) << 20
        | (k as u64).min(MASK)
}

fn unpack(key: u64) -> (Op, usize, usize, usize) {
    const MASK: u64 = (1 << 20) - 1;
    (
        Op::from_code((key >> 60) - 1),
        (key >> 40 & MASK) as usize,
        (key >> 20 & MASK) as usize,
        (key & MASK) as usize,
    )
}

/// `true` while tallying is on; each GEMM checks this once per call.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Current reading of the installed clock (0 when none is installed).
///
/// Lock-free on the hot path: each thread caches a clone of the clock
/// keyed by [`CLOCK_EPOCH`] and only takes the mutex after an
/// [`enable`]/[`disable`] transition.
pub fn clock_now_ns() -> u64 {
    let epoch = CLOCK_EPOCH.load(Ordering::Acquire);
    CACHED_CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        if c.0 != epoch {
            *c = (epoch, CLOCK.lock().expect("profile clock poisoned").clone());
        }
        c.1.as_ref().map_or(0, Clock::now_ns)
    })
}

/// Turns tallying on, stamping times from `clock`.
pub fn enable(clock: Clock) {
    *CLOCK.lock().expect("profile clock poisoned") = Some(clock);
    CLOCK_EPOCH.fetch_add(1, Ordering::Release);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns tallying off (counts are kept until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    *CLOCK.lock().expect("profile clock poisoned") = None;
    CLOCK_EPOCH.fetch_add(1, Ordering::Release);
}

/// Zeroes every slot and the overflow counter.
pub fn reset() {
    for slot in &TABLE {
        slot.key.store(0, Ordering::Relaxed);
        slot.calls.store(0, Ordering::Relaxed);
        slot.ns.store(0, Ordering::Relaxed);
    }
    OVERFLOW.store(0, Ordering::Relaxed);
}

/// Adds one call of the given shape. Linear probing from a
/// multiplicative hash; when all slots hold other shapes the call lands
/// in the overflow counter instead of being lost.
pub fn tally(op: Op, m: usize, n: usize, k: usize, elapsed_ns: u64) {
    let key = pack(op, m, n, k);
    let start = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % SLOTS;
    for probe in 0..SLOTS {
        let slot = &TABLE[(start + probe) % SLOTS];
        let seen = slot.key.load(Ordering::Relaxed);
        let claimed = seen == key
            || (seen == 0
                && slot.key.compare_exchange(0, key, Ordering::Relaxed, Ordering::Relaxed).is_ok());
        if claimed {
            slot.calls.fetch_add(1, Ordering::Relaxed);
            slot.ns.fetch_add(elapsed_ns, Ordering::Relaxed);
            return;
        }
        // another thread may have claimed this slot for our key between
        // the load and the CAS
        if slot.key.load(Ordering::Relaxed) == key {
            slot.calls.fetch_add(1, Ordering::Relaxed);
            slot.ns.fetch_add(elapsed_ns, Ordering::Relaxed);
            return;
        }
    }
    OVERFLOW.fetch_add(1, Ordering::Relaxed);
}

/// The tally of one distinct GEMM shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmTally {
    /// Which kernel, and for f32 the operand orientations.
    pub op: Op,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Contraction length.
    pub k: usize,
    /// Calls with this shape.
    pub calls: u64,
    /// Total time across those calls (by the installed clock).
    pub total_ns: u64,
}

impl GemmTally {
    /// `2·m·n·k` multiply–accumulate operations per call (FLOPs for f32,
    /// integer ops for int8).
    pub fn flops_per_call(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Total FLOPs across all calls.
    pub fn total_flops(&self) -> u64 {
        self.calls * self.flops_per_call()
    }

    /// Achieved GFLOP/s (0 when no time was observed).
    pub fn gflops(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.total_flops() as f64 / self.total_ns as f64
        }
    }

    /// Stable label, e.g. `"nt.128x64x256"` (f32) or `"i8.1x48x16"`.
    pub fn label(&self) -> String {
        let t = |t: Trans| if t == Trans::T { "t" } else { "n" };
        let op = match self.op {
            Op::F32(ta, tb) => format!("{}{}", t(ta), t(tb)),
            Op::I8 => "i8".to_string(),
        };
        format!("{op}.{}x{}x{}", self.m, self.n, self.k)
    }
}

/// Occupied tallies sorted by packed key (deterministic order), plus the
/// number of calls that overflowed the table.
pub fn snapshot() -> (Vec<GemmTally>, u64) {
    let mut entries: Vec<(u64, GemmTally)> = TABLE
        .iter()
        .filter_map(|slot| {
            let key = slot.key.load(Ordering::Relaxed);
            if key == 0 {
                return None;
            }
            let (op, m, n, k) = unpack(key);
            Some((
                key,
                GemmTally {
                    op,
                    m,
                    n,
                    k,
                    calls: slot.calls.load(Ordering::Relaxed),
                    total_ns: slot.ns.load(Ordering::Relaxed),
                },
            ))
        })
        .collect();
    entries.sort_by_key(|&(key, _)| key);
    (entries.into_iter().map(|(_, t)| t).collect(), OVERFLOW.load(Ordering::Relaxed))
}

/// Publishes the tallies into `registry` under `kernel.gemm.*` — the one
/// sink observability snapshots read. Per-shape counters are
/// `kernel.gemm.<label>.{calls,ns,flops}`; rolled-up totals are
/// `kernel.gemm.{calls,ns,flops,overflow}`.
pub fn export_into(registry: &MetricsRegistry) {
    let (tallies, overflow) = snapshot();
    let (mut calls, mut ns, mut flops) = (0u64, 0u64, 0u64);
    for t in &tallies {
        let label = t.label();
        registry.counter(&format!("kernel.gemm.{label}.calls")).store(t.calls);
        registry.counter(&format!("kernel.gemm.{label}.ns")).store(t.total_ns);
        registry.counter(&format!("kernel.gemm.{label}.flops")).store(t.total_flops());
        calls += t.calls;
        ns += t.total_ns;
        flops += t.total_flops();
    }
    registry.counter("kernel.gemm.calls").store(calls);
    registry.counter("kernel.gemm.ns").store(ns);
    registry.counter("kernel.gemm.flops").store(flops);
    registry.counter("kernel.gemm.overflow").store(overflow);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::gemm;

    /// The tally table is process-global; tests touching it take this.
    static PROFILE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn keys_round_trip_shapes() {
        for (op, m, n, k) in [
            (Op::F32(Trans::N, Trans::N), 1, 1, 1),
            (Op::F32(Trans::T, Trans::N), 128, 64, 256),
            (Op::F32(Trans::N, Trans::T), 7, 1000, 3),
            (Op::F32(Trans::T, Trans::T), (1 << 20) - 1, 2, 9),
            (Op::I8, 0, 0, 0),
            (Op::I8, 8, 3072, 3072),
        ] {
            assert_eq!(unpack(pack(op, m, n, k)), (op, m, n, k));
            assert_ne!(pack(op, m, n, k), 0);
        }
    }

    #[test]
    fn tallies_gemm_calls_by_shape() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        reset();
        let clock = Clock::sim();
        enable(clock.clone());
        let a = vec![1.0f32; 6];
        let b = vec![2.0f32; 12];
        let mut out = vec![0.0f32; 12];
        for _ in 0..3 {
            gemm(Trans::N, Trans::N, 2, 4, 3, &a, &b, &mut out[..8], false);
        }
        clock.advance_ns(50); // lands in no call; times stay 0
        gemm(Trans::T, Trans::N, 3, 4, 2, &a, &b[..8], &mut out, false);
        disable();
        // a disabled call must not be tallied
        gemm(Trans::N, Trans::N, 2, 4, 3, &a, &b, &mut out[..8], false);

        let (tallies, overflow) = snapshot();
        assert_eq!(overflow, 0);
        assert_eq!(tallies.len(), 2);
        let nn = tallies.iter().find(|t| t.label() == "nn.2x4x3").expect("nn shape");
        assert_eq!((nn.calls, nn.total_ns), (3, 0));
        assert_eq!(nn.flops_per_call(), 48);
        assert_eq!(nn.total_flops(), 144);
        let tn = tallies.iter().find(|t| t.label() == "tn.3x4x2").expect("tn shape");
        assert_eq!(tn.calls, 1);

        let registry = MetricsRegistry::new();
        export_into(&registry);
        assert_eq!(registry.counter("kernel.gemm.calls").get(), 4);
        assert_eq!(registry.counter("kernel.gemm.nn.2x4x3.flops").get(), 144);
        assert_eq!(registry.counter("kernel.gemm.overflow").get(), 0);
        reset();
    }

    #[test]
    fn tallies_int8_gemm_under_its_own_tag() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        reset();
        enable(Clock::sim());
        let w = crate::Int8Matrix::from_channel_rows(48, 16, vec![1; 48 * 16], vec![1.0; 48]);
        let mut out = vec![0i32; 2 * 48];
        w.gemm_into(2, &[1; 2 * 16], &mut out, false);
        disable();
        assert_eq!(out, vec![16; 2 * 48]);

        let (tallies, overflow) = snapshot();
        assert_eq!(overflow, 0);
        let i8 = tallies.iter().find(|t| t.label() == "i8.2x48x16").expect("int8 shape");
        assert_eq!((i8.op, i8.calls, i8.total_ns), (Op::I8, 1, 0));
        assert_eq!(i8.flops_per_call(), 2 * 2 * 48 * 16);
        let registry = MetricsRegistry::new();
        export_into(&registry);
        assert_eq!(registry.counter("kernel.gemm.i8.2x48x16.calls").get(), 1);
        reset();
    }

    #[test]
    fn sim_clock_advance_during_profiling_is_attributed() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        reset();
        enable(Clock::sim());
        tally(Op::F32(Trans::N, Trans::N), 8, 8, 8, 123);
        tally(Op::F32(Trans::N, Trans::N), 8, 8, 8, 7);
        let (tallies, _) = snapshot();
        assert_eq!(tallies.len(), 1);
        assert_eq!((tallies[0].calls, tallies[0].total_ns), (2, 130));
        assert!(tallies[0].gflops() > 0.0);
        disable();
        reset();
    }

    #[test]
    fn overflow_counts_instead_of_losing_calls() {
        let _guard = PROFILE_LOCK.lock().unwrap();
        reset();
        for m in 1..=SLOTS + 3 {
            tally(Op::F32(Trans::N, Trans::N), m, 1, 1, 0);
        }
        let (tallies, overflow) = snapshot();
        assert_eq!(tallies.len(), SLOTS);
        assert_eq!(overflow, 3);
        assert_eq!(tallies.iter().map(|t| t.calls).sum::<u64>(), SLOTS as u64);
        reset();
    }
}
