//! Host-side self-profiler: wall-clock and allocation attribution for the
//! simulator itself.
//!
//! Everything else in this crate measures the *simulated* world in virtual
//! time; this module measures what the simulator costs the *host* — real
//! nanoseconds and real allocations, attributed to a small fixed taxonomy of
//! subsystem scopes (scheduler handoff, codec, fabric, scraping, trace
//! export). It exists to turn ROADMAP's "payload clones and per-send
//! allocations" from guesses into numbers.
//!
//! ## Design constraints
//!
//! - **Always compiled, off by default.** When disabled, [`scope`] is a
//!   single relaxed atomic load returning an inert guard, and the counting
//!   allocator is a relaxed load in front of `System` — cheap enough to leave
//!   in every build.
//! - **Strictly outside the virtual clock.** Nothing here reads or moves
//!   `SimTime`, wakes a process, or consumes a sequence number. Enabling the
//!   profiler must leave the simulated run bit-for-bit identical (a test in
//!   `tests/hostprof_determinism.rs` holds this line).
//! - **Per-OS-thread accumulation.** Each sim proc is an OS thread; guards
//!   record into plain thread-local counters (no atomics, no locks on the
//!   hot path) which merge into a global table when the thread exits or on
//!   an explicit [`flush_thread`].
//! - **Nesting-safe self/children split.** A guard's elapsed time includes
//!   everything beneath it; on drop the child time already attributed to
//!   inner scopes is subtracted, so `self_ns` sums tell the truth. The
//!   dedicated [`Scope::SchedPark`] scope keeps parked wall time (when
//!   *other* procs run) out of every enclosing scope's self time.
//!
//! ## Allocation counting
//!
//! [`CountingAlloc`] wraps [`System`] as the `#[global_allocator]`
//! (installed in `lib.rs`). When [`set_alloc_counting`] is on it bumps two
//! const-initialized thread-local `Cell<u64>`s — no `Drop`, no lazy
//! allocation, so the hook can never recurse or touch TLS destructors. Scope
//! guards snapshot the cells on entry and attribute the delta (minus the
//! children's share) on drop. Counters saturate rather than wrap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The fixed scope taxonomy. Adding a variant: extend [`Scope::ALL`] and
/// [`Scope::name`] — everything else (tables, rendering) follows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// Ready-process selection and the hand-off under the state lock.
    SchedDispatch,
    /// The hand-off's unpark of the next proc, then parked wall time while
    /// *other* procs hold the turn.
    SchedPark,
    /// `send_env`: NIC accounting, mailbox insert, trace push.
    SchedSend,
    /// `block_recv`: mailbox scan, consume, re-block loop.
    SchedRecv,
    /// Declared-wire-size computation on the send side (`WireSize` walks).
    CodecEncode,
    /// Payload downcasts on the receive side.
    CodecDecode,
    /// Fabric reliable-RPC pipeline (scatter/gather, dispatcher waits).
    FabricCall,
    /// Metrics registry mutation (counters and histograms).
    MetricsRecord,
    /// SLO burn judging as windows close (`slo_roll`). Its name,
    /// `scrape.roll`, is the one the benchmark's `hostprof.scrape.roll.*`
    /// rows read.
    SloRoll,
    /// End-of-run trace sort and Perfetto/JSON export.
    TraceExport,
    /// Inline stepping of event-driven agents (`Proc` callbacks plus the
    /// per-step event selection and bookkeeping around them).
    SchedStep,
}

pub const SCOPE_COUNT: usize = 11;

impl Scope {
    pub const ALL: [Scope; SCOPE_COUNT] = [
        Scope::SchedDispatch,
        Scope::SchedPark,
        Scope::SchedSend,
        Scope::SchedRecv,
        Scope::CodecEncode,
        Scope::CodecDecode,
        Scope::FabricCall,
        Scope::MetricsRecord,
        Scope::SloRoll,
        Scope::TraceExport,
        Scope::SchedStep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Scope::SchedDispatch => "sched.dispatch",
            Scope::SchedPark => "sched.park",
            Scope::SchedSend => "sched.send",
            Scope::SchedRecv => "sched.recv",
            Scope::CodecEncode => "codec.encode",
            Scope::CodecDecode => "codec.decode",
            Scope::FabricCall => "fabric.call",
            Scope::MetricsRecord => "metrics.record",
            Scope::SloRoll => "scrape.roll",
            Scope::TraceExport => "trace.export",
            Scope::SchedStep => "sched.step",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

// ---- global switches --------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNTING: AtomicBool = AtomicBool::new(false);

/// Turn scope timing on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether scope timing is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn allocation counting on or off (process-wide). Only meaningful with
/// timing enabled — the counters are read by scope guards.
pub fn set_alloc_counting(on: bool) {
    ALLOC_COUNTING.store(on, Ordering::Relaxed);
}

/// Whether the counting allocator hook is currently on.
pub fn alloc_counting() -> bool {
    ALLOC_COUNTING.load(Ordering::Relaxed)
}

// ---- per-scope accumulators -------------------------------------------------

/// Accumulated cost of one scope: call count, inclusive and exclusive wall
/// nanoseconds, and allocations attributed exclusively to the scope.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ScopeTotals {
    pub calls: u64,
    /// Inclusive wall time (children counted).
    pub total_ns: u64,
    /// Exclusive wall time (children subtracted).
    pub self_ns: u64,
    /// Allocations attributed exclusively to the scope.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl ScopeTotals {
    fn absorb(&mut self, o: &ScopeTotals) {
        self.calls = self.calls.saturating_add(o.calls);
        self.total_ns = self.total_ns.saturating_add(o.total_ns);
        self.self_ns = self.self_ns.saturating_add(o.self_ns);
        self.allocs = self.allocs.saturating_add(o.allocs);
        self.alloc_bytes = self.alloc_bytes.saturating_add(o.alloc_bytes);
    }
}

static GLOBAL: Mutex<[ScopeTotals; SCOPE_COUNT]> = Mutex::new(
    [ScopeTotals {
        calls: 0,
        total_ns: 0,
        self_ns: 0,
        allocs: 0,
        alloc_bytes: 0,
    }; SCOPE_COUNT],
);

fn global_lock() -> std::sync::MutexGuard<'static, [ScopeTotals; SCOPE_COUNT]> {
    // Poisoning is irrelevant: the table is plain counters.
    match GLOBAL.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

// ---- allocation counters ----------------------------------------------------
//
// Const-initialized Cell<u64> thread-locals: no destructor is ever
// registered and no allocation happens on first access, which makes them
// safe to touch from inside the global allocator.

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    /// True while the profiler itself is allocating (growing its frame
    /// stack). Those allocations must not be charged to whatever scope
    /// happens to be open — the instrument may not measure itself.
    static TL_ALLOC_PAUSED: Cell<bool> = const { Cell::new(false) };
}

/// Bump this thread's allocation counters (saturating). Public so the
/// saturation behavior is directly testable; the allocator hook is the real
/// caller.
pub fn record_alloc(count: u64, bytes: u64) {
    // try_with: never panic inside the allocator, even during thread
    // teardown when TLS may be unavailable.
    if TL_ALLOC_PAUSED.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get().saturating_add(count)));
    let _ = TL_ALLOC_BYTES.try_with(|c| c.set(c.get().saturating_add(bytes)));
}

/// Run `f` with allocation counting paused on this thread, for
/// profiler-internal bookkeeping that allocates.
fn alloc_paused<R>(f: impl FnOnce() -> R) -> R {
    let prev = TL_ALLOC_PAUSED
        .try_with(|c| c.replace(true))
        .unwrap_or(true);
    let out = f();
    let _ = TL_ALLOC_PAUSED.try_with(|c| c.set(prev));
    out
}

/// This thread's raw (allocs, bytes) counters.
pub fn thread_alloc_counters() -> (u64, u64) {
    (TL_ALLOCS.get(), TL_ALLOC_BYTES.get())
}

/// A `GlobalAlloc` wrapper over [`System`] that counts allocations into
/// thread-local cells when [`set_alloc_counting`] is on. Frees are not
/// counted: the profiler attributes allocation *pressure*, not live bytes.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            record_alloc(1, layout.size() as u64);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            record_alloc(1, layout.size() as u64);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ALLOC_COUNTING.load(Ordering::Relaxed) {
            record_alloc(1, new_size as u64);
        }
        System.realloc(ptr, layout, new_size)
    }
}

// ---- thread-local frame stack ----------------------------------------------

struct Frame {
    scope: usize,
    start: Instant,
    /// Wall ns already attributed to nested scopes (their inclusive time).
    child_ns: u64,
    /// Alloc counters at entry.
    allocs_at_entry: u64,
    bytes_at_entry: u64,
    /// Alloc deltas already attributed to nested scopes.
    child_allocs: u64,
    child_bytes: u64,
}

struct ThreadProf {
    stack: Vec<Frame>,
    totals: [ScopeTotals; SCOPE_COUNT],
}

impl ThreadProf {
    const fn new() -> ThreadProf {
        ThreadProf {
            stack: Vec::new(),
            totals: [ScopeTotals {
                calls: 0,
                total_ns: 0,
                self_ns: 0,
                allocs: 0,
                alloc_bytes: 0,
            }; SCOPE_COUNT],
        }
    }

    fn merge_into_global(&mut self) {
        if self.totals.iter().all(|t| t.calls == 0) {
            return;
        }
        let mut g = global_lock();
        for (dst, src) in g.iter_mut().zip(self.totals.iter()) {
            dst.absorb(src);
        }
        self.totals = [ScopeTotals::default(); SCOPE_COUNT];
    }
}

impl Drop for ThreadProf {
    fn drop(&mut self) {
        // Thread exit: fold whatever this thread accumulated into the
        // global table so short-lived sim-proc threads are not lost.
        self.merge_into_global();
    }
}

thread_local! {
    static PROF: RefCell<ThreadProf> = const { RefCell::new(ThreadProf::new()) };
}

/// RAII scope timer. Obtain via [`scope`]; cost is recorded on drop.
pub struct ScopeGuard {
    active: bool,
}

/// Enter `s`. When the profiler is disabled this is one atomic load and an
/// inert guard.
#[inline]
pub fn scope(s: Scope) -> ScopeGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return ScopeGuard { active: false };
    }
    let (a, b) = thread_alloc_counters();
    // alloc_paused: growing the frame stack must not count against the
    // enclosing scope.
    alloc_paused(|| {
        PROF.with(|p| {
            p.borrow_mut().stack.push(Frame {
                scope: s.idx(),
                start: Instant::now(),
                child_ns: 0,
                allocs_at_entry: a,
                bytes_at_entry: b,
                child_allocs: 0,
                child_bytes: 0,
            });
        });
    });
    ScopeGuard { active: true }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let (a_now, b_now) = thread_alloc_counters();
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            let Some(f) = p.stack.pop() else { return };
            let elapsed = f.start.elapsed().as_nanos() as u64;
            let d_allocs = a_now.saturating_sub(f.allocs_at_entry);
            let d_bytes = b_now.saturating_sub(f.bytes_at_entry);
            let t = &mut p.totals[f.scope];
            t.calls = t.calls.saturating_add(1);
            t.total_ns = t.total_ns.saturating_add(elapsed);
            t.self_ns = t.self_ns.saturating_add(elapsed.saturating_sub(f.child_ns));
            t.allocs = t
                .allocs
                .saturating_add(d_allocs.saturating_sub(f.child_allocs));
            t.alloc_bytes = t
                .alloc_bytes
                .saturating_add(d_bytes.saturating_sub(f.child_bytes));
            if let Some(parent) = p.stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(elapsed);
                parent.child_allocs = parent.child_allocs.saturating_add(d_allocs);
                parent.child_bytes = parent.child_bytes.saturating_add(d_bytes);
            }
        });
    }
}

// ---- lifecycle --------------------------------------------------------------

/// Merge this thread's accumulated totals into the global table. Sim-proc
/// threads do this implicitly on exit; long-lived threads (the one calling
/// `SimRuntime::run`, test threads) call it before [`take_profile`].
pub fn flush_thread() {
    PROF.with(|p| p.borrow_mut().merge_into_global());
}

/// Zero the global table and this thread's totals (open frames survive: a
/// guard entered before `reset` records normally on drop). Called at the
/// start of a profiled run so leftovers from earlier runs don't leak in.
pub fn reset() {
    PROF.with(|p| {
        p.borrow_mut().totals = [ScopeTotals::default(); SCOPE_COUNT];
    });
    *global_lock() = [ScopeTotals::default(); SCOPE_COUNT];
}

// ---- profile snapshot -------------------------------------------------------

/// One scope's row in a finished [`HostProfile`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScopeStat {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Host-side cost profile of one run: wall time plus per-scope attribution.
/// Lives in [`crate::SimReport::host`]; contains **host** data only — nothing
/// in here feeds back into the virtual clock.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct HostProfile {
    /// Wall nanoseconds of the profiled region (the whole `run()` for sim
    /// reports).
    pub wall_ns: u64,
    /// Whether the counting allocator was on (alloc columns are meaningful).
    pub alloc_counted: bool,
    /// Scopes with at least one call, sorted by `self_ns` descending (name
    /// as tiebreak).
    pub scopes: Vec<ScopeStat>,
}

impl HostProfile {
    /// Fold another profile into this one (summing scope rows, summing
    /// wall). Used by `benchmark/` to add the post-run analysis cost
    /// captured after the in-run snapshot.
    pub fn merge(&mut self, other: &HostProfile) {
        self.wall_ns = self.wall_ns.saturating_add(other.wall_ns);
        self.alloc_counted |= other.alloc_counted;
        for s in &other.scopes {
            match self.scopes.iter_mut().find(|m| m.name == s.name) {
                Some(m) => {
                    m.calls = m.calls.saturating_add(s.calls);
                    m.total_ns = m.total_ns.saturating_add(s.total_ns);
                    m.self_ns = m.self_ns.saturating_add(s.self_ns);
                    m.allocs = m.allocs.saturating_add(s.allocs);
                    m.alloc_bytes = m.alloc_bytes.saturating_add(s.alloc_bytes);
                }
                None => self.scopes.push(s.clone()),
            }
        }
        sort_scopes(&mut self.scopes);
    }

    /// Human-readable per-scope table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "host profile: wall {:.1} ms, alloc counting {}\n",
            self.wall_ns as f64 / 1e6,
            if self.alloc_counted { "on" } else { "off" }
        ));
        out.push_str(&format!(
            "{:<16} {:>10} {:>12} {:>12} {:>10} {:>12}\n",
            "scope", "calls", "total_ms", "self_ms", "allocs", "alloc_bytes"
        ));
        for s in &self.scopes {
            out.push_str(&format!(
                "{:<16} {:>10} {:>12.3} {:>12.3} {:>10} {:>12}\n",
                s.name,
                s.calls,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                s.allocs,
                s.alloc_bytes
            ));
        }
        out
    }
}

pub(crate) fn sort_scopes(scopes: &mut [ScopeStat]) {
    scopes.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
}

/// Flush nothing, take the global table (zeroing it), and package it as a
/// [`HostProfile`] with the given wall time. Call [`flush_thread`] first on
/// any thread whose totals should be included.
pub fn take_profile(wall_ns: u64) -> HostProfile {
    let table = {
        let mut g = global_lock();
        std::mem::replace(&mut *g, [ScopeTotals::default(); SCOPE_COUNT])
    };
    let mut scopes: Vec<ScopeStat> = Scope::ALL
        .iter()
        .map(|&s| {
            let t = table[s.idx()];
            ScopeStat {
                name: s.name(),
                calls: t.calls,
                total_ns: t.total_ns,
                self_ns: t.self_ns,
                allocs: t.allocs,
                alloc_bytes: t.alloc_bytes,
            }
        })
        .filter(|s| s.calls > 0)
        .collect();
    sort_scopes(&mut scopes);
    HostProfile {
        wall_ns,
        alloc_counted: alloc_counting(),
        scopes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // The switches and the global table are process-wide; serialize every
    // test that flips them so `cargo test`'s parallel runner can't
    // interleave two profiled sections.
    static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        match LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn spin_for(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// Snapshot of this thread's totals (unmerged).
    fn thread_totals() -> [ScopeTotals; SCOPE_COUNT] {
        PROF.with(|p| p.borrow().totals)
    }

    /// Drop this thread's unmerged totals and any open frames.
    fn reset_thread() {
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            p.stack.clear();
            p.totals = [ScopeTotals::default(); SCOPE_COUNT];
        });
    }

    #[test]
    fn nested_scopes_split_self_and_child_time() {
        let _l = locked();
        set_enabled(true);
        reset_thread();
        {
            let _outer = scope(Scope::FabricCall);
            spin_for(Duration::from_millis(4));
            {
                let _inner = scope(Scope::CodecEncode);
                spin_for(Duration::from_millis(4));
            }
            spin_for(Duration::from_millis(1));
        }
        set_enabled(false);
        let t = thread_totals();
        let outer = t[Scope::FabricCall.idx()];
        let inner = t[Scope::CodecEncode.idx()];
        reset_thread();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // Inner is wholly contained in outer's inclusive time...
        assert!(outer.total_ns >= inner.total_ns);
        // ...and fully excluded from outer's exclusive time.
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // The inner scope spun for ~4ms of the outer's ~9ms: exclusive time
        // must be visibly smaller than inclusive (coarse bound, CI-safe).
        assert!(outer.self_ns < outer.total_ns);
        assert!(inner.total_ns >= Duration::from_millis(3).as_nanos() as u64);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn per_thread_totals_merge_into_global_on_exit() {
        let _l = locked();
        set_enabled(true);
        reset();
        let threads: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _g = scope(Scope::SchedSend);
                    spin_for(Duration::from_millis(1));
                    // No explicit flush: the TLS destructor merges.
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        set_enabled(false);
        let profile = take_profile(0);
        let send = profile
            .scopes
            .iter()
            .find(|s| s.name == "sched.send")
            .expect("sched.send row");
        assert_eq!(send.calls, 3);
        assert!(send.total_ns >= 3 * Duration::from_millis(1).as_nanos() as u64);
    }

    #[test]
    fn explicit_flush_merges_current_thread() {
        let _l = locked();
        set_enabled(true);
        reset();
        reset_thread();
        {
            let _g = scope(Scope::SloRoll);
        }
        set_enabled(false);
        flush_thread();
        let profile = take_profile(7);
        assert_eq!(profile.wall_ns, 7);
        assert_eq!(
            profile
                .scopes
                .iter()
                .find(|s| s.name == "scrape.roll")
                .map(|s| s.calls),
            Some(1)
        );
        // Taking drained the table: a second take is empty.
        assert!(take_profile(0).scopes.is_empty());
    }

    #[test]
    fn alloc_counters_saturate_instead_of_wrapping() {
        let _l = locked();
        // Drain whatever this thread has accumulated so far.
        let (a0, _) = thread_alloc_counters();
        record_alloc(u64::MAX - a0 - 1, 0);
        record_alloc(10, 0); // would overflow; must pin at MAX
        let (a, _) = thread_alloc_counters();
        assert_eq!(a, u64::MAX);
        record_alloc(1, u64::MAX);
        record_alloc(0, u64::MAX); // bytes counter saturates too
        let (_, b) = thread_alloc_counters();
        assert_eq!(b, u64::MAX);
    }

    #[test]
    fn scopes_attribute_allocations_to_self_not_parent() {
        let _l = locked();
        set_enabled(true);
        set_alloc_counting(true);
        reset_thread();
        {
            let _outer = scope(Scope::SchedRecv);
            {
                let _inner = scope(Scope::CodecDecode);
                let v: Vec<u64> = Vec::with_capacity(1024);
                std::hint::black_box(&v);
            }
        }
        set_alloc_counting(false);
        set_enabled(false);
        let t = thread_totals();
        let inner = t[Scope::CodecDecode.idx()];
        let outer = t[Scope::SchedRecv.idx()];
        reset_thread();
        assert!(inner.allocs >= 1, "inner Vec allocation not counted");
        assert!(inner.alloc_bytes >= 1024 * 8);
        // The parent saw the same allocation flow through but must not
        // double-count it as its own.
        assert_eq!(outer.allocs, 0);
        assert_eq!(outer.alloc_bytes, 0);
    }

    #[test]
    fn disabled_scope_is_inert() {
        let _l = locked();
        set_enabled(false);
        reset_thread();
        {
            let _g = scope(Scope::TraceExport);
        }
        let t = thread_totals();
        assert!(t.iter().all(|s| s.calls == 0));
    }

    #[test]
    fn profile_merge_sums_rows_and_resorts() {
        let mut a = HostProfile {
            wall_ns: 100,
            alloc_counted: false,
            scopes: vec![ScopeStat {
                name: "sched.send",
                calls: 1,
                total_ns: 10,
                self_ns: 10,
                allocs: 0,
                alloc_bytes: 0,
            }],
        };
        let b = HostProfile {
            wall_ns: 50,
            alloc_counted: true,
            scopes: vec![
                ScopeStat {
                    name: "sched.send",
                    calls: 2,
                    total_ns: 5,
                    self_ns: 5,
                    allocs: 3,
                    alloc_bytes: 64,
                },
                ScopeStat {
                    name: "trace.export",
                    calls: 1,
                    total_ns: 99,
                    self_ns: 99,
                    allocs: 1,
                    alloc_bytes: 8,
                },
            ],
        };
        a.merge(&b);
        assert_eq!(a.wall_ns, 150);
        assert!(a.alloc_counted);
        assert_eq!(a.scopes[0].name, "trace.export"); // resorted by self_ns
        let send = a.scopes.iter().find(|s| s.name == "sched.send").unwrap();
        assert_eq!((send.calls, send.total_ns, send.allocs), (3, 15, 3));
    }
}
