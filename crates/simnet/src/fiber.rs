//! Stackful fibers: the execution contexts thread procs run on.
//!
//! A [`Fiber`] is a stack of its own plus the registers of wherever it last
//! stopped. [`switch`] suspends the running context and resumes another on
//! the same OS thread: it pushes the x86-64 SysV callee-saved registers
//! (`rbx`, `rbp`, `r12`–`r15`), MXCSR and the x87 control word onto the
//! running stack, stores `rsp`, loads the target's and pops the same set
//! from it. Nothing else is live across a call, so nothing else is saved. A
//! hand-off between two thread procs is one such switch, tens of
//! nanoseconds, where waking one OS thread and parking another took
//! microseconds.
//!
//! The OS thread that drives a run is a context too, the *root*
//! ([`Fiber::root`]): it runs on that thread's own stack, and fibers switch
//! back to it the same way.
//!
//! ## Stacks
//!
//! Each fiber maps [`STACK_SIZE`] bytes, the default stack of a
//! `std::thread`, with `MAP_NORESERVE`: pages commit only when touched. A
//! `PROT_NONE` guard page sits below the stack, so an overflow faults there
//! and kills the process with `SIGSEGV`; std's "has overflowed its stack"
//! message knows only the guard pages of OS threads. `Drop` unmaps the
//! stack.
//!
//! ## What keeps the safe surface sound
//!
//! Every `unsafe` of the scheduler lives in this module, and [`switch`]
//! checks what the raw switch needs before it makes it:
//! - The target is claimed by moving its phase from fresh or suspended to
//!   running, so a context runs at most once at a time. A suspended fiber
//!   resumes only on the OS thread it first ran on: frames on its stack may
//!   hold values that must not change threads.
//! - The context that switches away is the one a thread-local names as
//!   running on this thread, so its stack pointer lands in its own slot.
//! - A running context is never freed: dropping one aborts the process. A
//!   suspended fiber's stack is leaked rather than unmapped, since another
//!   thread may still borrow a frame on it.
//! - The caller hands the target's `Arc` along with control, and the target
//!   drops it once it has landed, so no context is freed by the switch that
//!   leaves it.
//!
//! The assembly targets x86-64 Linux, where CI and the benchmark run. There
//! is no OS-thread fallback: it would be a second, untested engine.

use std::cell::{Cell, UnsafeCell};
use std::ffi::{c_int, c_void};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "simnet::fiber supports x86-64 Linux only: port `switch_stacks` and \
     `trampoline` (and the mmap constants) to add a target"
);

/// Bytes of stack per fiber: what `std::thread` gives a spawned thread.
const STACK_SIZE: usize = 2 << 20;
/// The guard page below each stack (the x86-64 base page).
const GUARD: usize = 4096;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;

// From the C library, which std links on this target.
unsafe extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// What a fiber runs. It returns the context to switch to once it is done.
pub(crate) type Start = Box<dyn FnOnce() -> Arc<Fiber> + Send>;

/// Never run yet: `sp` holds the initial frame.
const FRESH: u8 = 0;
/// Switched away from: `sp` holds where it resumes.
const SUSPENDED: u8 = 1;
const RUNNING: u8 = 2;
/// Its start function returned and it switched away for the last time.
const FINISHED: u8 = 3;

/// One execution context: a fiber with its own stack, or the root.
pub(crate) struct Fiber {
    /// The saved stack pointer while fresh or suspended.
    sp: AtomicPtr<u8>,
    phase: AtomicU8,
    /// [`thread_token`] of the OS thread it runs on, set at its first
    /// resume; 0 until then.
    thread: AtomicU64,
    /// The mapping (guard page, then stack); null for the root.
    map: *mut u8,
    /// What the fiber runs, until its first resume takes it.
    start: UnsafeCell<Option<Start>>,
}

// SAFETY: every field is safe to share and to send:
// - `sp`, `phase` and `thread` are atomics.
// - `map` is dereferenced only by `new`, before the fiber is shared, and by
//   `Drop`, which has it exclusively; the stack it maps is run only by the
//   thread that claimed the fiber in `claim`, and a suspended fiber resumes
//   only on the thread named by `thread`, so values on its frames never
//   change threads.
// - `start` is `Send`; it is taken only by the one thread whose `claim`
//   moved the fiber out of `FRESH`, or dropped with the fiber under `&mut`.
unsafe impl Send for Fiber {}
// SAFETY: as for `Send`; a shared `&Fiber` reaches only the atomics, and
// `start` only after the `FRESH` claim, which one thread wins.
unsafe impl Sync for Fiber {}

thread_local! {
    /// The context running on this OS thread; null outside any run.
    static CURRENT: Cell<*const Fiber> = const { Cell::new(ptr::null()) };
    /// The target's `Arc`, handed along with control by [`go`] and dropped
    /// by the target once it has landed.
    static HANDED: Cell<Option<Arc<Fiber>>> = const { Cell::new(None) };
}

/// A process-unique token of the calling OS thread.
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TOKEN.with(|t| *t)
}

impl Fiber {
    /// A fresh fiber that will run `start` on a stack of its own the first
    /// time it is switched to.
    pub(crate) fn new(start: Start) -> Arc<Fiber> {
        let len = GUARD + STACK_SIZE;
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases no memory of this program.
        let map = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            map as isize != -1,
            "cannot map a fiber stack: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the guard page is the first page of the mapping just made.
        let rc = unsafe { mprotect(map, GUARD, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "cannot protect a fiber's guard page: {}",
            std::io::Error::last_os_error()
        );
        let map = map.cast::<u8>();
        // The frame `switch_stacks` pops, lowest address first: MXCSR and
        // the x87 control word at their defaults, then r15, r14, r13, r12,
        // rbx and rbp (all zero), then the return address into
        // `trampoline`. Above it, a zero return address for the trampoline
        // itself ends every backtrace there, and keeps `rsp` 16-byte aligned
        // at its `call`.
        let mut frame = [0u64; 10];
        frame[0] = 0x1F80 | (0x037F << 32);
        frame[7] = trampoline as *const () as u64;
        // SAFETY: the frame's 80 bytes end at the top of the mapping, inside
        // its writable part, and `len` is a multiple of 16, so the start is
        // 16-byte aligned like every stack pointer `switch_stacks` saves.
        let sp = unsafe {
            let sp = map.add(len - size_of_val(&frame));
            sp.cast::<[u64; 10]>().write(frame);
            sp
        };
        Arc::new(Fiber {
            sp: AtomicPtr::new(sp),
            phase: AtomicU8::new(FRESH),
            thread: AtomicU64::new(0),
            map,
            start: UnsafeCell::new(Some(start)),
        })
    }

    /// The calling OS thread as a context, running: what fibers switch back
    /// to. Panics if this thread is already running a context.
    pub(crate) fn root() -> Arc<Fiber> {
        let root = Arc::new(Fiber {
            sp: AtomicPtr::new(ptr::null_mut()),
            phase: AtomicU8::new(RUNNING),
            thread: AtomicU64::new(thread_token()),
            map: ptr::null_mut(),
            start: UnsafeCell::new(None),
        });
        CURRENT.with(|c| {
            assert!(
                c.get().is_null(),
                "a simulation cannot run inside a running simulation's proc"
            );
            c.set(Arc::as_ptr(&root));
        });
        root
    }

    /// Move this context from fresh or suspended to running, on this
    /// thread. Panics, changing nothing, if that cannot be done.
    fn claim(&self) {
        let me = thread_token();
        if self
            .phase
            .compare_exchange(FRESH, RUNNING, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            self.thread.store(me, Ordering::Relaxed);
            return;
        }
        // Only the thread a suspended context is bound to may move it, so
        // nothing changes between this check and the store.
        assert!(
            self.thread.load(Ordering::Relaxed) == me
                && self.phase.load(Ordering::Acquire) == SUSPENDED,
            "switch to a context that is running, finished, or another thread's"
        );
        self.phase.store(RUNNING, Ordering::Relaxed);
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        let phase = *self.phase.get_mut();
        if self.map.is_null() {
            // The root: a running one is this thread's current context.
            if phase == RUNNING {
                let current = CURRENT.with(|c| c.replace(ptr::null()));
                if !ptr::eq(current, self) {
                    // It runs on another thread, which still points at it.
                    std::process::abort();
                }
            }
            return;
        }
        match phase {
            // Freeing the stack under code that runs on it.
            RUNNING => std::process::abort(),
            // Leaked: a frame on it may still be borrowed.
            SUSPENDED => {}
            _ => {
                // SAFETY: `map` is the whole mapping `new` made; no code runs
                // on it (the fiber is fresh or finished) and no frame on it is
                // live.
                unsafe { munmap(self.map.cast(), GUARD + STACK_SIZE) };
            }
        }
    }
}

/// Suspend the running context and resume `to`, on this OS thread; returns
/// once some context switches back to the caller's.
///
/// Panics, before switching, if no context runs on this thread or `to`
/// cannot be resumed here (it is running, finished, or bound to another
/// thread).
pub(crate) fn switch(to: Arc<Fiber>) {
    go(to, SUSPENDED);
    land();
}

/// Leave the running context for good and resume `to`.
fn exit(to: Arc<Fiber>) -> ! {
    go(to, FINISHED);
    unreachable!("a finished fiber was resumed")
}

/// Drop the `Arc` the context that switched here handed along.
fn land() {
    drop(HANDED.with(Cell::take));
}

/// Switch from the running context to `to`, leaving the former in phase
/// `leave`.
fn go(to: Arc<Fiber>, leave: u8) {
    // std counts panics per OS thread: an unwind must end before its fiber
    // switches away.
    debug_assert!(!std::thread::panicking(), "fiber switch while unwinding");
    let cur = CURRENT.with(Cell::get);
    assert!(!cur.is_null(), "fiber switch outside a run");
    // SAFETY: `CURRENT` names the context running on this thread, and a
    // running context is never freed (`Drop` aborts instead).
    let cur = unsafe { &*cur };
    to.claim();
    let to_sp = to.sp.load(Ordering::Relaxed);
    CURRENT.with(|c| c.set(Arc::as_ptr(&to)));
    HANDED.with(|h| h.set(Some(to)));
    // Last before the switch: nothing that runs from here on could drop
    // `cur` now that it no longer reads as running.
    cur.phase.store(leave, Ordering::Release);
    // SAFETY: `cur.sp` is a live slot of the running context, which the
    // switch leaves at a point `switch_stacks` can return to. `to_sp` was
    // saved when `to` was last suspended, on this thread (`claim` checked
    // both), or is the initial frame `new` laid out; either way its stack
    // is still mapped, since `to` is alive in `HANDED` and from here on
    // running, and running contexts are never freed.
    unsafe { switch_stacks(cur.sp.as_ptr(), to_sp) }
}

/// Save the callee-saved registers, MXCSR and the x87 control word on the
/// current stack, store `rsp` in `*from`, then load `to` into `rsp` and
/// restore the same set from there.
///
/// # Safety
///
/// `from` must be valid for a write. `to` must be a stack pointer this
/// function stored, on this OS thread, for a context that has not resumed
/// since, or the initial frame of [`Fiber::new`]; its stack must stay mapped
/// for as long as it runs. The caller resumes only when some context passes
/// what was stored in `*from` as `to`.
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(from: *mut *mut u8, to: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a fresh fiber's first switch returns to: calls [`entry`], which
/// never returns.
///
/// # Safety
///
/// Only `switch_stacks` may enter it, through the initial frame of
/// [`Fiber::new`].
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    std::arch::naked_asm!("call {entry}", "ud2", entry = sym entry)
}

/// A fresh fiber's body: run its start function, then switch to the context
/// it returns, for good. A panic escaping `start` aborts the process.
extern "C" fn entry() -> ! {
    land();
    let cur = CURRENT.with(Cell::get);
    // SAFETY: `CURRENT` is this fiber, running and so alive, and its
    // `start` is touched by no one else: this thread's `claim` took it out
    // of `FRESH`, which happens once.
    let start = unsafe { (*(*cur).start.get()).take() };
    let next = start.expect("a fresh fiber has its start function")();
    exit(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn fibers_hand_control_round_a_ring_and_back_to_root() {
        let root = Fiber::root();
        let log = Arc::new(Mutex::new(Vec::new()));
        let fibers: Arc<Mutex<Vec<Arc<Fiber>>>> = Arc::default();
        for i in 0..3 {
            let (log, ring, root) = (log.clone(), fibers.clone(), root.clone());
            let fiber = Fiber::new(Box::new(move || {
                for round in 0..2 {
                    log.lock().unwrap().push((i, round));
                    // Preserved across the switch: callee-saved state.
                    let x = std::hint::black_box(i as f64 + 0.5);
                    let next = ring.lock().unwrap()[(i + 1) % 3].clone();
                    if i == 2 && round == 0 {
                        // Pass through root once, mid-ring.
                        switch(root.clone());
                    }
                    switch(next);
                    assert_eq!(x, i as f64 + 0.5);
                }
                root
            }));
            fibers.lock().unwrap().push(fiber);
        }
        let first = fibers.lock().unwrap()[0].clone();
        switch(first);
        // Fiber 2 stopped at root in round 0; resuming it runs the ring
        // until fiber 0 finishes and comes back here.
        let third = fibers.lock().unwrap()[2].clone();
        switch(third);
        assert_eq!(
            *log.lock().unwrap(),
            [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        );
        let phases = || {
            let fibers = fibers.lock().unwrap();
            fibers
                .iter()
                .map(|f| f.phase.load(Ordering::Relaxed))
                .collect::<Vec<_>>()
        };
        assert_eq!(phases(), [FINISHED, SUSPENDED, SUSPENDED]);
        // Each of the other two returns to root when it is done.
        for i in [1, 2] {
            let f = fibers.lock().unwrap()[i].clone();
            switch(f);
        }
        assert_eq!(phases(), [FINISHED; 3]);
        drop(root);
        assert!(CURRENT.with(Cell::get).is_null());
    }

    #[test]
    fn a_context_cannot_be_resumed_while_it_runs() {
        let root = Fiber::root();
        let again = root.clone();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| switch(again)))
            .expect_err("a running context was resumed");
        let msg = err
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned());
        assert!(msg.is_some_and(|m| m.contains("running")));
        drop(root);
    }

    #[test]
    fn a_fresh_fiber_never_run_drops_its_start_function() {
        let flag = Arc::new(());
        let held = flag.clone();
        let fiber = Fiber::new(Box::new(move || {
            drop(held);
            unreachable!()
        }));
        assert_eq!(Arc::strong_count(&flag), 2);
        drop(fiber);
        assert_eq!(Arc::strong_count(&flag), 1);
    }
}
