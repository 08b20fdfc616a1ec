//! Offline drop-in subset of the `parking_lot` 0.12 API, implemented over
//! `std::sync` primitives.
//!
//! The build environment has no access to crates.io, so the workspace
//! patches `parking_lot` to this shim. Two parking_lot semantics matter to
//! the simulator and are preserved:
//!
//! - `lock()`/`read()`/`write()` return guards directly (no `Result`), and
//!   **poisoning is ignored**: the simulator unwinds processes on purpose
//!   (kill/shutdown interrupts) while locks are held, which must not wedge
//!   every other thread.
//! - `MutexGuard::unlocked` releases the lock while a closure runs and
//!   takes it back afterwards, also when the closure panics.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

// ---- Mutex -----------------------------------------------------------------

pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            mutex: &self.inner,
            inner: Some(inner),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            mutex: &self.inner,
            inner: Some(guard),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// Guard holding the inner std guard in an `Option` so
/// [`MutexGuard::unlocked`] can release it and take the lock back.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a sync::Mutex<T>,
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> MutexGuard<'_, T> {
    /// Release the lock, run `f`, and lock again before returning — also
    /// when `f` panics, and whether or not the mutex was poisoned meanwhile.
    pub fn unlocked<F, U>(s: &mut Self, f: F) -> U
    where
        F: FnOnce() -> U,
    {
        struct Relock<'g, 'a, T: ?Sized>(&'g mut MutexGuard<'a, T>);
        impl<T: ?Sized> Drop for Relock<'_, '_, T> {
            fn drop(&mut self) {
                let inner = self.0.mutex.lock();
                self.0.inner = Some(inner.unwrap_or_else(PoisonError::into_inner));
            }
        }
        drop(s.inner.take().expect("guard taken"));
        let _relock = Relock(s);
        f()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

// ---- RwLock ----------------------------------------------------------------

pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let guard = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard { inner: guard }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let guard = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard { inner: guard }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(1u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("on purpose");
        })
        .join();
        // A poisoned std mutex would panic here; the shim must not.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn unlocked_lets_others_in_and_relocks() {
        let m = Arc::new(Mutex::new(1u32));
        let mut g = m.lock();
        MutexGuard::unlocked(&mut g, || {
            let m2 = Arc::clone(&m);
            std::thread::spawn(move || *m2.lock() += 1).join().unwrap();
        });
        *g += 1;
        assert_eq!(*g, 3);
        // Poisoned while released: the guard takes the lock back anyway.
        MutexGuard::unlocked(&mut g, || {
            let m2 = Arc::clone(&m);
            let _ = std::thread::spawn(move || {
                let _g = m2.lock();
                panic!("on purpose");
            })
            .join();
        });
        *g += 1;
        drop(g);
        assert_eq!(*m.lock(), 4);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }
}
