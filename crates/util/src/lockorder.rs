//! Runtime lock-order validation: rank-carrying lock newtypes.
//!
//! The object store's three-tier lock hierarchy (op-stripe → node-stripe →
//! map-shard, see DESIGN.md "Concurrency model") is deadlock-free only as
//! long as every code path acquires locks in strictly increasing rank
//! order and never holds two locks of the same rank. `h2lint`'s static
//! pass checks the acquisition *sites*; the [`OrderedMutex`] /
//! [`OrderedRwLock`] newtypes here check every acquisition *dynamically*:
//! under `debug_assertions` (or the `lock-order-validation` feature) each
//! thread keeps a stack of currently held ranks, and acquiring a lock
//! whose rank is not strictly greater than every held rank panics with
//! both acquisition sites. Because the entire test suite runs in debug
//! mode, every existing concurrency test doubles as a lock-order
//! regression harness.
//!
//! In release builds without the feature the wrappers compile down to the
//! bare `std::sync` primitives plus one predictable branch.
//!
//! All acquisitions recover from poisoning instead of unwrapping (one
//! panicked client thread must never wedge a storage node); recoveries
//! are counted in the global `lock_poison_recovered` counter, readable
//! via [`lock_poison_recovered`].

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Is dynamic lock-order validation compiled in and active?
pub const fn validation_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "lock-order-validation"))
}

/// Global count of poisoned-lock recoveries (metrics counter
/// `lock_poison_recovered`): each time a lock whose previous holder
/// panicked is re-acquired, the poison is cleared and this increments.
static POISON_RECOVERED: AtomicU64 = AtomicU64::new(0);

/// Current value of the `lock_poison_recovered` counter.
pub fn lock_poison_recovered() -> u64 {
    POISON_RECOVERED.load(Ordering::Relaxed)
}

/// Acquire a `std::sync::Mutex`, transparently recovering from poisoning
/// (and bumping the `lock_poison_recovered` counter). A poisoned lock
/// means some holder panicked; the protected data is a plain map/queue
/// whose invariants are re-established per operation, so recovery is
/// always safe here and one crashed client thread cannot wedge the node.
pub fn lock_or_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| {
        POISON_RECOVERED.fetch_add(1, Ordering::Relaxed);
        e.into_inner()
    })
}

/// [`lock_or_recover`] for `RwLock` read guards.
pub fn read_or_recover<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| {
        POISON_RECOVERED.fetch_add(1, Ordering::Relaxed);
        e.into_inner()
    })
}

/// [`lock_or_recover`] for `RwLock` write guards.
pub fn write_or_recover<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| {
        POISON_RECOVERED.fetch_add(1, Ordering::Relaxed);
        e.into_inner()
    })
}

struct Held {
    id: u64,
    rank: u16,
    label: &'static str,
    site: &'static Location<'static>,
}

thread_local! {
    /// Ranks currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Validate + record an acquisition. Returns a release token, or `None`
/// when validation is compiled out. Panics on a hierarchy violation
/// *before* blocking on the lock, so an inversion is reported as a panic
/// with both sites rather than manifesting as a deadlock.
fn acquire(rank: u16, label: &'static str, site: &'static Location<'static>) -> Option<u64> {
    if !validation_enabled() {
        return None;
    }
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(worst) = held
            .iter()
            .filter(|e| e.rank >= rank)
            .max_by_key(|e| e.rank)
        {
            panic!(
                "lock-order violation: acquiring `{label}` (rank {rank}) at {site} \
                 while holding `{}` (rank {}) acquired at {} — ranked locks must be \
                 taken in strictly increasing rank order (op-stripe → node-stripe → \
                 map-shard) and never two of the same rank",
                worst.label, worst.rank, worst.site
            );
        }
        let id = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        held.push(Held {
            id,
            rank,
            label,
            site,
        });
        Some(id)
    })
}

/// Forget a recorded acquisition. Guards may be dropped in any order, so
/// the entry is removed by token, not popped. `try_with` keeps guard
/// drops panic-free during thread teardown.
fn release(token: Option<u64>) {
    let Some(token) = token else { return };
    let _ = HELD.try_with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().position(|e| e.id == token) {
            held.remove(pos);
        }
    });
}

/// A mutex carrying a static rank in the workspace lock hierarchy.
///
/// Ranks are strictly ordered: while a thread holds a rank-`r` ordered
/// lock it may only acquire ordered locks of rank `> r`. Violations panic
/// (under validation) with the acquisition sites of both locks.
pub struct OrderedMutex<T: ?Sized> {
    rank: u16,
    label: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    pub const fn new(rank: u16, label: &'static str, value: T) -> Self {
        OrderedMutex {
            rank,
            label,
            inner: Mutex::new(value),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    pub fn rank(&self) -> u16 {
        self.rank
    }

    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Acquire, validating the hierarchy and recovering from poisoning.
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = acquire(self.rank, self.label, Location::caller());
        OrderedMutexGuard {
            inner: lock_or_recover(&self.inner),
            token,
        }
    }
}

impl<T: ?Sized> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

pub struct OrderedMutexGuard<'a, T: ?Sized> {
    inner: MutexGuard<'a, T>,
    token: Option<u64>,
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

/// A reader-writer lock carrying a static rank; see [`OrderedMutex`].
/// Read and write acquisitions participate in the hierarchy identically
/// (a read guard held at rank `r` still forbids acquiring rank `<= r`).
pub struct OrderedRwLock<T: ?Sized> {
    rank: u16,
    label: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    pub const fn new(rank: u16, label: &'static str, value: T) -> Self {
        OrderedRwLock {
            rank,
            label,
            inner: RwLock::new(value),
        }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    pub fn rank(&self) -> u16 {
        self.rank
    }

    pub fn label(&self) -> &'static str {
        self.label
    }

    #[track_caller]
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        let token = acquire(self.rank, self.label, Location::caller());
        OrderedRwLockReadGuard {
            inner: read_or_recover(&self.inner),
            token,
        }
    }

    #[track_caller]
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        let token = acquire(self.rank, self.label, Location::caller());
        OrderedRwLockWriteGuard {
            inner: write_or_recover(&self.inner),
            token,
        }
    }
}

impl<T: ?Sized> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    inner: RwLockReadGuard<'a, T>,
    token: Option<u64>,
}

impl<T: ?Sized> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    inner: RwLockWriteGuard<'a, T>,
    token: Option<u64>,
}

impl<T: ?Sized> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // The validator exists in debug builds and under the
    // `lock-order-validation` feature; the tests of its panics are
    // compiled only where it does (`cargo test --release` runs the rest).
    #[cfg(any(debug_assertions, feature = "lock-order-validation"))]
    #[test]
    fn validation_is_enabled_under_debug_assertions() {
        assert!(validation_enabled());
    }

    #[test]
    fn in_order_acquisition_is_fine() {
        let outer = OrderedMutex::new(1, "test.outer", ());
        let mid = OrderedRwLock::new(2, "test.mid", 0u32);
        let inner = OrderedRwLock::new(3, "test.inner", 0u32);
        let _a = outer.lock();
        let _b = mid.write();
        let _c = inner.read();
    }

    #[test]
    fn reacquire_after_release_is_fine() {
        let outer = OrderedMutex::new(1, "test.outer", ());
        let inner = OrderedRwLock::new(2, "test.inner", 0u32);
        {
            let _b = inner.write();
        }
        let _a = outer.lock(); // rank 1 after rank 2 *released*: legal
        drop(_a);
        let _b = inner.read();
    }

    #[test]
    fn guards_may_drop_out_of_order() {
        let a = OrderedMutex::new(1, "test.a", ());
        let b = OrderedRwLock::new(2, "test.b", ());
        let ga = a.lock();
        let gb = b.write();
        drop(ga); // release the *outer* lock first
        drop(gb);
        let _ga = a.lock(); // stack must be clean again
    }

    #[cfg(any(debug_assertions, feature = "lock-order-validation"))]
    fn panics<F: FnOnce() + Send + 'static>(f: F) -> bool {
        std::thread::spawn(f).join().is_err()
    }

    #[cfg(any(debug_assertions, feature = "lock-order-validation"))]
    #[test]
    fn deliberate_inversion_panics_under_the_validator() {
        // node-stripe (rank 2) held, then op-stripe (rank 1): the exact
        // inversion the object store's hierarchy forbids.
        assert!(panics(|| {
            let op = Arc::new(OrderedMutex::new(1, "test.op_stripe", ()));
            let stripe = Arc::new(OrderedRwLock::new(2, "test.node_stripe", 0u32));
            let _s = stripe.write();
            let _g = op.lock(); // must panic, not deadlock
        }));
    }

    #[cfg(any(debug_assertions, feature = "lock-order-validation"))]
    #[test]
    fn double_same_rank_acquisition_panics() {
        assert!(panics(|| {
            let a = OrderedMutex::new(1, "test.op_a", ());
            let b = OrderedMutex::new(1, "test.op_b", ());
            let _ga = a.lock();
            let _gb = b.lock(); // two op-stripes at once: forbidden
        }));
    }

    #[cfg(any(debug_assertions, feature = "lock-order-validation"))]
    #[test]
    fn read_guard_participates_in_the_hierarchy() {
        assert!(panics(|| {
            let shard = OrderedRwLock::new(3, "test.shard", 0u32);
            let op = OrderedMutex::new(1, "test.op", ());
            let _r = shard.read();
            let _g = op.lock();
        }));
    }

    #[test]
    fn poisoned_lock_recovers_and_counts() {
        let m = Arc::new(OrderedMutex::new(7, "test.poison", 5u32));
        let before = lock_poison_recovered();
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the inner std mutex");
        })
        .join();
        // Re-acquisition recovers instead of propagating the poison…
        assert_eq!(*m.lock(), 5);
        // …and the recovery was counted.
        assert!(lock_poison_recovered() > before);
    }

    #[test]
    fn plain_recover_helpers_work() {
        let m = Mutex::new(1);
        *lock_or_recover(&m) += 1;
        assert_eq!(*lock_or_recover(&m), 2);
        let l = RwLock::new(vec![1]);
        write_or_recover(&l).push(2);
        assert_eq!(read_or_recover(&l).len(), 2);
    }
}
