//! A blocking generation barrier with panic poisoning.
//!
//! [`std::sync::Barrier`] cannot be poisoned: a PE that panics while its
//! siblings wait would leave them parked forever. This barrier parks
//! waiters on a [`Condvar`] and carries a poison record next to the
//! generation counter, so a peer panic wakes every waiter and turns into a
//! panic in each of them; the runtime can then join all PEs and report the
//! original failure. Waiters block rather than spin: PE threads routinely
//! outnumber cores, and a spinning waiter would burn the CPU time the
//! straggler it waits for needs.
//!
//! The poison record remembers the *first* rank that poisoned the barrier.
//! An atomic copy of "poisoned or not" keeps the per-message poison check
//! of `send`/`try_recv` off the lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A reusable barrier for a fixed party count, with a poison record that
/// turns a sibling's panic into an immediate local panic.
pub struct PoisonBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    released: Condvar,
    /// Lock-free copy of `state.poisoned_by.is_some()`.
    poisoned: AtomicBool,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    /// The first rank that poisoned the barrier.
    poisoned_by: Option<usize>,
}

impl PoisonBarrier {
    /// A barrier for `parties` threads.
    pub fn new(parties: usize) -> PoisonBarrier {
        PoisonBarrier {
            parties,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned_by: None,
            }),
            released: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks the barrier poisoned by `rank`: every current and future
    /// waiter panics. Only the first call is recorded. Called from the
    /// transport's unwind detection (endpoint `Drop` during a panic).
    pub fn poison(&self, rank: usize) {
        let mut st = self.lock();
        st.poisoned_by.get_or_insert(rank);
        self.poisoned.store(true, Ordering::Release);
        drop(st);
        self.released.notify_all();
    }

    /// The first rank that poisoned the barrier, if any.
    pub fn poisoned_by(&self) -> Option<usize> {
        self.lock().poisoned_by
    }

    /// Panics if the barrier is poisoned (peer PE panicked). Lock-free.
    #[inline]
    pub fn check_poison(&self) {
        assert!(
            !self.poisoned.load(Ordering::Acquire),
            "transport poisoned: a peer PE panicked"
        );
    }

    /// Blocks until all `parties` threads arrive. Panics if a peer poisons
    /// the barrier before or while waiting.
    pub fn wait(&self) {
        let mut st = self.lock();
        let generation = st.generation;
        if st.poisoned_by.is_none() {
            st.arrived += 1;
            if st.arrived == self.parties {
                st.arrived = 0;
                st.generation += 1;
                drop(st);
                self.released.notify_all();
                return;
            }
            while st.generation == generation && st.poisoned_by.is_none() {
                st = self
                    .released
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let released = st.generation != generation;
        drop(st);
        assert!(released, "transport poisoned: a peer PE panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn synchronises_many_rounds() {
        let parties = 4;
        let rounds = 200;
        let barrier = Arc::new(PoisonBarrier::new(parties));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..parties {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for round in 0..rounds {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        // between the two barriers every party observes the
                        // full increment of the round
                        let seen = counter.load(Ordering::SeqCst);
                        assert_eq!(seen, (round + 1) * parties as u64);
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn poison_releases_waiters_as_panics() {
        let barrier = Arc::new(PoisonBarrier::new(2));
        let waiter = Arc::clone(&barrier);
        let handle = std::thread::spawn(move || waiter.wait());
        barrier.poison(0);
        assert!(handle.join().is_err(), "waiter must panic, not hang");
    }

    #[test]
    fn poison_records_the_first_rank() {
        let barrier = PoisonBarrier::new(3);
        assert_eq!(barrier.poisoned_by(), None);
        barrier.poison(2);
        barrier.poison(0);
        assert_eq!(barrier.poisoned_by(), Some(2));
        let late = std::panic::catch_unwind(|| barrier.check_poison());
        assert!(late.is_err(), "the lock-free check sees the poison");
    }

    #[test]
    fn single_party_is_free() {
        let b = PoisonBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }
}
