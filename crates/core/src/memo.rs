//! The one claim-and-wait memo, behind both the engine's compile cache
//! and the compile passes' [`ArtifactStore`].
//!
//! [`Memo::get_or_claim`] serves a key's memoized value or hands the
//! caller the key's [`Claim`], the sole right to compute it. A thread
//! asking for a claimed key waits for that claim to end — waiting is
//! per key — then serves the value or re-claims the key. A claim ends
//! with [`Claim::deposit`], or by being dropped on an error or an
//! unwind, which releases the key. What to deposit is the caller's
//! decision.
//!
//! [`ArtifactStore`]: crate::ArtifactStore

use na_telemetry::Span;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What a memo holds for one key.
#[derive(Debug)]
enum Slot<V> {
    /// A [`Claim`] is live; the key's waiters block on this condvar.
    Claimed(Arc<Condvar>),
    /// The deposited value.
    Memoized(V),
}

/// A thread-safe memo whose keys are computed at most once at a time.
/// See the module docs.
#[derive(Debug)]
pub struct Memo<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
    wait_span: Option<Span>,
}

/// An empty memo whose waits are not timed.
impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo::new(None)
    }
}

impl<K, V> Memo<K, V> {
    /// An empty memo that opens `wait_span`, if given, around each wait
    /// for another thread's claim.
    pub fn new(wait_span: Option<Span>) -> Self {
        Memo {
            slots: Mutex::default(),
            wait_span,
        }
    }

    /// Locks the slots, recovering them from a poisoned lock: no slot
    /// changes while its holder could panic.
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<V>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of keys memoized or claimed.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no key is memoized or claimed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized value. Live claims stay, and still deposit.
    pub fn clear(&self) {
        self.lock()
            .retain(|_, slot| matches!(slot, Slot::Claimed(_)));
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// The value memoized under `key`, or the claim to compute it.
    /// While another thread holds the key's claim, waits for that claim
    /// to end.
    pub fn get_or_claim(&self, key: K) -> Result<V, Claim<'_, K, V>> {
        let mut slots = self.lock();
        loop {
            let ended = match slots.get(&key) {
                Some(Slot::Memoized(value)) => return Ok(value.clone()),
                Some(Slot::Claimed(ended)) => Arc::clone(ended),
                None => {
                    slots.insert(key.clone(), Slot::Claimed(Arc::default()));
                    return Err(Claim {
                        memo: self,
                        key: Some(key),
                    });
                }
            };
            let _wait = self.wait_span.map(na_telemetry::span);
            slots = ended.wait(slots).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// `true` if a value is memoized under `key`; a live claim is not.
    pub fn contains(&self, key: &K) -> bool {
        matches!(self.lock().get(key), Some(Slot::Memoized(_)))
    }
}

/// A thread's sole right to compute one key of a [`Memo`]. It ends with
/// [`Claim::deposit`] or, dropped without one, releases the key.
#[derive(Debug)]
pub struct Claim<'a, K: Eq + Hash, V> {
    memo: &'a Memo<K, V>,
    /// `None` once the claim has ended.
    key: Option<K>,
}

impl<K: Eq + Hash, V> Claim<'_, K, V> {
    /// Memoizes `value` under the claimed key.
    pub fn deposit(mut self, value: V) {
        self.end(Some(value));
    }

    /// Replaces the claim with `value`, or removes it, and wakes the
    /// key's waiters.
    fn end(&mut self, value: Option<V>) {
        let Some(key) = self.key.take() else { return };
        let claimed = match value {
            Some(value) => self.memo.lock().insert(key, Slot::Memoized(value)),
            None => self.memo.lock().remove(&key),
        };
        if let Some(Slot::Claimed(ended)) = claimed {
            ended.notify_all();
        }
    }
}

impl<K: Eq + Hash, V> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        self.end(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn deposits_are_served_and_dropped_claims_release() {
        let memo: Memo<u32, &str> = Memo::default();
        memo.get_or_claim(1).unwrap_err().deposit("one");
        assert_eq!(memo.get_or_claim(1).unwrap(), "one");
        assert!(memo.contains(&1));

        drop(memo.get_or_claim(2).unwrap_err());
        assert!(!memo.contains(&2));
        assert_eq!(memo.len(), 1, "a released key leaves nothing behind");
        assert!(memo.get_or_claim(2).is_err(), "a released key is claimable");
    }

    #[test]
    fn waiting_is_per_key() {
        let memo: Memo<char, u32> = Memo::default();
        let on_b = memo.get_or_claim('b').unwrap_err();
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let memo = &memo;
            s.spawn(move || {
                let claimed = memo.get_or_claim('a').is_err();
                tx.send(claimed).unwrap();
            });
            // A wait on 'b' would last until its claim drops below.
            let claimed = rx.recv_timeout(Duration::from_secs(10));
            drop(on_b);
            assert_eq!(claimed, Ok(true), "a claim on another key must not block");
        });
    }

    #[test]
    fn a_waiter_reclaims_a_released_key() {
        let memo: Memo<u32, u32> = Memo::default();
        let first = memo.get_or_claim(7).unwrap_err();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match memo.get_or_claim(7) {
                Ok(_) => panic!("nothing was deposited"),
                Err(claim) => claim.deposit(49),
            });
            // The waiter holds a second handle on the claim's condvar
            // from the moment it starts waiting on it.
            let waiting = || match memo.lock().get(&7) {
                Some(Slot::Claimed(ended)) => Arc::strong_count(ended) == 2,
                _ => false,
            };
            while !waiting() {
                std::thread::yield_now();
            }
            drop(first);
            waiter.join().unwrap();
        });
        assert_eq!(memo.get_or_claim(7).unwrap(), 49);
    }

    #[test]
    fn clear_drops_values_but_keeps_live_claims() {
        let memo: Memo<u32, u32> = Memo::default();
        memo.get_or_claim(1).unwrap_err().deposit(1);
        let live = memo.get_or_claim(2).unwrap_err();
        memo.clear();
        assert!(!memo.contains(&1));
        assert_eq!(memo.len(), 1);
        live.deposit(2);
        assert_eq!(memo.get_or_claim(2).unwrap(), 2);
        assert!(memo.get_or_claim(1).is_err());
    }
}
