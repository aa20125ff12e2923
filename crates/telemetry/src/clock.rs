//! The monotonic clock every span reads.

use std::sync::OnceLock;
use std::time::Instant;

/// The process clock epoch, pinned on first use.
pub(crate) fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process epoch: the one clock read
/// behind span durations and trace timestamps alike.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}
