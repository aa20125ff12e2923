//! The monotonic clock every span reads, plus minimal UTC timestamp
//! formatting (no chrono: the workspace vendors its few dependencies)
//! for run metadata in `natoms bench --json`.

use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

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

/// Formats a unix timestamp (seconds) as ISO-8601 UTC,
/// e.g. `2021-06-14T09:30:00Z`.
pub fn iso8601_utc(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let secs = unix_secs % 86_400;
    let (y, m, d) = civil_from_days(days);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// ISO-8601 UTC rendering of the current system time.
pub fn iso8601_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    iso8601_utc(secs)
}

/// Proleptic-Gregorian date from days since 1970-01-01 (Howard
/// Hinnant's `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u64, u64) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_formats_correctly() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
    }

    #[test]
    fn known_timestamps_format_correctly() {
        // date -u -d @1600000000 => Sun Sep 13 12:26:40 UTC 2020
        assert_eq!(iso8601_utc(1_600_000_000), "2020-09-13T12:26:40Z");
        // Leap-year boundary: date -u -d @1582934400 => Feb 29 2020.
        assert_eq!(iso8601_utc(1_582_934_400), "2020-02-29T00:00:00Z");
        // date -u -d @2000000000 => Wed May 18 03:33:20 UTC 2033
        assert_eq!(iso8601_utc(2_000_000_000), "2033-05-18T03:33:20Z");
    }
}
