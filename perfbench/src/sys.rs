//! Process probes (CPU time, peak RSS) and small statistics helpers.

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s (user, system) followed by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// `RUSAGE_SELF`: every thread of this process, live or exited.
const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime_sec: 0,
        utime_usec: 0,
        stime_sec: 0,
        stime_usec: 0,
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the size and field
    // order of the C `struct rusage` on 64-bit Linux, and RUSAGE_SELF is
    // a valid `who`; getrusage writes only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    (usage.utime_sec + usage.stime_sec) as f64 + (usage.utime_usec + usage.stime_usec) as f64 * 1e-6
}

/// Current resident set size of this process in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hand the allocator's free pages back to the kernel, so the resident
/// set shrinks to live memory and the next session's peak is its own.
pub fn release_free_memory() {
    // SAFETY: malloc_trim only walks the allocator's own free lists; it
    // takes no pointers and is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_probes_read_something() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        release_free_memory();
        assert!(rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
