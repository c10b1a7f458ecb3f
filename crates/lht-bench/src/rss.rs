//! Peak resident-set measurement for the paper-scale experiments.
//!
//! E21 reports memory alongside throughput because the compact-store
//! work (inline [`DhtKey`](lht_dht::DhtKey) payloads, sorted leaf
//! vectors, multiplicative-hash node stores) is a *memory*
//! optimisation as much as a speed one — a 2^20-key run that fits
//! comfortably in RAM is the evidence. Linux exposes the high-water
//! mark directly as `VmHWM` in `/proc/self/status` and lets a
//! process reset it through `/proc/self/clear_refs`, which the grid
//! experiments use to attribute a peak to each cell. Where `/proc`
//! is unavailable the probe returns `None` and reports render an
//! explicit `unsupported` marker — never a fake `0.0` that a reader
//! could take for a measurement.

/// Peak resident set size of this process in megabytes (`VmHWM`), or
/// `None` where `/proc/self/status` is unavailable (non-Linux).
///
/// The value is a high-water mark since process start or the last
/// [`reset_peak_rss`], so grid drivers reset between cells to get
/// per-cell peaks. Render `None` with [`format_mb`] — an explicit
/// `unsupported`, not a fake zero.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Resets the kernel's resident-set high-water mark (`VmHWM`) for
/// this process by writing `5` to `/proc/self/clear_refs`, so the
/// next [`peak_rss_mb`] reads the peak *since this call*. Returns
/// `false` (and changes nothing) where the knob does not exist.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Renders an optional megabyte figure for CSV/JSON-adjacent output:
/// one decimal for a measured value, the literal `unsupported` where
/// the platform has no probe.
pub fn format_mb(mb: Option<f64>) -> String {
    match mb {
        Some(mb) => format!("{mb:.1}"),
        None => "unsupported".to_string(),
    }
}

/// Extracts the `VmHWM` value in kilobytes from the text of
/// `/proc/self/status` (`VmHWM:     12345 kB`).
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status_line() {
        let status = "Name:\tlht\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
    }

    #[test]
    fn missing_field_is_none() {
        assert_eq!(parse_vm_hwm_kb("Name:\tlht\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn probe_is_positive_on_linux_and_never_a_fake_zero() {
        match peak_rss_mb() {
            Some(mb) => {
                // A running test binary has touched well over a
                // megabyte; a probe that "works" but reads 0 would be
                // exactly the vacuous figure the Option guards out.
                assert!(mb > 1.0, "VmHWM probe returned {mb} MB");
            }
            None => {
                if cfg!(target_os = "linux") {
                    panic!("Linux must expose VmHWM in /proc/self/status");
                }
            }
        }
    }

    #[test]
    fn reset_narrows_the_peak_to_the_window_since_the_call() {
        if !reset_peak_rss() {
            if cfg!(target_os = "linux") {
                panic!("Linux must expose /proc/self/clear_refs");
            }
            return;
        }
        let after = peak_rss_mb().expect("clear_refs implies a readable status");
        // The reset drops the high-water mark to (at most) the
        // currently-resident set; a whole-lifetime peak would keep
        // counting every page the test runner ever touched.
        assert!(after > 0.0);
    }

    #[test]
    fn unsupported_renders_as_a_marker_not_a_number() {
        assert_eq!(format_mb(None), "unsupported");
        assert_eq!(format_mb(Some(42.666)), "42.7");
        assert_eq!(format_mb(Some(0.0)), "0.0");
    }
}
