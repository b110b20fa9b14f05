//! Readers for the process's own scheduler and memory accounting.
//!
//! `/proc/self/schedstat` holds three numbers: nanoseconds on a CPU,
//! nanoseconds waiting on a run queue, and the number of time slices.
//! On-CPU time is the comparison figure least disturbed by neighbours on
//! a shared machine; run-queue wait says how much a neighbour took. The
//! file describes the calling thread, so every workload runs its
//! simulation on the main thread.
//!
//! `/proc/self/status` holds `VmHWM:  <n> kB`, the peak resident set.
//!
//! A file that cannot be read or parsed is an error, never a zero.

use std::fmt;

/// A `/proc` reading failure: which file, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcError {
    /// The file that was read.
    pub path: &'static str,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.reason)
    }
}

impl std::error::Error for ProcError {}

/// One `/proc/self/schedstat` sample.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub runq_ns: u64,
}

impl SchedStat {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &SchedStat) -> SchedStat {
        SchedStat { cpu_ns: self.cpu_ns + other.cpu_ns, runq_ns: self.runq_ns + other.runq_ns }
    }

    /// On-CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ns as f64 * 1e-9
    }

    /// Run-queue wait seconds.
    pub fn runq_s(&self) -> f64 {
        self.runq_ns as f64 * 1e-9
    }
}

const SCHEDSTAT: &str = "/proc/self/schedstat";
const STATUS: &str = "/proc/self/status";

/// Parses the text of a schedstat file.
///
/// # Errors
///
/// When the first two fields are missing or not integers.
pub fn parse_schedstat(text: &str) -> Result<SchedStat, ProcError> {
    let bad = |reason: String| ProcError { path: SCHEDSTAT, reason };
    let mut fields = text.split_whitespace();
    let mut next = |what: &str| -> Result<u64, ProcError> {
        let field = fields.next().ok_or_else(|| bad(format!("missing {what} field")))?;
        field.parse().map_err(|_| bad(format!("{what} field {field:?} is not an integer")))
    };
    let cpu_ns = next("on-CPU")?;
    let runq_ns = next("run-queue")?;
    Ok(SchedStat { cpu_ns, runq_ns })
}

/// Parses the `VmHWM` line of a status file into megabytes (2^20 bytes).
///
/// # Errors
///
/// When the line is missing or malformed.
pub fn parse_vm_hwm_mb(text: &str) -> Result<f64, ProcError> {
    let bad = |reason: &str| ProcError { path: STATUS, reason: reason.to_owned() };
    let line =
        text.lines().find_map(|l| l.strip_prefix("VmHWM:")).ok_or_else(|| bad("no VmHWM line"))?;
    let mut parts = line.split_whitespace();
    let kb: u64 = parts
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| bad("VmHWM value is not an integer"))?;
    if parts.next() != Some("kB") {
        return Err(bad("VmHWM unit is not kB"));
    }
    Ok(kb as f64 / 1024.0)
}

fn read(path: &'static str) -> Result<String, ProcError> {
    std::fs::read_to_string(path).map_err(|e| ProcError { path, reason: e.to_string() })
}

/// Samples `/proc/self/schedstat`.
///
/// # Errors
///
/// When the file is unreadable or malformed.
pub fn schedstat() -> Result<SchedStat, ProcError> {
    parse_schedstat(&read(SCHEDSTAT)?)
}

/// Peak resident set size of the process in megabytes.
///
/// # Errors
///
/// When the file is unreadable or malformed.
pub fn peak_rss_mb() -> Result<f64, ProcError> {
    parse_vm_hwm_mb(&read(STATUS)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_the_three_field_line() {
        let s = parse_schedstat("123456789 2000 17\n").unwrap();
        assert_eq!(s, SchedStat { cpu_ns: 123_456_789, runq_ns: 2000 });
        let later = SchedStat { cpu_ns: 223_456_789, runq_ns: 5000 };
        assert_eq!(later.since(&s), SchedStat { cpu_ns: 100_000_000, runq_ns: 3000 });
        assert_eq!(later.since(&s).plus(&s), later);
        assert!((later.since(&s).cpu_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn schedstat_rejects_short_or_garbled_text() {
        assert!(parse_schedstat("").is_err());
        assert!(parse_schedstat("42").is_err());
        assert!(parse_schedstat("42 x 1").is_err());
    }

    #[test]
    fn status_yields_vm_hwm_in_megabytes() {
        let text = "Name:\tperfbench\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(text).unwrap(), 20.0);
    }

    #[test]
    fn status_without_vm_hwm_is_an_error_not_zero() {
        assert!(parse_vm_hwm_mb("Name:\tx\nVmRSS:\t1024 kB\n").is_err());
        assert!(parse_vm_hwm_mb("VmHWM:\tlots kB\n").is_err());
        assert!(parse_vm_hwm_mb("VmHWM:\t12 MB\n").is_err());
    }

    #[test]
    fn live_files_are_readable_here() {
        assert!(schedstat().unwrap().cpu_ns > 0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
