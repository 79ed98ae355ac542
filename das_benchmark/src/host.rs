//! Facts about the host and the benchmark's own process: how many
//! threads it may use, and how much memory and CPU time it has spent.

/// Thread budget of a run, derived from the host's parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`, 1 when unknown.
    pub nproc: usize,
    /// Runtime workers: `clamp(nproc, 2, 8)`.
    pub workers: usize,
    /// Ingress lanes — the load generator's threads: `min(nproc, 4)`.
    pub lanes: usize,
}

impl Host {
    pub fn detect() -> Host {
        Host::with_nproc(std::thread::available_parallelism().map_or(1, usize::from))
    }

    pub fn with_nproc(nproc: usize) -> Host {
        let nproc = nproc.max(1);
        Host {
            nproc,
            workers: nproc.clamp(2, 8),
            lanes: nproc.min(4),
        }
    }

    /// A host with one CPU cannot show parallel behaviour: its numbers
    /// are printed, but flagged.
    pub fn too_small(&self) -> bool {
        self.nproc < 2
    }
}

/// Value in kB of a `/proc/self/status` line such as `VmHWM:  1234 kB`.
fn status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process in MB (`VmHWM`); `None`
/// where `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// `(user, system)` CPU seconds of this process so far, all threads
/// included, from fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|(u, s)| (u as f64 / CLOCK_TICKS, s as f64 / CLOCK_TICKS))
}

/// `USER_HZ`: the kernel reports `/proc` CPU times in units of 1/100 s
/// on every Linux ABI, whatever the scheduler tick is.
const CLOCK_TICKS: f64 = 100.0;

fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    // The command name (field 2) is parenthesised and may itself
    // contain spaces or parentheses; the numbered fields resume after
    // the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_follows_the_rules() {
        let h = Host::with_nproc(1);
        assert_eq!((h.workers, h.lanes, h.too_small()), (2, 1, true));
        let h = Host::with_nproc(2);
        assert_eq!((h.workers, h.lanes, h.too_small()), (2, 2, false));
        let h = Host::with_nproc(6);
        assert_eq!((h.workers, h.lanes), (6, 4));
        let h = Host::with_nproc(64);
        assert_eq!((h.workers, h.lanes), (8, 4));
    }

    #[test]
    fn proc_parsers_read_the_documented_fields() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(status_kb(status, "VmSwap"), None);
        let stat = "42 (das (bench) x) S 1 2 3 4 5 6 7 8 9 10 111 222 13 14";
        assert_eq!(parse_cpu_ticks(stat), Some((111, 222)));
    }

    #[test]
    fn this_process_reports_memory_and_cpu_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().expect("VmHWM is present") > 0.0);
            assert!(cpu_seconds().is_some());
        }
    }
}
