//! Process and machine facts read from `/proc`: peak resident memory
//! (`VmHWM`) and the CPU model the results are stamped with.

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// Peak resident memory of the calling process, in MiB.
pub fn self_peak_rss_mib() -> Option<f64> {
    peak_rss_mib_of("self")
}

/// Peak resident memory of process `pid` (a child that is still
/// running), in MiB.
pub fn peak_rss_mib_of(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_hwm_line() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   98304 kB\nVmRSS:\t   65536 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(98_304));
    }

    #[test]
    fn does_not_confuse_neighbouring_lines() {
        // VmRSS and VmPeak come before and after; only VmHWM counts.
        let status = "VmRSS:\t 1 kB\nVmHWMx:\t 2 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 7 kB"), Some(7));
    }

    #[test]
    fn rejects_malformed_values() {
        assert_eq!(parse_vm_hwm_kib(""), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let mib = self_peak_rss_mib().expect("/proc/self/status is readable on Linux");
        assert!(mib > 0.0);
    }
}
