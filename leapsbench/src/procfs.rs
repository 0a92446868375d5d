//! Peak resident set size (`VmHWM`) of a process.

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` text into MiB.
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = line.split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// Peak RSS in MiB of process `pid`, or of this process for `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    vm_hwm_mb(&std::fs::read_to_string(path).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_in_kib() {
        let status = "Name:\tleaps\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(50.0));
    }

    #[test]
    fn missing_or_malformed_line_is_none() {
        assert_eq!(vm_hwm_mb("Name:\tleaps\nVmRSS:\t 40000 kB\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t 1024 MB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let mb = peak_rss_mb(None).expect("own status is readable");
        assert!(mb > 0.0);
    }
}
