//! Process CPU time and peak memory from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, fixed at 100 on Linux).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of this process so far.
///
/// # Errors
///
/// When `/proc/self/stat` cannot be read or parsed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat)
}

/// Parse `utime + stime` out of a `/proc/<pid>/stat` line.
///
/// # Errors
///
/// When the line is malformed.
pub fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("stat line has no ')'")?;
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // Field 3 (state) is rest[0]; utime is field 14, stime field 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("stat field {} missing", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / CLOCK_TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_times_after_a_spaced_command_name() {
        let line = "42 (my bench) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(line), Ok(3.0));
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_seconds().expect("stat") >= 0.0);
        assert!(peak_rss_mb().expect("status") > 0.0);
    }
}
