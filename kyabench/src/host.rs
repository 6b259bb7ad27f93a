//! The host record printed with every result: CPU count, last-level
//! cache size, peak resident memory, and how the flat working set
//! compares with four times the last-level cache.

use std::fs;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Size in bytes of the highest-level data or unified cache of CPU 0,
/// read from sysfs; `None` where sysfs does not say.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0.. {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = fs::read_to_string(format!("{dir}/level")) else {
            break;
        };
        let kind = fs::read_to_string(format!("{dir}/type")).unwrap_or_default();
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(size)) = (
            level.trim().parse::<u32>(),
            fs::read_to_string(format!("{dir}/size"))
                .ok()
                .and_then(|s| parse_size(s.trim())),
        ) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

/// Parse a sysfs cache size such as `32K`, `1024K` or `300M`.
pub fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * mult)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

pub fn describe() -> String {
    let llc = llc_bytes().map_or("unknown".to_string(), |b| format!("{b} B"));
    format!(
        "host: nproc {} ({} {}), last-level cache {llc}",
        nproc(),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// The flat working set against four times the last-level cache: a
/// working set below that mark is partly served from cache, so the run
/// understates the memory-traffic cost of larger graphs.
pub fn working_set(bytes: usize) -> String {
    match llc_bytes() {
        Some(llc) => {
            let mark = 4 * llc;
            let verdict = if bytes as u64 >= mark {
                "at or above the mark".to_string()
            } else {
                format!("{} B short of the mark", mark - bytes as u64)
            };
            format!("flat-1m working set {bytes} B vs 4 x LLC = {mark} B: {verdict}")
        }
        None => format!("flat-1m working set {bytes} B (last-level cache size unknown)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("32K"), Some(32 * 1024));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
