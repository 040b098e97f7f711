//! What a result needs to be compared with another: which host produced
//! it, how busy that host was, and the CPU time and memory a process used
//! — all read from `/proc`, since the build has no `libc` crate.

use std::path::{Path, PathBuf};

use crate::json::Json;

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux reports them
/// in `USER_HZ`, which is 100 on every architecture Rust targets; without
/// `sysconf` this is the one thing taken on trust.
const TICKS_PER_SECOND: f64 = 100.0;

/// The repository root: the directory that holds this crate's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits in a directory of the repository root")
        .to_path_buf()
}

/// Where results, traces and scratch data go (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Workers for every workload: one per core, capped at 4.
pub fn workers() -> usize {
    nproc().min(4)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// One-minute load average, if `/proc/loadavg` is readable.
pub fn load_average() -> Option<f64> {
    read_trimmed("/proc/loadavg")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The commit a git checkout is at; `None` in an exported tree.
fn git_commit(root: &Path) -> Option<String> {
    let head = read_trimmed(root.join(".git/HEAD"))?;
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    read_trimmed(root.join(".git").join(reference)).or_else(|| {
        let packed = read_trimmed(root.join(".git/packed-refs"))?;
        packed
            .lines()
            .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
    })
}

/// The host fingerprint stored with every result. A load average above
/// half the cores is flagged, not fatal: the run still counts, but a
/// reader knows why it may be an outlier.
pub fn fingerprint(seed: u64) -> Json {
    let cores = nproc();
    let cpu_model = read_trimmed("/proc/cpuinfo").and_then(|info| {
        info.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    });
    let load = load_average();
    let text = |v: Option<String>| v.map_or(Json::Null, Json::Str);
    Json::obj([
        ("nproc", Json::Num(cores as f64)),
        ("workers", Json::Num(workers() as f64)),
        ("cpu_model", text(cpu_model)),
        (
            "governor",
            text(read_trimmed(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            )),
        ),
        ("kernel", text(read_trimmed("/proc/sys/kernel/osrelease"))),
        ("load_1m", load.map_or(Json::Null, Json::Num)),
        (
            "load_flagged",
            Json::Bool(load.is_some_and(|l| l > 0.5 * cores as f64)),
        ),
        ("seed", Json::Num(seed as f64)),
        ("git_commit", text(git_commit(&repo_root()))),
    ])
}

/// The fields of `/proc/<pid>/stat` after the parenthesised command name,
/// which may itself hold spaces; field 3 (`state`) is index 0.
fn stat_fields(pid: &str) -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(
        rest.split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect(),
    )
}

/// User plus system CPU seconds process `pid` has used so far; 0 when the
/// process is gone.
pub fn process_cpu_seconds(pid: u32) -> f64 {
    stat_fields(&pid.to_string())
        .and_then(|f| Some((f.get(11)? + f.get(12)?) as f64 / TICKS_PER_SECOND))
        .unwrap_or(0.0)
}

/// Peak resident set of process `pid` in MB (`VmHWM`), if it is alive.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        // Burn a little CPU so the tick counters are not both zero.
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds(pid) > 0.0);
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.0));
        assert_eq!(process_cpu_seconds(u32::MAX), 0.0);
    }

    #[test]
    fn fingerprint_names_the_host() {
        let f = fingerprint(7);
        assert_eq!(f.get("seed").and_then(Json::as_f64), Some(7.0));
        assert!(f.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(repo_root().join("BENCHMARK.json").exists());
    }
}
