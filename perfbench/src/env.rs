//! The environment every result is recorded with: a number counts only
//! together with the host CPU count and the pool width it ran at.

use std::path::Path;

/// Widest worker pool the benchmark ever uses, whatever the host offers,
/// so figures from hosts with more cores stay comparable.
pub const MAX_POOL_WIDTH: usize = 2;

/// Host and build facts printed with every result.
#[derive(Debug, Clone)]
pub struct Environment {
    /// CPUs the process may run on.
    pub host_cpus: usize,
    /// Worker-pool width, pinned through `RAYON_NUM_THREADS`.
    pub pool_width: usize,
    /// Compiler version the benchmark was built with.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
}

impl Environment {
    /// Pin the pool width to `min(host CPUs, MAX_POOL_WIDTH)` for this
    /// process and record the environment. Call before any thread starts.
    pub fn pin(seed: u64) -> Self {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool_width = host_cpus.min(MAX_POOL_WIDTH);
        std::env::set_var("RAYON_NUM_THREADS", pool_width.to_string());
        Environment {
            host_cpus,
            pool_width,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit: git_commit(Path::new(".")),
            seed,
        }
    }

    /// One JSON object with every field.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"host_cpus\":{},\"pool_width\":{},\"rustc\":\"{}\",\"profile\":\"{}\",\"commit\":\"{}\",\"seed\":{}}}",
            self.host_cpus, self.pool_width, self.rustc, self.profile, self.commit, self.seed
        )
    }
}

/// The commit `HEAD` names in `root/.git`, read without running git.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(id) = read(&git.join(reference)) {
        return id;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Reset this process's peak resident set size to its current size, so
/// the next [`peak_rss_mb`] covers only what runs from now on. Without a
/// writable `/proc/self/clear_refs` the peak stays the process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (VmHWM) since it started or
/// since the last [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
