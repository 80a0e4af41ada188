//! Small helpers shared by the workloads: seed derivation, order
//! statistics, process facts (cores, peak RSS, git revision).

/// SplitMix64: derive independent, reproducible sub-seeds from the
/// workload seed, so every series, job seed and append chunk follows
/// from the one `--seed` argument.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Job seeds travel as JSON numbers: keep them exact in an f64.
    (z ^ (z >> 31)) >> 11
}

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// A tail latency: the highest whole percentile that still leaves at
/// least ten samples above it (nearest-rank), with that percentile and
/// the sample count. With ten or fewer samples no such percentile
/// exists; the maximum is reported as percentile 100.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: u32,
    pub samples: usize,
}

pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= 10 {
        return Tail {
            value: v.last().copied().unwrap_or(0.0),
            percentile: 100,
            samples: n,
        };
    }
    let percentile = (100 * (n - 10) / n) as u32;
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    Tail {
        value: v[rank - 1],
        percentile,
        samples: n,
    }
}

/// Worker threads the host offers.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `"unknown"` for a plain source tree.
pub fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A synthetic job as the service and the cluster take it: `n` segments
/// of `d` dimensions with two embedded motifs of length `m`.
pub fn synthetic_spec(
    n: usize,
    d: usize,
    m: usize,
    seed: u64,
    mode: mdmp_precision::PrecisionMode,
    tiles: usize,
) -> mdmp_service::JobSpec {
    mdmp_service::JobSpec {
        input: mdmp_service::JobInput::Synthetic {
            n,
            d,
            pattern: 0,
            noise: 0.3,
            seed,
        },
        m,
        mode,
        tiles,
        gpus: 1,
        priority: mdmp_service::Priority::Normal,
        max_retries: 0,
        fault_plan: None,
        tile_retries: 2,
        fused_rows: None,
        tc_chunk_k: None,
        tile_deadline_ms: None,
        deadline_ms: None,
    }
}
