//! Per-layer measurements shared by the workloads: the software-float
//! cost probes, the frame codec probe, the kernel and cost-model rows of
//! each mode, and the latency summaries every workload reports.

use crate::replay::{Replay, MODES};
use crate::report::{Metrics, Report};
use crate::trace::Tracer;
use crate::util::{median, tail};
use mdmp_core::{MatrixProfile, MdmpRun};
use mdmp_precision::{Bf16, Fp8E4M3, Half, Real, Tf32};
use mdmp_service::{request, FrameCodec, Json, Message};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The traced run (`--trace 1`) splits its time into a discarded warm
/// window and equal untraced and traced windows; `trace.overhead_ratio`
/// is untraced over traced operations per second.
pub const WARM_SHARE: f64 = 0.1;
pub const TRACE_SHARE: f64 = 0.45;

/// `setup_s` is the median of this many set-ups before the measured
/// window and at least `SETUPS_AFTER` more after it, so a slow phase of a
/// shared host at one end of the run moves it less. After the window,
/// set-ups repeat until `SETUP_SECONDS` of set-up time in all have been
/// timed (at most `SETUPS_MAX` set-ups): a set-up of a few tens of
/// milliseconds is timed dozens of times, so its median is steady.
pub const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
const SETUP_SECONDS: f64 = 1.5;
const SETUPS_MAX: usize = 64;

/// Minimum time each micro-probe runs, so the per-operation figure is not
/// a handful of timer ticks.
const PROBE_TIME: Duration = Duration::from_millis(25);

/// Run `body` (which performs `ops` operations) until [`PROBE_TIME`] has
/// passed; nanoseconds per operation.
fn ns_per_op(ops: usize, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed() < PROBE_TIME || reps == 0 {
        body();
        reps += 1;
    }
    start.elapsed().as_secs_f64() * 1e9 / (reps as f64 * ops.max(1) as f64)
}

fn round_ns<T: Real>(values: &[f64]) -> f64 {
    ns_per_op(values.len(), || {
        for &v in values {
            black_box(T::from_f64(black_box(v)));
        }
    })
}

/// The loop body of the ROADMAP cost table, `acc + a*b − b`, over
/// neighbouring distance values. `acc` is not carried from one operation
/// to the next: a running sum would leave the 8-bit range within a few
/// steps and time the overflow path instead.
fn madd_ns<T: Real>(values: &[f64]) -> f64 {
    let xs: Vec<T> = values.iter().map(|&v| T::from_f64(v)).collect();
    let acc = T::from_f64(1.0);
    ns_per_op(xs.len() - 1, || {
        for w in xs.windows(2) {
            black_box(black_box(acc) + w[0] * w[1] - w[1]);
        }
    })
}

/// Run one probe on a fresh thread, so no probe inherits another's
/// vector-register state. On a 2-vCPU Xeon VM, after the TF32 probe the
/// thread's upper AVX state was dirty, and every later SSE instruction
/// paid a transition penalty: `f64::powi` (inside `Flex::to_f64`) went
/// from ~6 ns to ~200 ns until a `vzeroupper`. A fresh thread starts
/// clean.
fn isolated(probe: impl FnOnce() -> f64 + Send) -> f64 {
    std::thread::scope(|s| s.spawn(probe).join().unwrap_or(f64::NAN))
}

/// `precision.*`: rounding and multiply-add cost of each software format
/// on the workload's own distance values, and each format's host storage
/// width (`size_of`, the bytes a plane element really occupies).
pub fn precision(values: &[f64], out: &mut Metrics) {
    let values: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .take(4096)
        .collect();
    let v = if values.len() < 2 {
        vec![0.5, 1.5, 2.5]
    } else {
        values
    };
    let v = &v[..];
    out.put(
        "precision.round_ns.half",
        isolated(|| round_ns::<Half>(v)),
        "ns",
    );
    out.put(
        "precision.round_ns.bf16",
        isolated(|| round_ns::<Bf16>(v)),
        "ns",
    );
    out.put(
        "precision.round_ns.tf32",
        isolated(|| round_ns::<Tf32>(v)),
        "ns",
    );
    out.put(
        "precision.round_ns.fp8_e4m3",
        isolated(|| round_ns::<Fp8E4M3>(v)),
        "ns",
    );
    out.put(
        "precision.madd_ns.half",
        isolated(|| madd_ns::<Half>(v)),
        "ns",
    );
    out.put(
        "precision.madd_ns.bf16",
        isolated(|| madd_ns::<Bf16>(v)),
        "ns",
    );
    out.put(
        "precision.madd_ns.tf32",
        isolated(|| madd_ns::<Tf32>(v)),
        "ns",
    );
    out.put(
        "precision.madd_ns.fp8_e4m3",
        isolated(|| madd_ns::<Fp8E4M3>(v)),
        "ns",
    );
    out.put(
        "precision.madd_ns.f32",
        isolated(|| madd_ns::<f32>(v)),
        "ns",
    );
    out.put(
        "precision.madd_ns.f64",
        isolated(|| madd_ns::<f64>(v)),
        "ns",
    );
    out.put(
        "precision.bytes.half",
        std::mem::size_of::<Half>() as f64,
        "B",
    );
    out.put(
        "precision.bytes.bf16",
        std::mem::size_of::<Bf16>() as f64,
        "B",
    );
    out.put(
        "precision.bytes.tf32",
        std::mem::size_of::<Tf32>() as f64,
        "B",
    );
    out.put(
        "precision.bytes.fp8_e4m3",
        std::mem::size_of::<Fp8E4M3>() as f64,
        "B",
    );
}

/// Every finite profile value, the distances the precision probes use.
pub fn profile_values(p: &MatrixProfile) -> Vec<f64> {
    (0..p.dims())
        .flat_map(|k| p.profile_dim(k).iter().copied())
        .filter(|v| v.is_finite())
        .collect()
}

/// `wire.encode_ns_per_byte` / `wire.decode_ns_per_byte`: `FrameCodec`
/// over messages captured from the workload, per frame byte.
pub fn codec(messages: &[Message], out: &mut Metrics) {
    if messages.is_empty() {
        out.put("wire.encode_ns_per_byte", 0.0, "ns/B");
        out.put("wire.decode_ns_per_byte", 0.0, "ns/B");
        return;
    }
    let mut codec = FrameCodec::new();
    let frames: Vec<Vec<u8>> = messages
        .iter()
        .map(|m| {
            codec
                .encode(m, true)
                .map(<[u8]>::to_vec)
                .unwrap_or_default()
        })
        .collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let encode = ns_per_op(bytes, || {
        for m in messages {
            black_box(
                codec
                    .encode(black_box(m), true)
                    .map(<[u8]>::len)
                    .unwrap_or(0),
            );
        }
    });
    let mut reader_codec = FrameCodec::new();
    let decode = ns_per_op(bytes, || {
        for f in &frames {
            let mut reader = std::io::BufReader::new(&f[..]);
            black_box(reader_codec.read(&mut reader).ok());
        }
    });
    out.put("wire.encode_ns_per_byte", encode, "ns/B");
    out.put("wire.decode_ns_per_byte", decode, "ns/B");
}

/// `kernels.<m>.*` from a replay plus the computed bytes and FLOPs of the
/// run's cost ledger.
pub fn kernels(label: &str, replay: &Replay, run: &MdmpRun, out: &mut Metrics) {
    let t = &replay.times;
    out.put(format!("kernels.{label}.precalc_s"), t.precalc_s, "s");
    out.put(format!("kernels.{label}.row_s"), t.row_s, "s");
    out.put(format!("kernels.{label}.dist_s"), t.dist_s, "s");
    out.put(format!("kernels.{label}.sort_scan_s"), t.sort_scan_s, "s");
    out.put(format!("kernels.{label}.update_s"), t.update_s, "s");
    let (bytes, flops) = run
        .ledger
        .rows()
        .fold((0u64, 0u64), |(b, f), (_, e)| (b + e.bytes, f + e.flops));
    out.put(format!("kernels.{label}.bytes"), bytes as f64, "B.computed");
    out.put(
        format!("kernels.{label}.flops"),
        flops as f64,
        "flop.computed",
    );
}

/// `gpu_sim.<m>.*`: the modelled device seconds of the mode's job and the
/// measured host seconds over them.
pub fn gpu_sim(label: &str, modelled_s: f64, measured_s: f64, out: &mut Metrics) {
    out.put(format!("gpu_sim.{label}.modelled_s"), modelled_s, "s");
    let ratio = if modelled_s > 0.0 {
        measured_s / modelled_s
    } else {
        0.0
    };
    out.put(
        format!("gpu_sim.{label}.measured_over_modelled"),
        ratio,
        "ratio",
    );
}

/// One completed client operation of the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    /// Index into [`MODES`].
    pub mode: usize,
    pub seconds: f64,
    /// Distance-matrix cells (n_r · n_q · d) the job computed.
    pub cells: f64,
}

/// What every workload's untraced run measured, for [`end_to_end`].
pub struct Measured<'a> {
    /// Every timed set-up.
    pub setup_s: &'a [f64],
    /// Peak RSS when the measured window ended, before the set-ups after
    /// it: how many of those run depends on how fast they are.
    pub peak_rss_mb: f64,
    pub recall_min: f64,
    pub jobs: &'a [JobSample],
    /// Completed client operations (jobs, or jobs plus appends).
    pub ops: usize,
    pub window_s: f64,
}

/// The end-to-end metrics every workload reports: set-up, memory,
/// throughput, median and tail latency, per-mode cells per second and
/// the recall floor.
pub fn end_to_end(m: &Measured, report: &mut Report) {
    let lat: Vec<f64> = m.jobs.iter().map(|j| j.seconds).collect();
    let t = tail(&lat);
    let out = &mut report.end_to_end;
    out.put("setup_s", median(m.setup_s), "s");
    out.put("peak_rss_mb", m.peak_rss_mb, "MiB");
    out.put("recall_min", m.recall_min, "ratio");
    out.put("ops_per_s", m.ops as f64 / m.window_s.max(1e-9), "1/s");
    out.put("job_p50_s", median(&lat), "s");
    out.put("job_tail_s", t.value, "s");
    for (idx, (label, _)) in MODES.iter().enumerate() {
        let rates: Vec<f64> = m
            .jobs
            .iter()
            .filter(|j| j.mode == idx)
            .map(|j| j.cells / j.seconds.max(1e-12))
            .collect();
        out.put(format!("{label}.cells_per_s"), median(&rates), "cells/s");
    }
    report.note("setup_s.samples", format!("{:.4?}", m.setup_s));
    report.note(
        "job_tail",
        format!("p{} of {} jobs", t.percentile, t.samples),
    );
    report.note("jobs", m.jobs.len());
    report.note("ops", m.ops);
    report.note("window_s", format!("{:.3}", m.window_s));
}

/// The set-ups after the measured window: time `up` (the set-up) and
/// then tear its result down with `down`, untimed, until the rule at
/// [`SETUPS_BEFORE`] is met. Appends to `setup_s`.
pub fn more_setups<T>(
    setup_s: &mut Vec<f64>,
    mut up: impl FnMut() -> Result<T, String>,
    mut down: impl FnMut(T),
) -> Result<(), String> {
    let mut after = 0;
    while after < SETUPS_AFTER
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < SETUPS_MAX)
    {
        let start = Instant::now();
        let built = up()?;
        setup_s.push(start.elapsed().as_secs_f64());
        down(built);
        after += 1;
    }
    Ok(())
}

/// `recall_min`: the lowest, over the reduced modes, of the mode's mean
/// recall against FP64 (`recalls[mode]` holds one value per input; FP64's
/// own entry is skipped). Every mode's mean goes in the notes.
pub fn recall_min(recalls: &[Vec<f64>], report: &mut Report) -> f64 {
    let mut lowest = f64::INFINITY;
    for (idx, (label, _)) in MODES.iter().enumerate().skip(1) {
        let r = &recalls[idx];
        let mean = r.iter().sum::<f64>() / r.len().max(1) as f64;
        report.note(
            &format!("recall.{label}"),
            format!("{mean:.6} over {} inputs", r.len()),
        );
        lowest = lowest.min(mean);
    }
    lowest
}

/// `server.ping_p50_s`: 30 one-shot `request` pings to `addr`, in turn.
pub fn ping_p50(addr: &str, tracer: &Tracer) -> f64 {
    let ping = Json::obj(vec![("op", Json::str("ping"))]);
    let mut pings = Vec::new();
    for i in 0..30 {
        let t = Instant::now();
        let reply = request(addr, &ping);
        let end = Instant::now();
        tracer.record("server", "request(ping)", 5, 900_000 + i, t, end, vec![]);
        if reply.is_ok() {
            pings.push(end.duration_since(t).as_secs_f64());
        }
    }
    median(&pings)
}

/// Median seconds of mode `idx`'s jobs.
pub fn mode_median(jobs: &[JobSample], idx: usize) -> f64 {
    let xs: Vec<f64> = jobs
        .iter()
        .filter(|j| j.mode == idx)
        .map(|j| j.seconds)
        .collect();
    median(&xs)
}

/// Zero-valued metrics for layers a workload does not drive, so every
/// run reports the full per-layer set. A zero here means "not exercised",
/// which the run record says next to it.
pub fn unexercised(layers: &[&str], out: &mut Metrics) {
    for &(layer, name, unit) in LAYER_ONLY_METRICS {
        if layers.contains(&layer) {
            out.put(name, 0.0, unit);
        }
    }
}

/// The metrics of the layers that only some workloads drive.
const LAYER_ONLY_METRICS: &[(&str, &str, &str)] = &[
    ("scheduler", "scheduler.queue_wait_p50_s", "s"),
    ("scheduler", "scheduler.run_p50_s", "s"),
    ("scheduler", "scheduler.rejected", "count"),
    ("cache", "cache.hit_ratio", "ratio"),
    ("cache", "cache.evictions", "count"),
    ("cache", "cache.single_flight_waits", "count"),
    ("session", "session.append_p50_s", "s"),
    ("session", "session.append_tail_s", "s"),
    ("session", "session.append_server_p50_s", "s"),
    ("session", "session.reuse_ratio", "ratio"),
    ("server", "server.ping_p50_s", "s"),
    ("server", "server.residual_p50_s", "s"),
    ("wire", "wire.bytes_per_job", "B"),
    ("wire", "wire.bytes_per_append", "B"),
    ("wire", "wire.encode_ns_per_byte", "ns/B"),
    ("wire", "wire.decode_ns_per_byte", "ns/B"),
    ("cluster", "cluster.steals", "count"),
    ("cluster", "cluster.redispatches", "count"),
    ("cluster", "cluster.duplicates_dropped", "count"),
    ("cluster", "cluster.useful_ratio", "ratio"),
    ("cluster", "cluster.bytes_per_job", "B"),
    ("cluster", "cluster.modelled_makespan_s", "s"),
];

/// `driver.*`: pool dispatches, the host time per dispatch that is not
/// kernel work, and how busy the host workers were.
pub fn driver(dispatches: u64, busy_s: f64, kernel_s: f64, slot_s: f64, out: &mut Metrics) {
    out.put("driver.pool_dispatches", dispatches as f64, "count");
    let per = if dispatches > 0 {
        (busy_s - kernel_s) / dispatches as f64 * 1e6
    } else {
        0.0
    };
    out.put("driver.dispatch_us", per, "us");
    out.put(
        "driver.busy_ratio",
        if slot_s > 0.0 { busy_s / slot_s } else { 0.0 },
        "ratio",
    );
}

/// The `(query, reference, distance)` motif of every dimension, as the
/// service's job summary reports it.
pub fn motifs(profile: &MatrixProfile) -> Vec<(usize, i64, f64)> {
    (0..profile.dims())
        .map(|k| {
            let mut best = (0usize, -1i64, f64::INFINITY);
            for j in 0..profile.n_query() {
                let v = profile.value(j, k);
                if v < best.2 {
                    best = (j, profile.index(j, k), v);
                }
            }
            best
        })
        .collect()
}
