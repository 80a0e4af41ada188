//! `compute_modes`: in-process `run_with_mode`, one representative mode
//! per main-loop type, round-robin in a closed loop from one thread.

use crate::layers::{self, JobSample, SETUPS_BEFORE, TRACE_SHARE, WARM_SHARE};
use crate::replay::{identical, replay, MODES};
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{derive, median, peak_rss_mb, synthetic_spec};
use mdmp_core::baseline::brute_force;
use mdmp_core::{run_with_mode, MatrixProfile, MdmpConfig, MdmpRun};
use mdmp_data::MultiDimSeries;
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_metrics::recall_rate;
use mdmp_precision::PrecisionMode;
use std::time::Instant;

pub const WHY: &str = "in-process run_with_mode per precision mode: the precision and kernels layers do almost all the work, service, wire and cluster none";

/// The ROADMAP table's shape: d=8, m=32, self-join, 4 tiles on 2 A100s
/// with 2 host workers.
const D: usize = 8;
const M: usize = 32;
const TILES: usize = 4;
const GPUS: usize = 2;
const HOST_WORKERS: usize = 2;

/// Segments per mode (order of [`MODES`]). Each run takes a few hundred
/// milliseconds on a 2-core host, and a tile row carries at least as much
/// arithmetic as its pool dispatch costs (FP32 is the tightest: ~4k cells
/// of ~11 ns against ~45 us of dispatch).
const SIZES: [usize; 7] = [1024, 1024, 640, 1024, 1024, 384, 512];

/// Warm-up size: every mode once, to start the pool and fault in code.
const WARM_N: usize = 128;

/// Inputs generated at set-up; round `r` runs every mode on input
/// `r % INPUTS`.
const INPUTS: usize = 48;

/// `recall_min` averages over the first this many rounds' inputs. The
/// untraced window always runs at least this many rounds, so the metric
/// is exactly repeatable for a seed. FP8's recall varies from input to
/// input by about a quarter of its mean; 16 inputs keep the seed-to-seed
/// spread of the average under a tenth.
const RECALL_INPUTS: usize = 16;

fn config(mode: PrecisionMode) -> MdmpConfig {
    MdmpConfig::new(M, mode)
        .with_tiles(TILES)
        .with_host_workers(HOST_WORKERS)
        .self_join()
}

struct Inputs {
    /// Self-join series long enough for the largest mode size; each mode
    /// runs on a prefix.
    series: Vec<MultiDimSeries>,
    materialize_s: f64,
}

impl Inputs {
    fn of(&self, round: usize, mode: usize) -> MultiDimSeries {
        self.series[round % INPUTS].window(0, SIZES[mode] + M - 1)
    }
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let longest = SIZES.iter().copied().max().unwrap_or(WARM_N);
    let mut series = Vec::with_capacity(INPUTS);
    let mut materialize_s = Vec::with_capacity(INPUTS);
    for i in 0..INPUTS {
        let spec = synthetic_spec(
            longest,
            D,
            M,
            derive(seed, 100 + i as u64),
            PrecisionMode::Fp64,
            TILES,
        );
        let start = Instant::now();
        let (reference, _) = spec.materialize()?;
        materialize_s.push(start.elapsed().as_secs_f64());
        series.push((*reference).clone());
    }
    let warm = series[0].window(0, WARM_N + M - 1);
    let mut system = GpuSystem::homogeneous(DeviceSpec::a100(), GPUS);
    for (_, mode) in MODES {
        run_with_mode(&warm, &warm, &config(mode), &mut system)
            .map_err(|e| format!("warm-up {mode}: {e}"))?;
    }
    Ok(Inputs {
        series,
        materialize_s: median(&materialize_s),
    })
}

/// What one timed `run_with_mode` left behind for the driver metrics.
struct RunFacts {
    mode: usize,
    wall_s: f64,
    busy_s: f64,
    dispatches: u64,
    host_workers: usize,
}

#[derive(Default)]
struct Loop {
    jobs: Vec<JobSample>,
    runs: Vec<RunFacts>,
    attempted: u64,
    failed: u64,
    window_s: f64,
    /// The first round's run of each mode.
    first: Vec<Option<MdmpRun>>,
    /// By mode, the recall against FP64 of each of the first
    /// `recall_rounds` rounds.
    recalls: Vec<Vec<f64>>,
}

/// Round-robin over the modes until the next round would overrun
/// `budget_s` (at least `min_rounds` rounds). After each of the first
/// `recall_rounds` rounds the clock stops while the round's recalls are
/// taken; only those numbers are kept, not the profiles.
fn closed_loop(
    inputs: &Inputs,
    budget_s: f64,
    min_rounds: usize,
    recall_rounds: usize,
    tracer: &Tracer,
) -> Loop {
    let mut system = GpuSystem::homogeneous(DeviceSpec::a100(), GPUS);
    let mut out = Loop {
        first: MODES.iter().map(|_| None).collect(),
        recalls: vec![Vec::new(); MODES.len()],
        ..Loop::default()
    };
    let start = Instant::now();
    let mut paused = std::time::Duration::ZERO;
    let mut rounds = 0;
    let mut job = 0u64;
    loop {
        let round_start = Instant::now();
        let mut profiles: Vec<Option<MatrixProfile>> = MODES.iter().map(|_| None).collect();
        for (idx, (label, mode)) in MODES.iter().enumerate() {
            let series = &inputs.of(rounds, idx);
            let t0 = Instant::now();
            let result = run_with_mode(series, series, &config(*mode), &mut system);
            let t1 = Instant::now();
            out.attempted += 1;
            job += 1;
            let run = match result {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("compute_modes: {label} run failed: {e}");
                    out.failed += 1;
                    continue;
                }
            };
            let wall_s = t1.duration_since(t0).as_secs_f64();
            tracer.record(
                "driver",
                "run_with_mode",
                0,
                job,
                t0,
                t1,
                vec![("mode", idx as f64)],
            );
            for (w, &busy) in run.worker_busy_seconds.iter().enumerate() {
                let end = t0 + std::time::Duration::from_secs_f64(busy.min(wall_s));
                tracer.record(
                    "driver",
                    "host_worker_busy",
                    10 + w as u32,
                    job,
                    t0,
                    end,
                    vec![("mode", idx as f64)],
                );
            }
            let n = series.n_segments(M) as f64;
            out.jobs.push(JobSample {
                mode: idx,
                seconds: wall_s,
                cells: n * n * D as f64,
            });
            out.runs.push(RunFacts {
                mode: idx,
                wall_s,
                busy_s: run.worker_busy_seconds.iter().sum(),
                dispatches: run.pool_dispatches,
                host_workers: run.host_workers,
            });
            if rounds < recall_rounds {
                profiles[idx] = Some(run.profile.clone());
            }
            if rounds == 0 {
                out.first[idx] = Some(run);
            }
        }
        let round_s = round_start.elapsed();
        if rounds < recall_rounds {
            let t = Instant::now();
            if let Err(e) = round_recalls(inputs, rounds, &profiles, &mut out.recalls) {
                eprintln!("compute_modes: recall of round {rounds} failed: {e}");
                out.failed += 1;
            }
            paused += t.elapsed();
        }
        rounds += 1;
        let elapsed = start.elapsed() - paused;
        if rounds >= min_rounds && (elapsed + round_s).as_secs_f64() > budget_s {
            break;
        }
    }
    out.window_s = (start.elapsed() - paused).as_secs_f64();
    out
}

/// The FP64 profile against the brute-force oracle: every value within
/// 1e-6 and at least 99.9% of the indices equal (near-ties may pick a
/// different, equally near, neighbour).
fn oracle_check(series: &MultiDimSeries, fp64: &MatrixProfile) -> Result<(), String> {
    let oracle = brute_force(
        series,
        series,
        M,
        config(PrecisionMode::Fp64).exclusion_zone,
    );
    for k in 0..oracle.dims() {
        for (j, (a, b)) in oracle
            .profile_dim(k)
            .iter()
            .zip(fp64.profile_dim(k))
            .enumerate()
        {
            let same = (a.is_infinite() && b.is_infinite()) || (a - b).abs() <= 1e-6;
            if !same {
                return Err(format!("column {j} dim {k}: oracle {a} vs run {b}"));
            }
        }
    }
    let recall = recall_rate(&oracle, fp64);
    if recall < 0.999 {
        return Err(format!("index recall {recall} below 0.999"));
    }
    Ok(())
}

/// Each reduced mode's recall against FP64 on round `round`'s input,
/// appended to `recalls` by mode. FP64 runs again at the sizes it was not
/// timed at.
fn round_recalls(
    inputs: &Inputs,
    round: usize,
    profiles: &[Option<MatrixProfile>],
    recalls: &mut [Vec<f64>],
) -> Result<(), String> {
    let mut system = GpuSystem::homogeneous(DeviceSpec::a100(), GPUS);
    let mut fp64_by_size: Vec<(usize, MatrixProfile)> = Vec::new();
    if let Some(p) = &profiles[0] {
        fp64_by_size.push((SIZES[0], p.clone()));
    }
    for (idx, profile) in profiles.iter().enumerate().skip(1) {
        let Some(profile) = profile else { continue };
        if !fp64_by_size.iter().any(|(n, _)| *n == SIZES[idx]) {
            let series = inputs.of(round, idx);
            let fp64 = run_with_mode(&series, &series, &config(PrecisionMode::Fp64), &mut system)
                .map_err(|e| e.to_string())?;
            fp64_by_size.push((SIZES[idx], fp64.profile));
        }
        let fp64 = fp64_by_size
            .iter()
            .find(|(n, _)| *n == SIZES[idx])
            .map(|(_, p)| p)
            .ok_or("no fp64 profile")?;
        recalls[idx].push(recall_rate(fp64, profile));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace: bool, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    tracer.lane(0, "bench client (main thread)");
    tracer.lane(1, "kernel replay (main thread)");
    for w in 0..HOST_WORKERS {
        tracer.lane(
            10 + w as u32,
            &format!("host worker {w} (busy time from MdmpRun)"),
        );
    }
    let mut setup_s = Vec::new();
    let mut materialize_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS_BEFORE {
        let start = Instant::now();
        let built = setup(seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        materialize_s.push(built.materialize_s);
        inputs = Some(built);
    }
    let inputs = inputs.ok_or("no set-up ran")?;

    let untraced = Tracer::new(false);
    // The traced run measures an untraced and a traced window after a
    // short warm window, so trace.overhead_ratio compares like with like.
    let (measured, untraced_ops) = if trace {
        let warm = closed_loop(&inputs, seconds * WARM_SHARE, 1, 0, &untraced);
        let plain = closed_loop(&inputs, seconds * TRACE_SHARE, 2, 0, &untraced);
        let ops = plain.jobs.len() as f64 / plain.window_s;
        for w in [&warm, &plain] {
            report.attempted += w.attempted;
            report.failed += w.failed;
        }
        (
            closed_loop(&inputs, seconds * TRACE_SHARE, 2, 0, tracer),
            ops,
        )
    } else {
        let rounds = RECALL_INPUTS;
        (
            closed_loop(&inputs, seconds, rounds, rounds, &untraced),
            0.0,
        )
    };
    report.attempted += measured.attempted;
    report.failed += measured.failed;
    let peak_rss_mb = peak_rss_mb();
    layers::more_setups(&mut setup_s, || setup(seed), drop)?;

    // Correctness: FP64 against the oracle; every mode ran.
    let missing: Vec<&str> = MODES
        .iter()
        .zip(&measured.first)
        .filter(|(_, r)| r.is_none())
        .map(|((l, _), _)| *l)
        .collect();
    if !missing.is_empty() {
        report.check(
            "every mode ran",
            Err(format!("no successful run for {missing:?}")),
        );
        return Ok(report);
    }
    let first: Vec<&MdmpRun> = measured.first.iter().flatten().collect();
    report.check(
        "fp64 profile matches the brute-force oracle",
        oracle_check(&inputs.of(0, 0), &first[0].profile),
    );

    if !trace {
        let recall_min = layers::recall_min(&measured.recalls, &mut report);
        let measured = layers::Measured {
            setup_s: &setup_s,
            peak_rss_mb,
            recall_min,
            jobs: &measured.jobs,
            ops: measured.jobs.len(),
            window_s: measured.window_s,
        };
        layers::end_to_end(&measured, &mut report);
        return Ok(report);
    }

    // Per-layer breakdown from the traced loop and the kernel replay.
    let mut kernel_s = [0.0f64; 7];
    for (idx, (label, mode)) in MODES.iter().enumerate() {
        let series = &inputs.of(0, idx);
        let cfg = config(*mode);
        let job = 1_000_000 + idx as u64;
        let replayed = replay(series, series, &cfg, tracer, 1, job)?;
        report.check(
            format!("{label} replay is bit-identical to run_with_mode"),
            identical(&first[idx].profile, &replayed.main),
        );
        if let Some(unfused) = &replayed.unfused {
            report.check(
                format!("{label} unfused replay is bit-identical to run_with_mode"),
                identical(&first[idx].profile, unfused),
            );
        }
        kernel_s[idx] = replayed.times.main_path_s(mode.uses_tensor_cores());
        let out = &mut report.per_layer;
        layers::kernels(label, &replayed, first[idx], out);
        layers::gpu_sim(
            label,
            first[idx].modeled_seconds,
            layers::mode_median(&measured.jobs, idx),
            out,
        );
    }
    let out = &mut report.per_layer;
    layers::precision(&layers::profile_values(&first[0].profile), out);
    let busy: f64 = measured.runs.iter().map(|r| r.busy_s).sum();
    let kernel: f64 = measured.runs.iter().map(|r| kernel_s[r.mode]).sum();
    let slots: f64 = measured
        .runs
        .iter()
        .map(|r| r.wall_s * r.host_workers as f64)
        .sum();
    let dispatches: u64 = measured.runs.iter().map(|r| r.dispatches).sum();
    layers::driver(dispatches, busy, kernel, slots, out);
    out.put("data.materialize_s", median(&materialize_s), "s");
    layers::unexercised(
        &["scheduler", "cache", "session", "server", "wire", "cluster"],
        out,
    );
    let traced_ops = measured.jobs.len() as f64 / measured.window_s;
    out.put(
        "trace.overhead_ratio",
        untraced_ops / traced_ops.max(1e-12),
        "ratio",
    );
    report.note(
        "unexercised_layers",
        "scheduler cache session server wire cluster (reported as 0)",
    );
    Ok(report)
}
