//! `cluster_shard`: one client runs multi-tile jobs with `run_cluster`
//! against two in-process loopback nodes (one worker each), one job per
//! mode per round, each round on a fresh input.

use crate::layers::{self, JobSample, SETUPS_BEFORE, TRACE_SHARE, WARM_SHARE};
use crate::replay::{identical, replay, MODES};
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{derive, median, peak_rss_mb, synthetic_spec};
use mdmp_cluster::{run_cluster, ClusterConfig};
use mdmp_core::{profile_planes_k_major, run_with_mode, MatrixProfile, MdmpRun};
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_metrics::recall_rate;
use mdmp_precision::PrecisionMode;
use mdmp_service::{serve, CacheStats, Chunk, Json, Message, Server, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

pub const WHY: &str = "one client runs 16-tile jobs in every mode on two loopback nodes: the only load on leases, stealing, ReorderMerge and large binary plane frames";

const N: usize = 512;
const D: usize = 4;
const M: usize = 16;
/// At least twelve tiles, so a node can drain its shard and steal.
const TILES: usize = 16;
const NODES: usize = 2;
const WARM_N: usize = 128;
/// Precalc cache budget per node. Every round brings a fresh series, so
/// with the default 256 MiB budget the caches, and with them peak RSS,
/// grow with the number of rounds a run completes. A small budget keeps
/// the working set flat (about five rounds of entries) and exercises
/// eviction.
const NODE_CACHE_BYTES: u64 = 8 << 20;
/// `recall_min` averages over the first this many rounds. The untraced
/// window always runs at least this many rounds, so the metric is exactly
/// repeatable for a seed.
const RECALL_ROUNDS: u64 = 16;

struct Nodes {
    services: Vec<Arc<Service>>,
    servers: Vec<Server>,
    cluster: ClusterConfig,
}

fn stop(nodes: Nodes) {
    for mut server in nodes.servers {
        server.stop();
    }
    for service in nodes.services {
        service.shutdown(true);
    }
}

fn start(seed: u64) -> Result<Nodes, String> {
    let mut services = Vec::new();
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..NODES {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            cache_bytes: NODE_CACHE_BYTES,
            ..ServiceConfig::default()
        });
        let server = serve(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
        addrs.push(server.local_addr().to_string());
        services.push(service);
        servers.push(server);
    }
    let cluster = ClusterConfig::new(addrs);
    let warm = synthetic_spec(WARM_N, D, M, derive(seed, 95), PrecisionMode::Fp32, TILES);
    run_cluster(&warm, &cluster).map_err(|e| format!("warm-up job: {e}"))?;
    Ok(Nodes {
        services,
        servers,
        cluster,
    })
}

fn round_seed(seed: u64, epoch: u64, round: u64) -> u64 {
    derive(seed, 500 + epoch + round)
}

/// The figures of one cluster job the metrics need; the job's profile
/// is dropped, so the harness's memory does not grow with the jobs a run
/// completes.
struct JobRec {
    mode: usize,
    seconds: f64,
    steals: u64,
    redispatches: u64,
    duplicates_dropped: u64,
    tiles_total: usize,
    tiles_executed: u64,
    bytes_sent: u64,
    bytes_received: u64,
    makespan_s: f64,
}

#[derive(Default)]
struct Window {
    jobs: Vec<JobRec>,
    /// Per mode, the recall against the round's FP64 profile, for the
    /// first `RECALL_ROUNDS` rounds.
    recalls: Vec<Vec<f64>>,
    /// The first round's profiles, for the single-node check.
    first_round: Vec<MatrixProfile>,
    attempted: u64,
    failed: u64,
    window_s: f64,
    /// The nodes' precalc caches (the tile_exec path bypasses the
    /// service's job-level cache counters).
    before: Vec<CacheStats>,
    after: Vec<CacheStats>,
    pool_dispatches: u64,
}

/// Rounds of one job per mode until the next round would overrun
/// `budget_s` (at least `min_rounds` rounds).
fn closed_loop(
    nodes: &Nodes,
    seed: u64,
    budget_s: f64,
    min_rounds: u64,
    tracer: &Tracer,
    epoch: u64,
) -> Window {
    let mut w = Window {
        recalls: MODES.iter().map(|_| Vec::new()).collect(),
        before: nodes.services.iter().map(|s| s.cache.stats()).collect(),
        ..Window::default()
    };
    let pool_before = rayon::pool_stats().dispatches;
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        let round_start = Instant::now();
        let mut profiles: Vec<Option<MatrixProfile>> = MODES.iter().map(|_| None).collect();
        for (idx, (label, mode)) in MODES.iter().enumerate() {
            let spec = synthetic_spec(N, D, M, round_seed(seed, epoch, round), *mode, TILES);
            let job = epoch + round * MODES.len() as u64 + idx as u64;
            w.attempted += 1;
            let t0 = Instant::now();
            let result = run_cluster(&spec, &nodes.cluster);
            let t1 = Instant::now();
            let run = match result {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("cluster_shard: {label} job failed: {e}");
                    w.failed += 1;
                    continue;
                }
            };
            tracer.record(
                "cluster",
                "run_cluster",
                0,
                job,
                t0,
                t1,
                vec![
                    ("mode", idx as f64),
                    ("steals", run.steals as f64),
                    ("makespan_s", run.modelled_makespan_seconds()),
                ],
            );
            for (n, node) in run.nodes.iter().enumerate() {
                tracer.record(
                    "cluster",
                    "node share",
                    20 + n as u32,
                    job,
                    t0,
                    t1,
                    vec![
                        ("tiles_executed", node.tiles_executed as f64),
                        ("tiles_stolen", node.tiles_stolen as f64),
                        ("device_seconds", node.device_seconds),
                    ],
                );
            }
            w.jobs.push(JobRec {
                mode: idx,
                seconds: t1.duration_since(t0).as_secs_f64(),
                steals: run.steals,
                redispatches: run.redispatches,
                duplicates_dropped: run.duplicates_dropped,
                tiles_total: run.tiles_total,
                tiles_executed: run.nodes.iter().map(|n| n.tiles_executed).sum(),
                bytes_sent: run.wire_bytes_sent(),
                bytes_received: run.wire_bytes_received(),
                makespan_s: run.modelled_makespan_seconds(),
            });
            profiles[idx] = Some(run.profile);
        }
        // Only the first rounds' inputs count towards recall_min.
        if let Some(fp64) = profiles[0].as_ref().filter(|_| round < RECALL_ROUNDS) {
            for (idx, p) in profiles.iter().enumerate().skip(1) {
                if let Some(p) = p {
                    w.recalls[idx].push(recall_rate(fp64, p));
                }
            }
        }
        if round == 0 {
            w.first_round = profiles.into_iter().flatten().collect();
        }
        round += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if round >= min_rounds && elapsed + round_start.elapsed().as_secs_f64() > budget_s {
            break;
        }
    }
    w.window_s = start.elapsed().as_secs_f64();
    w.after = nodes.services.iter().map(|s| s.cache.stats()).collect();
    w.pool_dispatches = rayon::pool_stats().dispatches - pool_before;
    w
}

/// A `tile_exec` reply frame as a node sends it for this job: one value
/// and one index chunk per tile, cut from the merged profile.
fn tile_frame(profile: &MatrixProfile) -> Message {
    let grid = (TILES as f64).sqrt() as usize;
    let cols = profile.n_query().div_ceil(grid);
    let (mut values, mut indices) = (Vec::new(), Vec::new());
    profile_planes_k_major(profile, &mut values, &mut indices);
    let mut chunks = Vec::new();
    for t in 0..TILES {
        let col0 = (t % grid) * cols;
        let width = cols.min(profile.n_query() - col0);
        let (mut p, mut i) = (Vec::new(), Vec::new());
        for k in 0..profile.dims() {
            let at = k * profile.n_query() + col0;
            p.extend_from_slice(&values[at..at + width]);
            i.extend_from_slice(&indices[at..at + width]);
        }
        chunks.push(Chunk::F64(p));
        chunks.push(Chunk::I64(i));
    }
    Message {
        json: Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("tiles", Json::num(TILES as f64)),
        ]),
        chunks,
    }
}

fn sum(stats: &[CacheStats], f: impl Fn(&CacheStats) -> u64) -> f64 {
    stats.iter().map(f).sum::<u64>() as f64
}

pub fn run(seed: u64, seconds: f64, trace: bool, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    tracer.lane(0, "client (run_cluster)");
    tracer.lane(5, "verification and replay (main thread)");
    for n in 0..NODES {
        tracer.lane(
            20 + n as u32,
            &format!("node {n} (share reported by run_cluster)"),
        );
    }
    let mut setup_s = Vec::new();
    let mut nodes = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some(previous) = nodes.take() {
            stop(previous);
        }
        let t = Instant::now();
        let started = start(seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        nodes = Some(started);
    }
    let nodes = nodes.ok_or("no set-up ran")?;

    let untraced = Tracer::new(false);
    let mut untraced_ops = 0.0;
    if trace {
        let warm = closed_loop(&nodes, seed, seconds * WARM_SHARE, 1, &untraced, 200_000);
        let plain = closed_loop(&nodes, seed, seconds * TRACE_SHARE, 2, &untraced, 0);
        untraced_ops = plain.jobs.len() as f64 / plain.window_s;
        for w in [&warm, &plain] {
            report.attempted += w.attempted;
            report.failed += w.failed;
        }
    }
    let epoch = if trace { 100_000 } else { 0 };
    let w = if trace {
        closed_loop(&nodes, seed, seconds * TRACE_SHARE, 2, tracer, epoch)
    } else {
        closed_loop(&nodes, seed, seconds, RECALL_ROUNDS, &untraced, epoch)
    };
    report.attempted += w.attempted;
    report.failed += w.failed;
    let ping_s = if trace {
        layers::ping_p50(&nodes.cluster.nodes[0], tracer)
    } else {
        0.0
    };
    stop(nodes);
    let peak_rss_mb = peak_rss_mb();
    layers::more_setups(&mut setup_s, || start(seed), stop)?;

    // Correctness: the first round's cluster profiles against single-node
    // runs of the same spec, bit for bit.
    let mut system = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
    let mut singles: Vec<MdmpRun> = Vec::new();
    let mut materialize_s = Vec::new();
    let first_seed = round_seed(seed, epoch, 0);
    if w.first_round.len() != MODES.len() {
        report.check(
            "first round completed in every mode",
            Err(format!("{} of {} modes", w.first_round.len(), MODES.len())),
        );
        return Ok(report);
    }
    for (idx, (label, mode)) in MODES.iter().enumerate() {
        let spec = synthetic_spec(N, D, M, first_seed, *mode, TILES);
        let t = Instant::now();
        let (r, q) = spec.materialize()?;
        materialize_s.push(t.elapsed().as_secs_f64());
        let single =
            run_with_mode(&r, &q, &spec.config(), &mut system).map_err(|e| e.to_string())?;
        report.check(
            format!("{label} cluster profile is bit-identical to a single-node run"),
            identical(&single.profile, &w.first_round[idx]),
        );
        singles.push(single);
    }

    let recall_min = layers::recall_min(&w.recalls, &mut report);
    let fp32_makespans: Vec<f64> = w
        .jobs
        .iter()
        .filter(|j| j.mode == 1)
        .map(|j| j.makespan_s)
        .collect();
    report.note(
        "cluster.modelled_makespan_s.fp32_jobs",
        format!(
            "{:?}",
            fp32_makespans
                .iter()
                .map(|s| format!("{s:.6}"))
                .collect::<Vec<_>>()
        ),
    );

    let samples: Vec<JobSample> = w
        .jobs
        .iter()
        .map(|j| JobSample {
            mode: j.mode,
            seconds: j.seconds,
            cells: (N * N * D) as f64,
        })
        .collect();
    if !trace {
        let measured = layers::Measured {
            setup_s: &setup_s,
            peak_rss_mb,
            recall_min,
            jobs: &samples,
            ops: samples.len(),
            window_s: w.window_s,
        };
        layers::end_to_end(&measured, &mut report);
        return Ok(report);
    }

    let (r0, q0) = synthetic_spec(N, D, M, first_seed, PrecisionMode::Fp64, TILES).materialize()?;
    for (idx, (label, mode)) in MODES.iter().enumerate() {
        let cfg = synthetic_spec(N, D, M, first_seed, *mode, TILES).config();
        let replayed = replay(&r0, &q0, &cfg, tracer, 5, 2_000_000 + idx as u64)?;
        report.check(
            format!("{label} replay is bit-identical to run_with_mode"),
            identical(&singles[idx].profile, &replayed.main),
        );
        if let Some(unfused) = &replayed.unfused {
            report.check(
                format!("{label} unfused replay is bit-identical to run_with_mode"),
                identical(&singles[idx].profile, unfused),
            );
        }
        let out = &mut report.per_layer;
        layers::kernels(label, &replayed, &singles[idx], out);
        let makespans: Vec<f64> = w
            .jobs
            .iter()
            .filter(|j| j.mode == idx)
            .map(|j| j.makespan_s)
            .collect();
        layers::gpu_sim(
            label,
            median(&makespans),
            layers::mode_median(&samples, idx),
            out,
        );
    }
    let out = &mut report.per_layer;
    layers::precision(&layers::profile_values(&singles[0].profile), out);
    // Nodes run tile_exec outside the service's job workers, so no node
    // reports its busy time: dispatch cost and busy ratio are not
    // measured here and read 0. The pool dispatches are the in-process
    // nodes' own.
    out.put("driver.pool_dispatches", w.pool_dispatches as f64, "count");
    out.put("driver.dispatch_us", 0.0, "us");
    out.put("driver.busy_ratio", 0.0, "ratio");
    out.put("data.materialize_s", median(&materialize_s), "s");
    let hits = sum(&w.after, |s| s.hits) - sum(&w.before, |s| s.hits);
    let misses = sum(&w.after, |s| s.misses) - sum(&w.before, |s| s.misses);
    out.put(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    out.put(
        "cache.evictions",
        sum(&w.after, |s| s.evictions) - sum(&w.before, |s| s.evictions),
        "count",
    );
    out.put(
        "cache.single_flight_waits",
        sum(&w.after, |s| s.single_flight_waits) - sum(&w.before, |s| s.single_flight_waits),
        "count",
    );
    out.put("server.ping_p50_s", ping_s, "s");
    // Nodes serve tile_exec without the job queue: no queue/run split.
    out.put("server.residual_p50_s", 0.0, "s");
    let bytes: Vec<f64> = w
        .jobs
        .iter()
        .map(|j| (j.bytes_sent + j.bytes_received) as f64)
        .collect();
    out.put("wire.bytes_per_job", median(&bytes), "B");
    out.put("wire.bytes_per_append", 0.0, "B");
    layers::codec(&[tile_frame(&w.first_round[1])], out);
    let jobs = &w.jobs;
    out.put(
        "cluster.steals",
        jobs.iter().map(|j| j.steals).sum::<u64>() as f64,
        "count",
    );
    out.put(
        "cluster.redispatches",
        jobs.iter().map(|j| j.redispatches).sum::<u64>() as f64,
        "count",
    );
    out.put(
        "cluster.duplicates_dropped",
        jobs.iter().map(|j| j.duplicates_dropped).sum::<u64>() as f64,
        "count",
    );
    let useful: usize = jobs.iter().map(|j| j.tiles_total).sum();
    let executed: u64 = jobs.iter().map(|j| j.tiles_executed).sum();
    out.put(
        "cluster.useful_ratio",
        if executed > 0 {
            useful as f64 / executed as f64
        } else {
            0.0
        },
        "ratio",
    );
    // What the nodes send back per job, almost all of it tile_exec plane
    // frames; wire.bytes_per_job counts both directions.
    let received: Vec<f64> = jobs.iter().map(|j| j.bytes_received as f64).collect();
    out.put("cluster.bytes_per_job", median(&received), "B");
    out.put("cluster.modelled_makespan_s", median(&fp32_makespans), "s");
    layers::unexercised(&["scheduler", "session"], out);
    out.put(
        "trace.overhead_ratio",
        untraced_ops / (jobs.len() as f64 / w.window_s).max(1e-12),
        "ratio",
    );
    report.note("unexercised_layers", "scheduler session (reported as 0); server.residual_p50_s and wire.bytes_per_append are 0: nodes have no job queue and no appends; driver.dispatch_us and driver.busy_ratio are 0: nodes report no busy time");
    Ok(report)
}
