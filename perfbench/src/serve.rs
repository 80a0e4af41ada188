//! `serve_mix`: a loopback `serve` with two workers and two client
//! connections (binary wire). Each client alternates a submit+wait job
//! with a streaming session (open, appends, status, close).

use crate::layers::{self, JobSample, SETUPS_BEFORE, TRACE_SHARE, WARM_SHARE};
use crate::replay::{identical, replay, MODES};
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{derive, median, peak_rss_mb, synthetic_spec, tail};
use mdmp_cluster::job_spec_json;
use mdmp_core::{run_with_mode, MatrixProfile, MdmpConfig, MdmpRun, StreamingProfile, Tile};
use mdmp_data::MultiDimSeries;
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_metrics::recall_rate;
use mdmp_precision::PrecisionMode;
use mdmp_service::{
    serve, Chunk, Json, Message, Server, Service, ServiceConfig, ServiceStats, WireConn,
    WirePreference,
};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WHY: &str = "two loopback clients alternate small served jobs in every mode, on repeated and fresh inputs, with FP64 streaming-session appends: scheduler, cache, session, wire and per-row dispatch";

/// Served job shape: small, so per-row dispatch, not arithmetic, shows.
const N: usize = 256;
const D: usize = 4;
const M: usize = 16;
const CLIENTS: usize = 2;
/// Seeds that repeat, so their precalculation is served from the cache.
const POOL: usize = 4;
/// Streaming sessions: reference and initial query segments, then
/// `APPENDS` query appends of `CHUNK` samples.
const SESSION_REF: usize = 192;
const SESSION_QUERY: usize = 96;
const APPENDS: usize = 4;
const CHUNK: usize = 24;
/// Session inputs each client cycles through.
const BANK: usize = 4;
/// Fresh-seed groups of each client, the first ones it serves, that are
/// also run in-process, so that their served jobs are checked.
const FRESH_GROUPS: usize = 2;
/// `recall_min` averages over the pool seeds and each client's first this
/// many fresh groups: 24 fixed inputs. FP8's recall on one 256 × 4 profile
/// varies by almost half its mean from input to input, so it takes this
/// many to keep the seed-to-seed spread of the average under a tenth. A
/// 30-second window serves about 12 groups per client; groups it did not
/// reach are run in-process.
const RECALL_GROUPS: usize = 10;
const TIMEOUT: Duration = Duration::from_secs(60);
/// Precalc cache budget. Each fresh seed leaves about 80 KiB per
/// precalculation format in the cache, so with the default 256 MiB budget
/// the cache, and with it peak RSS, grows with the jobs a run completes
/// (13 MiB in a 30-second window). 8 MiB holds the pool seeds' 20
/// entries through the fresh groups served between two turns of a pool
/// seed, and exercises eviction.
const CACHE_BYTES: u64 = 8 << 20;

struct SessionInput {
    reference: MultiDimSeries,
    query: MultiDimSeries,
}

impl SessionInput {
    fn initial_query(&self) -> MultiDimSeries {
        self.query.window(0, SESSION_QUERY + M - 1)
    }
    fn chunk(&self, a: usize) -> Vec<Vec<f64>> {
        let start = SESSION_QUERY + M - 1 + a * CHUNK;
        (0..D)
            .map(|k| self.query.dim(k)[start..start + CHUNK].to_vec())
            .collect()
    }
}

struct Live {
    service: Arc<Service>,
    server: Server,
    addr: String,
    conns: Vec<WireConn>,
    bank: Vec<Vec<SessionInput>>,
}

fn stop(live: Live) {
    let Live {
        service,
        mut server,
        conns,
        ..
    } = live;
    drop(conns);
    server.stop();
    service.shutdown(true);
}

fn ok(reply: &Message) -> Result<&Json, String> {
    if reply.json.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(&reply.json)
    } else {
        Err(format!("request refused: {}", reply.json))
    }
}

fn call(conn: &mut WireConn, msg: &Message) -> Result<Message, String> {
    conn.request(msg).map_err(|e| e.to_string())
}

fn op(name: &str, mut pairs: Vec<(&str, Json)>) -> Message {
    pairs.insert(0, ("op", Json::str(name)));
    Message::json(Json::obj(pairs))
}

/// The served job's status after `wait`.
struct Served {
    id: u64,
    queue_s: f64,
    run_s: f64,
    modelled_s: f64,
    motifs: Vec<(usize, i64, f64)>,
}

fn submit_wait(conn: &mut WireConn, job: &Json) -> Result<Served, String> {
    let reply = call(conn, &op("submit", vec![("job", job.clone())]))?;
    let id = ok(&reply)?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("submit reply has no id")?;
    let reply = call(
        conn,
        &op(
            "wait",
            vec![
                ("id", Json::num(id as f64)),
                ("timeout_seconds", Json::num(TIMEOUT.as_secs_f64())),
            ],
        ),
    )?;
    let status = ok(&reply)?.get("job").ok_or("wait reply has no job")?;
    let state = status.get("state").and_then(Json::as_str).unwrap_or("?");
    if state != "done" {
        return Err(format!("job {id} ended {state}: {status}"));
    }
    let outcome = status.get("outcome").ok_or("done job has no outcome")?;
    let f = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64);
    let motifs = outcome
        .get("motifs")
        .and_then(Json::as_arr)
        .ok_or("outcome has no motifs")?
        .iter()
        .map(|m| {
            (
                f(m, "query").unwrap_or(-1.0) as usize,
                f(m, "reference").unwrap_or(-1.0) as i64,
                // The protocol sends an unset (+inf) distance as null.
                f(m, "distance").unwrap_or(f64::INFINITY),
            )
        })
        .collect();
    Ok(Served {
        id,
        queue_s: f(status, "queue_seconds").unwrap_or(0.0),
        run_s: f(status, "run_seconds").unwrap_or(0.0),
        modelled_s: f(outcome, "modeled_seconds").unwrap_or(0.0),
        motifs,
    })
}

fn chunks(series: &MultiDimSeries) -> impl Iterator<Item = Chunk> + '_ {
    (0..series.dims()).map(|k| Chunk::F64(series.dim(k).to_vec()))
}

fn start(seed: u64) -> Result<Live, String> {
    let service = Service::start(ServiceConfig {
        workers: 2,
        devices: 2,
        cache_bytes: CACHE_BYTES,
        ..ServiceConfig::default()
    });
    let server = serve(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let mut conns = Vec::new();
    for c in 0..CLIENTS {
        let mut conn = WireConn::connect(&addr, Some(TIMEOUT), WirePreference::Auto)
            .map_err(|e| e.to_string())?;
        if !conn.is_binary() {
            return Err("the server refused the binary wire upgrade".into());
        }
        ok(&call(&mut conn, &op("ping", vec![]))?)?;
        let warm = synthetic_spec(N, D, M, derive(seed, 90 + c as u64), PrecisionMode::Fp32, 1);
        submit_wait(&mut conn, &job_spec_json(&warm)?)?;
        conns.push(conn);
    }
    let mut bank = Vec::new();
    for c in 0..CLIENTS {
        let mut inputs = Vec::new();
        for s in 0..BANK {
            let spec = synthetic_spec(
                SESSION_REF.max(SESSION_QUERY + APPENDS * CHUNK),
                D,
                M,
                derive(seed, 2_000 + (c * BANK + s) as u64),
                PrecisionMode::Fp64,
                1,
            );
            let (reference, query) = spec.materialize()?;
            inputs.push(SessionInput {
                reference: reference.window(0, SESSION_REF + M - 1),
                query: (*query).clone(),
            });
        }
        bank.push(inputs);
    }
    Ok(Live {
        service,
        server,
        addr,
        conns,
        bank,
    })
}

struct JobRec {
    mode: usize,
    seed: u64,
    seconds: f64,
    served: Served,
    bytes: u64,
    trace_id: u64,
    end: Instant,
}

/// A session's shape as `stream_status` reports it: query segments,
/// reference segments, dimensions.
type Shape = (usize, usize, usize);

struct SessionRec {
    input: (usize, usize),
    summary: Shape,
    snapshot: Option<MatrixProfile>,
}

#[derive(Default)]
struct ClientLog {
    jobs: Vec<JobRec>,
    appends: Vec<f64>,
    append_bytes: Vec<u64>,
    sessions: Vec<SessionRec>,
    captured: Vec<Message>,
    attempted: u64,
    failed: u64,
}

fn pool_seed(seed: u64, p: usize) -> u64 {
    derive(seed, 10 + p as u64)
}

/// The seed of client `c`'s fresh-seed group `g` (one job per mode).
fn fresh_seed(seed: u64, epoch: u64, c: usize, g: usize) -> u64 {
    derive(seed, epoch + 1_000 + (c * 1_000_000 + g) as u64)
}

/// One client's closed loop: job, session, job, session, … until the
/// deadline.
#[allow(clippy::too_many_arguments)]
fn client(
    c: usize,
    seed: u64,
    conn: &mut WireConn,
    service: &Service,
    bank: &[SessionInput],
    deadline: Instant,
    tracer: &Tracer,
    epoch: u64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let lane = c as u32;
    let mut k = 0usize;
    let mut s = 0usize;
    while Instant::now() < deadline {
        // A job. Even jobs reuse a pool seed (every seed-mode pair comes
        // round every 28 pool jobs); odd jobs take a fresh seed per group
        // of seven, one job per mode, so each fresh input is served in
        // every mode.
        let (pool, g) = (k.is_multiple_of(2), k / 2);
        let mode = (g + 3 * c) % MODES.len();
        let job_seed = if pool {
            pool_seed(seed, (g / MODES.len() + c) % POOL)
        } else {
            fresh_seed(seed, epoch, c, g / MODES.len())
        };
        let spec = synthetic_spec(N, D, M, job_seed, MODES[mode].1, 1);
        let trace_id = ((c as u64) << 32) | (epoch + k as u64);
        log.attempted += 1;
        let bytes0 = conn.bytes_sent() + conn.bytes_received();
        let t0 = Instant::now();
        let result = job_spec_json(&spec).and_then(|job| submit_wait(conn, &job));
        let t1 = Instant::now();
        match result {
            Ok(served) => {
                tracer.record(
                    "server",
                    "submit+wait",
                    lane,
                    trace_id,
                    t0,
                    t1,
                    vec![
                        ("mode", mode as f64),
                        ("service_job", served.id as f64),
                        ("pool_seed", f64::from(u8::from(pool))),
                    ],
                );
                log.jobs.push(JobRec {
                    mode,
                    seed: job_seed,
                    seconds: t1.duration_since(t0).as_secs_f64(),
                    served,
                    bytes: conn.bytes_sent() + conn.bytes_received() - bytes0,
                    trace_id,
                    end: t1,
                });
            }
            Err(e) => {
                eprintln!("serve_mix: client {c} job failed: {e}");
                log.failed += 1;
            }
        }
        k += 1;
        if Instant::now() >= deadline {
            break;
        }
        // A streaming session over the next bank input.
        let input = &bank[s % BANK];
        let session_id = ((c as u64) << 32) | (epoch + 500_000 + s as u64);
        match session(
            conn,
            service,
            input,
            lane,
            session_id,
            tracer,
            &mut log,
            s < 1,
        ) {
            Ok((summary, snapshot)) => log.sessions.push(SessionRec {
                input: (c, s % BANK),
                summary,
                snapshot,
            }),
            Err(e) => {
                eprintln!("serve_mix: client {c} session failed: {e}");
                log.failed += 1;
            }
        }
        s += 1;
    }
    log
}

/// Open, append, read the summary and close one session. Appends are
/// timed and counted; the first session's profile is snapshotted
/// in-process before close for the batch comparison.
#[allow(clippy::too_many_arguments)]
fn session(
    conn: &mut WireConn,
    service: &Service,
    input: &SessionInput,
    lane: u32,
    trace_id: u64,
    tracer: &Tracer,
    log: &mut ClientLog,
    snapshot: bool,
) -> Result<(Shape, Option<MatrixProfile>), String> {
    let query = input.initial_query();
    let open = Message {
        json: Json::obj(vec![
            ("op", Json::str("stream_open")),
            ("m", Json::num(M as f64)),
            ("mode", Json::str("fp64")),
            ("reference_chunks", Json::num(D as f64)),
            ("query_chunks", Json::num(D as f64)),
        ]),
        chunks: chunks(&input.reference).chain(chunks(&query)).collect(),
    };
    log.attempted += 1;
    let t0 = Instant::now();
    let reply = call(conn, &open)?;
    tracer.record(
        "session",
        "stream_open",
        lane,
        trace_id,
        t0,
        Instant::now(),
        vec![],
    );
    let id = ok(&reply)?
        .get("session")
        .and_then(|s| s.get("session"))
        .and_then(Json::as_u64)
        .ok_or("stream_open reply has no session id")?;
    if log.captured.is_empty() {
        log.captured.push(open);
    }
    for a in 0..APPENDS {
        let msg = Message {
            json: Json::obj(vec![
                ("op", Json::str("stream_append")),
                ("session", Json::num(id as f64)),
                ("side", Json::str("query")),
                ("samples_chunks", Json::num(D as f64)),
            ]),
            chunks: input.chunk(a).into_iter().map(Chunk::F64).collect(),
        };
        log.attempted += 1;
        let bytes0 = conn.bytes_sent() + conn.bytes_received();
        let t = Instant::now();
        let reply = call(conn, &msg);
        let end = Instant::now();
        match reply.as_ref().map_err(String::clone).and_then(ok) {
            Ok(_) => {
                tracer.record(
                    "session",
                    "stream_append",
                    lane,
                    trace_id,
                    t,
                    end,
                    vec![("append", a as f64)],
                );
                log.appends.push(end.duration_since(t).as_secs_f64());
                log.append_bytes
                    .push(conn.bytes_sent() + conn.bytes_received() - bytes0);
                if log.captured.len() < 3 {
                    log.captured.push(msg);
                }
            }
            Err(e) => {
                eprintln!("serve_mix: append failed: {e}");
                log.failed += 1;
            }
        }
    }
    log.attempted += 1;
    let reply = call(
        conn,
        &op("stream_status", vec![("session", Json::num(id as f64))]),
    )?;
    let summary = ok(&reply)?
        .get("session")
        .ok_or("stream_status reply has no session")?;
    let field = |k: &str| summary.get(k).and_then(Json::as_u64).unwrap_or(0) as usize;
    let shape = (field("n_query"), field("n_reference"), field("dims"));
    let profile = if snapshot {
        service.sessions.profile(id)
    } else {
        None
    };
    log.attempted += 1;
    let t = Instant::now();
    let reply = call(
        conn,
        &op("stream_close", vec![("session", Json::num(id as f64))]),
    )?;
    tracer.record(
        "session",
        "stream_close",
        lane,
        trace_id,
        t,
        Instant::now(),
        vec![],
    );
    if ok(&reply)?.get("closed").and_then(Json::as_bool) != Some(true) {
        return Err(format!("session {id} was not open at close"));
    }
    Ok((shape, profile))
}

struct Window {
    logs: Vec<ClientLog>,
    window_s: f64,
    before: ServiceStats,
    after: ServiceStats,
    text_before: String,
    text_after: String,
    pool_dispatches: u64,
}

fn closed_loop(live: &mut Live, seed: u64, seconds: f64, tracer: &Tracer, epoch: u64) -> Window {
    let before = live.service.stats();
    let text_before = live.service.metrics_text();
    let pool_before = rayon::pool_stats().dispatches;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let service = &*live.service;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(&live.bank)
            .enumerate()
            .map(|(c, (conn, bank))| {
                scope.spawn(move || client(c, seed, conn, service, bank, deadline, tracer, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientLog {
                    failed: 1,
                    attempted: 1,
                    ..ClientLog::default()
                })
            })
            .collect::<Vec<_>>()
    });
    let window_s = start.elapsed().as_secs_f64();
    Window {
        logs,
        window_s,
        before,
        after: live.service.stats(),
        text_before,
        text_after: live.service.metrics_text(),
        pool_dispatches: rayon::pool_stats().dispatches - pool_before,
    }
}

/// Median of the service's `stream_append_seconds` histogram over the
/// window (bucket deltas, linear inside the median's bucket).
fn histogram_p50(before: &str, after: &str) -> f64 {
    let buckets = |text: &str| -> Vec<(f64, f64)> {
        text.lines()
            .filter_map(|l| l.strip_prefix("mdmp_stream_append_seconds_bucket{le=\""))
            .filter_map(|rest| {
                let (le, count) = rest.split_once("\"} ")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, count.trim().parse().ok()?))
            })
            .collect()
    };
    let (b, a) = (buckets(before), buckets(after));
    let delta: Vec<(f64, f64)> = a
        .iter()
        .map(|&(le, n)| (le, n - b.iter().find(|x| x.0 == le).map_or(0.0, |x| x.1)))
        .collect();
    let total = delta.last().map_or(0.0, |x| x.1);
    if total <= 0.0 {
        return 0.0;
    }
    let half = total / 2.0;
    let mut prev = (0.0, 0.0);
    for &(le, n) in &delta {
        if n >= half {
            if !le.is_finite() {
                return prev.0;
            }
            let width = (n - prev.1).max(1.0);
            return prev.0 + (le - prev.0) * (half - prev.1) / width;
        }
        prev = (le, n);
    }
    prev.0
}

/// The batch run of a session's final series, tiled by its arrivals.
fn arrival_batch(reference: &MultiDimSeries, query: &MultiDimSeries) -> MatrixProfile {
    let cfg = MdmpConfig::new(M, PrecisionMode::Fp64);
    let n_r = reference.n_segments(M);
    let mut profile = MatrixProfile::new_unset(query.n_segments(M), query.dims());
    let arrivals = std::iter::once((0, SESSION_QUERY))
        .chain((0..APPENDS).map(|a| (SESSION_QUERY + a * CHUNK, CHUNK)));
    for (index, (col0, cols)) in arrivals.enumerate() {
        let tile = Tile {
            index,
            row0: 0,
            rows: n_r,
            col0,
            cols,
        };
        profile.merge_min_columns(
            &StreamingProfile::replay_tile(reference, query, &tile, &cfg),
            col0,
        );
    }
    profile
}

/// Reconstructed service-side spans: queue wait and run of each job,
/// placed on the service worker lanes by first fit (the service reports
/// durations, not which worker ran the job).
fn service_spans(tracer: &Tracer, jobs: &[&JobRec]) {
    let mut free_at: Vec<Instant> = Vec::new();
    let mut order: Vec<&&JobRec> = jobs.iter().collect();
    order.sort_by_key(|j| j.end);
    for j in order {
        let run_end = j.end;
        let run_start = run_end - Duration::from_secs_f64(j.served.run_s.min(j.seconds));
        let queued = run_start - Duration::from_secs_f64(j.served.queue_s.min(j.seconds));
        let slot = free_at
            .iter()
            .position(|&t| t <= run_start)
            .unwrap_or_else(|| {
                free_at.push(run_start);
                free_at.len() - 1
            });
        free_at[slot] = run_end;
        let lane = 10 + slot as u32;
        tracer.record(
            "scheduler",
            "queue_wait",
            lane,
            j.trace_id,
            queued,
            run_start,
            vec![],
        );
        tracer.record(
            "driver",
            "run_with_mode (service)",
            lane,
            j.trace_id,
            run_start,
            run_end,
            vec![("mode", j.mode as f64)],
        );
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    for c in 0..CLIENTS {
        tracer.lane(c as u32, &format!("client {c} (binary wire connection)"));
        tracer.lane(
            10 + c as u32,
            &format!("service worker slot {c} (reconstructed from job status)"),
        );
    }
    tracer.lane(5, "verification and replay (main thread)");
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some(previous) = live.take() {
            stop(previous);
        }
        let t = Instant::now();
        let started = start(seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some(started);
    }
    let mut live = live.ok_or("no set-up ran")?;

    let untraced = Tracer::new(false);
    let mut untraced_ops = 0.0;
    if trace {
        let warm = closed_loop(&mut live, seed, seconds * WARM_SHARE, &untraced, 200_000);
        let plain = closed_loop(&mut live, seed, seconds * TRACE_SHARE, &untraced, 0);
        untraced_ops = ops(&plain) / plain.window_s;
        for log in warm.logs.iter().chain(&plain.logs) {
            report.attempted += log.attempted;
            report.failed += log.failed;
        }
    }
    let epoch = if trace { 100_000 } else { 0 };
    let w = if trace {
        closed_loop(&mut live, seed, seconds * TRACE_SHARE, tracer, epoch)
    } else {
        closed_loop(&mut live, seed, seconds, &untraced, epoch)
    };
    for log in &w.logs {
        report.attempted += log.attempted;
        report.failed += log.failed;
    }
    let jobs: Vec<&JobRec> = w.logs.iter().flat_map(|l| &l.jobs).collect();
    let appends: Vec<f64> = w
        .logs
        .iter()
        .flat_map(|l| l.appends.iter().copied())
        .collect();

    // Ping the front end (one-shot connections) before tearing it down.
    let mut ping_s = 0.0;
    if trace {
        ping_s = layers::ping_p50(&live.addr, tracer);
        service_spans(tracer, &jobs);
    }
    let service = Arc::clone(&live.service);
    stop(live);
    let peak_rss_mb = peak_rss_mb();
    layers::more_setups(&mut setup_s, || start(seed), stop)?;

    // Correctness: served motifs against in-process runs of the same
    // spec; sessions against batch runs.
    let mut system = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
    let mut runs: BTreeMap<(u64, usize), MdmpRun> = BTreeMap::new();
    // Each in-process run materializes its job spec as a service worker
    // would; those timings are the data layer's figure.
    let mut materialize_s = Vec::new();
    let mut in_process =
        |seed: u64, mode: usize, system: &mut GpuSystem| -> Result<MdmpRun, String> {
            let spec = synthetic_spec(N, D, M, seed, MODES[mode].1, 1);
            let t = Instant::now();
            let (r, q) = spec.materialize()?;
            materialize_s.push(t.elapsed().as_secs_f64());
            run_with_mode(&r, &q, &spec.config(), system).map_err(|e| e.to_string())
        };
    // The fixed inputs: every pool seed and each client's first fresh
    // groups, in every mode.
    let fixed: Vec<u64> = (0..POOL)
        .map(|p| pool_seed(seed, p))
        .chain(
            (0..CLIENTS)
                .flat_map(|c| (0..FRESH_GROUPS).map(move |g| fresh_seed(seed, epoch, c, g))),
        )
        .collect();
    for &s in &fixed {
        for mode in 0..MODES.len() {
            runs.insert((s, mode), in_process(s, mode, &mut system)?);
        }
    }
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for j in &jobs {
        let Some(run) = runs.get(&(j.seed, j.mode)) else {
            continue;
        };
        checked += 1;
        let expected = layers::motifs(&run.profile);
        let same = expected.len() == j.served.motifs.len()
            && expected
                .iter()
                .zip(&j.served.motifs)
                .all(|(e, s)| e.0 == s.0 && e.1 == s.1 && e.2.to_bits() == s.2.to_bits());
        if !same {
            mismatches.push(format!(
                "job seed {} mode {}: served {:?}, in-process {:?}",
                j.seed, MODES[j.mode].0, j.served.motifs, expected
            ));
        }
        // The whole profile the service holds, which recall_min reads.
        let held = service
            .status(j.served.id)
            .and_then(|status| status.outcome)
            .ok_or_else(|| "the service holds no outcome".to_string())
            .and_then(|outcome| identical(&run.profile, &outcome.profile));
        if let Err(e) = held {
            mismatches.push(format!(
                "job seed {} mode {}: held profile: {e}",
                j.seed, MODES[j.mode].0
            ));
        }
    }
    report.note(
        "motif_checks",
        format!(
            "{checked} of {} served jobs against {} in-process runs",
            jobs.len(),
            runs.len()
        ),
    );
    let verdict = if mismatches.is_empty() {
        Ok(())
    } else {
        Err(mismatches.join("; "))
    };
    report.failed += mismatches.len() as u64;
    report.check(
        "served motif summaries and profiles equal in-process run_with_mode",
        verdict.map_err(|e| e.chars().take(2000).collect()),
    );

    let bank_input =
        |seed: u64, c: usize, s: usize| -> Result<(MultiDimSeries, MultiDimSeries), String> {
            let spec = synthetic_spec(
                SESSION_REF.max(SESSION_QUERY + APPENDS * CHUNK),
                D,
                M,
                derive(seed, 2_000 + (c * BANK + s) as u64),
                PrecisionMode::Fp64,
                1,
            );
            let (r, q) = spec.materialize()?;
            Ok((
                r.window(0, SESSION_REF + M - 1),
                q.window(0, SESSION_QUERY + M - 1 + APPENDS * CHUNK),
            ))
        };
    // The batch equivalent of a session is the batch run tiled by the
    // arrival pattern (one tile for the opening series, one per append),
    // min-merged in arrival order: what the streaming equivalence suite
    // checks. A single-tile batch restarts the QT recurrence elsewhere and
    // differs in the last bits.
    let mut batches: BTreeMap<(usize, usize), (MatrixProfile, usize)> = BTreeMap::new();
    let mut session_errors = Vec::new();
    for rec in w.logs.iter().flat_map(|l| &l.sessions) {
        let (batch, n_reference) = match batches.entry(rec.input) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let (r, q) = bank_input(seed, rec.input.0, rec.input.1)?;
                e.insert((arrival_batch(&r, &q), r.n_segments(M)))
            }
        };
        let want = (batch.n_query(), *n_reference, batch.dims());
        if rec.summary != want {
            session_errors.push(format!(
                "session summary {:?}, batch {:?}",
                rec.summary, want
            ));
        }
        if let Some(snapshot) = &rec.snapshot {
            if let Err(e) = identical(batch, snapshot) {
                session_errors.push(format!(
                    "session profile differs from its arrival-tiled batch: {e}"
                ));
            }
        }
    }
    report.failed += session_errors.len() as u64;
    report.check(
        "closed session summaries equal batch runs",
        if session_errors.is_empty() {
            Ok(())
        } else {
            Err(session_errors.join("; "))
        },
    );

    let job_samples: Vec<JobSample> = jobs
        .iter()
        .map(|j| JobSample {
            mode: j.mode,
            seconds: j.seconds,
            cells: (N * N * D) as f64,
        })
        .collect();
    if !trace {
        // recall_min: each reduced mode against FP64 on fixed inputs, so
        // that it does not depend on how far the window got. The profiles
        // are the service's own where the window served the job, else an
        // in-process run of the same spec.
        let served: BTreeMap<(u64, usize), u64> = jobs
            .iter()
            .map(|j| ((j.seed, j.mode), j.served.id))
            .collect();
        let mut profile_of = |s: u64, mode: usize| -> Result<Arc<MatrixProfile>, String> {
            let held = served
                .get(&(s, mode))
                .and_then(|&id| service.status(id))
                .and_then(|status| status.outcome);
            match held {
                Some(outcome) => Ok(outcome.profile),
                None => Ok(Arc::new(in_process(s, mode, &mut system)?.profile)),
            }
        };
        let recall_seeds = (0..POOL).map(|p| pool_seed(seed, p)).chain(
            (0..CLIENTS)
                .flat_map(|c| (0..RECALL_GROUPS).map(move |g| fresh_seed(seed, epoch, c, g))),
        );
        let mut recalls = vec![Vec::new(); MODES.len()];
        for s in recall_seeds {
            let fp64 = profile_of(s, 0)?;
            for (mode, r) in recalls.iter_mut().enumerate().skip(1) {
                r.push(recall_rate(&fp64, &*profile_of(s, mode)?));
            }
        }
        let recall_min = layers::recall_min(&recalls, &mut report);
        let measured = layers::Measured {
            setup_s: &setup_s,
            peak_rss_mb,
            recall_min,
            jobs: &job_samples,
            ops: ops(&w) as usize,
            window_s: w.window_s,
        };
        layers::end_to_end(&measured, &mut report);
        return Ok(report);
    }

    // Per-layer breakdown.
    let s0 = pool_seed(seed, 0);
    let (r0, q0) = synthetic_spec(N, D, M, s0, PrecisionMode::Fp64, 1).materialize()?;
    let mut kernel_s = [0.0f64; 7];
    for (mode, (label, pmode)) in MODES.iter().enumerate() {
        let spec = synthetic_spec(N, D, M, s0, *pmode, 1);
        let replayed = replay(&r0, &q0, &spec.config(), tracer, 5, 2_000_000 + mode as u64)?;
        let run = &runs[&(s0, mode)];
        report.check(
            format!("{label} replay is bit-identical to run_with_mode"),
            identical(&run.profile, &replayed.main),
        );
        if let Some(unfused) = &replayed.unfused {
            report.check(
                format!("{label} unfused replay is bit-identical to run_with_mode"),
                identical(&run.profile, unfused),
            );
        }
        kernel_s[mode] = replayed.times.main_path_s(pmode.uses_tensor_cores());
        let out = &mut report.per_layer;
        layers::kernels(label, &replayed, run, out);
        let modelled: Vec<f64> = jobs
            .iter()
            .filter(|j| j.mode == mode)
            .map(|j| j.served.modelled_s)
            .collect();
        layers::gpu_sim(
            label,
            median(&modelled),
            layers::mode_median(&job_samples, mode),
            out,
        );
    }
    let out = &mut report.per_layer;
    layers::precision(&layers::profile_values(&runs[&(s0, 0)].profile), out);
    let busy = w.after.worker_busy_seconds.iter().sum::<f64>()
        - w.before.worker_busy_seconds.iter().sum::<f64>();
    let kernel: f64 = jobs.iter().map(|j| kernel_s[j.mode]).sum();
    layers::driver(
        w.pool_dispatches,
        busy,
        kernel,
        service.config().workers as f64 * w.window_s,
        out,
    );
    out.put("data.materialize_s", median(&materialize_s), "s");
    let queue: Vec<f64> = jobs.iter().map(|j| j.served.queue_s).collect();
    let run_s: Vec<f64> = jobs.iter().map(|j| j.served.run_s).collect();
    out.put("scheduler.queue_wait_p50_s", median(&queue), "s");
    out.put("scheduler.run_p50_s", median(&run_s), "s");
    out.put(
        "scheduler.rejected",
        (w.after.jobs_rejected - w.before.jobs_rejected) as f64,
        "count",
    );
    let hits = (w.after.precalc_cache_hits - w.before.precalc_cache_hits) as f64;
    let misses = (w.after.precalc_cache_misses - w.before.precalc_cache_misses) as f64;
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
        (w.after.precalc_cache_evictions - w.before.precalc_cache_evictions) as f64,
        "count",
    );
    out.put(
        "cache.single_flight_waits",
        (w.after.precalc_single_flight_waits - w.before.precalc_single_flight_waits) as f64,
        "count",
    );
    out.put("session.append_p50_s", median(&appends), "s");
    out.put("session.append_tail_s", tail(&appends).value, "s");
    out.put(
        "session.append_server_p50_s",
        histogram_p50(&w.text_before, &w.text_after),
        "s",
    );
    let reused = (w.after.stream_segments_reused - w.before.stream_segments_reused) as f64;
    let fresh = (w.after.stream_segments_fresh - w.before.stream_segments_fresh) as f64;
    out.put(
        "session.reuse_ratio",
        if reused + fresh > 0.0 {
            reused / (reused + fresh)
        } else {
            0.0
        },
        "ratio",
    );
    out.put("server.ping_p50_s", ping_s, "s");
    let residual: Vec<f64> = jobs
        .iter()
        .map(|j| j.seconds - j.served.queue_s - j.served.run_s)
        .collect();
    out.put("server.residual_p50_s", median(&residual), "s");
    let job_bytes: Vec<f64> = jobs.iter().map(|j| j.bytes as f64).collect();
    let append_bytes: Vec<f64> = w
        .logs
        .iter()
        .flat_map(|l| l.append_bytes.iter().map(|&b| b as f64))
        .collect();
    out.put("wire.bytes_per_job", median(&job_bytes), "B");
    out.put("wire.bytes_per_append", median(&append_bytes), "B");
    let captured: Vec<Message> = w
        .logs
        .iter()
        .flat_map(|l| l.captured.iter().cloned())
        .collect();
    layers::codec(&captured, out);
    layers::unexercised(&["cluster"], out);
    out.put(
        "trace.overhead_ratio",
        untraced_ops / (ops(&w) / w.window_s).max(1e-12),
        "ratio",
    );
    report.note("unexercised_layers", "cluster (reported as 0)");
    report.note("appends", appends.len());
    Ok(report)
}

/// Completed client operations: jobs and appends.
fn ops(w: &Window) -> f64 {
    w.logs
        .iter()
        .map(|l| (l.jobs.len() + l.appends.len()) as f64)
        .sum()
}
