//! The `serve`, `submit`, `status` and `stream` subcommands: run the job
//! service behind a TCP JSON-lines endpoint and talk to it as a client.

use crate::args::ParsedArgs;
use crate::commands::device_spec;
use mdmp_data::io as data_io;
use mdmp_data::MultiDimSeries;
use mdmp_service::{
    request, serve as serve_tcp, wire_preference, Json, Message, Service, ServiceConfig, WireConn,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

type CmdResult = Result<(), String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// `mdmp serve` — run the job service until a `shutdown` request arrives.
pub fn serve(args: &ParsedArgs) -> CmdResult {
    let addr: String = args.get_or("addr", "127.0.0.1:7661".into()).map_err(err)?;
    let workers: usize = args.get_or("workers", 2).map_err(err)?;
    let queue: usize = args.get_or("queue", 64).map_err(err)?;
    let devices: usize = args.get_or("devices", 2).map_err(err)?;
    let cache_mb: u64 = args.get_or("cache-mb", 256).map_err(err)?;
    // Host worker threads per run; 0 = auto (env, else leased GPU count).
    let host_workers: usize = args.get_or("host-workers", 0).map_err(err)?;
    let device = device_spec(
        &args
            .get_or::<String>("device", "a100".into())
            .map_err(err)?,
    )?;
    args.reject_unknown().map_err(err)?;
    if workers == 0 || devices == 0 || queue == 0 {
        return Err("--workers, --devices and --queue must be positive".into());
    }

    let service = Service::start(ServiceConfig {
        workers,
        queue_capacity: queue,
        device: device.clone(),
        devices,
        cache_bytes: cache_mb << 20,
        host_workers,
        ..ServiceConfig::default()
    });
    let mut server = serve_tcp(Arc::clone(&service), &addr).map_err(err)?;
    println!(
        "mdmp-service listening on {} ({workers} workers, {devices}x {}, queue {queue}, cache {cache_mb} MiB)",
        server.local_addr(),
        device.name
    );
    println!(
        "stop with: mdmp status --addr {} --shutdown",
        server.local_addr()
    );
    // Wait until a shutdown request has been fully served — the service
    // drained (or aborted) AND the response line reached the client.
    // Exiting on `is_shutting_down()` alone would kill the process
    // mid-drain, severing the client connection before its reply.
    while !server.shutdown_served() {
        std::thread::sleep(Duration::from_millis(50));
    }
    server.stop();
    println!("mdmp-service stopped");
    Ok(())
}

/// Build the wire-form job object from `submit` arguments.
fn job_json(args: &ParsedArgs) -> Result<Json, String> {
    let m: usize = args.require("m").map_err(err)?;
    let mode: String = args.get_or("mode", "fp64".into()).map_err(err)?;
    let tiles: usize = args.get_or("tiles", 1).map_err(err)?;
    let gpus: usize = args.get_or("gpus", 1).map_err(err)?;
    let priority: String = args.get_or("priority", "normal".into()).map_err(err)?;
    let retries: u64 = args.get_or("retries", 0).map_err(err)?;
    let reference: Option<String> = args.get("reference").map_err(err)?;
    let input = match reference {
        Some(reference) => {
            let mut pairs = vec![
                ("kind", Json::str("csv")),
                ("reference", Json::str(reference)),
            ];
            if let Some(query) = args.get::<String>("query").map_err(err)? {
                pairs.push(("query", Json::str(query)));
            }
            Json::obj(pairs)
        }
        None => {
            let n: usize = args.get_or("n", 4096).map_err(err)?;
            let d: usize = args.get_or("d", 1).map_err(err)?;
            let pattern: usize = args.get_or("pattern", 0).map_err(err)?;
            let noise: f64 = args.get_or("noise", 0.3).map_err(err)?;
            let seed: u64 = args.get_or("seed", 42).map_err(err)?;
            Json::obj(vec![
                ("kind", Json::str("synthetic")),
                ("n", Json::num(n as f64)),
                ("d", Json::num(d as f64)),
                ("pattern", Json::num(pattern as f64)),
                ("noise", Json::num(noise)),
                ("seed", Json::num(seed as f64)),
            ])
        }
    };
    let mut pairs = vec![
        ("input", input),
        ("m", Json::num(m as f64)),
        ("mode", Json::str(mode)),
        ("tiles", Json::num(tiles as f64)),
        ("gpus", Json::num(gpus as f64)),
        ("priority", Json::str(priority)),
        ("max_retries", Json::num(retries as f64)),
    ];
    if let Some(plan) = args.get::<String>("fault-plan").map_err(err)? {
        pairs.push(("fault_plan", Json::str(plan)));
    }
    if let Some(tile_retries) = args.get::<u64>("tile-retries").map_err(err)? {
        pairs.push(("tile_retries", Json::num(tile_retries as f64)));
    }
    if let Some(ms) = args.get::<u64>("tile-timeout-ms").map_err(err)? {
        pairs.push(("tile_deadline_ms", Json::num(ms as f64)));
    }
    if let Some(fused) = crate::commands::fused_rows_arg(args)? {
        pairs.push(("fused_rows", Json::Bool(fused)));
    }
    if let Some(k) = crate::commands::tc_chunk_k_arg(args)? {
        pairs.push(("tc_chunk_k", Json::num(k as f64)));
    }
    if let Some(ms) = args.get::<u64>("deadline-ms").map_err(err)? {
        pairs.push(("deadline_ms", Json::num(ms as f64)));
    }
    Ok(Json::obj(pairs))
}

fn check_ok(response: &Json) -> Result<(), String> {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("request failed")
            .to_string())
    }
}

/// `mdmp submit` — send a job to a running service.
pub fn submit(args: &ParsedArgs) -> CmdResult {
    let addr: String = args.get_or("addr", "127.0.0.1:7661".into()).map_err(err)?;
    let wait = args.flag("wait");
    let timeout: f64 = args.get_or("timeout", 300.0).map_err(err)?;
    let job = job_json(args)?;
    args.reject_unknown().map_err(err)?;

    let response = request(
        &addr,
        &Json::obj(vec![("op", Json::str("submit")), ("job", job)]),
    )
    .map_err(err)?;
    check_ok(&response)?;
    let id = response
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("malformed response: no id")?;
    println!("submitted job {id}");
    if !wait {
        return Ok(());
    }
    let response = request(
        &addr,
        &Json::obj(vec![
            ("op", Json::str("wait")),
            ("id", Json::num(id as f64)),
            ("timeout_seconds", Json::num(timeout)),
        ]),
    )
    .map_err(err)?;
    check_ok(&response)?;
    let job = response.get("job").ok_or("malformed response: no job")?;
    print_job(job);
    match job.get("state").and_then(Json::as_str) {
        Some("done") => Ok(()),
        Some(state) => Err(format!("job {id} ended as {state}")),
        None => Err("malformed response: no state".into()),
    }
}

fn print_job(job: &Json) {
    let field = |k: &str| job.get(k).map(|v| v.to_string()).unwrap_or_default();
    println!(
        "job {} [{}] priority {} attempts {} queued {}s",
        field("id"),
        job.get("state").and_then(Json::as_str).unwrap_or("?"),
        job.get("priority").and_then(Json::as_str).unwrap_or("?"),
        field("attempts"),
        field("queue_seconds"),
    );
    if let Some(error) = job.get("error").and_then(Json::as_str) {
        println!("  error: {error}");
    }
    if let Some(outcome) = job.get("outcome") {
        let of = |k: &str| outcome.get(k).map(|v| v.to_string()).unwrap_or_default();
        println!(
            "  profile {} segments x {} dims; modeled {} s, wall {} s",
            of("n_query"),
            of("dims"),
            of("modeled_seconds"),
            of("wall_seconds"),
        );
        println!(
            "  precalc cache: {} hits, {} misses",
            of("precalc_hits"),
            of("precalc_misses")
        );
        if let Some(motifs) = outcome.get("motifs").and_then(Json::as_arr) {
            for motif in motifs {
                let mf = |k: &str| motif.get(k).map(|v| v.to_string()).unwrap_or_default();
                println!(
                    "  motif dim {}: query {} <-> reference {} distance {}",
                    mf("dim"),
                    mf("query"),
                    mf("reference"),
                    mf("distance")
                );
            }
        }
    }
}

/// A window of a series: one sample slice per dimension.
fn window(series: &MultiDimSeries, start: usize, len: usize) -> impl Iterator<Item = &[f64]> {
    (0..series.dims()).map(move |k| &series.dim(k)[start..start + len])
}

/// One request/response on the streaming session's persistent connection,
/// checked for `ok`.
fn stream_request(conn: &mut WireConn, msg: &Message) -> Result<Json, String> {
    let reply = conn.request(msg).map_err(err)?;
    check_ok(&reply.json)?;
    Ok(reply.json)
}

/// `mdmp stream` — drive a live streaming session against a running
/// service: open it on the head of the query series, append the rest in
/// chunks (each an incremental delta-tile append on the server), then
/// close. Prints the per-append reuse accounting the server reports.
pub fn stream(args: &ParsedArgs) -> CmdResult {
    let addr: String = args.get_or("addr", "127.0.0.1:7661".into()).map_err(err)?;
    let m: usize = args.require("m").map_err(err)?;
    let mode: String = args.get_or("mode", "fp64".into()).map_err(err)?;
    let reference_path: String = args.require("reference").map_err(err)?;
    let query_path: Option<String> = args.get("query").map_err(err)?;
    // Samples the session opens with; the rest arrive as appends.
    let initial: usize = args.get_or("initial", 4 * m).map_err(err)?;
    let chunk: usize = args.get_or("chunk", m).map_err(err)?;
    args.reject_unknown().map_err(err)?;
    if chunk == 0 {
        return Err("--chunk must be positive".into());
    }

    let reference = data_io::read_csv(Path::new(&reference_path)).map_err(err)?;
    let query = match &query_path {
        Some(p) => data_io::read_csv(Path::new(p)).map_err(err)?,
        None => reference.clone(),
    };
    let initial = initial.clamp(m, query.len());

    // One persistent connection for the whole session; binary frames when
    // the server accepts the upgrade (MDMP_WIRE=json forces JSON lines).
    let mut conn = WireConn::connect(&addr, None, wire_preference()).map_err(err)?;
    let binary = conn.is_binary();
    let open = Message::json(Json::obj(vec![
        ("op", Json::str("stream_open")),
        ("m", Json::num(m as f64)),
        ("mode", Json::str(mode)),
    ]))
    .with_series("reference", window(&reference, 0, reference.len()), binary)
    .with_series("query", window(&query, 0, initial), binary);
    let response = stream_request(&mut conn, &open)?;
    let session = response
        .get("session")
        .and_then(|s| s.get("session"))
        .and_then(Json::as_u64)
        .ok_or("malformed response: no session id")?;
    println!(
        "session {session} open ({} wire): {} reference segments, {} of {} query samples",
        if binary { "binary" } else { "json" },
        reference.len() + 1 - m,
        initial,
        query.len()
    );

    let mut at = initial;
    while at < query.len() {
        let len = chunk.min(query.len() - at);
        let append = Message::json(Json::obj(vec![
            ("op", Json::str("stream_append")),
            ("session", Json::num(session as f64)),
            ("side", Json::str("query")),
        ]))
        .with_series("samples", window(&query, at, len), binary);
        let response = stream_request(&mut conn, &append)?;
        at += len;
        let field = |k: &str| response.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  +{len} samples -> {} profile columns ({} segments reused, {} fresh{})",
            response
                .get("session")
                .and_then(|s| s.get("n_query"))
                .map(|v| v.to_string())
                .unwrap_or_default(),
            field("reused_segments"),
            field("fresh_segments"),
            if response.get("reused_precalc").and_then(Json::as_bool) == Some(true) {
                ", cached precalc"
            } else {
                ""
            }
        );
    }

    stream_request(
        &mut conn,
        &Message::json(Json::obj(vec![
            ("op", Json::str("stream_close")),
            ("session", Json::num(session as f64)),
        ])),
    )?;
    println!(
        "session {session} closed ({}B sent, {}B received)",
        conn.bytes_sent(),
        conn.bytes_received()
    );
    Ok(())
}

/// `mdmp status` — query a job, the service stats, the metrics page, or
/// request shutdown.
pub fn status(args: &ParsedArgs) -> CmdResult {
    let addr: String = args.get_or("addr", "127.0.0.1:7661".into()).map_err(err)?;
    let id: Option<u64> = args.get("id").map_err(err)?;
    let metrics = args.flag("metrics");
    let shutdown = args.flag("shutdown");
    let abort = args.flag("abort");
    args.reject_unknown().map_err(err)?;

    if shutdown || abort {
        let response = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("shutdown")),
                ("drain", Json::Bool(!abort)),
            ]),
        )
        .map_err(err)?;
        check_ok(&response)?;
        println!(
            "service stopped ({})",
            if abort { "aborted" } else { "drained" }
        );
        return Ok(());
    }
    if metrics {
        let response =
            request(&addr, &Json::obj(vec![("op", Json::str("metrics"))])).map_err(err)?;
        check_ok(&response)?;
        print!(
            "{}",
            response.get("text").and_then(Json::as_str).unwrap_or("")
        );
        return Ok(());
    }
    if let Some(id) = id {
        let response = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("status")),
                ("id", Json::num(id as f64)),
            ]),
        )
        .map_err(err)?;
        check_ok(&response)?;
        print_job(response.get("job").ok_or("malformed response: no job")?);
        return Ok(());
    }
    let response = request(&addr, &Json::obj(vec![("op", Json::str("stats"))])).map_err(err)?;
    check_ok(&response)?;
    let stats = response
        .get("stats")
        .ok_or("malformed response: no stats")?;
    if let Json::Obj(pairs) = stats {
        println!("service stats at {addr}:");
        for (key, value) in pairs {
            if key == "kernel_seconds" {
                if let Json::Obj(kernels) = value {
                    println!("  kernel seconds:");
                    for (class, seconds) in kernels {
                        println!("    {class:<16} {seconds}");
                    }
                }
            } else {
                println!("  {key:<26} {value}");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(parts: &[&str]) -> ParsedArgs {
        let raw: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        ParsedArgs::parse(&raw).unwrap()
    }

    /// End-to-end over a real socket: serve in-process, submit with
    /// --wait, read stats, shut down.
    #[test]
    fn submit_status_shutdown_round_trip() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let server = serve_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let sub = parsed(&[
            "submit",
            "--addr",
            &addr,
            "--n",
            "64",
            "--m",
            "8",
            "--mode",
            "fp16",
            "--seed",
            "5",
            "--wait",
            "--timeout",
            "60",
        ]);
        submit(&sub).unwrap();

        // Same spec again: every tile precalc now comes from the cache.
        let sub2 = parsed(&[
            "submit",
            "--addr",
            &addr,
            "--n",
            "64",
            "--m",
            "8",
            "--mode",
            "fp16",
            "--seed",
            "5",
            "--wait",
            "--timeout",
            "60",
        ]);
        submit(&sub2).unwrap();
        let stats = service.stats();
        assert!(
            stats.precalc_cache_hits > 0,
            "repeat job must hit the cache"
        );

        status(&parsed(&["status", "--addr", &addr])).unwrap();
        status(&parsed(&["status", "--addr", &addr, "--id", "1"])).unwrap();
        status(&parsed(&["status", "--addr", &addr, "--metrics"])).unwrap();
        status(&parsed(&["status", "--addr", &addr, "--shutdown"])).unwrap();
        assert!(service.is_shutting_down());
        assert!(server.shutdown_served());
        drop(server);
    }

    /// `mdmp stream` end to end: serve in-process, stream a CSV in
    /// chunks, and confirm the session metrics landed.
    #[test]
    fn stream_round_trip() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let server = serve_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let pair = mdmp_data::synthetic::generate_pair(&mdmp_data::synthetic::SyntheticConfig {
            n_subsequences: 57,
            dims: 2,
            m: 8,
            pattern: mdmp_data::synthetic::Pattern::Sine,
            embeddings: 1,
            noise: 0.3,
            pattern_amplitude: 1.0,
            seed: 11,
        });
        let mut csv = std::env::temp_dir();
        csv.push(format!("mdmp_cli_stream_{}.csv", std::process::id()));
        data_io::write_csv(&csv, &pair.query).unwrap();

        stream(&parsed(&[
            "stream",
            "--addr",
            &addr,
            "--reference",
            csv.to_str().unwrap(),
            "--m",
            "8",
            "--mode",
            "fp16",
            "--initial",
            "40",
            "--chunk",
            "6",
        ]))
        .unwrap();
        std::fs::remove_file(&csv).ok();

        let stats = service.stats();
        assert_eq!(stats.stream_opens, 1);
        // 64 samples: 40 initial + 6+6+6+6 appends.
        assert_eq!(stats.stream_appends, 4);
        assert_eq!(stats.stream_append_failures, 0);
        assert_eq!(stats.stream_precalc_reuses, 4);
        assert_eq!(stats.stream_sessions_open, 0, "session was closed");

        status(&parsed(&["status", "--addr", &addr, "--shutdown"])).unwrap();
    }

    #[test]
    fn submit_to_dead_address_errors() {
        let sub = parsed(&["submit", "--addr", "127.0.0.1:1", "--n", "64", "--m", "8"]);
        assert!(submit(&sub).is_err());
    }

    #[test]
    fn job_json_csv_and_synthetic_forms() {
        let synth = job_json(&parsed(&[
            "submit", "--n", "128", "--m", "8", "--seed", "3",
        ]))
        .unwrap();
        assert_eq!(
            synth.get("input").unwrap().get("kind").unwrap().as_str(),
            Some("synthetic")
        );
        assert_eq!(
            synth.get("input").unwrap().get("seed").unwrap().as_u64(),
            Some(3)
        );
        let csv = job_json(&parsed(&[
            "submit",
            "--reference",
            "/tmp/r.csv",
            "--query",
            "/tmp/q.csv",
            "--m",
            "8",
        ]))
        .unwrap();
        assert_eq!(
            csv.get("input").unwrap().get("kind").unwrap().as_str(),
            Some("csv")
        );
    }
}
