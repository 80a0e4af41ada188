//! The TCP front end: one thread per connection, each running one loop
//! over its transport — JSON lines (one request object per line in, one
//! response object per line out) until a `wire_upgrade`, then the binary
//! frames of [`crate::wire`] (DESIGN.md §15) until it closes.
//!
//! Every request carries an `"op"`; every response carries `"ok"` (bool)
//! plus either the op's payload or an `"error"` string. The ops and their
//! fields are tabled in `request.rs`, where each request is decoded once
//! into a typed `Request` whatever the transport; `handle` answers each
//! op in one arm, and only the `tile_exec` reply's plane fields depend on
//! the transport ([`tile_exec_reply`]).
//!
//! `tile_exec` is the worker half of the cluster tile-lease protocol
//! (DESIGN.md §12): it executes the listed tiles of the job synchronously
//! and returns one entry per tile with the partial profile planes.

use crate::job::{JobOutcome, JobStatus};
use crate::proto::Json;
use crate::request::{error_response, ok_response, tile_exec_reply, Request};
use crate::scheduler::Service;
use crate::session::{AppendReport, SessionSummary};
use crate::wire::{FrameCodec, Message, Transport, WireError, WIRE_VERSION};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A running TCP front end.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served_shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Server {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// True once a `shutdown` request has been fully served: the service
    /// finished shutting down (drained or aborted) AND the response line
    /// was flushed back to the client. A host process that exits as soon
    /// as shutdown *starts* would sever the connection mid-drain; wait on
    /// this instead.
    pub fn shutdown_served(&self) -> bool {
        self.served_shutdown.load(Ordering::SeqCst)
    }

    /// Stop accepting connections and join the accept loop. Does not shut
    /// the service itself down.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve the JSON-lines protocol on
/// it until [`Server::stop`] or service shutdown.
pub fn serve(service: Arc<Service>, addr: &str) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let served_shutdown = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let served2 = Arc::clone(&served_shutdown);
    let accept_thread = std::thread::Builder::new()
        .name("mdmp-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let svc = Arc::clone(&service);
                let stop3 = Arc::clone(&stop2);
                let served3 = Arc::clone(&served2);
                let _ = std::thread::Builder::new()
                    .name("mdmp-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(&svc, stream, &stop3, &served3);
                    });
            }
        })?;
    Ok(Server {
        local_addr,
        stop,
        served_shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// What the connection does once a reply is written.
enum Next {
    Serve,
    /// Switch to binary frames (a successful `wire_upgrade`).
    Upgrade,
    /// A `shutdown` was served: mark it and close.
    Close,
}

fn handle_connection(
    service: &Service,
    stream: TcpStream,
    stop: &AtomicBool,
    served_shutdown: &AtomicBool,
) -> io::Result<()> {
    // Request/response traffic: Nagle delays hurt and help nothing.
    let _ = stream.set_nodelay(true);
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut transport = Transport::Lines(Vec::new());
    let result = serve_requests(
        service,
        &mut reader,
        &mut writer,
        &mut transport,
        stop,
        served_shutdown,
    );
    if let Transport::Frames(_) = transport {
        service.metrics.wire_binary_sessions.dec();
    }
    result
}

/// The connection loop — the only place requests are read off a socket.
/// Error containment follows the [`WireError`] taxonomy on both
/// transports: a corrupt frame gets a typed error reply and the
/// connection continues; lost framing (or an overlong line) gets one
/// error reply and the connection closes; either way the server stays up.
fn serve_requests(
    service: &Service,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    transport: &mut Transport,
    stop: &AtomicBool,
    served_shutdown: &AtomicBool,
) -> io::Result<()> {
    loop {
        let (bytes, parsed) = match transport.read(reader) {
            Ok(Some(read)) => read,
            Ok(None) => return Ok(()),
            // EOF mid-frame or a dead socket: nothing to answer on.
            Err(WireError::Io(e)) => return Err(e),
            Err(e) => {
                service.metrics.wire_frame_errors.inc();
                let reply = Message::json(error_response(&e.to_string()));
                let written = send(service, transport, writer, &reply, "invalid");
                match e {
                    WireError::Corrupt(_) => written?,
                    _ => return Ok(()),
                }
                continue;
            }
        };
        let (label, request) = match parsed {
            Ok(msg) => Request::decode(msg),
            Err(e) => ("invalid", Err(format!("bad request: {e}"))),
        };
        let encoding = transport.encoding();
        service
            .metrics
            .wire_bytes_received
            .add(encoding, label, bytes);
        let binary = matches!(transport, Transport::Frames(_));
        let (reply, next) = match request {
            Err(e) => (Message::json(error_response(&e)), Next::Serve),
            Ok(request) => match handle(service, request, stop, binary) {
                Some(answer) => answer,
                // An injected connection fault: sever the stream without
                // a reply, as a crashed server would.
                None => return Ok(()),
            },
        };
        let written = send(service, transport, writer, &reply, label);
        match next {
            Next::Serve => written?,
            Next::Upgrade => {
                written?;
                *transport = Transport::Frames(FrameCodec::new());
                service.metrics.wire_binary_sessions.inc();
            }
            Next::Close => {
                // Mark the shutdown as served only after the reply reached
                // the socket (or the write definitively failed), so a host
                // waiting on `Server::shutdown_served` never exits while
                // the reply is still in flight.
                served_shutdown.store(true, Ordering::SeqCst);
                return written;
            }
        }
    }
}

/// Write one reply, counting its bytes under `label` first so a client
/// that has read the reply always sees the counter bumped (a failed write
/// overcounts by one reply, the lesser evil).
fn send(
    service: &Service,
    transport: &mut Transport,
    writer: &mut BufWriter<TcpStream>,
    reply: &Message,
    label: &'static str,
) -> io::Result<()> {
    let encoding = transport.encoding();
    let bytes = transport
        .encode(reply)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    service
        .metrics
        .wire_bytes_sent
        .add(encoding, label, bytes.len() as u64);
    writer.write_all(bytes)?;
    writer.flush()
}

/// Answer one decoded request: one arm per op, the same [`Service`] calls
/// on both transports. `None` severs the connection without a reply (an
/// injected connection fault).
fn handle(
    service: &Service,
    request: Request,
    stop: &AtomicBool,
    binary: bool,
) -> Option<(Message, Next)> {
    let reply = match request {
        Request::Ping => ok_response(vec![("pong", Json::Bool(true))]),
        Request::Submit(spec) => match service.submit(spec) {
            Ok(id) => ok_response(vec![("id", Json::num(id as f64))]),
            Err(e) => error_response(&e.to_string()),
        },
        Request::Status(id) => job_reply(id, service.status(id)),
        Request::Wait(id, timeout) => {
            let status = service.wait(id, timeout);
            // The job's fault plan may ask for the connection carrying
            // its completion to be severed — once, after the wait, so
            // the client observes a drop exactly where it hurts most.
            if service.take_connection_fault(id) {
                return None;
            }
            job_reply(id, status)
        }
        Request::Cancel(id) => ok_response(vec![("cancelled", Json::Bool(service.cancel(id)))]),
        Request::Stats => ok_response(vec![("stats", stats_json(service))]),
        Request::Metrics => ok_response(vec![("text", Json::str(service.metrics_text()))]),
        Request::StreamOpen {
            config,
            reference,
            query,
        } => {
            let query = query.unwrap_or_else(|| reference.clone());
            match service.stream_open(reference, query, config) {
                Ok(summary) => ok_response(vec![("session", summary_json(&summary))]),
                Err(e) => error_response(&e),
            }
        }
        Request::StreamAppend {
            session,
            side,
            samples,
        } => match service.stream_append(session, side, &samples) {
            Ok(report) => append_report_json(&report),
            Err(e) => error_response(&e),
        },
        Request::StreamStatus(session) => match service.sessions.summary(session) {
            None => error_response(&format!("unknown session {session}")),
            Some(summary) => ok_response(vec![("session", summary_json(&summary))]),
        },
        Request::StreamClose(session) => {
            ok_response(vec![("closed", Json::Bool(service.stream_close(session)))])
        }
        Request::TileExec(spec, tiles) => {
            let reply = match service.execute_tile_subset(&spec, &tiles) {
                Ok(run) => tile_exec_reply(&run, binary),
                Err(e) => Message::json(error_response(&e)),
            };
            return Some((reply, Next::Serve));
        }
        Request::WireUpgrade(_) if binary => {
            error_response("the connection already speaks binary frames")
        }
        Request::WireUpgrade(version) if version != u64::from(WIRE_VERSION) => {
            error_response(&format!("unsupported wire version {version}"))
        }
        Request::WireUpgrade(_) => {
            let reply = ok_response(vec![
                ("wire", Json::str("binary")),
                ("version", Json::num(f64::from(WIRE_VERSION))),
            ]);
            return Some((Message::json(reply), Next::Upgrade));
        }
        Request::Shutdown { drain } => {
            stop.store(true, Ordering::SeqCst);
            service.shutdown(drain);
            let reply = ok_response(vec![("stopped", Json::Bool(true))]);
            return Some((Message::json(reply), Next::Close));
        }
    };
    Some((Message::json(reply), Next::Serve))
}

fn job_reply(id: u64, status: Option<JobStatus>) -> Json {
    match status {
        None => error_response(&format!("unknown job {id}")),
        Some(status) => ok_response(vec![("job", status_json(&status))]),
    }
}

fn status_json(status: &JobStatus) -> Json {
    let mut pairs = vec![
        ("id", Json::num(status.id as f64)),
        ("state", Json::str(status.state.label())),
        ("priority", Json::str(status.priority.label())),
        ("attempts", Json::num(status.attempts as f64)),
        ("queue_seconds", Json::num(status.queue_seconds)),
    ];
    if let Some(run) = status.run_seconds {
        pairs.push(("run_seconds", Json::num(run)));
    }
    if let Some(error) = &status.error {
        pairs.push(("error", Json::str(error.clone())));
    }
    if let Some(outcome) = &status.outcome {
        pairs.push(("outcome", outcome_json(outcome)));
    }
    Json::obj(pairs)
}

/// The wire summary of a finished job: profile shape plus the per-dimension
/// best match (motif). The full profile stays on the server.
fn outcome_json(outcome: &JobOutcome) -> Json {
    let profile = &outcome.profile;
    let mut motifs = Vec::new();
    for k in 0..profile.dims() {
        let mut best = (f64::INFINITY, -1i64, 0usize);
        for j in 0..profile.n_query() {
            let v = profile.value(j, k);
            if v < best.0 {
                best = (v, profile.index(j, k), j);
            }
        }
        motifs.push(Json::obj(vec![
            ("dim", Json::num(k as f64)),
            ("query", Json::num(best.2 as f64)),
            ("reference", Json::num(best.1 as f64)),
            ("distance", Json::num(best.0)),
        ]));
    }
    Json::obj(vec![
        ("n_query", Json::num(profile.n_query() as f64)),
        ("dims", Json::num(profile.dims() as f64)),
        ("unset_fraction", Json::num(profile.unset_fraction())),
        ("modeled_seconds", Json::num(outcome.modeled_seconds)),
        ("wall_seconds", Json::num(outcome.wall_seconds)),
        ("precalc_hits", Json::num(outcome.precalc_hits as f64)),
        ("precalc_misses", Json::num(outcome.precalc_misses as f64)),
        ("motifs", Json::Arr(motifs)),
    ])
}

fn stats_json(service: &Service) -> Json {
    let s = service.stats();
    Json::obj(vec![
        ("jobs_submitted", Json::num(s.jobs_submitted as f64)),
        ("jobs_rejected", Json::num(s.jobs_rejected as f64)),
        ("jobs_completed", Json::num(s.jobs_completed as f64)),
        ("jobs_failed", Json::num(s.jobs_failed as f64)),
        ("jobs_cancelled", Json::num(s.jobs_cancelled as f64)),
        ("jobs_retried", Json::num(s.jobs_retried as f64)),
        ("queue_depth", Json::num(s.queue_depth as f64)),
        ("jobs_running", Json::num(s.jobs_running as f64)),
        ("devices_leased", Json::num(s.devices_leased as f64)),
        ("precalc_cache_hits", Json::num(s.precalc_cache_hits as f64)),
        (
            "precalc_cache_misses",
            Json::num(s.precalc_cache_misses as f64),
        ),
        (
            "precalc_cache_evictions",
            Json::num(s.precalc_cache_evictions as f64),
        ),
        (
            "precalc_cache_bytes",
            Json::num(s.precalc_cache_bytes as f64),
        ),
        (
            "precalc_cache_hit_rate",
            Json::num(s.precalc_cache_hit_rate),
        ),
        (
            "precalc_single_flight_waits",
            Json::num(s.precalc_single_flight_waits as f64),
        ),
        ("host_workers", Json::num(s.host_workers as f64)),
        (
            "fused_rows_enabled",
            Json::num(f64::from(u8::from(s.fused_rows_enabled))),
        ),
        (
            "eliminated_dispatches",
            Json::num(s.eliminated_dispatches as f64),
        ),
        ("tc_chunk_k", Json::num(s.tc_chunk_k as f64)),
        ("pool_thread_reuses", Json::num(s.pool_thread_reuses as f64)),
        ("buffer_pool_reuses", Json::num(s.buffer_pool_reuses as f64)),
        ("buffer_pool_allocs", Json::num(s.buffer_pool_allocs as f64)),
        ("tile_retries", Json::num(s.tile_retries as f64)),
        (
            "plane_validation_failures",
            Json::num(s.plane_validation_failures as f64),
        ),
        (
            "devices_quarantined",
            Json::num(s.devices_quarantined as f64),
        ),
        (
            "connection_drops_injected",
            Json::num(s.connection_drops_injected as f64),
        ),
        ("stream_opens", Json::num(s.stream_opens as f64)),
        ("stream_appends", Json::num(s.stream_appends as f64)),
        (
            "stream_append_failures",
            Json::num(s.stream_append_failures as f64),
        ),
        (
            "stream_precalc_reuses",
            Json::num(s.stream_precalc_reuses as f64),
        ),
        (
            "stream_segments_reused",
            Json::num(s.stream_segments_reused as f64),
        ),
        (
            "stream_segments_fresh",
            Json::num(s.stream_segments_fresh as f64),
        ),
        (
            "stream_sessions_open",
            Json::num(s.stream_sessions_open as f64),
        ),
        ("wire_bytes_sent", Json::num(s.wire_bytes_sent as f64)),
        (
            "wire_bytes_received",
            Json::num(s.wire_bytes_received as f64),
        ),
        (
            "wire_binary_sessions",
            Json::num(s.wire_binary_sessions as f64),
        ),
        ("wire_frame_errors", Json::num(s.wire_frame_errors as f64)),
        (
            "mean_stream_append_seconds",
            Json::num(s.mean_stream_append_seconds),
        ),
        (
            "worker_busy_seconds",
            Json::Arr(
                s.worker_busy_seconds
                    .iter()
                    .map(|&b| Json::num(b))
                    .collect(),
            ),
        ),
        (
            "mean_queue_wait_seconds",
            Json::num(s.mean_queue_wait_seconds),
        ),
        ("mean_run_seconds", Json::num(s.mean_run_seconds)),
        (
            "kernel_seconds",
            Json::Obj(
                s.kernel_seconds
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::num(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn summary_json(summary: &SessionSummary) -> Json {
    Json::obj(vec![
        ("session", Json::num(summary.id as f64)),
        ("n_query", Json::num(summary.n_query as f64)),
        ("n_reference", Json::num(summary.n_reference as f64)),
        ("dims", Json::num(summary.dims as f64)),
    ])
}

fn append_report_json(report: &AppendReport) -> Json {
    ok_response(vec![
        ("session", summary_json(&report.summary)),
        ("reused_precalc", Json::Bool(report.reused_precalc)),
        ("reused_segments", Json::num(report.reused_segments as f64)),
        ("fresh_segments", Json::num(report.fresh_segments as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{decode_index_plane_hex, decode_plane_hex, encode_plane_hex};
    use crate::scheduler::ServiceConfig;
    use crate::wire::request;

    fn wave(offset: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| ((t + offset) as f64 * 0.23).sin() + 0.01 * (t % 7) as f64)
            .collect()
    }

    #[test]
    fn ping_submit_wait_over_tcp() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let pong = request(&addr, &Json::obj(vec![("op", Json::str("ping"))])).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));

        let job = Json::obj(vec![
            (
                "input",
                Json::obj(vec![
                    ("kind", Json::str("synthetic")),
                    ("n", Json::num(48.0)),
                    ("d", Json::num(1.0)),
                    ("seed", Json::num(7.0)),
                ]),
            ),
            ("m", Json::num(8.0)),
            ("mode", Json::str("fp32")),
        ]);
        let submitted = request(
            &addr,
            &Json::obj(vec![("op", Json::str("submit")), ("job", job)]),
        )
        .unwrap();
        assert_eq!(submitted.get("ok"), Some(&Json::Bool(true)), "{submitted}");
        let id = submitted.get("id").unwrap().as_u64().unwrap();

        let done = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("wait")),
                ("id", Json::num(id as f64)),
                ("timeout_seconds", Json::num(30.0)),
            ]),
        )
        .unwrap();
        let job = done.get("job").unwrap();
        assert_eq!(job.get("state").unwrap().as_str(), Some("done"), "{done}");
        let outcome = job.get("outcome").unwrap();
        assert!(outcome.get("n_query").unwrap().as_u64().unwrap() > 0);

        server.stop();
        service.shutdown(true);
    }

    #[test]
    fn streaming_session_over_tcp() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let series = |off: usize, n: usize| {
            Json::Arr(vec![Json::Arr(
                wave(off, n).into_iter().map(Json::num).collect(),
            )])
        };
        let opened = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("stream_open")),
                ("m", Json::num(8.0)),
                ("reference", series(0, 80)),
                ("query", series(29, 48)),
            ]),
        )
        .unwrap();
        assert_eq!(opened.get("ok"), Some(&Json::Bool(true)), "{opened}");
        let session = opened
            .get("session")
            .unwrap()
            .get("session")
            .unwrap()
            .as_u64()
            .unwrap();

        let appended = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("stream_append")),
                ("session", Json::num(session as f64)),
                ("side", Json::str("query")),
                ("samples", series(77, 16)),
            ]),
        )
        .unwrap();
        assert_eq!(appended.get("ok"), Some(&Json::Bool(true)), "{appended}");
        let n_query = appended
            .get("session")
            .unwrap()
            .get("n_query")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(n_query, (48 - 8 + 1) + 16);
        assert_eq!(
            appended.get("reused_precalc"),
            Some(&Json::Bool(true)),
            "{appended}"
        );

        let closed = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("stream_close")),
                ("session", Json::num(session as f64)),
            ]),
        )
        .unwrap();
        assert_eq!(closed.get("closed"), Some(&Json::Bool(true)));

        server.stop();
        service.shutdown(true);
    }

    #[test]
    fn plane_hex_round_trips_inf_and_nan_bits() {
        let plane = vec![f64::INFINITY, -1.5, 0.0, f64::NAN, 1e-300];
        let hex = encode_plane_hex(&plane);
        assert_eq!(hex.len(), plane.len() * 16);
        let back = decode_plane_hex(&hex, plane.len()).unwrap();
        for (a, b) in plane.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_plane_hex(&hex, 4).is_err());
        assert!(decode_plane_hex("zz", 0).is_err());
    }

    #[test]
    fn tile_exec_round_trips_partial_profiles() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let job = Json::obj(vec![
            (
                "input",
                Json::obj(vec![
                    ("kind", Json::str("synthetic")),
                    ("n", Json::num(96.0)),
                    ("d", Json::num(2.0)),
                    ("seed", Json::num(7.0)),
                ]),
            ),
            ("m", Json::num(8.0)),
            ("mode", Json::str("fp32")),
            ("tiles", Json::num(4.0)),
        ]);
        let reply = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("tile_exec")),
                ("job", job),
                ("tiles", Json::Arr(vec![Json::num(1.0), Json::num(3.0)])),
            ]),
        )
        .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        let tiles = reply.get("tiles").unwrap().as_arr().unwrap();
        assert_eq!(tiles.len(), 2);
        for (expect, tile) in [1.0, 3.0].iter().zip(tiles) {
            assert_eq!(tile.get("tile").unwrap().as_f64(), Some(*expect));
            let n_query = tile.get("n_query").unwrap().as_u64().unwrap() as usize;
            let dims = tile.get("dims").unwrap().as_u64().unwrap() as usize;
            let hex = tile.get("p_hex").unwrap().as_str().unwrap();
            let plane = decode_plane_hex(hex, n_query * dims).unwrap();
            assert!(plane.iter().all(|v| v.is_finite() || *v == f64::INFINITY));
            let i_hex = tile.get("i_hex").unwrap().as_str().unwrap();
            let index_plane = decode_index_plane_hex(i_hex, n_query * dims).unwrap();
            assert_eq!(index_plane.len(), n_query * dims);
            assert!(index_plane.iter().all(|&i| i >= -1));
            assert!(tile.get("device_seconds").unwrap().as_f64().unwrap() > 0.0);
        }
        assert_eq!(service.stats().tile_exec_requests, 1);
        assert_eq!(service.stats().tiles_served, 2);

        // Bad requests: missing tiles, empty tiles, out-of-range index.
        let job = || {
            Json::obj(vec![
                (
                    "input",
                    Json::obj(vec![
                        ("kind", Json::str("synthetic")),
                        ("n", Json::num(96.0)),
                    ]),
                ),
                ("m", Json::num(8.0)),
                ("tiles", Json::num(4.0)),
            ])
        };
        let r = request(
            &addr,
            &Json::obj(vec![("op", Json::str("tile_exec")), ("job", job())]),
        )
        .unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let r = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("tile_exec")),
                ("job", job()),
                ("tiles", Json::Arr(vec![Json::num(99.0)])),
            ]),
        )
        .unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(service.stats().tile_exec_failures, 1);

        server.stop();
        service.shutdown(true);
    }

    #[test]
    fn stream_append_malformed_payloads_get_typed_errors() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let dim =
            |off: usize, n: usize| Json::Arr(wave(off, n).into_iter().map(Json::num).collect());

        // Ragged open payload: typed error, connection stays alive.
        let r = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("stream_open")),
                ("m", Json::num(8.0)),
                ("reference", Json::Arr(vec![dim(0, 64), dim(3, 63)])),
            ]),
        )
        .unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert!(
            r.get("error").unwrap().as_str().unwrap().contains("length"),
            "{r}"
        );

        // A healthy two-dimensional session to append against.
        let opened = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("stream_open")),
                ("m", Json::num(8.0)),
                ("reference", Json::Arr(vec![dim(0, 64), dim(7, 64)])),
            ]),
        )
        .unwrap();
        assert_eq!(opened.get("ok"), Some(&Json::Bool(true)), "{opened}");
        let session = opened
            .get("session")
            .unwrap()
            .get("session")
            .unwrap()
            .as_u64()
            .unwrap();
        let append = |samples: Json, id: u64| {
            request(
                &addr,
                &Json::obj(vec![
                    ("op", Json::str("stream_append")),
                    ("session", Json::num(id as f64)),
                    ("samples", samples),
                ]),
            )
            .unwrap()
        };

        // Mismatched dimension count.
        let r = append(Json::Arr(vec![dim(0, 8)]), session);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert!(
            r.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("dimension"),
            "{r}"
        );
        // Unequal slice lengths.
        let r = append(Json::Arr(vec![dim(0, 8), dim(1, 7)]), session);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert!(
            r.get("error").unwrap().as_str().unwrap().contains("equal"),
            "{r}"
        );
        // Empty append.
        let r = append(
            Json::Arr(vec![Json::Arr(vec![]), Json::Arr(vec![])]),
            session,
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert!(
            r.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("no samples"),
            "{r}"
        );
        // Unknown session.
        let r = append(Json::Arr(vec![dim(0, 8), dim(1, 8)]), 4040);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert!(
            r.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("unknown session"),
            "{r}"
        );

        // The server is still up and a well-formed append succeeds and
        // shows on the metrics surfaces.
        let r = append(Json::Arr(vec![dim(64, 8), dim(71, 8)]), session);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        let stats = service.stats();
        assert_eq!(stats.stream_opens, 1);
        assert_eq!(stats.stream_appends, 1);
        assert_eq!(stats.stream_append_failures, 4);
        assert_eq!(stats.stream_precalc_reuses, 1);
        assert_eq!(stats.stream_sessions_open, 1);
        assert!(stats.stream_segments_reused > 0);
        assert!(stats.mean_stream_append_seconds > 0.0);
        let text = request(&addr, &Json::obj(vec![("op", Json::str("metrics"))]))
            .unwrap()
            .get("text")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(text.contains("mdmp_stream_appends_total 1"), "{text}");
        assert!(text.contains("mdmp_stream_append_failures_total 4"));
        assert!(text.contains("mdmp_stream_sessions_open 1"));

        server.stop();
        service.shutdown(true);
    }

    /// One request nested 100,000 deep — as a JSON line and inside a
    /// binary frame's envelope — gets a typed error reply, and the same
    /// connection then answers `ping`: the parser's nesting cap, not the
    /// connection thread's stack, bounds the recursion.
    #[test]
    fn deep_nesting_gets_a_typed_error_on_both_transports() {
        use crate::wire::{crc32, WireConn, WirePreference};
        use std::io::BufRead;

        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let hostile = format!(
            "{{\"op\":\"stream_open\",\"reference\":{}",
            "[".repeat(100_000)
        );
        let ping = Json::obj(vec![("op", Json::str("ping"))]);
        let ok = |reply: &Json| reply.get("ok").and_then(Json::as_bool);

        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut line = String::new();
        for request in [hostile.clone(), ping.to_string()] {
            writeln!(writer, "{request}").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let reply = Json::parse(line.trim()).unwrap();
            if request == hostile {
                assert_eq!(ok(&reply), Some(false), "{reply}");
                let error = reply.get("error").and_then(Json::as_str).unwrap();
                assert!(error.contains("nesting deeper than 64"), "{error}");
            } else {
                assert_eq!(ok(&reply), Some(true), "{reply}");
            }
        }

        let mut conn = WireConn::connect(&addr, None, WirePreference::Auto).unwrap();
        assert!(conn.is_binary());
        // `FrameCodec::encode` would have to build the nested value, so
        // the frame is assembled by hand: envelope, empty chunk list, CRC.
        let mut payload = (hostile.len() as u32).to_le_bytes().to_vec();
        payload.extend_from_slice(hostile.as_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        let mut frame = b"MW\x01\x01".to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, "{{\"op\":\"wire_upgrade\",\"version\":1}}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(ok(&Json::parse(line.trim()).unwrap()), Some(true));
        let mut codec = FrameCodec::new();
        writer.write_all(&frame).unwrap();
        let (reply, _) = codec.read(&mut reader).unwrap().unwrap();
        assert_eq!(ok(&reply.json), Some(false), "{}", reply.json);
        let error = reply.json.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("nesting deeper than 64"), "{error}");
        writer
            .write_all(codec.encode(&Message::json(ping.clone()), true).unwrap())
            .unwrap();
        let (reply, _) = codec.read(&mut reader).unwrap().unwrap();
        assert_eq!(ok(&reply.json), Some(true), "{}", reply.json);
        let pong = conn.request(&Message::json(ping)).unwrap();
        assert_eq!(ok(&pong.json), Some(true));

        server.stop();
        service.shutdown(true);
    }

    #[test]
    fn bad_requests_get_errors() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let r = request(&addr, &Json::obj(vec![("op", Json::str("nope"))])).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let r = request(&addr, &Json::obj(vec![("x", Json::num(1.0))])).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let r = request(
            &addr,
            &Json::obj(vec![("op", Json::str("status")), ("id", Json::num(404.0))]),
        )
        .unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));

        server.stop();
        service.shutdown(true);
    }
}
