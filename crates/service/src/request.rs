//! The one request layer: every op's request fields are decoded here,
//! once, from a [`Message`] — a binary frame, or a JSON line as a
//! chunkless message — and every bulk payload is shaped for its transport
//! by one helper in each direction (DESIGN.md §7, §15).
//!
//! | op              | request fields                                          |
//! |-----------------|---------------------------------------------------------|
//! | `ping`          | —                                                       |
//! | `submit`        | `job` object (see [`parse_job_spec`])                   |
//! | `status`        | `id`                                                    |
//! | `wait`          | `id`, optional `timeout_seconds` (default 60, ≤ 3600)   |
//! | `cancel`        | `id`                                                    |
//! | `stats`         | —                                                       |
//! | `metrics`       | — (returns the Prometheus text page as a string)        |
//! | `stream_open`   | `m` (≥ 2), optional `mode`, series `reference`, `query` |
//! | `stream_append` | `session`, optional `side` (default query), `samples`   |
//! | `stream_status` | `session`                                               |
//! | `stream_close`  | `session`                                               |
//! | `tile_exec`     | `job` object, `tiles` (array of tile indices)           |
//! | `wire_upgrade`  | `version` — switch the connection to binary frames      |
//! | `shutdown`      | optional `drain` (default true)                         |
//!
//! A series rides inline as `<name>`, an array of per-dimension sample
//! arrays, or — when the request carries a `<name>_chunks` count — as
//! that many float chunks of the frame, taken in field order. Every chunk
//! a frame carries must be claimed by such a count. `tile_exec` reply
//! planes ride as `p_chunk`/`i_chunk` chunk indices on binary frames and
//! as `p_hex`/`i_hex` bit-pattern strings on JSON lines, because JSON has
//! no `+Inf` and the profile's unset sentinel must survive bit-exactly
//! ([`tile_exec_reply`], [`take_planes`]).

use crate::job::{JobInput, JobSpec, Priority};
use crate::proto::Json;
use crate::session::AppendSide;
use crate::wire::{Chunk, Message, WIRE_VERSION};
use mdmp_core::{MdmpConfig, TileSubsetRun};
use mdmp_data::MultiDimSeries;
use mdmp_faults::FaultPlan;
use mdmp_precision::PrecisionMode;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Duration;

/// One decoded request: a variant per op of the module table.
pub(crate) enum Request {
    Ping,
    Submit(JobSpec),
    Status(u64),
    Wait(u64, Duration),
    Cancel(u64),
    Stats,
    Metrics,
    StreamOpen {
        config: MdmpConfig,
        reference: MultiDimSeries,
        /// `None` is a self-join.
        query: Option<MultiDimSeries>,
    },
    StreamAppend {
        session: u64,
        side: AppendSide,
        samples: Vec<Vec<f64>>,
    },
    StreamStatus(u64),
    StreamClose(u64),
    TileExec(JobSpec, Vec<usize>),
    WireUpgrade(u64),
    Shutdown {
        drain: bool,
    },
}

impl Request {
    /// Decode one request. Returns the op's metric label — a fixed
    /// vocabulary (`"other"` for an unknown op, `"invalid"` without one),
    /// so no peer-chosen string becomes a label value — and the request,
    /// or why its fields did not decode. Chunk planes move into the
    /// request; they are not copied.
    pub(crate) fn decode(msg: Message) -> (&'static str, Result<Request, String>) {
        let Message { json, chunks } = msg;
        let Some(op) = json.get("op").and_then(Json::as_str) else {
            return ("invalid", Err("missing 'op'".into()));
        };
        let mut f = Fields {
            json: &json,
            chunks: chunks.into_iter(),
        };
        let (label, request) = match op {
            "ping" => ("ping", Ok(Request::Ping)),
            "submit" => ("submit", f.job().map(Request::Submit)),
            "status" => ("status", f.id("id").map(Request::Status)),
            "wait" => ("wait", f.id("id").map(|id| Request::Wait(id, f.timeout()))),
            "cancel" => ("cancel", f.id("id").map(Request::Cancel)),
            "stats" => ("stats", Ok(Request::Stats)),
            "metrics" => ("metrics", Ok(Request::Metrics)),
            "stream_open" => ("stream_open", f.stream_open()),
            "stream_append" => ("stream_append", f.stream_append()),
            "stream_status" => ("stream_status", f.id("session").map(Request::StreamStatus)),
            "stream_close" => ("stream_close", f.id("session").map(Request::StreamClose)),
            "tile_exec" => ("tile_exec", f.tile_exec()),
            "wire_upgrade" => {
                let version = json.get("version").and_then(Json::as_u64);
                let version = version.unwrap_or(u64::from(WIRE_VERSION));
                ("wire_upgrade", Ok(Request::WireUpgrade(version)))
            }
            "shutdown" => {
                let drain = json.get("drain").and_then(Json::as_bool).unwrap_or(true);
                ("shutdown", Ok(Request::Shutdown { drain }))
            }
            other => return ("other", Err(format!("unknown op '{other}'"))),
        };
        let request = request.and_then(|request| match f.chunks.len() {
            0 => Ok(request),
            _ => Err("frame carries more chunks than declared".into()),
        });
        (label, request)
    }
}

/// A request's fields and the frame chunks not yet claimed by a count.
struct Fields<'a> {
    json: &'a Json,
    chunks: std::vec::IntoIter<Chunk>,
}

impl Fields<'_> {
    fn id(&self, key: &str) -> Result<u64, String> {
        self.json
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing numeric '{key}'"))
    }

    fn job(&self) -> Result<JobSpec, String> {
        parse_job_spec(self.json.get("job").ok_or("missing 'job'")?)
    }

    /// `timeout_seconds`, default 60, clamped to an hour.
    fn timeout(&self) -> Duration {
        let seconds = self.json.get("timeout_seconds").and_then(Json::as_f64);
        let seconds = seconds.unwrap_or(60.0).clamp(0.0, 3600.0);
        Duration::try_from_secs_f64(seconds).unwrap_or(Duration::ZERO)
    }

    fn stream_open(&mut self) -> Result<Request, String> {
        let m = match self.json.get("m").and_then(Json::as_u64) {
            Some(m) if m >= 2 => m as usize,
            _ => return Err("missing 'm' (>= 2)".into()),
        };
        let mode = mode(self.json)?;
        let reference = self.equal_series("reference")?;
        Ok(Request::StreamOpen {
            config: MdmpConfig::new(m, mode),
            reference: reference.ok_or("missing 'reference'")?,
            query: self.equal_series("query")?,
        })
    }

    fn stream_append(&mut self) -> Result<Request, String> {
        let session = self.id("session")?;
        let side = match self.json.get("side").and_then(Json::as_str) {
            Some(s) => s.parse::<AppendSide>()?,
            None => AppendSide::Query,
        };
        // Ragged samples are the session layer's typed error to report.
        let samples = self.series("samples")?.ok_or("missing 'samples'")?;
        Ok(Request::StreamAppend {
            session,
            side,
            samples,
        })
    }

    fn tile_exec(&self) -> Result<Request, String> {
        let spec = self.job()?;
        let tiles = self
            .json
            .get("tiles")
            .and_then(Json::as_arr)
            .ok_or("missing 'tiles' array")?;
        if tiles.is_empty() {
            return Err("'tiles' must name at least one tile".into());
        }
        let tiles = tiles
            .iter()
            .map(|t| t.as_u64().map(|i| i as usize))
            .collect::<Option<Vec<usize>>>()
            .ok_or("tile indices must be non-negative integers")?;
        Ok(Request::TileExec(spec, tiles))
    }

    /// The series `name` as per-dimension sample slices, from its
    /// `<name>_chunks` count if present, else inline; `None` if neither.
    fn series(&mut self, name: &str) -> Result<Option<Vec<Vec<f64>>>, String> {
        let dims = if let Some(count) = self.json.get(&format!("{name}_chunks")) {
            self.take_chunks(count)
        } else if let Some(inline) = self.json.get(name) {
            inline_dims(inline)
        } else {
            return Ok(None);
        };
        match dims {
            Ok(dims) if dims.is_empty() => {
                Err(format!("{name}: series needs at least one dimension"))
            }
            Ok(dims) => Ok(Some(dims)),
            Err(e) => Err(format!("{name}: {e}")),
        }
    }

    /// [`Fields::series`] as a series, its raggedness a typed error
    /// (`MultiDimSeries::from_dims` asserts equal lengths).
    fn equal_series(&mut self, name: &str) -> Result<Option<MultiDimSeries>, String> {
        let Some(dims) = self.series(name)? else {
            return Ok(None);
        };
        let len = dims.first().map_or(0, Vec::len);
        if dims.iter().any(|d| d.len() != len) {
            return Err(format!("{name}: all dimensions must have the same length"));
        }
        Ok(Some(MultiDimSeries::from_dims(dims)))
    }

    /// Claim the next `count` chunks as float planes. The count is
    /// peer-controlled (any integer up to 2^53), so the chunks the frame
    /// actually carries bound it before anything is allocated.
    fn take_chunks(&mut self, count: &Json) -> Result<Vec<Vec<f64>>, String> {
        let count = count
            .as_u64()
            .ok_or("chunk count must be a non-negative integer")?;
        if count > self.chunks.len() as u64 {
            return Err("frame carries fewer chunks than declared".into());
        }
        (0..count)
            .map(|_| match self.chunks.next() {
                Some(Chunk::F64(dim)) => Ok(dim),
                _ => Err("expected float chunks".to_string()),
            })
            .collect()
    }
}

/// The optional `mode` field; FP64 when absent.
fn mode(json: &Json) -> Result<PrecisionMode, String> {
    match json.get("mode").and_then(Json::as_str) {
        Some(s) => s.parse::<PrecisionMode>(),
        None => Ok(PrecisionMode::Fp64),
    }
}

/// Per-dimension sample slices from an inline array of number arrays.
fn inline_dims(value: &Json) -> Result<Vec<Vec<f64>>, String> {
    let dims = value.as_arr().ok_or("series must be an array of arrays")?;
    dims.iter()
        .map(|dim| {
            let samples = dim.as_arr().ok_or("each dimension must be an array")?;
            samples
                .iter()
                .map(|s| {
                    s.as_f64()
                        .ok_or_else(|| "samples must be numbers".to_string())
                })
                .collect()
        })
        .collect()
}

/// Parse the wire form of a job spec.
///
/// ```json
/// {"input": {"kind": "synthetic", "n": 512, "d": 2, "pattern": 0,
///            "noise": 0.3, "seed": 7},
///  "m": 64, "mode": "fp16", "tiles": 4, "gpus": 1,
///  "priority": "normal", "max_retries": 1}
/// ```
///
/// A CSV input instead reads `{"kind": "csv", "reference": "...",
/// "query": "..."}` (omit `query` for a self-join).
///
/// Resilience fields (all optional): `fault_plan` is a fault-plan spec
/// string (e.g. `"seed=7,kernel@0,stall@3:40"`), `tile_retries` the
/// per-tile retry budget (default 2), `tile_deadline_ms` the per-kernel
/// deadline, `deadline_ms` the whole-job deadline.
pub fn parse_job_spec(job: &Json) -> Result<JobSpec, String> {
    let input = job.get("input").ok_or("missing 'input'")?;
    let kind = input
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing input 'kind'")?;
    let input = match kind {
        "synthetic" => JobInput::Synthetic {
            n: input
                .get("n")
                .and_then(Json::as_u64)
                .ok_or("synthetic input needs 'n'")? as usize,
            d: input.get("d").and_then(Json::as_u64).unwrap_or(1) as usize,
            pattern: input.get("pattern").and_then(Json::as_u64).unwrap_or(0) as usize,
            noise: input.get("noise").and_then(Json::as_f64).unwrap_or(0.3),
            seed: input.get("seed").and_then(Json::as_u64).unwrap_or(42),
        },
        "csv" => JobInput::Csv {
            reference: input
                .get("reference")
                .and_then(Json::as_str)
                .ok_or("csv input needs 'reference'")?
                .into(),
            query: input
                .get("query")
                .and_then(Json::as_str)
                .map(std::path::PathBuf::from),
        },
        other => return Err(format!("unknown input kind '{other}'")),
    };
    let mode = mode(job)?;
    let priority = match job.get("priority").and_then(Json::as_str) {
        Some(s) => s.parse::<Priority>()?,
        None => Priority::Normal,
    };
    let fault_plan = match job.get("fault_plan").and_then(Json::as_str) {
        Some(spec) => Some(Arc::new(
            spec.parse::<FaultPlan>()
                .map_err(|e| format!("fault_plan: {e}"))?,
        )),
        None => None,
    };
    Ok(JobSpec {
        input,
        m: job.get("m").and_then(Json::as_u64).ok_or("missing 'm'")? as usize,
        mode,
        tiles: job.get("tiles").and_then(Json::as_u64).unwrap_or(1) as usize,
        gpus: job.get("gpus").and_then(Json::as_u64).unwrap_or(1) as usize,
        priority,
        max_retries: job.get("max_retries").and_then(Json::as_u64).unwrap_or(0) as u32,
        fault_plan,
        tile_retries: job.get("tile_retries").and_then(Json::as_u64).unwrap_or(2) as u32,
        fused_rows: job.get("fused_rows").and_then(Json::as_bool),
        tc_chunk_k: job
            .get("tc_chunk_k")
            .and_then(Json::as_u64)
            .map(|k| k as usize),
        tile_deadline_ms: job.get("tile_deadline_ms").and_then(Json::as_u64),
        deadline_ms: job.get("deadline_ms").and_then(Json::as_u64),
    })
}

impl Message {
    /// Attach the series `name` to a request in the form
    /// `Request::decode` reads: on a binary connection a `<name>_chunks`
    /// count plus one float chunk per dimension, on JSON lines an inline
    /// array per dimension.
    pub fn with_series<'a>(
        mut self,
        name: &str,
        dims: impl IntoIterator<Item = &'a [f64]>,
        binary: bool,
    ) -> Message {
        let field = if binary {
            let before = self.chunks.len();
            let chunks = dims.into_iter().map(|dim| Chunk::F64(dim.to_vec()));
            self.chunks.extend(chunks);
            let count = self.chunks.len() - before;
            (format!("{name}_chunks"), Json::num(count as f64))
        } else {
            let arrays = dims
                .into_iter()
                .map(|dim| Json::Arr(dim.iter().map(|&v| Json::num(v)).collect()));
            (name.to_string(), Json::Arr(arrays.collect()))
        };
        if let Json::Obj(pairs) = &mut self.json {
            pairs.push(field);
        }
        self
    }
}

pub(crate) fn error_response(message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::str(message)),
    ])
}

pub(crate) fn ok_response(mut payload: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.append(&mut payload);
    Json::obj(pairs)
}

/// The `tile_exec` reply for an executed subset, as the server sends it
/// on either transport: one entry per tile with its identity (`tile`,
/// `col0`), shape (`n_query`, `dims`), both planes (k-major, the
/// [`mdmp_core::MatrixProfile::from_raw`] order), the modelled
/// `device_seconds` it cost and whether its precalculation was cached,
/// then the subset's resilience trailer. `binary` picks how the planes
/// ride; nothing else depends on the transport.
pub fn tile_exec_reply(run: &TileSubsetRun, binary: bool) -> Message {
    let mut chunks = Vec::with_capacity(if binary { run.results.len() * 2 } else { 0 });
    let mut tiles = Vec::with_capacity(run.results.len());
    for result in &run.results {
        let profile = &result.profile;
        let (mut values, mut indices) = (Vec::new(), Vec::new());
        mdmp_core::profile_planes_k_major(profile, &mut values, &mut indices);
        let [p, i] = plane_fields(values, indices, binary.then_some(&mut chunks));
        tiles.push(Json::obj(vec![
            ("tile", Json::num(result.tile.index as f64)),
            ("col0", Json::num(result.tile.col0 as f64)),
            ("n_query", Json::num(profile.n_query() as f64)),
            ("dims", Json::num(profile.dims() as f64)),
            p,
            i,
            ("device_seconds", Json::num(result.device_seconds)),
            ("precalc_hit", Json::Bool(result.precalc_cached)),
        ]));
    }
    let quarantined = run.quarantined_devices.iter();
    let json = ok_response(vec![
        ("tiles", Json::Arr(tiles)),
        ("precalc_hits", Json::num(run.precalc_hits as f64)),
        ("precalc_misses", Json::num(run.precalc_misses as f64)),
        ("tile_retries", Json::num(run.tile_retries as f64)),
        (
            "plane_validation_failures",
            Json::num(run.plane_validation_failures as f64),
        ),
        (
            "quarantined_devices",
            Json::Arr(quarantined.map(|&d| Json::num(d as f64)).collect()),
        ),
    ]);
    Message { json, chunks }
}

/// The one transport choice for a tile's planes: with `chunks` (binary
/// frames) they move into the frame and the entry names their indices;
/// without (JSON lines) they ride as hex bit patterns.
fn plane_fields(
    values: Vec<f64>,
    indices: Vec<i64>,
    chunks: Option<&mut Vec<Chunk>>,
) -> [(&'static str, Json); 2] {
    match chunks {
        Some(chunks) => {
            let at = chunks.len();
            chunks.push(Chunk::F64(values));
            chunks.push(Chunk::I64(indices));
            [
                ("p_chunk", Json::num(at as f64)),
                ("i_chunk", Json::num((at + 1) as f64)),
            ]
        }
        None => [
            ("p_hex", Json::str(encode_plane_hex(&values))),
            ("i_hex", Json::str(encode_index_plane_hex(&indices))),
        ],
    }
}

/// Read a `tile_exec` reply entry's value and index planes (`len`
/// elements each), the inverse of the reply's plane fields: chunk
/// references, each consuming its slot of the reply frame's `chunks`
/// (empty on a JSON line), or hex strings.
pub fn take_planes(
    entry: &Json,
    chunks: &mut [Option<Chunk>],
    len: usize,
) -> Result<(Vec<f64>, Vec<i64>), String> {
    let p = take_plane(entry, chunks, "p", len, Chunk::into_f64, decode_plane_hex)?;
    let i = take_plane(
        entry,
        chunks,
        "i",
        len,
        Chunk::into_i64,
        decode_index_plane_hex,
    )?;
    Ok((p, i))
}

fn take_plane<T>(
    entry: &Json,
    chunks: &mut [Option<Chunk>],
    name: &str,
    len: usize,
    from_chunk: fn(Chunk) -> Option<Vec<T>>,
    from_hex: fn(&str, usize) -> Result<Vec<T>, String>,
) -> Result<Vec<T>, String> {
    let plane = match entry.get(&format!("{name}_chunk")).and_then(Json::as_u64) {
        Some(at) => {
            let slot = usize::try_from(at)
                .ok()
                .and_then(|at| chunks.get_mut(at))
                .ok_or_else(|| format!("'{name}_chunk' points past the frame's chunks"))?;
            let chunk = slot
                .take()
                .ok_or_else(|| format!("'{name}_chunk' reuses an already-consumed chunk"))?;
            from_chunk(chunk).ok_or_else(|| format!("'{name}_chunk' names the wrong chunk kind"))?
        }
        None => {
            let hex = entry.get(&format!("{name}_hex")).and_then(Json::as_str);
            from_hex(
                hex.ok_or_else(|| format!("tile entry missing '{name}_chunk'/'{name}_hex'"))?,
                len,
            )?
        }
    };
    if plane.len() != len {
        return Err(format!(
            "'{name}' plane has {} elements, expected {len}",
            plane.len()
        ));
    }
    Ok(plane)
}

/// Encode a value plane as the concatenated hex `f64` bit patterns, 16
/// lowercase hex chars per element. JSON numbers cannot carry `+Inf` (the
/// profile's unset sentinel) or guarantee bit-exact round-trips, so the
/// JSON-lines `tile_exec` reply ships value planes through this encoding.
pub fn encode_plane_hex(plane: &[f64]) -> String {
    hex_cells(plane.iter().map(|v| v.to_bits()))
}

/// Decode a value plane produced by [`encode_plane_hex`], checking the
/// expected element count.
pub fn decode_plane_hex(hex: &str, len: usize) -> Result<Vec<f64>, String> {
    parse_hex_cells(hex, len, "plane", f64::from_bits)
}

/// Encode an index plane as concatenated hex `i64` bit patterns — the
/// same 16-char cell as [`encode_plane_hex`].
pub fn encode_index_plane_hex(plane: &[i64]) -> String {
    hex_cells(plane.iter().map(|&v| v as u64))
}

/// Decode an index plane produced by [`encode_index_plane_hex`], checking
/// the expected element count.
pub fn decode_index_plane_hex(hex: &str, len: usize) -> Result<Vec<i64>, String> {
    parse_hex_cells(hex, len, "index", |bits| bits as i64)
}

fn hex_cells(bits: impl ExactSizeIterator<Item = u64>) -> String {
    let mut out = String::with_capacity(bits.len() * 16);
    for b in bits {
        let _ = write!(out, "{b:016x}");
    }
    out
}

fn parse_hex_cells<T>(
    hex: &str,
    len: usize,
    what: &str,
    from_bits: fn(u64) -> T,
) -> Result<Vec<T>, String> {
    if len.checked_mul(16) != Some(hex.len()) {
        return Err(format!(
            "{what} hex length {} does not match {len} elements",
            hex.len()
        ));
    }
    hex.as_bytes()
        .chunks_exact(16)
        .map(|cell| {
            let s = std::str::from_utf8(cell).map_err(|_| format!("{what} hex is not ASCII"))?;
            let bits =
                u64::from_str_radix(s, 16).map_err(|_| format!("bad {what} hex chunk `{s}`"))?;
            Ok(from_bits(bits))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MAX_DEPTH;
    use crate::wire::{crc32, FrameCodec, MAX_FRAME_BYTES};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// The largest single allocation this thread asked for since the
        /// last reset.
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    }

    /// The system allocator, noting each request's size per thread so the
    /// fuzz test can bound what one decode allocates.
    struct NoteLargest;

    unsafe impl GlobalAlloc for NoteLargest {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: NoteLargest = NoteLargest;

    const OPS: [&str; 14] = [
        "ping",
        "submit",
        "status",
        "wait",
        "cancel",
        "stats",
        "metrics",
        "stream_open",
        "stream_append",
        "stream_status",
        "stream_close",
        "tile_exec",
        "wire_upgrade",
        "shutdown",
    ];

    fn op(name: &str, mut pairs: Vec<(&str, Json)>) -> Message {
        pairs.insert(0, ("op", Json::str(name)));
        Message::json(Json::obj(pairs))
    }

    /// A valid request for every op, bulk series both inline and chunked.
    fn valid_requests() -> Vec<Message> {
        let job = Json::obj(vec![
            (
                "input",
                Json::obj(vec![
                    ("kind", Json::str("synthetic")),
                    ("n", Json::num(96.0)),
                    ("d", Json::num(2.0)),
                ]),
            ),
            ("m", Json::num(8.0)),
            ("mode", Json::str("fp16")),
            ("tiles", Json::num(4.0)),
        ]);
        let id = || vec![("id", Json::num(3.0))];
        let session = || vec![("session", Json::num(1.0))];
        let dims = [vec![0.5, -1.0, 2.0, 0.25], vec![1.0, 1.5, -0.5, 3.0]];
        let series = || dims.iter().map(Vec::as_slice);
        let mut requests = vec![
            op("ping", vec![]),
            op("submit", vec![("job", job.clone())]),
            op("status", id()),
            op(
                "wait",
                vec![("id", Json::num(3.0)), ("timeout_seconds", Json::num(0.5))],
            ),
            op("cancel", id()),
            op("stats", vec![]),
            op("metrics", vec![]),
            op("stream_status", session()),
            op("stream_close", session()),
            op(
                "tile_exec",
                vec![
                    ("job", job),
                    ("tiles", Json::Arr(vec![Json::num(0.0), Json::num(3.0)])),
                ],
            ),
            op("wire_upgrade", vec![("version", Json::num(1.0))]),
            op("shutdown", vec![("drain", Json::Bool(false))]),
        ];
        for binary in [false, true] {
            let open = vec![("m", Json::num(2.0)), ("mode", Json::str("fp32"))];
            requests.push(
                op("stream_open", open)
                    .with_series("reference", series(), binary)
                    .with_series("query", series(), binary),
            );
            let append = vec![
                ("session", Json::num(1.0)),
                ("side", Json::str("reference")),
            ];
            requests.push(op("stream_append", append).with_series("samples", series(), binary));
        }
        requests
    }

    /// Values of the wrong type, fractional, negative or huge numbers
    /// (chunk counts up to and past 2^53), and nesting past the cap.
    fn hostile_values() -> Vec<Json> {
        let mut deep = Json::Null;
        for _ in 0..MAX_DEPTH + 8 {
            deep = Json::Arr(vec![deep]);
        }
        vec![
            Json::Null,
            Json::Bool(true),
            Json::str("x"),
            Json::num(-1.0),
            Json::num(0.5),
            Json::num(1e15),
            Json::num(2f64.powi(53)),
            Json::num(2f64.powi(53) + 2.0),
            Json::num(1e300),
            Json::Arr(vec![]),
            Json::Arr(vec![Json::num(1.0)]),
            Json::Arr(vec![Json::Arr(vec![Json::str("x")])]),
            Json::obj(vec![]),
            deep,
        ]
    }

    /// Every copy of `json` with one field, at any object depth, removed
    /// or replaced by a hostile value.
    fn mutants(json: &Json, hostile: &[Json], out: &mut Vec<Json>) {
        let Json::Obj(pairs) = json else { return };
        for (at, (_, value)) in pairs.iter().enumerate() {
            let mut without = pairs.clone();
            without.remove(at);
            out.push(Json::Obj(without));
            let mut inner: Vec<Json> = hostile.to_vec();
            mutants(value, hostile, &mut inner);
            for replacement in inner {
                let mut with = pairs.clone();
                with[at].1 = replacement;
                out.push(Json::Obj(with));
            }
        }
    }

    /// Recompute a frame's checksum after its payload was edited.
    fn reseal(frame: &mut [u8]) {
        let end = frame.len() - 4;
        let crc = crc32(&frame[8..end]);
        frame[end..].copy_from_slice(&crc.to_le_bytes());
    }

    /// The offset of each chunk's element-count field in a valid frame.
    fn chunk_count_offsets(frame: &[u8]) -> Vec<usize> {
        let u32_at = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
        let mut at = 12 + u32_at(8);
        let chunks = u16::from_le_bytes([frame[at], frame[at + 1]]);
        at += 2;
        (0..chunks)
            .map(|_| {
                let count_at = at + 1;
                at = count_at + 8 + u32_at(count_at + 4);
                count_at
            })
            .collect()
    }

    /// A frame around a raw envelope text (no chunks), for envelopes the
    /// encoder could not build.
    fn raw_frame(envelope: &str) -> Vec<u8> {
        let mut payload = (envelope.len() as u32).to_le_bytes().to_vec();
        payload.extend_from_slice(envelope.as_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        let mut frame = b"MW\x01\x01".to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame
    }

    /// Decode `bytes` as the connection loop does — a frame, or a JSON
    /// line — and check the properties: the label is in the fixed
    /// vocabulary, a failure carries a message, and no single allocation
    /// outgrows what the input's bytes back. (A panic fails the test.)
    /// Returns the decode, when the bytes parsed.
    fn check(bytes: &[u8], frame: bool) -> Option<(&'static str, Result<Request, String>)> {
        LARGEST.with(|largest| largest.set(0));
        let msg = if frame {
            match FrameCodec::new().read(&mut &bytes[..]) {
                Ok(Some((msg, _))) => Some(msg),
                _ => None,
            }
        } else {
            let text = std::str::from_utf8(bytes).ok();
            text.and_then(|t| Json::parse(t.trim()).ok())
                .map(Message::json)
        };
        let decoded = msg.map(Request::decode);
        let largest = LARGEST.with(Cell::get);
        assert!(
            largest <= 64 * bytes.len() + (1 << 16),
            "a {largest}-byte allocation decoding {} bytes",
            bytes.len()
        );
        if let Some((label, request)) = &decoded {
            assert!(
                OPS.contains(label) || ["other", "invalid"].contains(label),
                "{label}"
            );
            if let Err(e) = request {
                assert!(!e.is_empty(), "empty error for a {label} request");
            }
        }
        decoded
    }

    /// Both wire forms of `msg`: its frame, and its JSON line when it has
    /// no chunks.
    fn wire_forms(msg: &Message) -> Vec<(Vec<u8>, bool)> {
        let mut forms = vec![(FrameCodec::new().encode(msg, true).unwrap().to_vec(), true)];
        if msg.chunks.is_empty() {
            forms.push((format!("{}\n", msg.json).into_bytes(), false));
        }
        forms
    }

    #[test]
    fn every_op_decodes_on_both_transports() {
        let requests = valid_requests();
        for name in OPS {
            assert!(requests
                .iter()
                .any(|r| r.json.get("op") == Some(&Json::str(name))));
        }
        for msg in &requests {
            let name = msg.json.get("op").and_then(Json::as_str).unwrap();
            for (bytes, frame) in wire_forms(msg) {
                let (label, request) = check(&bytes, frame).unwrap();
                assert_eq!(label, name);
                assert!(request.is_ok(), "{name}: {:?}", request.err());
            }
        }
    }

    /// ROADMAP 5(d): a deterministic mutation fuzzer over the one decode.
    #[test]
    fn mutated_requests_get_typed_errors_never_panics_or_unbacked_allocations() {
        let hostile = hostile_values();
        let mut inputs = Vec::new();
        for msg in valid_requests() {
            inputs.extend(wire_forms(&msg));
            let mut jsons = Vec::new();
            mutants(&msg.json, &hostile, &mut jsons);
            for json in jsons {
                let chunks = msg.chunks.clone();
                inputs.extend(wire_forms(&Message { json, chunks }));
            }
            // Chunk-kind swaps, a missing chunk and an undeclared one.
            for at in 0..msg.chunks.len() {
                let mut swapped = msg.clone();
                swapped.chunks[at] = Chunk::I64(vec![1; msg.chunks[at].len()]);
                inputs.extend(wire_forms(&swapped));
            }
            let mut short = msg.clone();
            if short.chunks.pop().is_some() {
                inputs.extend(wire_forms(&short));
            }
            let mut long = msg.clone();
            long.chunks.push(Chunk::F64(vec![0.0; 4]));
            inputs.extend(wire_forms(&long));
        }
        // Byte-level flips of every valid form and of the kind-swapped
        // ones (so index chunks are flipped too). Half the flipped frames
        // are resealed, so the flip reaches the payload decoder instead of
        // failing the checksum.
        let mut seeds: Vec<(Vec<u8>, bool)> =
            valid_requests().iter().flat_map(wire_forms).collect();
        for msg in valid_requests() {
            let chunks = msg
                .chunks
                .iter()
                .map(|c| Chunk::I64(vec![-1; c.len()]))
                .collect();
            seeds.extend(wire_forms(&Message { chunks, ..msg }));
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for (bytes, frame) in seeds {
            for trial in 0..64 {
                let mut flipped = bytes.clone();
                for _ in 0..1 + trial % 4 {
                    let at = rand() % flipped.len();
                    flipped[at] ^= (rand() as u8) | 1;
                }
                if frame && trial % 2 == 1 && flipped.len() >= 12 {
                    reseal(&mut flipped);
                }
                inputs.push((flipped, frame));
            }
            if !frame {
                continue;
            }
            // Declared counts the frame does not back: each chunk's element
            // count, and the length prefix, pushed to their maxima.
            for count_at in chunk_count_offsets(&bytes) {
                let mut huge = bytes.clone();
                huge[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                reseal(&mut huge);
                inputs.push((huge, true));
            }
            let mut long = bytes.clone();
            long[4..8].copy_from_slice(&(MAX_FRAME_BYTES as u32).to_le_bytes());
            inputs.push((long, true));
        }
        // Nesting far past the cap, on both transports.
        let deep = format!(
            "{{\"op\":\"stream_open\",\"reference\":{}",
            "[".repeat(100_000)
        );
        inputs.push((raw_frame(&deep), true));
        inputs.push((deep.into_bytes(), false));

        let mut rejected = 0;
        for (bytes, frame) in &inputs {
            if let Some((_, Err(_))) | None = check(bytes, *frame) {
                rejected += 1;
            }
        }
        assert!(
            rejected > inputs.len() / 2,
            "{rejected} of {} rejected",
            inputs.len()
        );
    }

    #[test]
    fn declared_counts_are_bounded_by_the_frame() {
        for count in [2.0, 1e15, 2f64.powi(53)] {
            let msg = Message {
                chunks: vec![Chunk::F64(vec![1.0; 8])],
                ..op(
                    "stream_append",
                    vec![
                        ("session", Json::num(1.0)),
                        ("samples_chunks", Json::num(count)),
                    ],
                )
            };
            let (label, request) = Request::decode(msg);
            assert_eq!(label, "stream_append");
            let error = request.err().unwrap();
            assert!(error.contains("fewer chunks than declared"), "{error}");
        }
    }
}
