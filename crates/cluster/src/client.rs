//! One node's client half of the tile-lease protocol: a persistent TCP
//! connection to an `mdmp-service` worker, reconnected on demand. Each
//! connection negotiates the binary frame upgrade (DESIGN.md §15) and
//! falls back to JSON lines against old workers or under
//! `MDMP_WIRE=json`; tile result planes decode bit-exactly from either
//! transport — binary chunks, or the hex `f64`/`i64` encodings.

use mdmp_service::{
    take_planes, wire_preference, Chunk, Json, Message, WireConn, WireError, WirePreference,
};
use std::time::Duration;

/// One decoded tile result from a worker: the tile's identity in the
/// global tiling, its partial profile planes (k-major, bit-exact), and
/// the modelled device seconds it cost the node.
#[derive(Debug, Clone)]
pub struct DecodedTile {
    /// Tile index in the job's global tiling.
    pub tile: usize,
    /// First query column the tile covers.
    pub col0: usize,
    /// Query columns the tile covers.
    pub n_query: usize,
    /// Profile dimensions.
    pub dims: usize,
    /// Value plane, k-major (`dims * n_query` elements).
    pub p: Vec<f64>,
    /// Index plane, k-major.
    pub i: Vec<i64>,
    /// Modelled device seconds the tile cost the node.
    pub device_seconds: f64,
    /// Whether the worker served the precalculation from its cache.
    pub precalc_hit: bool,
}

/// Why a node request failed, as the coordinator's health ledger sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// Transport failure: connect refused, connection dropped, read
    /// timeout (deadline overrun), or an injected cluster fault.
    Io(String),
    /// The worker answered, but with an error (bad spec, exhausted tile
    /// retries) or a malformed reply.
    Remote(String),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Io(e) => write!(f, "io: {e}"),
            NodeError::Remote(e) => write!(f, "remote: {e}"),
        }
    }
}

/// A lazily (re)connected client for one worker node.
pub struct NodeClient {
    addr: String,
    timeout: Duration,
    prefer: WirePreference,
    conn: Option<WireConn>,
    killed: bool,
    bytes_sent: u64,
    bytes_received: u64,
    binary_wire: bool,
}

impl NodeClient {
    /// A client for the worker at `addr`; `timeout` bounds each reply
    /// read (a node that overruns it is treated as failed). The wire
    /// transport follows the process-wide [`wire_preference`].
    pub fn new(addr: &str, timeout: Duration) -> NodeClient {
        NodeClient::with_wire(addr, timeout, wire_preference())
    }

    /// A client with an explicit transport preference.
    pub fn with_wire(addr: &str, timeout: Duration, prefer: WirePreference) -> NodeClient {
        NodeClient {
            addr: addr.to_string(),
            timeout,
            prefer,
            conn: None,
            killed: false,
            bytes_sent: 0,
            bytes_received: 0,
            binary_wire: false,
        }
    }

    /// The node's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the most recent connection negotiated the binary frame
    /// upgrade.
    pub fn is_binary(&self) -> bool {
        self.binary_wire
    }

    /// Bytes this client has written to the node across all connections.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent + self.conn.as_ref().map_or(0, WireConn::bytes_sent)
    }

    /// Bytes this client has read from the node across all connections.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received + self.conn.as_ref().map_or(0, WireConn::bytes_received)
    }

    /// Mark the node as killed: the connection is severed and every later
    /// request fails as a crashed machine's would (injected
    /// [`mdmp_faults::NodeFaultKind::Kill`]).
    pub fn kill(&mut self) {
        self.killed = true;
        self.drop_conn();
    }

    /// Whether the node was killed.
    pub fn is_killed(&self) -> bool {
        self.killed
    }

    /// Sever the connection (it reconnects on the next request).
    pub fn disconnect(&mut self) {
        self.drop_conn();
    }

    /// Sever the connection, folding its byte counters into the client's
    /// running totals first so accounting survives reconnects.
    fn drop_conn(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.bytes_sent += conn.bytes_sent();
            self.bytes_received += conn.bytes_received();
        }
    }

    fn connect(&mut self) -> Result<&mut WireConn, NodeError> {
        if self.killed {
            return Err(NodeError::Io(format!("node {} is killed", self.addr)));
        }
        if self.conn.is_none() {
            let conn = WireConn::connect(&self.addr, Some(self.timeout), self.prefer)
                .map_err(|e| NodeError::Io(format!("connect {}: {e}", self.addr)))?;
            self.binary_wire = conn.is_binary();
            self.conn = Some(conn);
        }
        match self.conn.as_mut() {
            Some(conn) => Ok(conn),
            None => Err(NodeError::Io("connection unavailable".into())),
        }
    }

    /// Send one request and read one response on the negotiated
    /// transport. Any transport error severs the connection so the next
    /// request reconnects.
    pub fn request_msg(&mut self, request: &Message) -> Result<Message, NodeError> {
        let conn = self.connect()?;
        match conn.request(request) {
            Ok(reply) => Ok(reply),
            Err(WireError::Io(e)) => {
                self.drop_conn();
                Err(NodeError::Io(format!("request: {e}")))
            }
            Err(e @ (WireError::Desync(_) | WireError::Corrupt(_))) => {
                // The response stream is unreliable; resynchronize by
                // reconnecting.
                self.drop_conn();
                Err(NodeError::Remote(format!("bad response: {e}")))
            }
        }
    }

    /// Send one chunkless request and read one response.
    pub fn request(&mut self, request: &Json) -> Result<Json, NodeError> {
        self.request_msg(&Message::json(request.clone()))
            .map(|reply| reply.json)
    }

    /// Send a request, then sever the connection *without reading the
    /// reply* — the injected
    /// [`mdmp_faults::NodeFaultKind::DropConnection`] fault. The worker
    /// may still execute the tile; the coordinator re-dispatches it, and
    /// the merge's first-delivery-wins rule keeps the output exact.
    pub fn send_and_drop(&mut self, request: &Json) -> NodeError {
        if let Ok(conn) = self.connect() {
            let _ = conn.send(&Message::json(request.clone()));
        }
        self.drop_conn();
        NodeError::Io("injected connection drop".into())
    }

    /// Execute one tile on the node: a `tile_exec` request for exactly
    /// one tile of `job`, decoded to its result planes.
    pub fn exec_tile(&mut self, job: &Json, tile: usize) -> Result<DecodedTile, NodeError> {
        let request = Message::json(tile_exec_request(job, tile));
        let reply = self.request_msg(&request)?;
        if reply.json.get("ok").and_then(Json::as_bool) != Some(true) {
            let message = reply
                .json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("worker error without message");
            return Err(NodeError::Remote(message.to_string()));
        }
        let mut chunks: Vec<Option<Chunk>> = reply.chunks.into_iter().map(Some).collect();
        let tiles = reply
            .json
            .get("tiles")
            .and_then(Json::as_arr)
            .ok_or_else(|| NodeError::Remote("reply missing 'tiles'".into()))?;
        let entry = tiles
            .first()
            .ok_or_else(|| NodeError::Remote("reply carries no tile".into()))?;
        let decoded = decode_tile(entry, &mut chunks).map_err(NodeError::Remote)?;
        if decoded.tile != tile {
            return Err(NodeError::Remote(format!(
                "asked for tile {tile}, worker answered tile {}",
                decoded.tile
            )));
        }
        Ok(decoded)
    }
}

/// The wire form of a one-tile lease execution request.
pub fn tile_exec_request(job: &Json, tile: usize) -> Json {
    Json::obj(vec![
        ("op", Json::str("tile_exec")),
        ("job", job.clone()),
        ("tiles", Json::Arr(vec![Json::num(tile as f64)])),
    ])
}

/// Decode one entry of a `tile_exec` reply's `tiles` array. `chunks` are
/// the reply frame's chunk slots (empty on a JSON-lines reply); the planes
/// are read through [`take_planes`], chunk references or hex strings.
pub fn decode_tile(entry: &Json, chunks: &mut [Option<Chunk>]) -> Result<DecodedTile, String> {
    let field = |name: &str| -> Result<u64, String> {
        entry
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("tile entry missing numeric '{name}'"))
    };
    let tile = field("tile")? as usize;
    let col0 = field("col0")? as usize;
    let n_query = field("n_query")? as usize;
    let dims = field("dims")? as usize;
    let len = n_query
        .checked_mul(dims)
        .ok_or_else(|| "tile plane size overflows".to_string())?;
    let (p, i) = take_planes(entry, chunks, len)?;
    let device_seconds = entry
        .get("device_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "tile entry missing 'device_seconds'".to_string())?;
    let precalc_hit = entry
        .get("precalc_hit")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    Ok(DecodedTile {
        tile,
        col0,
        n_query,
        dims,
        p,
        i,
        device_seconds,
        precalc_hit,
    })
}
