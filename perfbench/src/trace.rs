//! In-memory span recorder for the traced run, written out as Chrome
//! trace-event JSON (load it in `chrome://tracing` or Perfetto).
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions; nothing inside the program is instrumented. Each span
//! carries its layer (the trace-event category), a lane (one per client
//! thread, host worker or cluster node) and the identifier of the job it
//! belongs to, so all spans of one job can be selected together.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    layer: &'static str,
    name: &'static str,
    lane: u32,
    job: u64,
    start_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    lanes: Mutex<BTreeMap<u32, String>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            lanes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Name a lane (a trace-event thread).
    pub fn lane(&self, lane: u32, name: &str) {
        if self.enabled {
            self.lanes
                .lock()
                .expect("trace lane table poisoned")
                .insert(lane, name.to_string());
        }
    }

    /// Record one finished span; a no-op when tracing is off.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        lane: u32,
        job: u64,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, f64)>,
    ) {
        if !self.enabled {
            return;
        }
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.spans
            .lock()
            .expect("trace span buffer poisoned")
            .push(Span {
                layer,
                name,
                lane,
                job,
                start_us,
                dur_us,
                args,
            });
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("trace span buffer poisoned").len()
    }

    /// Write every span as Chrome trace-event JSON (`ph: "X"` complete
    /// events plus `thread_name` metadata for the lanes).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("trace span buffer poisoned");
        let lanes = self.lanes.lock().expect("trace lane table poisoned");
        let mut out = String::with_capacity(128 * (spans.len() + lanes.len()) + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (lane, name) in lanes.iter() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\"{}\"}}}}",
                name.replace('"', "'")
            );
        }
        for s in spans.iter() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"job\":{}",
                s.name, s.layer, s.lane, s.start_us, s.dur_us, s.job
            );
            for (k, v) in &s.args {
                if v.is_finite() {
                    let _ = write!(out, ",\"{k}\":{v}");
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
