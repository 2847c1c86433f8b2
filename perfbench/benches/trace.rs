//! The benchmark's own span recorder.
//!
//! Spans wrap calls into the program's layers from the outside. Each
//! records its name, start, end and parent; they stay in memory until the
//! run ends, then leave as Chrome trace-event JSON that the program's own
//! `cordoba_obs::validate_chrome_trace` checks and
//! `cordoba_obs::profile_chrome_trace` folds into per-name self time.
//! When off, a span costs one branch: no clock read, no record.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that starts switched off.
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; spans already recorded stay.
    pub fn enable(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, the child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The spans as a Chrome trace-event array (`"ph":"X"`, microsecond
    /// `ts`/`dur` with nanosecond decimals, one thread track). Spans are
    /// created in start order and parents before children, which is the
    /// order the profiler replays nesting from.
    pub fn chrome_json(&self) -> String {
        let micros = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{}}}}}",
                s.name,
                micros(s.start_ns),
                micros(s.end_ns - s.start_ns),
                s.parent.map_or(-1, |p| p as i64),
            );
        }
        out.push_str("\n]\n");
        out
    }
}
