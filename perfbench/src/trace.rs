//! The traced run's span recorder.
//!
//! Spans are recorded here, in the benchmark, around each call into a
//! layer's public functions — the program itself is not instrumented.
//! They stay in memory and are written out once, as a Chrome
//! trace-event file (loadable in Perfetto or `chrome://tracing`), when
//! the run ends. Every span records its parent, so a layer's self time
//! is its duration minus the part its children cover. The recorder is
//! kept apart from `em_obs`, the program's own telemetry layer, so that
//! layer is measured from outside like the others.

use em_json::Json;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    tid: u64,
    start_us: f64,
    dur_us: f64,
}

/// An in-memory span log shared by every thread of the run.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<Vec<(u64, String)>>,
}

/// A started span; [`Tracer::end`] closes it.
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

impl Tracer {
    pub fn new() -> Tracer {
        let t = Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        };
        t.name_thread(0, "bench");
        t
    }

    /// Label the calling thread's timeline as `tid`.
    pub fn name_thread(&self, tid: u64, name: &str) {
        TID.with(|c| c.set(tid));
        self.threads
            .lock()
            .expect("trace thread table")
            .push((tid, name.to_string()));
    }

    /// Open a span under `parent` (0 for a root span).
    pub fn start(&self, name: &'static str, parent: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Close a span and return its duration in seconds.
    pub fn end(&self, open: Open) -> f64 {
        let dur = open.start.elapsed();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tid: TID.with(Cell::get),
            start_us: open.start.duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        };
        self.spans.lock().expect("trace span log").push(span);
        dur.as_secs_f64()
    }

    /// Time `f` as one span; returns its value and duration in seconds.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> (T, f64) {
        let open = self.start(name, parent);
        let value = f(open.id);
        (value, self.end(open))
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("trace span log").len()
    }

    /// The Chrome trace-event document (object form).
    pub fn to_chrome_json(&self) -> Json {
        let mut events = Vec::new();
        for (tid, name) in self.threads.lock().expect("trace thread table").iter() {
            events.push(Json::obj(vec![
                ("ph", Json::str("M")),
                ("name", Json::str("thread_name")),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(*tid as i64)),
                ("args", Json::obj(vec![("name", Json::str(name))])),
            ]));
        }
        for s in self.spans.lock().expect("trace span log").iter() {
            events.push(Json::obj(vec![
                ("ph", Json::str("X")),
                ("name", Json::str(s.name)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(s.tid as i64)),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.dur_us)),
                (
                    "args",
                    Json::obj(vec![
                        ("span_id", Json::Int(s.id as i64)),
                        ("parent", Json::Int(s.parent as i64)),
                    ]),
                ),
            ]));
        }
        Json::obj(vec![
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    pub fn write_chrome(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.to_chrome_json().compact())
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))
    }
}
