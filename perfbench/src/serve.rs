//! The `serve-mix` workload: the daemon (`em_service::Server`) on an
//! ephemeral loopback port with an in-memory store, driven over HTTP by
//! two closed-loop clients — each sends its next request only after the
//! previous one returned its result bytes.
//!
//! A round is one fresh daemon serving one seeded script of requests
//! per client. The scripts draw from a fixed pool of generated specs of
//! all four families at default `GenParams` size, split between
//! as-generated engines and `engine = "auto"`. Each client owns half
//! the pool and sends each of its variants twice, so half the requests
//! repeat an earlier one and every repeat finds the first answer in the
//! store. Every round does the same work; only the order changes.

use crate::jobs::{self, Phases};
use crate::trace::Tracer;
use autotune::TuneCache;
use em_json::Json;
use em_scenarios::gen::{generate, splitmix64, Family, GenParams, GenRng};
use em_scenarios::{run_batch, BatchOptions, EngineDecl, ScenarioSpec};
use em_service::server::{Server, ServerConfig};
use mwd_core::ThreadBudget;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests per round: short enough for about twelve rounds in a 25 s run,
/// whose median damps the host's round-to-round noise.
pub const SCRIPT_LEN: usize = 80;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Status poll interval while a job runs.
const POLL: Duration = Duration::from_millis(2);
/// A request still unanswered after this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// Generator seed stream of the variant pool.
const POOL_SEED: u64 = 0x5e7e_d317_ab1e_0001;

pub struct Mix {
    pub variants: Vec<ScenarioSpec>,
    seed: u64,
}

impl Mix {
    /// The variant pool, the same for every seed: with 40 variants,
    /// drawing them from the seed swung the round time by a quarter
    /// between seeds (grid size, structure and convergence periods all
    /// vary per draw), which no bound could tell from a regression. The
    /// seed draws the request orders instead ([`Mix::script`]).
    pub fn new(seed: u64) -> Result<Mix, String> {
        let n = SCRIPT_LEN / 2;
        // Pairs of variants share a family; odd ones run `auto`. The
        // as-generated ones follow the generator's own odds (half naive,
        // half MWD of which three quarters pin more than one thread)
        // stratified: exactly every third pins a multi-thread engine.
        let mut state = POOL_SEED;
        let mut variants = Vec::with_capacity(n);
        for v in 0..n {
            let family = Family::ALL[(v / 2) % Family::ALL.len()];
            let wide = v % 6 == 4;
            let spec = loop {
                let mut spec = generate(family, splitmix64(&mut state), &GenParams::default())?;
                if v % 2 == 1 {
                    spec.engine = EngineDecl::Auto { threads: 0 };
                    break spec;
                }
                if (spec.engine.threads() > 1) == wide {
                    break spec;
                }
            };
            variants.push(spec);
        }
        Ok(Mix { variants, seed })
    }

    /// The variants client `c` owns: one of each consecutive pair, in
    /// turn the as-generated and the `auto` one, so both clients get
    /// every family and both engine kinds. Owning disjoint halves makes
    /// a round's work independent of timing: no request coalesces with
    /// the other client's, and every repeat is a store hit.
    pub fn owned(&self, c: usize) -> Vec<usize> {
        (0..self.variants.len())
            .filter(|v| (v + v / 2) % CLIENTS == c)
            .collect()
    }

    /// Variant index of each request client `c` sends in round `round`,
    /// in send order: every owned variant exactly twice, its repeat at a
    /// later point. Each round of a run draws its own order from the
    /// seed; the order decides which tuning searches of the two clients
    /// meet at admission.
    pub fn script(&self, round: usize, c: usize) -> Vec<usize> {
        let salt = 0x5e7e_d317_ab1e_0000
            ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (c as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        let mut rng = GenRng::from_seed(self.seed ^ salt);
        let owned = self.owned(c);
        let mut script = Vec::with_capacity(2 * owned.len());
        let mut unrepeated: Vec<usize> = Vec::new();
        let mut next = owned.iter();
        let mut fresh = next.next();
        while script.len() < 2 * owned.len() {
            match fresh {
                Some(&v) if unrepeated.is_empty() || rng.chance(0.5) => {
                    script.push(v);
                    unrepeated.push(v);
                    fresh = next.next();
                }
                _ => {
                    let i = rng.range_usize(0, unrepeated.len() - 1);
                    script.push(unrepeated.swap_remove(i));
                }
            }
        }
        script
    }

    /// Whether admission must refuse variant `v` on a daemon granting
    /// `threads_per_job` threads per job.
    pub fn refused(&self, v: usize, threads_per_job: usize) -> bool {
        let spec = &self.variants[v];
        let demand = match spec.engine {
            EngineDecl::Auto { .. } => threads_per_job,
            other => other.threads(),
        };
        demand * spec.workers.max(1) > threads_per_job
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Queued and solved for this request.
    Fresh,
    /// Rode along on an identical in-flight job.
    Coalesced,
    /// Answered from the result store.
    Hit,
    /// Refused at admission (HTTP 400).
    Refused,
    Failed,
}

pub struct Sample {
    pub variant: usize,
    pub kind: Kind,
    /// `POST /jobs` round trip.
    pub admit_ms: f64,
    /// Submit to result bytes.
    pub total_ms: f64,
    /// `wait_secs` / `run_secs` of the job, from `GET /jobs/:id`.
    pub wait_secs: f64,
    pub run_secs: f64,
    pub key: String,
    pub payload: String,
    pub error: String,
}

pub struct Round {
    /// `Server::bind` until `/healthz` answers.
    pub bind_s: f64,
    /// First request sent to last result received.
    pub wall_s: f64,
    pub threads_per_job: usize,
    pub samples: Vec<Sample>,
}

struct Exchange {
    status: u16,
    body: String,
}

/// One HTTP/1.1 exchange on a fresh connection.
fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Exchange, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| format!("{method} {path}: non-UTF-8 reply"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated reply"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
    Ok(Exchange {
        status,
        body: body.to_string(),
    })
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Send one request and follow it to its result bytes.
fn drive(addr: &str, body: &[u8], variant: usize, tr: Option<&Tracer>) -> Sample {
    let span = tr.map(|t| t.start("request", 0));
    let parent = span.as_ref().map_or(0, |s| s.id());
    let t0 = Instant::now();
    let mut s = Sample {
        variant,
        kind: Kind::Failed,
        admit_ms: 0.0,
        total_ms: 0.0,
        wait_secs: 0.0,
        run_secs: 0.0,
        key: String::new(),
        payload: String::new(),
        error: String::new(),
    };
    let traced = |name: &'static str, method: &str, path: &str, body: &[u8]| match tr {
        Some(t) => t.time(name, parent, |_| http(addr, method, path, body)).0,
        None => http(addr, method, path, body),
    };
    let result = (|| -> Result<(), String> {
        let submit = traced("POST /jobs", "POST", "/jobs", body)?;
        s.admit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let doc = em_json::parse(&submit.body).unwrap_or(Json::Null);
        if submit.status == 400 {
            s.kind = Kind::Refused;
            s.error = field(&doc, "error").to_string();
            return Ok(());
        }
        s.key = field(&doc, "key").to_string();
        let result_path = match (submit.status, field(&doc, "status")) {
            (200, "cached") => {
                s.kind = Kind::Hit;
                field(&doc, "result").to_string()
            }
            (202, status @ ("queued" | "coalesced")) => {
                s.kind = if status == "queued" {
                    Kind::Fresh
                } else {
                    Kind::Coalesced
                };
                let job = field(&doc, "job").to_string();
                loop {
                    if t0.elapsed() > REQUEST_TIMEOUT {
                        return Err(format!("{job} unanswered after {REQUEST_TIMEOUT:?}"));
                    }
                    let poll = traced("GET /jobs/:id", "GET", &format!("/jobs/{job}"), b"")?;
                    let st = em_json::parse(&poll.body).unwrap_or(Json::Null);
                    match field(&st, "state") {
                        "done" => {
                            let secs = |k| st.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                            s.wait_secs = secs("wait_secs");
                            s.run_secs = secs("run_secs");
                            break;
                        }
                        "queued" | "running" => std::thread::sleep(POLL),
                        other => return Err(format!("{job} ended `{other}`: {}", poll.body)),
                    }
                }
                format!("/jobs/{job}/result")
            }
            (code, status) => return Err(format!("POST /jobs answered {code} `{status}`")),
        };
        let fetched = traced("GET result", "GET", &result_path, b"")?;
        if fetched.status != 200 {
            return Err(format!("GET {result_path} answered {}", fetched.status));
        }
        s.payload = fetched.body;
        Ok(())
    })();
    s.total_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = result {
        s.kind = Kind::Failed;
        s.error = e;
    }
    if let (Some(t), Some(open)) = (tr, span) {
        t.end(open);
    }
    s
}

/// One fresh daemon serving round `index`: [`CLIENTS`] clients, each
/// sending its own script.
pub fn round(mix: &Mix, index: usize, tr: Option<&Tracer>) -> Result<Round, String> {
    let scripts: Vec<Vec<usize>> = (0..CLIENTS).map(|c| mix.script(index, c)).collect();
    let bodies: Vec<Vec<u8>> = mix
        .variants
        .iter()
        .map(|s| s.to_toml_string().into_bytes())
        .collect();
    let t_bind = Instant::now();
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        quiet: true,
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr()?.to_string();
    let threads_per_job = server.scheduler().threads_per_job;
    let stop = server.stop_flag();
    let samples = Mutex::new(Vec::with_capacity(2 * mix.variants.len()));
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run());
        let result = (|| -> Result<Round, String> {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !http(&addr, "GET", "/healthz", b"").is_ok_and(|x| x.status == 200) {
                if Instant::now() > deadline {
                    return Err("daemon never answered /healthz".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let bind_s = t_bind.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let clients: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(c, script)| {
                    let (samples, bodies, addr) = (&samples, &bodies, &addr);
                    scope.spawn(move || {
                        if let Some(t) = tr {
                            t.name_thread(c as u64 + 1, &format!("client-{c}"));
                        }
                        for &v in script {
                            let s = drive(addr, &bodies[v], v, tr);
                            samples.lock().expect("sample log").push(s);
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join()
                    .map_err(|_| "a client thread panicked".to_string())?;
            }
            let wall_s = t0.elapsed().as_secs_f64();
            Ok(Round {
                bind_s,
                wall_s,
                threads_per_job,
                samples: std::mem::take(&mut *samples.lock().expect("sample log")),
            })
        })();
        stop.store(true, Ordering::SeqCst);
        let served = daemon
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?;
        served?;
        result
    })
}

/// The per-job thread share a default daemon grants: the host budget
/// split over `min(2, budget)` workers. Callers compare it with the
/// share the daemon reports after each round.
pub fn threads_per_job() -> usize {
    let budget = ThreadBudget::host().total().max(1);
    budget / budget.min(2)
}

/// A variant as the daemon runs it: an `auto` engine replaced by the
/// configuration resolved for `threads_per_job` threads on `cache`.
pub fn resolved(
    spec: &ScenarioSpec,
    cache: &mut TuneCache,
    threads_per_job: usize,
) -> Result<ScenarioSpec, String> {
    let mut spec = spec.clone();
    if let EngineDecl::Auto { threads } = spec.engine {
        let t = if threads == 0 {
            threads_per_job
        } else {
            threads
        };
        spec.engine = jobs::mwd_decl(jobs::resolve_auto(cache, &spec, t)?.config);
    }
    Ok(spec)
}

/// The daemon's set-up replayed from outside: for every admissible
/// variant, `validate`, `autotune::resolve` on a cache that starts cold
/// (as a fresh daemon's does) and `build_solver`.
pub fn setup_once(mix: &Mix, threads_per_job: usize) -> Result<f64, String> {
    let mut cache = TuneCache::in_memory();
    let mut total = 0.0;
    for (v, spec) in mix.variants.iter().enumerate() {
        if !mix.refused(v, threads_per_job) {
            total += jobs::setup_once(spec, &mut cache, threads_per_job)?;
        }
    }
    Ok(total)
}

/// What a direct `run_batch` of the resolved variant produces, as the
/// daemon's artifact bytes under `key`, plus its lattice-site updates.
pub fn direct(spec: &ScenarioSpec, threads: usize, key: &str) -> Result<(String, f64), String> {
    let opts = BatchOptions {
        workers: 1,
        threads: Some(threads),
        budget: ThreadBudget::new(threads),
        quiet: true,
        ..Default::default()
    };
    let outcomes = run_batch(std::slice::from_ref(spec), &opts)?.outcomes;
    let bytes = em_service::scheduler::artifact_bytes(key, &outcomes);
    let text = String::from_utf8(bytes).map_err(|_| "non-UTF-8 artifact".to_string())?;
    Ok((text, jobs::lups(spec, &outcomes)))
}

/// The traced replay of every admissible variant's job, as artifact
/// bytes under the key the daemon reported for it.
pub fn replay(
    mix: &Mix,
    threads_per_job: usize,
    keys: &[(usize, String)],
    tr: &Tracer,
    ph: &mut Phases,
) -> Result<Vec<(usize, String)>, String> {
    let mut cache = TuneCache::in_memory();
    let mut out = Vec::new();
    for (v, key) in keys {
        let spec = &mix.variants[*v];
        let (spec, secs) = tr.time("autotune::resolve", 0, |_| {
            resolved(spec, &mut cache, threads_per_job)
        });
        ph.tune_s += secs;
        let spec = spec?;
        let outcomes = jobs::replay(&spec, threads_per_job, None, tr, 0, ph)?;
        let bytes = em_service::scheduler::artifact_bytes(key, &outcomes);
        out.push((
            *v,
            String::from_utf8(bytes).map_err(|_| "non-UTF-8 artifact".to_string())?,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_client_sends_its_own_half_of_the_pool_twice() {
        let mix = Mix::new(7).expect("variant pool");
        let mut sent = vec![0; mix.variants.len()];
        for c in 0..CLIENTS {
            let owned = mix.owned(c);
            assert_eq!(owned.len(), mix.variants.len() / CLIENTS);
            for v in mix.script(3, c) {
                assert!(
                    owned.contains(&v),
                    "client {c} sent variant {v} it does not own"
                );
                sent[v] += 1;
            }
        }
        assert!(sent.iter().all(|&n| n == 2), "{sent:?}");
    }
}
