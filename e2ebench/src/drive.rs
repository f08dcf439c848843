//! The closed-loop HTTP load generator: one keep-alive connection and one client
//! thread per worker, each sending its next request only after the
//! previous one answered, for a fixed wall-clock window.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lcdd_server::json::{self, Json};
use lcdd_testkit::load::{HttpClient, HttpResponse};

/// What a request does; writes carry the table id they touch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Search,
    Insert(u64),
    Remove(u64),
}

/// One request to send.
pub struct Op {
    pub kind: Kind,
    pub body: String,
}

impl Op {
    pub fn path(&self) -> &'static str {
        match self.kind {
            Kind::Search => "/search",
            Kind::Insert(_) => "/insert",
            Kind::Remove(_) => "/remove",
        }
    }
}

/// Per-connection traffic state that persists across measured slices, so
/// unique-query streams stay unique and churn bookkeeping stays whole.
pub struct Worker {
    pub id: usize,
    /// Requests this worker has generated.
    pub n: u64,
    pub rng: u64,
    /// Writes alternate insert/remove; true when the next is an insert.
    pub insert_next: bool,
    /// Ids this worker may remove, oldest first (acknowledged present).
    pub live: VecDeque<u64>,
    /// Next fresh id this worker inserts.
    pub next_id: u64,
    pub acked_inserts: Vec<u64>,
    pub acked_removes: Vec<u64>,
    /// Acknowledged removes that reported removing nothing.
    pub empty_removes: u64,
}

impl Worker {
    pub fn new(id: usize, seed: u64) -> Worker {
        Worker {
            id,
            n: 0,
            rng: splitmix(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1,
            insert_next: true,
            live: VecDeque::new(),
            next_id: 0,
            acked_inserts: Vec::new(),
            acked_removes: Vec::new(),
            empty_removes: 0,
        }
    }

    /// Next value of this worker's xorshift stream.
    pub fn rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.rand() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn acknowledge(&mut self, kind: Kind, resp: &HttpResponse) {
        match kind {
            Kind::Search => {}
            Kind::Insert(id) => {
                self.live.push_back(id);
                self.acked_inserts.push(id);
            }
            Kind::Remove(id) => {
                if self.live.front() == Some(&id) {
                    self.live.pop_front();
                }
                self.acked_removes.push(id);
                if resp.json_u64("removed") != Some(1) {
                    self.empty_removes += 1;
                }
            }
        }
    }
}

/// One splitmix64 step over `x` (seed mixing).
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wire provenance of one answered search (all times in microseconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct WireSearch {
    pub client_us: f64,
    pub cached: bool,
    pub extract_us: f64,
    pub encode_us: f64,
    pub prune_us: f64,
    pub score_us: f64,
    pub total_us: f64,
    pub quant_scanned: f64,
    pub reranked: f64,
}

impl WireSearch {
    fn parse(client_us: f64, body: &str) -> Option<WireSearch> {
        let doc = json::parse(body).ok()?;
        let t = doc.get("timings_us")?;
        let c = doc.get("counts")?;
        let us = |f: &str| t.get(f).and_then(Json::as_f64);
        // `null` counts mean the stage did not run: zero work.
        let count = |f: &str| c.get(f).and_then(Json::as_f64).unwrap_or(0.0);
        Some(WireSearch {
            client_us,
            cached: doc.get("cached")?.as_bool()?,
            extract_us: us("extract")?,
            encode_us: us("encode")?,
            prune_us: us("prune")?,
            score_us: us("score")?,
            total_us: us("total")?,
            quant_scanned: count("quant_scanned"),
            reranked: count("reranked"),
        })
    }

    /// Engine time this request actually spent: a cached answer carries
    /// the timings of the computation that filled the cache, not its own.
    pub fn engine_us(&self) -> f64 {
        if self.cached {
            0.0
        } else {
            self.total_us
        }
    }

    /// Sum of the broken-out engine stages this request spent.
    pub fn stages_us(&self) -> f64 {
        if self.cached {
            0.0
        } else {
            self.extract_us + self.encode_us + self.prune_us + self.score_us
        }
    }

    /// Gateway time outside the engine.
    pub fn self_us(&self) -> f64 {
        self.client_us - self.engine_us()
    }
}

/// Outcome of one measured slice.
#[derive(Default)]
pub struct Slice {
    pub elapsed_s: f64,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub search_us: Vec<f64>,
    pub write_us: Vec<f64>,
    /// Completion time of each answered search / write, in seconds from
    /// the slice start (parallel to `search_us` / `write_us`).
    pub search_at: Vec<f64>,
    pub write_at: Vec<f64>,
    /// Filled only when the slice parses wire provenance.
    pub wire: Vec<WireSearch>,
    pub bad_wire: u64,
}

impl Slice {
    pub fn absorb(&mut self, other: Slice) {
        self.elapsed_s += other.elapsed_s;
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.search_us.extend(other.search_us);
        self.write_us.extend(other.write_us);
        self.search_at.extend(other.search_at);
        self.write_at.extend(other.write_at);
        self.wire.extend(other.wire);
        self.bad_wire += other.bad_wire;
    }
}

/// Drives `workers.len()` concurrent closed-loop connections at `addr`
/// for `window`, each generating requests with `next`. Acknowledged
/// writes update the worker's churn bookkeeping. With `parse_wire`, each
/// answered search's timings and counts are kept.
pub fn drive(
    addr: SocketAddr,
    workers: &mut [Worker],
    window: Duration,
    next: &(dyn Fn(&mut Worker) -> Op + Sync),
    parse_wire: bool,
) -> Slice {
    let barrier = Barrier::new(workers.len());
    let parts: Vec<(Slice, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                let barrier = &barrier;
                scope.spawn(move || run_worker(addr, w, window, next, parse_wire, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = parts
        .iter()
        .map(|p| p.1)
        .min()
        .expect("at least one worker");
    let end = parts
        .iter()
        .map(|p| p.2)
        .max()
        .expect("at least one worker");
    let mut total = Slice::default();
    for (part, _, _) in parts {
        total.absorb(part);
    }
    total.elapsed_s = (end - start).as_secs_f64();
    total
}

fn run_worker(
    addr: SocketAddr,
    w: &mut Worker,
    window: Duration,
    next: &(dyn Fn(&mut Worker) -> Op + Sync),
    parse_wire: bool,
    barrier: &Barrier,
) -> (Slice, Instant, Instant) {
    let mut out = Slice::default();
    let mut client = HttpClient::connect(addr).expect("connect to gateway");
    barrier.wait();
    let start = Instant::now();
    let until = start + window;
    while Instant::now() < until {
        let op = next(w);
        out.attempted += 1;
        let t0 = Instant::now();
        let resp = client.request("POST", op.path(), &[], &op.body);
        let done = Instant::now();
        let us = (done - t0).as_secs_f64() * 1e6;
        let at = (done - start).as_secs_f64();
        match resp {
            Ok(resp) if resp.status == 200 => {
                out.ok += 1;
                if op.kind == Kind::Search {
                    out.search_us.push(us);
                    out.search_at.push(at);
                    if parse_wire {
                        match WireSearch::parse(us, &resp.body) {
                            Some(ws) => out.wire.push(ws),
                            None => out.bad_wire += 1,
                        }
                    }
                } else {
                    out.write_us.push(us);
                    out.write_at.push(at);
                }
                w.acknowledge(op.kind, &resp);
            }
            Ok(resp) => {
                out.failed += 1;
                eprintln!(
                    "[e2ebench] {} answered {}: {}",
                    op.path(),
                    resp.status,
                    resp.body
                );
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("[e2ebench] {} failed: {e}", op.path());
                client = HttpClient::connect(addr).expect("reconnect to gateway");
            }
        }
    }
    (out, start, Instant::now())
}

/// Ranked hits as `(table_id, score bits)`.
pub type Hits = Vec<(u64, u32)>;

/// Sends `body` to `/search` on a fresh connection and returns the hits
/// as `(table_id, score bits)`; `None` when the gateway did not answer
/// 200 with a well-formed hit list.
pub fn gateway_hits(addr: SocketAddr, body: &str) -> Option<Hits> {
    let mut client = HttpClient::connect(addr).ok()?;
    let resp = client.request("POST", "/search", &[], body).ok()?;
    if resp.status != 200 {
        return None;
    }
    let doc = json::parse(&resp.body).ok()?;
    doc.get("hits")?
        .as_arr()?
        .iter()
        .map(|h| {
            let id = h.get("table_id")?.as_u64()?;
            // The gateway prints the f32 score widened to f64 in shortest
            // round-trip form, so narrowing recovers the exact bits.
            let score = h.get("score")?.as_f64()? as f32;
            Some((id, score.to_bits()))
        })
        .collect()
}

/// `/search` body over one series with explicit options.
pub fn search_body(series: &[f64], k: usize, rerank: Option<usize>) -> String {
    let vals: Vec<String> = series.iter().map(|v| format!("{v}")).collect();
    let rerank = rerank.map_or(String::new(), |r| format!(",\"rerank\":{r}"));
    format!(
        "{{\"series\":[[{}]],\"k\":{k},\"strategy\":\"none\"{rerank}}}",
        vals.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = concat!(
        "{\"epoch\":3,\"strategy\":\"none\",\"cached\":false,\"hits\":[],",
        "\"counts\":{\"total\":96,\"after_interval\":null,\"after_lsh\":null,",
        "\"after_ann\":null,\"quant_scanned\":96,\"reranked\":10,\"scored\":10},",
        "\"timings_us\":{\"extract\":100,\"encode\":50,\"prune\":5,\"score\":300,",
        "\"total\":470},\"batch\":{\"id\":1,\"size\":1,\"unique\":1}}"
    );

    #[test]
    fn wire_provenance_splits_client_time() {
        let w = WireSearch::parse(600.0, BODY).expect("well-formed body");
        assert_eq!((w.quant_scanned, w.reranked), (96.0, 10.0));
        assert_eq!(w.engine_us(), 470.0);
        assert_eq!(w.stages_us(), 455.0);
        assert_eq!(w.self_us(), 130.0);
        // A cached answer carries the filling computation's timings; it
        // spent no engine time of its own.
        let cached = WireSearch::parse(80.0, &BODY.replace("\"cached\":false", "\"cached\":true"))
            .expect("well-formed body");
        assert_eq!(
            (cached.engine_us(), cached.stages_us(), cached.self_us()),
            (0.0, 0.0, 80.0)
        );
        assert!(WireSearch::parse(1.0, "{\"cached\":false}").is_none());
    }

    #[test]
    fn search_bodies_carry_the_options() {
        let body = search_body(&[0.5, -1.25], 10, Some(256));
        assert_eq!(
            body,
            "{\"series\":[[0.5,-1.25]],\"k\":10,\"strategy\":\"none\",\"rerank\":256}"
        );
        assert!(!search_body(&[1.0], 5, None).contains("rerank"));
    }
}
