//! End-to-end benchmark of the `lcdd-server` gateway with a per-layer
//! breakdown.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <hot-96|cold-100k|churn-96> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two processes per run. This one is the **load process**: it fabricates
//! on-disk inputs, re-execs itself as the **server process** (engine,
//! store and gateway; a fresh process starts the telemetry registry, the
//! frozen work-pool width and RSS clean), drives the gateway over real
//! HTTP from closed-loop keep-alive connections (`nproc` of them, one on
//! `churn-96`), and checks the outputs. The two talk over the server's
//! stdin/stdout: `slice <tracing> <measured>` starts a gateway and
//! answers `ready <addr>`, `end` drains it and answers `ended`, `finish`
//! makes the server report and exit.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off over one
//! window of `--seconds`.
//!
//! `--trace 1` is the traced run: the window is split into four slices,
//! untraced/traced/traced/untraced. The traced slices give the per-layer
//! numbers (wire stage timings and counts, the gateway's own
//! instruments, engine tier and cache counters, store registry
//! instruments); the untraced ones give the tracing overhead.
//!
//! Standard output carries one envelope line (host, revision, seed, every
//! metric with unit and sample count, every check) and, last, the result
//! line with the metrics `BENCHMARK.json` declares for the mode. Scratch
//! files go under `.e2ebench_work/` in the working directory and are
//! removed when the run ends.

mod drive;
mod metrics;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use lcdd_obs::registry::{global, Histogram, Instrument};
use lcdd_server::json::quote;
use lcdd_server::Server;

use drive::{drive, gateway_hits, Hits, Slice, WireSearch, Worker};
use metrics::{Report, END_TO_END, PER_LAYER};
use stats::{median, num, sorted};
use workloads::{stop, Live, Traffic};

/// Marks the re-exec'd server process.
const SERVER_ENV: &str = "E2EBENCH_SERVER";
/// The run's scratch directory, shared by both processes.
const WORK_ENV: &str = "E2EBENCH_WORK";
/// Where scratch directories live, relative to the working directory.
const WORK_ROOT: &str = ".e2ebench_work";
/// Stage accounting tolerance: engine stages plus gateway self time
/// should sum to client latency within this share.
const STAGE_SUM_TOL: f64 = 0.10;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Hot96,
    Cold100k,
    Churn96,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Hot96, Workload::Cold100k, Workload::Churn96];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot96 => "hot-96",
            Workload::Cold100k => "cold-100k",
            Workload::Churn96 => "churn-96",
        }
    }

    /// Closed-loop connections the load process drives. `churn-96` uses
    /// one: its searches serialize in the gateway's batcher, so a second
    /// connection only adds queueing whose length the scheduler decides,
    /// and that made its figures swing from run to run.
    fn connections(self) -> usize {
        match self {
            Workload::Churn96 => 1,
            Workload::Hot96 | Workload::Cold100k => nproc(),
        }
    }

    /// Set-up repetitions per run (`setup_s` is their median).
    fn setup_reps(self) -> usize {
        match self {
            Workload::Hot96 | Workload::Churn96 => 15,
            Workload::Cold100k => 5,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload <hot-96|cold-100k|churn-96> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let work = std::env::var_os(WORK_ENV).map(PathBuf::from);
    match work {
        Some(work) if std::env::var_os(SERVER_ENV).is_some() => {
            serve(&args, &work);
            ExitCode::SUCCESS
        }
        _ => {
            let scratch = Scratch::new();
            let (envelope, result) = load(&argv, &args, &scratch.0);
            println!("{envelope}");
            println!("{result}");
            ExitCode::SUCCESS
        }
    }
}

/// The run's scratch directory, removed on drop (also when a failed
/// check or a dead server process unwinds the load process).
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no concurrent run is using the root.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

// ---- server process ----------------------------------------------------

/// Engine-side counters read around a measured slice.
#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    slots_paged_in: u64,
    bytes_paged_in: u64,
    epoch: u64,
}

impl Counters {
    fn read(live: &Live) -> Counters {
        let cache = live.0.cache_stats();
        let tier = live.0.tier_stats();
        Counters {
            hits: cache.hits,
            misses: cache.misses,
            slots_paged_in: tier.slots_paged_in,
            bytes_paged_in: tier.bytes_paged_in,
            epoch: live.0.epoch(),
        }
    }

    fn add_delta(&mut self, before: &Counters, after: &Counters) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.slots_paged_in += after.slots_paged_in - before.slots_paged_in;
        self.bytes_paged_in += after.bytes_paged_in - before.bytes_paged_in;
        self.epoch += after.epoch - before.epoch;
    }
}

/// The gateway's own instruments, summed over traced slices.
#[derive(Default)]
struct GatewayTotals {
    searches: u64,
    /// Σ per-slice queue-wait p50 (ns) × samples, and Σ samples.
    queue_wait_weighted_ns: f64,
    queue_wait_samples: u64,
    batches: u64,
    batched: u64,
    deduped: u64,
}

impl GatewayTotals {
    fn add(&mut self, server: &Server) {
        let m = server.metrics();
        let n = m.queue_wait.count();
        self.searches += m.search.get();
        self.queue_wait_weighted_ns += m.queue_wait.percentile(0.5) as f64 * n as f64;
        self.queue_wait_samples += n;
        self.batches += m.batches.get();
        self.batched += m.batched_requests.get();
        self.deduped += m.deduped_requests.get();
    }
}

fn registry_histogram(name: &str) -> Option<std::sync::Arc<Histogram>> {
    global()
        .snapshot()
        .into_iter()
        .find_map(|(n, _, i)| match i {
            Instrument::Histogram(h) if n == name => Some(h),
            _ => None,
        })
}

fn registry_counter(name: &str) -> u64 {
    global()
        .snapshot()
        .into_iter()
        .find_map(|(n, _, i)| match i {
            Instrument::Counter(c) if n == name => Some(c.get()),
            _ => None,
        })
        .unwrap_or(0)
}

fn histogram_count(name: &str) -> u64 {
    registry_histogram(name).map_or(0, |h| h.count())
}

/// Resident set size in MiB, from `/proc/self/statm` (0 where absent).
fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0.0, |pages| (pages * 4096) as f64 / (1024.0 * 1024.0))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The server process: builds the stack, then serves gateways on command
/// and finally reports its measurements on stdout.
fn serve(args: &Args, work: &Path) {
    let pool_threads = lcdd_tensor::pool::resolve_threads();
    let mut report = Report::default();
    let stack = workloads::prepare(
        args.workload,
        args.seed,
        args.workload.setup_reps(),
        work,
        &mut report,
    );
    let live = &stack.live;
    report.put(
        "setup_s",
        "s",
        median(&stack.setup_s),
        stack.setup_s.len() as u64,
    );
    eprintln!(
        "[e2ebench] {} setup_s {:?}",
        args.workload.name(),
        stack.setup_s
    );

    // Store instruments must hold nothing from set-up or warm-up, so that
    // their percentiles cover the measured window only.
    let checkpoints_before = registry_counter("lcdd_store_checkpoints_total");
    let clean = ["lcdd_store_wal_append_ns", "lcdd_store_wal_fsync_ns"]
        .iter()
        .all(|h| histogram_count(h) == 0)
        && histogram_count("lcdd_store_checkpoint_duration_ms") == 0;

    let mut traced = Counters::default();
    let mut gateway = GatewayTotals::default();
    let mut current: Option<(Server, bool, bool, Counters)> = None;
    let mut rss = 0.0;
    let mut wal_tail = 0;
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("read a command from the load process");
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["slice", tracing, measured] => {
                let before = Counters::read(live);
                let server = live.start(*tracing == "1");
                println!("ready {}", server.addr());
                current = Some((server, *tracing == "1", *measured == "1", before));
            }
            ["end"] => {
                let (server, tracing, measured, before) =
                    current.take().expect("end without a running gateway");
                if measured {
                    rss = rss_mib();
                    wal_tail = live
                        .0
                        .wal_len()
                        .map_or(0, |l| l.saturating_sub(lcdd_store::WAL_HEADER_LEN));
                    if tracing {
                        gateway.add(&server);
                    }
                }
                stop(server, &mut report);
                if measured && tracing {
                    traced.add_delta(&before, &Counters::read(live));
                }
                println!("ended");
            }
            ["finish"] => break,
            _ => panic!("unknown command '{line}'"),
        }
    }

    report.put("rss_mb", "MiB", rss, 1);
    report.put("store.wal_tail_bytes", "B", wal_tail as f64, 1);
    report.put("pool_threads", "count", pool_threads as f64, 1);
    if args.trace {
        report.put(
            "server.queue_wait_us.p50",
            "us",
            if gateway.queue_wait_samples > 0 {
                gateway.queue_wait_weighted_ns / gateway.queue_wait_samples as f64 / 1e3
            } else {
                0.0
            },
            gateway.queue_wait_samples,
        );
        report.put(
            "server.batch_mean",
            "count",
            ratio(gateway.batched, gateway.batches),
            gateway.batches,
        );
        report.put(
            "server.dedup_share",
            "ratio",
            ratio(gateway.deduped, gateway.batched),
            gateway.batched,
        );
        let lookups = traced.hits + traced.misses;
        report.put(
            "engine.cache_hit_ratio",
            "ratio",
            ratio(traced.hits, lookups),
            lookups,
        );
        report.put(
            "engine.slots_paged_in_per_search",
            "count",
            ratio(traced.slots_paged_in, gateway.searches),
            gateway.searches,
        );
        report.put(
            "engine.bytes_paged_in_per_search",
            "B",
            ratio(traced.bytes_paged_in, gateway.searches),
            gateway.searches,
        );
        report.put(
            "engine.resident_bytes",
            "B",
            live.0.tier_stats().resident_bytes as f64,
            1,
        );
        report.put("engine.epochs_published", "count", traced.epoch as f64, 1);
        report.put(
            "store.open_s",
            "s",
            median(&stack.open_s),
            stack.open_s.len() as u64,
        );
        // Store instruments over the whole window: tracing does not touch
        // the store, so the untraced slices count too.
        for (metric, hist) in [
            ("store.wal_append_us", "lcdd_store_wal_append_ns"),
            ("store.wal_fsync_us", "lcdd_store_wal_fsync_ns"),
        ] {
            let h = registry_histogram(hist);
            for (q, suffix) in [(0.50, "p50"), (0.99, "p99")] {
                let (value, n) = h
                    .as_ref()
                    .map_or((0.0, 0), |h| (h.percentile(q) as f64 / 1e3, h.count()));
                report.put_quantile(&format!("{metric}.{suffix}"), "us", value, n, q);
            }
        }
        report.put(
            "store.checkpoints",
            "count",
            (registry_counter("lcdd_store_checkpoints_total") - checkpoints_before) as f64,
            1,
        );
        let (max, n) = registry_histogram("lcdd_store_checkpoint_duration_ms")
            .map_or((0.0, 0), |h| (h.max() as f64, h.count()));
        report.put("store.checkpoint_ms.max", "ms", max, n);
    }
    report.put("store.window_only", "count", f64::from(u8::from(clean)), 1);
    report.check(
        "drain_answered_every_search",
        report.undrained == 0,
        format!(
            "{} of {} gateways lost admitted searches (jobs_enqueued != jobs_answered)",
            report.undrained, report.servers
        ),
    );
    for line in report.to_lines() {
        println!("{line}");
    }
    println!("done");
}

// ---- load process --------------------------------------------------------

/// The running server process and its command channel.
struct ServerProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    fn spawn(argv: &[String], work: &Path) -> ServerProc {
        let mut child = Command::new(std::env::current_exe().expect("current_exe"))
            .args(argv)
            .env(SERVER_ENV, "1")
            .env(WORK_ENV, work)
            .env("LCDD_THREADS", nproc().to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("start the server process");
        let stdin = child.stdin.take().expect("server stdin");
        let stdout = BufReader::new(child.stdout.take().expect("server stdout"));
        ServerProc {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, command: &str) {
        writeln!(self.stdin, "{command}").expect("send a command to the server process");
        self.stdin.flush().expect("flush the command");
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .expect("read from the server process");
        assert!(n > 0, "the server process exited early");
        line.trim_end().to_string()
    }

    /// Starts a gateway; returns its address.
    fn slice(&mut self, tracing: bool, measured: bool) -> std::net::SocketAddr {
        self.send(&format!(
            "slice {} {}",
            u8::from(tracing),
            u8::from(measured)
        ));
        let line = self.line();
        line.strip_prefix("ready ")
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unexpected server reply '{line}'"))
    }

    fn end(&mut self) {
        self.send("end");
        let line = self.line();
        assert_eq!(line, "ended", "unexpected server reply");
    }

    /// Stops the server process and merges its report into `report`.
    fn finish(mut self, report: &mut Report) {
        self.send("finish");
        loop {
            let line = self.line();
            if line == "done" {
                break;
            }
            assert!(report.merge_line(&line), "unexpected server line '{line}'");
        }
        let status = self.child.wait().expect("wait for the server process");
        assert!(status.success(), "server process failed: {status}");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Normally already reaped by `finish`; on a failed run this makes
        // sure no server process outlives the benchmark.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs one workload end to end; returns the envelope and result lines.
fn load(argv: &[String], args: &Args, work: &Path) -> (String, String) {
    workloads::fabricate(args.workload, work);
    let mut server = ServerProc::spawn(argv, work);
    let connections = args.workload.connections();
    let (traffic, mut workers) = Traffic::new(args.workload, args.seed, connections);
    let next = |w: &mut Worker| traffic.next(w);
    let window = Duration::from_secs(args.seconds);
    let mut report = Report::default();

    let mut slices = Vec::new();
    if args.trace {
        for tracing in [false, true, true, false] {
            let addr = server.slice(tracing, true);
            let slice = drive(addr, &mut workers, window / 4, &next, true);
            server.end();
            slices.push((tracing, slice));
        }
    } else {
        let addr = server.slice(false, true);
        let slice = drive(addr, &mut workers, window, &next, false);
        server.end();
        end_to_end(&slice, args.seconds, &mut report);
        slices.push((false, slice));
    }
    report.attempted = slices.iter().map(|(_, s)| s.attempted).sum();
    report.failed = slices.iter().map(|(_, s)| s.failed).sum();
    report.put(
        "error_rate",
        "ratio",
        ratio(report.failed, report.attempted),
        report.attempted,
    );

    // Gateway answers for the correctness sample, on an unmeasured gateway.
    let bodies = workloads::sample_bodies(args.workload, args.seed);
    let got: Vec<Option<Hits>> = if bodies.is_empty() {
        Vec::new()
    } else {
        let addr = server.slice(false, false);
        let got = bodies.iter().map(|b| gateway_hits(addr, b)).collect();
        server.end();
        got
    };
    server.finish(&mut report);

    let (recover_s, per_write) = if args.workload == Workload::Churn96 {
        let wal_tail = report.metrics["store.wal_tail_bytes"].value;
        workloads::verify_churn(work, &workers, wal_tail, &mut report)
    } else {
        workloads::verify_hits(args.workload, args.seed, work, &got, &mut report);
        (0.0, 0.0)
    };

    let mut flags = Vec::new();
    if args.trace {
        let (mut untraced, mut traced) = (Slice::default(), Slice::default());
        for (tracing, slice) in slices {
            if tracing {
                traced.absorb(slice);
            } else {
                untraced.absorb(slice);
            }
        }
        per_layer(&untraced, &traced, &mut report);
        let reopened = u64::from(args.workload == Workload::Churn96);
        report.put("store.recover_s", "s", recover_s, reopened);
        report.put("store.wal_bytes_per_write", "B", per_write, reopened);
        let ratio = report.metrics["obs.stage_sum_ratio"].value;
        if (ratio - 1.0).abs() > STAGE_SUM_TOL {
            flags.push(format!(
                "stage_sum_ratio {ratio:.3} is off by more than {:.0}%",
                STAGE_SUM_TOL * 100.0
            ));
        }
    }
    if report.metrics["store.window_only"].value == 0.0 {
        flags.push("store instruments held samples from before the window".into());
    }
    for f in &flags {
        eprintln!("[e2ebench] FLAG: {f}");
    }

    let envelope = envelope(args, connections, &report, &flags);
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let result = stats::result_line(
        report.all_passed(),
        report.attempted,
        report.failed,
        declared,
        &report.values(),
    )
    .expect("every declared metric measured");
    (envelope, result)
}

/// Client-side end-to-end metrics of an untraced window of `seconds`.
///
/// `search_p50_ms` is the median over one-second sub-windows of their
/// p50 and `ok_per_s` the interquartile mean of their completions, so a
/// burst of host noise moves a few sub-windows, not the run. The p99s
/// pool the whole window (they are reported, not gated).
fn end_to_end(slice: &Slice, seconds: u64, report: &mut Report) {
    let span = seconds as f64;
    let secs = seconds as usize;
    let per_second = stats::bin_by_time(&slice.search_at, &slice.search_us, secs, span);
    let p50s: Vec<f64> = per_second
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| stats::percentile(&sorted(b.clone()), 0.50) / 1e3)
        .collect();
    report.put_quantile(
        "search_p50_ms",
        "ms",
        median(&p50s),
        slice.search_us.len() as u64,
        0.50,
    );

    let all = sorted(slice.search_us.clone());
    report.put_pct("search_p99_ms", "ms", &all, 0.99, 1e-3);

    if !slice.write_us.is_empty() {
        let write = sorted(slice.write_us.clone());
        report.put_pct("write_p50_ms", "ms", &write, 0.50, 1e-3);
        report.put_pct("write_p99_ms", "ms", &write, 0.99, 1e-3);
    }
    let mut done: Vec<f64> = slice.search_at.clone();
    done.extend(&slice.write_at);
    let per_second_ok: Vec<f64> = stats::bin_by_time(&done, &done, secs, span)
        .iter()
        .map(|b| b.len() as f64 / (span / secs as f64))
        .collect();
    report.put("ok_per_s", "1/s", stats::iq_mean(&per_second_ok), slice.ok);
}

/// Per-layer metrics the load process measures in a traced run.
fn per_layer(untraced: &Slice, traced: &Slice, report: &mut Report) {
    let wire = &traced.wire;
    let col = |f: fn(&WireSearch) -> f64| sorted(wire.iter().map(f).collect());
    // A cached answer did no engine work of its own.
    let stage = |f: fn(&WireSearch) -> f64| {
        sorted(
            wire.iter()
                .map(|w| if w.cached { 0.0 } else { f(w) })
                .collect(),
        )
    };
    let self_us = col(WireSearch::self_us);
    report.put_pct("server.self_us.p50", "us", &self_us, 0.50, 1.0);
    report.put_pct("server.self_us.p99", "us", &self_us, 0.99, 1.0);
    report.put_pct(
        "engine.total_us.p50",
        "us",
        &col(WireSearch::engine_us),
        0.50,
        1.0,
    );
    report.put_pct(
        "vision.extract_us.p50",
        "us",
        &stage(|w| w.extract_us),
        0.50,
        1.0,
    );
    report.put_pct(
        "core.encode_us.p50",
        "us",
        &stage(|w| w.encode_us),
        0.50,
        1.0,
    );
    report.put_pct("core.score_us.p50", "us", &stage(|w| w.score_us), 0.50, 1.0);
    report.put_pct(
        "index.prune_us.p50",
        "us",
        &stage(|w| w.prune_us),
        0.50,
        1.0,
    );
    let n = wire.len() as u64;
    let scanned: f64 = wire.iter().map(|w| w.quant_scanned).sum();
    let reranked: f64 = wire.iter().map(|w| w.reranked).sum();
    report.put(
        "core.quant_scanned_per_search",
        "count",
        scanned / n.max(1) as f64,
        n,
    );
    report.put(
        "core.reranked_per_search",
        "count",
        reranked / n.max(1) as f64,
        n,
    );
    report.put(
        "core.rerank_keep_ratio",
        "ratio",
        if scanned > 0.0 {
            reranked / scanned
        } else {
            0.0
        },
        n,
    );
    // Stage accounting: engine stages + gateway self time vs client time.
    let client: f64 = wire.iter().map(|w| w.client_us).sum();
    let parts: f64 = wire.iter().map(|w| w.stages_us() + w.self_us()).sum();
    report.put(
        "obs.stage_sum_ratio",
        "ratio",
        if client > 0.0 { parts / client } else { 0.0 },
        n,
    );
    let ok_u = untraced.ok as f64 / untraced.elapsed_s;
    let ok_t = traced.ok as f64 / traced.elapsed_s;
    report.put(
        "obs.tracing_overhead_pct",
        "%",
        (ok_u - ok_t) / ok_u * 100.0,
        untraced.ok + traced.ok,
    );
    report.check(
        "wire_provenance_parsed",
        traced.bad_wire == 0 && untraced.bad_wire == 0,
        format!(
            "{} search responses lacked timings or counts",
            traced.bad_wire + untraced.bad_wire
        ),
    );
}

/// ISA summary for the envelope.
fn isa() -> String {
    let mut isa = std::env::consts::ARCH.to_string();
    #[cfg(target_arch = "x86_64")]
    for (feature, on) in [
        ("avx2", std::is_x86_feature_detected!("avx2")),
        ("fma", std::is_x86_feature_detected!("fma")),
        ("avx512f", std::is_x86_feature_detected!("avx512f")),
    ] {
        if on {
            isa.push('+');
            isa.push_str(feature);
        }
    }
    isa
}

/// The checked-out revision, read from `.git` when the working directory
/// is a git checkout ("unknown" otherwise).
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run's envelope: host, revision, seed, and every metric with unit,
/// sample count and percentile support, plus every check.
fn envelope(args: &Args, connections: usize, report: &Report, flags: &[String]) -> String {
    let generated = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let metrics: BTreeMap<&str, String> = report
        .metrics
        .iter()
        .map(|(name, m)| {
            (
                name.as_str(),
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"supported\": {}}}",
                    quote(name),
                    num(m.value),
                    quote(&m.unit),
                    m.samples,
                    m.supported
                ),
            )
        })
        .collect();
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "{{\"name\": {}, \"passed\": {ok}, \"detail\": {}}}",
                quote(name),
                quote(detail)
            )
        })
        .collect();
    let flags: Vec<String> = flags.iter().map(|f| quote(f)).collect();
    let pool_threads = report.metrics.get("pool_threads").map_or(0.0, |m| m.value);
    format!(
        "{{\"envelope\": {{\"host\": {{\"nproc\": {}, \"isa\": {}, \"pool_threads\": {pool_threads}}}, \
         \"git_rev\": {}, \"generated_unix_secs\": {generated}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"load\": {{\"loop\": \"closed\", \"connections\": {connections}}}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"checks\": [{}], \"flags\": [{}]}}}}",
        nproc(),
        quote(&isa()),
        quote(&git_rev()),
        quote(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        report.attempted,
        report.failed,
        metrics.into_values().collect::<Vec<_>>().join(", "),
        checks.join(", "),
        flags.join(", "),
    )
}
