//! The serve ladder of the traced `join-incache` run: an in-process
//! `mmjoin-serve` server driven open-loop, measured per layer.
//!
//! Requests arrive on a seeded Poisson schedule at a fixed ladder of
//! offered rates, whatever the server's progress, and each request's
//! latency runs from the time it was due. One connection carries every
//! request, multiplexed by `id`: this thread sends on schedule, one
//! receiver thread reads responses, so the generator uses two threads
//! and one connection besides the admin connection.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmjoin_serve::protocol::{encode_frame, Frame, FrameReader};
use mmjoin_serve::{Client, ServeConfig, Server};
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::jsonv::{self, Value};
use mmjoin_util::rng::Xoshiro256;

use crate::stats::{self, StepResult};
use crate::trace::Tracer;
use crate::{joins, Report, THREADS};

/// Catalog pairs: pair `i` has `BASE_ROWS·(PAIRS−i)/2` build rows and
/// four times as many probe rows; rank 0 is both hottest and largest.
const PAIRS: usize = 6;
const BASE_ROWS: usize = 16_384;
const TENANTS: usize = 8;
/// Tenant `t0` gets this budget, too small for its joins, so admission
/// degrades them to the spilling join.
const STARVED_BYTES: usize = 2 << 20;
const TENANT_BYTES: usize = 512 << 20;
/// Share of requests that reload a build relation (same seed, so the
/// data is unchanged but its version moves and cached sides go stale).
const RELOAD_SHARE: f64 = 0.01;
/// Share of joins sent with `"cache":false`, forcing a fresh prepare.
const NOCACHE_SHARE: f64 = 0.10;
/// Latency limit on a step's p99 for `serve.max_rps`: about 3× this
/// mix's p99 well below capacity (8–19 ms at 150 requests/s on a
/// 2-vCPU host), so the reference step passes and the knee decides.
pub const P99_LIMIT_MS: f64 = 50.0;
/// A step whose p99 send lateness exceeds this is invalid: the
/// generator, not the server, set its latencies.
pub const MAX_LATENESS_MS: f64 = 10.0;

/// The ladder: offered rate and share of the run's seconds. Chosen
/// once from the seed commit's capacity on a 2-vCPU host (the p99
/// knee lies between 450 and 600 requests/s): a short warm-up step, the
/// long reference step at about half capacity, where the per-layer
/// timings are taken, then from below the knee to past it in steps of
/// about 10%.
pub const LADDER: [(f64, f64); 8] = [
    (150.0, 0.06),
    (250.0, 0.40),
    (400.0, 0.09),
    (450.0, 0.09),
    (500.0, 0.09),
    (550.0, 0.09),
    (600.0, 0.09),
    (700.0, 0.09),
];
pub const REF_STEP: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReqKind {
    Join { cache: bool },
    Reload,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    /// Seconds after the step starts.
    pub due: f64,
    pub kind: ReqKind,
    pub pair: usize,
    pub tenant: usize,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Step {
    pub rate: f64,
    pub secs: f64,
    pub reqs: Vec<Req>,
}

/// The whole arrival schedule for `seed`: exponential gaps at each
/// step's rate, Zipf(1) pair popularity, uniform tenants.
pub fn schedule(seed: u64, seconds: f64, ladder: &[(f64, f64)]) -> Vec<Step> {
    let weights: Vec<f64> = (0..PAIRS).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Xoshiro256::new(seed ^ 0x5E7E_0BE7);
    ladder
        .iter()
        .map(|&(rate, share)| {
            let secs = seconds * share;
            let mut reqs = Vec::new();
            let mut t = 0.0;
            loop {
                t += -(1.0 - rng.next_f64()).ln() / rate;
                if t >= secs {
                    break;
                }
                let mut u = rng.next_f64() * total;
                let pair = weights
                    .iter()
                    .position(|w| {
                        u -= w;
                        u < 0.0
                    })
                    .unwrap_or(PAIRS - 1);
                let k = rng.next_f64();
                let kind = if k < RELOAD_SHARE {
                    ReqKind::Reload
                } else {
                    ReqKind::Join {
                        cache: k >= RELOAD_SHARE + NOCACHE_SHARE,
                    }
                };
                let tenant = rng.below(TENANTS as u64) as usize;
                reqs.push(Req {
                    due: t,
                    kind,
                    pair,
                    tenant,
                });
            }
            Step { rate, secs, reqs }
        })
        .collect()
}

struct Pair {
    build_rows: usize,
    seed: u64,
    expected: JoinChecksum,
}

fn pairs(seed: u64) -> Vec<Pair> {
    (0..PAIRS)
        .map(|i| {
            let build_rows = BASE_ROWS * (PAIRS - i) / 2;
            // Wire seeds travel as JSON numbers: keep them exact in f64.
            let s = (seed % (1 << 40)) * 16 + 2 * i as u64;
            let r =
                mmjoin_datagen::gen_build_dense(build_rows, s, mmjoin_util::Placement::Interleaved);
            let p = mmjoin_datagen::gen_probe_fk(
                4 * build_rows,
                build_rows,
                s + 1,
                mmjoin_util::Placement::Interleaved,
            );
            debug_assert!(r.tuples().iter().all(|t| t.payload + 1 == t.key));
            Pair {
                build_rows,
                seed: s,
                expected: joins::reference(&p),
            }
        })
        .collect()
}

fn load_build(id: Option<u64>, i: usize, p: &Pair, tenant: usize) -> String {
    let id = id.map_or(String::new(), |id| format!("\"id\":{id},"));
    format!(
        r#"{{{id}"op":"load","tenant":"t{tenant}","name":"r{i}","rows":{},"kind":"build","seed":{}}}"#,
        p.build_rows, p.seed
    )
}

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

/// Spawn a server, load the catalog, compute the references.
fn set_up(seed: u64, spill_dir: &Path) -> Result<(Server, Client, Vec<Pair>), String> {
    let mut cfg = ServeConfig::default()
        .with_runners(THREADS)
        .with_join_threads(THREADS)
        // Deep enough that no step of the ladder is refused: overload
        // shows as queueing delay and backlog, not as failures.
        .with_queue_depth(1 << 16)
        // The background SLO sampler closes a window every 5 s and runs
        // the regression watch's statistics on the same two vCPUs; left
        // on, whichever step holds a tick shows a latency spike. Off, the
        // telemetry still records every join (the drain audit uses it).
        .with_slo_window_secs(0.0)
        .with_spill_dir(spill_dir)
        .with_tenant_budget("t0", STARVED_BYTES);
    for t in 1..TENANTS {
        cfg = cfg.with_tenant_budget(format!("t{t}"), TENANT_BYTES);
    }
    let server = Server::spawn(cfg).map_err(|e| format!("spawn server: {e}"))?;
    let mut admin = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    admin
        .set_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let pairs = pairs(seed);
    for (i, p) in pairs.iter().enumerate() {
        let probe = format!(
            r#"{{"op":"load","name":"s{i}","rows":{},"kind":"probe_fk","domain":{},"seed":{}}}"#,
            4 * p.build_rows,
            p.build_rows,
            p.seed + 1
        );
        for req in [load_build(None, i, p, 1), probe] {
            let v = admin
                .request(&req)
                .map_err(|e| format!("catalog load: {e}"))?;
            if !ok(&v) {
                return Err(format!("catalog load refused: {v:?}"));
            }
        }
    }
    Ok((server, admin, pairs))
}

/// What the receiver keeps of one response.
struct Resp {
    id: usize,
    at_ms: f64,
    v: Value,
}

fn receiver(
    mut stream: TcpStream,
    epoch: Instant,
    received: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
) -> Result<Vec<Resp>, String> {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let mut frames = FrameReader::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut out = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(out),
            Ok(n) => frames.push(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Acquire) {
                    return Ok(out);
                }
                continue;
            }
            Err(e) => return Err(format!("transport: {e}")),
        }
        let at_ms = epoch.elapsed().as_secs_f64() * 1e3;
        while let Some(frame) = frames.next_frame() {
            let Frame::Payload(bytes) = frame else {
                return Err("oversized response frame".to_string());
            };
            let text = std::str::from_utf8(&bytes).map_err(|_| "non-UTF-8 response")?;
            let v = jsonv::parse(text)?;
            let id = v
                .get("id")
                .and_then(Value::as_num)
                .ok_or("response without id")? as usize;
            out.push(Resp { id, at_ms, v });
            received.fetch_add(1, Ordering::Release);
        }
    }
}

/// One sent request's outcome as the run sees it.
#[derive(Clone, Default)]
struct Outcome {
    due_ms: f64,
    sent_ms: f64,
    latency_ms: Option<f64>,
    kind_join: bool,
    cache_eligible: bool,
    queue_ms: f64,
    wall_ms: f64,
    cached: bool,
    degraded: bool,
    spill_bytes: f64,
    refused: bool,
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer, scratch: &Path, rep: &mut Report) {
    let spill_dir = scratch.join("serve-spill");
    if let Err(e) = std::fs::create_dir_all(&spill_dir) {
        rep.fail_audit(&format!("cannot create {}: {e}", spill_dir.display()));
        return;
    }
    let (server, mut admin, pairs) = match set_up(seed, &spill_dir) {
        Ok(live) => live,
        Err(e) => {
            rep.fail_audit(&e);
            return;
        }
    };

    let steps = schedule(seed, seconds, &LADDER);
    let total: usize = steps.iter().map(|s| s.reqs.len()).sum();

    let stream = match TcpStream::connect(server.addr()) {
        Ok(s) => s,
        Err(e) => {
            rep.fail_audit(&format!("connect: {e}"));
            return;
        }
    };
    let _ = stream.set_nodelay(true);
    let epoch = Instant::now();
    let received = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let rx = {
        let reader = stream.try_clone().expect("clone socket for the receiver");
        let (received, stop) = (Arc::clone(&received), Arc::clone(&stop));
        std::thread::spawn(move || receiver(reader, epoch, received, stop))
    };
    let mut writer = stream;
    let ms = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e3;

    let mut outcomes: Vec<Outcome> = vec![Outcome::default(); total];
    let mut step_bounds = Vec::new();
    let mut backlog_end = Vec::new();
    let mut transport_failed = false;
    let mut next_id = 0usize;
    let mut joins_sent = 0usize;
    for step in &steps {
        let start = Instant::now();
        let first = next_id;
        for req in &step.reqs {
            let due = start + Duration::from_secs_f64(req.due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let id = next_id as u64;
            let payload = match req.kind {
                ReqKind::Reload => load_build(Some(id), req.pair, &pairs[req.pair], req.tenant),
                ReqKind::Join { cache } => {
                    joins_sent += 1;
                    format!(
                        r#"{{"op":"join","id":{id},"tenant":"t{}","algo":"PRL","build":"r{p}","probe":"s{p}"{}}}"#,
                        req.tenant,
                        if cache { "" } else { r#","cache":false"# },
                        p = req.pair,
                    )
                }
            };
            let o = &mut outcomes[next_id];
            o.due_ms = ms(due);
            o.kind_join = matches!(req.kind, ReqKind::Join { .. });
            o.cache_eligible = req.kind == ReqKind::Join { cache: true };
            if writer.write_all(&encode_frame(&payload)).is_err() {
                transport_failed = true;
            }
            o.sent_ms = ms(Instant::now());
            next_id += 1;
        }
        // Schedule over: what is still unanswered is this step's backlog.
        let end = start + Duration::from_secs_f64(step.secs);
        let now = Instant::now();
        if end > now {
            std::thread::sleep(end - now);
        }
        backlog_end.push(next_id.saturating_sub(received.load(Ordering::Acquire)));
        // Drain before the next step so steps do not share a queue.
        let drain_until = Instant::now() + Duration::from_secs(20);
        while received.load(Ordering::Acquire) < next_id && Instant::now() < drain_until {
            std::thread::sleep(Duration::from_millis(2));
        }
        step_bounds.push((first, next_id));
        if transport_failed {
            break;
        }
    }
    stop.store(true, Ordering::Release);
    let responses = match rx.join() {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            rep.fail(&e);
            transport_failed = true;
            Vec::new()
        }
        Err(_) => {
            rep.fail("receiver thread panicked");
            transport_failed = true;
            Vec::new()
        }
    };
    drop(writer);

    // ----- Check every response against the set-up references -----
    let mut answered = vec![false; total];
    let steps_req: Vec<&Req> = steps.iter().flat_map(|s| s.reqs.iter()).collect();
    for r in &responses {
        if r.id >= total || answered[r.id] {
            rep.fail(&format!("unexpected response id {}", r.id));
            continue;
        }
        answered[r.id] = true;
        let req = steps_req[r.id];
        let o = &mut outcomes[r.id];
        rep.attempted += 1;
        if !ok(&r.v) {
            let code =
                r.v.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str)
                    .unwrap_or("?");
            o.refused = code == "queue_full";
            rep.fail(&format!("request {} failed: {code}", r.id));
            continue;
        }
        let num = |k: &str| r.v.get(k).and_then(Value::as_num).unwrap_or(-1.0);
        let flag = |k: &str| r.v.get(k).and_then(Value::as_bool) == Some(true);
        let p = &pairs[req.pair];
        match req.kind {
            ReqKind::Reload => {
                if num("rows") != p.build_rows as f64 {
                    rep.fail_mismatch(&format!("reload {} answered {:?}", r.id, r.v));
                    continue;
                }
            }
            ReqKind::Join { .. } => {
                let checksum =
                    r.v.get("checksum")
                        .and_then(Value::as_str)
                        .and_then(|s| u64::from_str_radix(s, 16).ok());
                if num("matches") != p.expected.count as f64 || checksum != Some(p.expected.digest)
                {
                    rep.fail_mismatch(&format!(
                        "join {} on pair {} answered {:?}",
                        r.id, req.pair, r.v
                    ));
                    continue;
                }
                o.queue_ms = num("queue_ms");
                o.wall_ms = num("wall_ms");
                o.cached = flag("cached");
                o.degraded = flag("degraded");
                o.spill_bytes = num("spill_bytes");
            }
        }
        o.latency_ms = Some(r.at_ms - o.due_ms);
    }
    // Requests after a transport failure were never sent.
    let unanswered = answered[..next_id].iter().filter(|a| !**a).count();
    if unanswered > 0 {
        rep.attempted += unanswered as u64;
        for _ in 0..unanswered {
            rep.fail("request never answered");
        }
    }
    if transport_failed {
        rep.fail_audit("transport error on the load connection");
    }

    // ----- Per-step results -----
    let mut results = Vec::new();
    for (si, (&(first, last), step)) in step_bounds.iter().zip(&steps).enumerate() {
        let os = &outcomes[first..last];
        // Failed requests count as over any limit.
        let lat: Vec<f64> = os
            .iter()
            .map(|o| o.latency_ms.unwrap_or(f64::INFINITY))
            .collect();
        let late: Vec<f64> = os.iter().map(|o| o.sent_ms - o.due_ms).collect();
        let late_p99 = stats::percentile(&late, 0.99);
        let res = StepResult {
            offered_rps: step.rate,
            achieved_rps: os.len() as f64 / step.secs,
            p99_ms: stats::percentile(&lat, 0.99),
            backlog_end: backlog_end[si],
            sent: os.len(),
            valid: late_p99 <= MAX_LATENESS_MS,
        };
        rep.note(&format!(
            "step {si}: offered {:.0}/s sent {} p50 {:.2} ms p99 {:.2} ms lateness p99 {late_p99:.2} ms \
             backlog {}{}{}",
            step.rate,
            res.sent,
            stats::percentile(&lat, 0.5),
            res.p99_ms,
            res.backlog_end,
            if res.valid { "" } else { " INVALID (generator behind)" },
            if res.passes(P99_LIMIT_MS) { " pass" } else { "" },
        ));
        results.push((res, late_p99));
    }
    let ladder_steps: Vec<StepResult> = results.iter().map(|(r, _)| r.clone()).collect();
    let best = stats::max_passing(&ladder_steps, P99_LIMIT_MS).cloned();

    // ----- Drain and audit -----
    let stat = admin.request(r#"{"op":"stat"}"#);
    let trace = admin.request(r#"{"op":"trace"}"#).ok();
    drop(admin);
    server.shutdown();
    match stat {
        Ok(v) => {
            let count = v
                .get("stat")
                .and_then(|s| s.get("telemetry"))
                .and_then(|t| t.get("overall"))
                .and_then(|o| o.get("count"))
                .and_then(Value::as_num)
                .unwrap_or(-1.0);
            if count != joins_sent as f64 {
                rep.fail_audit(&format!(
                    "telemetry counted {count} joins, {joins_sent} were sent"
                ));
            }
        }
        Err(e) => rep.fail_audit(&format!("final stat: {e}")),
    }
    let leftover = std::fs::read_dir(&spill_dir)
        .map(|d| d.count())
        .unwrap_or(0);
    if leftover > 0 {
        rep.fail_audit(&format!("{leftover} spill entries left after shutdown"));
    }

    let Some(&(a, b)) = step_bounds.get(REF_STEP) else {
        rep.fail_audit("the ladder stopped before its reference step");
        return;
    };
    let ref_os: Vec<&Outcome> = outcomes[a..b].iter().collect();

    // ----- Per-layer metrics -----
    // Spans are built after the ladder from the send and receive times
    // every run records, so tracing adds no work per request.
    let at = tr.ms(epoch);
    for (i, o) in outcomes.iter().enumerate() {
        let Some(lat) = o.latency_ms else { continue };
        let (due, sent) = (at + o.due_ms, at + o.sent_ms);
        let name = if o.kind_join {
            "serve.join"
        } else {
            "serve.reload"
        };
        let call = tr.push(
            name,
            i as u64,
            None,
            due,
            due + lat,
            vec![
                ("lateness_ms", o.sent_ms - o.due_ms),
                ("cached", o.cached as u8 as f64),
                ("degraded", o.degraded as u8 as f64),
                ("spill_bytes", o.spill_bytes),
            ],
        );
        if o.kind_join {
            // Queue wait then service, from the response, placed after
            // the send; what neither covers is lateness plus transport.
            let q0 = sent;
            tr.push(
                "serve.queue",
                i as u64,
                Some(call),
                q0,
                q0 + o.queue_ms,
                vec![],
            );
            let s0 = q0 + o.queue_ms;
            tr.push(
                "serve.service",
                i as u64,
                Some(call),
                s0,
                s0 + o.wall_ms,
                vec![],
            );
        }
    }
    // Layer timings at the reference rate, about half of capacity.
    let all_joins: Vec<&Outcome> = ref_os
        .iter()
        .copied()
        .filter(|o| o.kind_join && o.latency_ms.is_some())
        .collect();
    let col = |f: &dyn Fn(&Outcome) -> f64, os: &[&Outcome]| -> Vec<f64> {
        os.iter().map(|o| f(o)).collect()
    };
    let queue = col(&|o| o.queue_ms, &all_joins);
    let service = col(&|o| o.wall_ms, &all_joins);
    rep.metric("serve.queue_p50_ms", stats::median(&queue));
    metric_p99(rep, "serve.queue_p99_ms", &queue);
    rep.metric(
        "serve.refused",
        outcomes.iter().filter(|o| o.refused).count() as f64,
    );
    let eligible: Vec<&Outcome> = all_joins
        .iter()
        .copied()
        .filter(|o| o.cache_eligible && !o.degraded)
        .collect();
    let hits: Vec<&Outcome> = eligible.iter().copied().filter(|o| o.cached).collect();
    let misses: Vec<&Outcome> = all_joins
        .iter()
        .copied()
        .filter(|o| !o.cached && !o.degraded)
        .collect();
    rep.metric(
        "serve.cache_hit_ratio",
        joins::ratio(hits.len() as f64, eligible.len() as f64),
    );
    rep.metric(
        "serve.service_hit_ms",
        stats::median(&col(&|o| o.wall_ms, &hits)),
    );
    rep.metric(
        "serve.service_miss_ms",
        stats::median(&col(&|o| o.wall_ms, &misses)),
    );
    rep.metric("serve.service_p50_ms", stats::median(&service));
    metric_p99(rep, "serve.service_p99_ms", &service);
    let degraded = all_joins.iter().filter(|o| o.degraded).count();
    rep.metric(
        "serve.degraded_share",
        joins::ratio(degraded as f64, all_joins.len() as f64),
    );
    let spill: f64 = all_joins.iter().map(|o| o.spill_bytes).sum();
    rep.metric("serve.spill_mib", spill / (1 << 20) as f64);
    let transport: Vec<f64> = ref_os
        .iter()
        .filter(|o| o.kind_join)
        .filter_map(|o| Some(o.latency_ms? - (o.sent_ms - o.due_ms) - o.queue_ms - o.wall_ms))
        .collect();
    rep.metric("serve.transport_ms", stats::median(&transport));
    let late = results.iter().map(|(_, l)| *l).fold(0.0, f64::max);
    rep.metric("serve.lateness_p99_ms", late);
    match &best {
        Some(b) => {
            rep.metric("serve.max_rps", b.achieved_rps);
            rep.metric("serve.backlog_end", b.backlog_end as f64);
        }
        None => rep.flag("no ladder step met the p99 limit"),
    }
    if let Some(v) = trace {
        let events = v.get("events").and_then(Value::as_arr).unwrap_or(&[]);
        let probe: Vec<f64> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("phase"))
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("probe"))
            .filter_map(|e| e.get("dur").and_then(Value::as_num))
            .map(|us| us / 1e3)
            .collect();
        rep.metric("serve.trace_probe_ms", stats::median(&probe));
        rep.metric(
            "serve.trace_records",
            v.get("count").and_then(Value::as_num).unwrap_or(0.0),
        );
    }
}

/// Record the p99 of a reference-step column, flagged when fewer than
/// ten samples lie beyond it, since it then reads one or two outliers.
fn metric_p99(rep: &mut Report, name: &str, xs: &[f64]) {
    let v = stats::tail(xs, 0.99).unwrap_or_else(|| {
        rep.flag(&format!(
            "{name} over {} samples has fewer than {} beyond it",
            xs.len(),
            stats::MIN_BEYOND
        ));
        stats::percentile(xs, 0.99)
    });
    rep.metric(name, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = schedule(42, 10.0, &LADDER);
        assert_eq!(a, schedule(42, 10.0, &LADDER));
        assert_ne!(a, schedule(43, 10.0, &LADDER));
        // Arrival counts track the offered rates.
        for s in &a {
            let expect = s.rate * s.secs;
            assert!((s.reqs.len() as f64 - expect).abs() < 5.0 * expect.sqrt() + 5.0);
            assert!(s.reqs.windows(2).all(|w| w[0].due <= w[1].due));
        }
        let reloads = a
            .iter()
            .flat_map(|s| &s.reqs)
            .filter(|r| r.kind == ReqKind::Reload)
            .count();
        assert!(reloads > 0);
    }

    #[test]
    fn same_seed_same_relations() {
        let a = pairs(9);
        let b = pairs(9);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.expected == y.expected && x.seed == y.seed));
        let r1 = joins::generate(10, 5);
        let r2 = joins::generate(10, 5);
        assert_eq!(r1.r.tuples(), r2.r.tuples());
        assert_eq!(r1.s.tuples(), r2.s.tuples());
        assert_eq!(r1.expected, r2.expected);
        assert_ne!(joins::generate(10, 6).s.tuples(), r1.s.tuples());
    }
}
