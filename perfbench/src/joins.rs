//! The two join-grid workloads: the paper's canonical dense PK/FK join
//! (|S| = 10·|R|, uniform foreign keys) at one build size that fits the
//! cache and one that does not, each path called through the public
//! API (`Join::run`, or `BuildSide::prepare` + `Pipeline::run` for the
//! fused path) in interleaved rounds.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmjoin_core::prelude::{Algorithm, BuildSide, Join, JoinConfig, PhaseStat, Pipeline};
use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::{Placement, Relation, Tuple};

use crate::trace::Tracer;
use crate::{layers, stats, Report, THREADS};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// `Join::run` with no memory budget.
    Classic(Algorithm),
    /// `Join::run(SHHJ)` at a quarter of the build side's tuple bytes.
    SpillQuarter,
    /// `BuildSide::prepare(PRL)` + one-stage `Pipeline::run`.
    FusedPrl,
}

#[derive(Clone, Copy, Debug)]
pub struct PathSpec {
    /// Metric stem: `<name>_ms` end to end, `<name>.<phase>` spans.
    pub name: &'static str,
    pub kind: Kind,
}

const fn path(name: &'static str, kind: Kind) -> PathSpec {
    PathSpec { name, kind }
}

pub const NOP: PathSpec = path("nop", Kind::Classic(Algorithm::Nop));
const PRO: PathSpec = path("pro", Kind::Classic(Algorithm::Pro));
const PRL: PathSpec = path("prl", Kind::Classic(Algorithm::Prl));
const PRL_FUSED: PathSpec = path("prl_fused", Kind::FusedPrl);
const CPRL: PathSpec = path("cprl", Kind::Classic(Algorithm::Cprl));
const MWAY: PathSpec = path("mway", Kind::Classic(Algorithm::Mway));
const SHHJ: PathSpec = path("shhj", Kind::Classic(Algorithm::Shhj));
const SHHJ_SPILL: PathSpec = path("shhj_spill", Kind::SpillQuarter);

pub struct JoinWorkload {
    pub log2_r: u32,
    pub paths: &'static [PathSpec],
}

/// |R| = 2^18 (2 MiB of tuples): the build side fits the cache, so
/// partitioning should not pay; NOP's probe and MWAY's sort dominate
/// their paths, and the fused probe costs little over classic PRL.
pub const INCACHE: JoinWorkload = JoinWorkload {
    log2_r: 18,
    paths: &[NOP, PRO, PRL, PRL_FUSED, CPRL, MWAY, SHHJ],
};

/// |R| = 2^22 (32 MiB): outside the effective cache. Partitioning
/// dominates the radix paths, the fused probe dominates fused PRL, and
/// the quarter-budget SHHJ spills. MWAY (seconds per join) is left out,
/// which makes this the workload that bypasses the sort layer.
pub const OUTCACHE: JoinWorkload = JoinWorkload {
    log2_r: 22,
    paths: &[NOP, PRO, PRL, PRL_FUSED, CPRL, SHHJ, SHHJ_SPILL],
};

pub struct Relations {
    pub r: Relation,
    pub s: Relation,
    pub expected: JoinChecksum,
}

/// The canonical workload for `seed`, and its reference result. The
/// reference does not run a join: a dense build side maps key `k` to
/// payload `k - 1`, so every probe tuple has exactly one match whose
/// digest is known from the probe tuple alone.
pub fn generate(log2_r: u32, seed: u64) -> Relations {
    let (r, s) = relations(log2_r, seed);
    let expected = reference(&s);
    Relations { r, s, expected }
}

/// R = 2^log2_r dense keys, S = 10·|R| uniform foreign keys.
pub fn relations(log2_r: u32, seed: u64) -> (Relation, Relation) {
    let n = 1usize << log2_r;
    let placement = Placement::Chunked { parts: THREADS };
    let r = gen_build_dense(n, seed, placement);
    let s = gen_probe_fk(10 * n, n, seed.wrapping_add(1), placement);
    (r, s)
}

pub fn reference(s: &Relation) -> JoinChecksum {
    let mut c = JoinChecksum::new();
    for t in s.tuples() {
        c.add(t.key, t.key - 1, t.payload);
    }
    c
}

/// One public call's outcome.
pub struct CallOut {
    pub ms: f64,
    pub result: Result<(u64, u64), String>,
    pub phases: Vec<PhaseStat>,
    /// Fused path only: the two public calls, each with its phases.
    pub parts: Vec<(&'static str, f64, Vec<PhaseStat>)>,
    pub radix_bits: Option<u32>,
}

pub struct Runner {
    pub spill_dir: PathBuf,
}

impl Runner {
    fn config(&self, simulate: bool) -> JoinConfig {
        let mut cfg = JoinConfig::new(THREADS);
        cfg.simulate = simulate;
        cfg.spill_dir = Some(self.spill_dir.clone());
        cfg
    }

    pub fn call(&self, p: &PathSpec, rel: &Relations, simulate: bool) -> CallOut {
        let mut cfg = self.config(simulate);
        let t = Instant::now();
        let alg = match p.kind {
            Kind::Classic(a) => a,
            Kind::SpillQuarter => {
                cfg.mem_limit = Some(rel.r.len() * std::mem::size_of::<Tuple>() / 4);
                Algorithm::Shhj
            }
            Kind::FusedPrl => return fused_prl(rel, cfg, t),
        };
        match Join::new(alg).with_config(cfg).run(&rel.r, &rel.s) {
            Ok(res) => CallOut {
                ms: ms_since(t),
                result: Ok((res.matches, res.checksum)),
                radix_bits: res.radix_bits,
                phases: res.phases,
                parts: Vec::new(),
            },
            Err(e) => failed(ms_since(t), e.code()),
        }
    }
}

fn fused_prl(rel: &Relations, cfg: JoinConfig, t: Instant) -> CallOut {
    let side = match BuildSide::prepare(Algorithm::Prl, &rel.r, &cfg) {
        Ok(side) => side,
        Err(e) => return failed(ms_since(t), e.code()),
    };
    let prepare_ms = ms_since(t);
    let build_phases = side.build_phases().to_vec();
    let radix_bits = side.radix_bits();
    let t_run = Instant::now();
    let out = Pipeline::new()
        .with_stage(Arc::clone(&side))
        .with_config(cfg)
        .run(&rel.s);
    let run_ms = ms_since(t_run);
    match out {
        Ok(res) => {
            // The result lists the stage's build phases again ahead of
            // the fused probe; the probe call owns only what follows.
            let probe_phases = res.phases[build_phases.len().min(res.phases.len())..].to_vec();
            CallOut {
                ms: ms_since(t),
                result: Ok((res.matches, res.checksum)),
                phases: Vec::new(),
                parts: vec![
                    ("prepare", prepare_ms, build_phases),
                    ("probe", run_ms, probe_phases),
                ],
                radix_bits,
            }
        }
        Err(e) => failed(ms_since(t), e.code()),
    }
}

fn failed(ms: f64, code: &str) -> CallOut {
    CallOut {
        ms,
        result: Err(code.to_string()),
        phases: Vec::new(),
        parts: Vec::new(),
        radix_bits: None,
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Record one call and its children in the tracer.
fn trace_call(
    tr: &mut Tracer,
    p: &PathSpec,
    id: u64,
    start: Instant,
    out: &CallOut,
    rel: &Relations,
    faults: f64,
) {
    let s = tr.ms(start);
    let matches = out.result.as_ref().map_or(0.0, |r| r.0 as f64);
    let call = tr.push(
        p.name,
        id,
        None,
        s,
        s + out.ms,
        vec![
            ("tuples_in", (rel.r.len() + rel.s.len()) as f64),
            ("matches", matches),
            ("minor_faults", faults),
        ],
    );
    tr.push_phases(call, &out.phases);
    let mut t = s;
    for (name, ms, phases) in &out.parts {
        let child = tr.push(
            format!("{}.{name}", p.name),
            id,
            Some(call),
            t,
            t + ms,
            vec![],
        );
        tr.push_phases(child, phases);
        t += ms;
    }
}

/// Each path's median wall per call. A path with no measured call (every
/// call failed) is an audit failure: its figure would otherwise read as
/// the fastest possible.
pub fn path_medians(paths: &[PathSpec], samples: &[Vec<f64>], rep: &mut Report) -> Vec<f64> {
    for (p, v) in paths.iter().zip(samples) {
        if v.is_empty() {
            rep.fail_audit(&format!(
                "{}: no call succeeded in the measured rounds",
                p.name
            ));
        }
    }
    samples.iter().map(|v| stats::median(v)).collect()
}

/// Run the workload for `seconds` after one warm-up round. Untraced, all
/// rounds are plain; with a tracer, plain and traced rounds alternate and
/// the per-layer metrics are filled in.
pub fn run(
    w: &JoinWorkload,
    seed: u64,
    seconds: f64,
    mut tr: Option<&mut Tracer>,
    scratch: &std::path::Path,
    rep: &mut Report,
) {
    let traced = tr.is_some();
    // Set-up, several times: data generation plus reference checksum.
    let mut setups = Vec::new();
    let mut datagen = Vec::new();
    let mut rel = None;
    for _ in 0..SETUPS {
        drop(rel.take());
        let t = Instant::now();
        let (r, s) = relations(w.log2_r, seed);
        datagen.push(t.elapsed().as_secs_f64());
        let expected = reference(&s);
        setups.push(t.elapsed().as_secs_f64());
        rel = Some(Relations { r, s, expected });
    }
    let rel = rel.expect("set-ups ran");
    rep.setup_s = stats::median(&setups);

    let runner = Runner {
        spill_dir: scratch.to_path_buf(),
    };
    let check = |p: &PathSpec, out: &CallOut, rep: &mut Report| -> bool {
        rep.attempted += 1;
        match &out.result {
            Ok((m, c)) if *m == rel.expected.count && *c == rel.expected.digest => true,
            Ok((m, c)) => {
                rep.fail_mismatch(&format!(
                    "{}: matches {m} checksum {c:016x}, expected {} {:016x}",
                    p.name, rel.expected.count, rel.expected.digest
                ));
                false
            }
            Err(code) => {
                rep.fail(&format!("{}: join error {code}", p.name));
                false
            }
        }
    };
    let k = w.paths.len();
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut traced_ms: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut epoch = Instant::now();
    let mut pro_bits = None;
    let deadline = Duration::from_secs_f64(seconds);
    let min_rounds = if traced { 3 } else { 2 };
    let mut round = 0usize;
    let mut calls = 0u64;
    // Successful calls per second of each measured plain round.
    let mut round_rates = Vec::new();
    while round < min_rounds || epoch.elapsed() < deadline {
        let round_start = Instant::now();
        let mut round_ok = 0usize;
        // Round 0 warms every path up and is not measured; the clock
        // starts after it. A traced run then alternates plain and traced
        // rounds; the plain rounds give its overhead.
        let warm_up = round == 0;
        let tracing = traced && round > 0 && round & 1 == 0;
        for j in 0..k {
            // Rotate the starting path so no path always runs first.
            let idx = (round + j) % k;
            let p = &w.paths[idx];
            let faults0 = if tracing {
                mmjoin_util::mem::minor_faults()
            } else {
                None
            };
            let start = Instant::now();
            let out = runner.call(p, &rel, false);
            if !check(p, &out, rep) {
                continue;
            }
            round_ok += 1;
            if p.name == "pro" {
                pro_bits = out.radix_bits;
            }
            if let (true, Some(tr)) = (tracing, tr.as_deref_mut()) {
                let faults = match (faults0, mmjoin_util::mem::minor_faults()) {
                    (Some(a), Some(b)) => b.saturating_sub(a) as f64,
                    _ => 0.0,
                };
                trace_call(tr, p, calls, start, &out, &rel, faults);
                traced_ms[idx].push(out.ms);
            } else if !warm_up {
                plain[idx].push(out.ms);
            }
            calls += 1;
        }
        if warm_up {
            epoch = Instant::now();
        } else if !tracing {
            round_rates.push(round_ok as f64 / round_start.elapsed().as_secs_f64());
        }
        round += 1;
    }
    let measured_s = epoch.elapsed().as_secs_f64();

    let medians = path_medians(w.paths, &plain, rep);
    for (p, v) in w.paths.iter().zip(&plain) {
        rep.note(&format!(
            "{}_ms = {:.3} ms (median of {} calls, range {:.3}..{:.3})",
            p.name,
            stats::median(v),
            v.len(),
            v.iter().cloned().fold(f64::INFINITY, f64::min),
            v.iter().cloned().fold(0.0, f64::max),
        ));
    }
    rep.note(&format!(
        "calls attempted {} in {round} rounds (the first a warm-up), {measured_s:.1} s measured",
        rep.attempted
    ));
    let Some(tr) = tr else {
        rep.metric("typical_ms", stats::geomean(&medians));
        rep.metric("capacity_rps", stats::median(&round_rates));
        return;
    };
    let tmed = path_medians(w.paths, &traced_ms, rep);

    // ----- Per-layer metrics from the traced rounds -----
    let s_len = rel.s.len();
    rep.metric("datagen_s", stats::median(&datagen));
    for p in w.paths {
        rep.metric(&format!("{}_ms", p.name), tr.median_ms(p.name));
    }
    let nop_probe = tr.median_ms("nop.probe");
    rep.metric("nop.build_ms", tr.median_ms("nop.build"));
    rep.metric("nop.probe_ms", nop_probe);
    rep.metric("nop.probe_ns_per_tuple", nop_probe * 1e6 / s_len as f64);
    let mut part_sum = 0.0;
    let mut radix_sum = 0.0;
    for name in ["pro", "prl", "cprl"] {
        let part = tr.median_ms(&format!("{name}.partition"));
        rep.metric(&format!("{name}.partition_ms"), part);
        rep.metric(
            &format!("{name}.join_ms"),
            tr.median_ms(&format!("{name}.join")),
        );
        part_sum += part;
        radix_sum += tr.median_ms(name);
    }
    rep.metric("radix.partition_share", ratio(part_sum, radix_sum));
    let sort = tr.median_ms("mway.sort");
    rep.metric("mway.sort_ms", sort);
    rep.metric("mway.sort_share", ratio(sort, tr.median_ms("mway")));
    let fused_probe = tr.median_ms("prl_fused.probe");
    rep.metric("prl_fused.prepare_ms", tr.median_ms("prl_fused.prepare"));
    rep.metric("prl_fused.probe_ms", fused_probe);
    rep.metric(
        "prl_fused.probe_share",
        ratio(fused_probe, tr.median_ms("prl_fused")),
    );
    rep.metric(
        "prl_fused.vs_prl",
        ratio(tr.median_ms("prl_fused"), tr.median_ms("prl")),
    );
    let spill_phase = tr.median_ms("shhj_spill.spill");
    rep.metric("shhj_spill.spill_ms", spill_phase);
    rep.metric(
        "shhj_spill.spill_share",
        ratio(spill_phase, tr.median_ms("shhj_spill")),
    );
    let spill_calls: Vec<usize> = tr
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "shhj_spill")
        .map(|(i, _)| i)
        .collect();
    let per_spill_call = |key: &str, f: fn(f64, f64) -> f64| -> f64 {
        let vals: Vec<f64> = spill_calls
            .iter()
            .map(|&c| {
                tr.spans
                    .iter()
                    .filter(|s| s.parent == Some(c))
                    .fold(0.0, |a, s| f(a, s.arg(key)))
            })
            .collect();
        stats::median(&vals)
    };
    rep.metric(
        "shhj_spill.spill_mib",
        per_spill_call("spill_bytes", |a, b| a + b) / (1 << 20) as f64,
    );
    rep.metric(
        "shhj_spill.spill_partitions",
        per_spill_call("spill_partitions", |a, b| a + b),
    );
    rep.metric(
        "shhj_spill.recursion_depth",
        per_spill_call("recursion_depth", f64::max),
    );

    // Executor, allocation and cost-model counters over every phase span.
    let phases: Vec<&crate::trace::Span> = tr
        .spans
        .iter()
        .filter(|s| s.args.iter().any(|(k, _)| *k == "tasks"))
        .collect();
    let top_calls = tr
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .count()
        .max(1) as f64;
    let sum = |key: &str| phases.iter().map(|s| s.arg(key)).sum::<f64>();
    let wall: f64 = phases.iter().map(|s| s.dur()).sum();
    rep.metric("exec.tasks", sum("tasks") / top_calls);
    rep.metric("exec.steals", sum("steals") / top_calls);
    rep.metric(
        "exec.idle_share",
        ratio(sum("idle_ms"), THREADS as f64 * wall),
    );
    rep.metric(
        "alloc.mapped_mib",
        sum("mapped_bytes") / (1 << 20) as f64 / top_calls,
    );
    rep.metric(
        "alloc.pool_hit_ratio",
        ratio(sum("pool_hits"), sum("pool_hits") + sum("mapped_blocks")),
    );
    rep.metric("alloc.heap_fallback", sum("heap_fallback"));
    let faults: f64 = tr
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.arg("minor_faults"))
        .sum();
    rep.metric("alloc.minor_faults", faults / top_calls);

    // Cost-model error from one extra call per path with the simulation
    // on. It runs inside the call after each phase's wall is taken, so
    // the traced rounds leave it off to keep call walls as measured.
    let mut simulated = Vec::new();
    for p in w.paths {
        let out = runner.call(p, &rel, true);
        if check(p, &out, rep) {
            simulated.extend(out.phases);
            simulated.extend(out.parts.into_iter().flat_map(|(_, _, ph)| ph));
        }
    }
    for ph in ["partition", "build", "probe", "join", "sort"] {
        let (sim, wall) = simulated
            .iter()
            .filter(|s| s.name == ph && s.sim_seconds > 0.0)
            .fold((0.0, 0.0), |(a, b), s| {
                (a + s.sim_seconds, b + s.wall.as_secs_f64())
            });
        rep.metric(&format!("model_error.{ph}"), ratio(sim, wall));
    }

    // Working-set self-check: the out-of-cache NOP probe must stay
    // clearly slower per tuple than the same probe at the in-cache size,
    // measured here after two warm-up calls.
    if w.log2_r > INCACHE.log2_r {
        let small = generate(INCACHE.log2_r, seed);
        let ns: Vec<f64> = (0..12)
            .filter_map(|_| {
                let out = runner.call(&NOP, &small, false);
                let probe = out.phases.iter().find(|p| p.name == "probe")?;
                Some(probe.wall.as_secs_f64() * 1e9 / small.s.len() as f64)
            })
            .skip(2)
            .collect();
        let small_ns = stats::median(&ns);
        let big_ns = nop_probe * 1e6 / s_len as f64;
        let ratio_out_in = ratio(big_ns, small_ns);
        rep.metric("workingset.nop_probe_ratio", ratio_out_in);
        rep.note(&format!(
            "working set: NOP probe {big_ns:.2} ns/tuple at |R|=2^{} vs {small_ns:.2} at 2^{} (ratio {ratio_out_in:.2})",
            w.log2_r, INCACHE.log2_r
        ));
        if ratio_out_in < WORKINGSET_MIN_RATIO {
            rep.flag(&format!(
                "out-of-cache NOP probe is not clearly slower per tuple than in-cache \
                 (ratio {ratio_out_in:.2} < {WORKINGSET_MIN_RATIO}); the sizes may no longer straddle the cache"
            ));
        }
    }

    // Direct calls into single layers, outside any join.
    layers::measure(&rel, pro_bits.unwrap_or(8), tr, rep);

    // Tracing overhead: traced rounds against the plain rounds between them.
    rep.metric(
        "trace.overhead",
        stats::geomean(&tmed) / stats::geomean(&medians) - 1.0,
    );
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Out-of-cache NOP probe ns/tuple over in-cache; below this the two
/// sizes are flagged as no longer straddling the cache.
pub const WORKINGSET_MIN_RATIO: f64 = 1.15;

pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spilling join whose spill directory cannot be created fails
    /// every call with a typed error: the run counts each failure and
    /// refuses to report a figure for the workload.
    #[test]
    fn path_that_fails_every_call_makes_the_run_incorrect() {
        let dir = std::env::temp_dir().join(format!("perfbench-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let not_a_dir = dir.join("file");
        std::fs::write(&not_a_dir, b"x").unwrap();
        let w = JoinWorkload {
            log2_r: 12,
            paths: &[NOP, SHHJ_SPILL],
        };
        let mut rep = Report::default();
        run(&w, 3, 0.05, None, &not_a_dir, &mut rep);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(rep.failed >= 2, "failed {}", rep.failed);
        assert_eq!(rep.mismatches, 0);
        // One audit failure for the empty path, one for the typical time
        // that cannot be computed without it.
        assert_eq!(rep.audit_failures, 2);
        assert!(rep.attempted > rep.failed);
    }
}
