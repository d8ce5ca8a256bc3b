//! The repository's benchmark: two join workloads through the public
//! APIs only, every result checked against a reference computed at
//! set-up. The traced run of `join-incache` also drives an in-process
//! join server open-loop, to measure the serve layers.
//!
//! ```text
//! perfbench --workload join-incache|join-outcache \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Everything else
//! (per-path table, ladder steps, provenance, flags) goes to standard
//! error and to `.bench_run/report-*.json`; the traced run also writes
//! its spans to `.bench_run/trace-*.json`. See README.md.

mod heap;
mod joins;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Worker threads everywhere: joins run on 2 workers; the traced run's
/// server runs 2 runners of 2-worker joins.
pub const THREADS: usize = 2;

/// Everything the benchmark writes lives under this directory of the
/// working directory (spill runs, reports, traces).
const RUN_DIR: &str = ".bench_run";

/// Returned phase walls must sum to at least this share of the call
/// that returned them (and never exceed it by more than 2%). NOP at
/// |R| = 2^22 spends about 10% of its call outside its two phases.
pub const COVERAGE_MIN: f64 = 0.85;
pub const COVERAGE_MAX: f64 = 1.02;

/// The end-to-end metrics (`--trace 0`), each reported by every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("typical_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("peak_heap_mib", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics (`--trace 1`). A workload that does not run a
/// layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("datagen_s", "s"),
    ("nop_ms", "ms"),
    ("pro_ms", "ms"),
    ("prl_ms", "ms"),
    ("prl_fused_ms", "ms"),
    ("cprl_ms", "ms"),
    ("mway_ms", "ms"),
    ("shhj_ms", "ms"),
    ("shhj_spill_ms", "ms"),
    ("nop.build_ms", "ms"),
    ("nop.probe_ms", "ms"),
    ("nop.probe_ns_per_tuple", "ns"),
    ("pro.partition_ms", "ms"),
    ("prl.partition_ms", "ms"),
    ("cprl.partition_ms", "ms"),
    ("pro.join_ms", "ms"),
    ("prl.join_ms", "ms"),
    ("cprl.join_ms", "ms"),
    ("radix.partition_share", "share"),
    ("partition.mtps", "Mtuple/s"),
    ("hashtable.probe_mtps", "Mtuple/s"),
    ("sort.mtps", "Mtuple/s"),
    ("mway.sort_ms", "ms"),
    ("mway.sort_share", "share"),
    ("prl_fused.prepare_ms", "ms"),
    ("prl_fused.probe_ms", "ms"),
    ("prl_fused.probe_share", "share"),
    ("prl_fused.vs_prl", "ratio"),
    ("shhj_spill.spill_ms", "ms"),
    ("shhj_spill.spill_share", "share"),
    ("shhj_spill.spill_mib", "MiB"),
    ("shhj_spill.spill_partitions", "count"),
    ("shhj_spill.recursion_depth", "count"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.idle_share", "share"),
    ("alloc.mapped_mib", "MiB"),
    ("alloc.pool_hit_ratio", "share"),
    ("alloc.heap_fallback", "count"),
    ("alloc.minor_faults", "count"),
    ("alloc.peak_rss_mib", "MiB"),
    ("model_error.partition", "ratio"),
    ("model_error.build", "ratio"),
    ("model_error.probe", "ratio"),
    ("model_error.join", "ratio"),
    ("model_error.sort", "ratio"),
    ("workingset.nop_probe_ratio", "ratio"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.queue_p99_ms", "ms"),
    ("serve.refused", "count"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.service_hit_ms", "ms"),
    ("serve.service_miss_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.degraded_share", "share"),
    ("serve.spill_mib", "MiB"),
    ("serve.transport_ms", "ms"),
    ("serve.lateness_p99_ms", "ms"),
    ("serve.backlog_end", "count"),
    ("serve.max_rps", "1/s"),
    ("serve.trace_probe_ms", "ms"),
    ("serve.trace_records", "count"),
    ("trace.overhead", "share"),
    ("trace.coverage_min", "share"),
    ("trace.spans", "count"),
];

/// What one run found: operations, failures, metrics, and notes.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong results (checksum or row-count mismatches).
    pub mismatches: u64,
    /// Audit failures: leftover spill files, telemetry miscounts,
    /// transport errors, an invalid trace, a path with no measured call,
    /// a metric that is not a finite number.
    pub audit_failures: u64,
    pub setup_s: f64,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
    flags: Vec<String>,
    errors: Vec<String>,
    /// Where the traced run writes its chrome://tracing JSON.
    pub trace_path: PathBuf,
}

impl Report {
    /// Record an end-to-end or per-layer metric. A value that is not a
    /// finite number is an audit failure, not a figure.
    pub fn metric(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        if !value.is_finite() {
            self.fail_audit(&format!("metric {name} is {value}"));
            return;
        }
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, msg: &str) {
        self.notes.push(msg.to_string());
    }

    /// Something a reader must see, that does not make results wrong.
    pub fn flag(&mut self, msg: &str) {
        eprintln!("FLAG: {msg}");
        self.flags.push(msg.to_string());
    }

    /// A failed operation: typed error, transport error, refusal.
    pub fn fail(&mut self, msg: &str) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg.to_string());
        }
    }

    /// A failed operation whose result was wrong.
    pub fn fail_mismatch(&mut self, msg: &str) {
        self.mismatches += 1;
        self.fail(msg);
    }

    pub fn fail_audit(&mut self, msg: &str) {
        self.audit_failures += 1;
        eprintln!("AUDIT: {msg}");
        if self.errors.len() < 20 {
            self.errors.push(msg.to_string());
        }
    }

    /// Check and write out the traced run's spans. The children of a
    /// join call are the `PhaseStat`s it returned and must account for
    /// its wall time; a serve request's children are the waits the
    /// server reports, and the rest is lateness and transport.
    pub fn finish_trace(&mut self, tr: &Tracer) {
        let negative = tr.self_times().iter().filter(|&&s| s < -1e-6).count();
        if negative > 0 {
            self.fail_audit(&format!("{negative} spans have negative self time"));
        }
        let cov: Vec<(String, f64)> = tr
            .coverage()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("serve."))
            .collect();
        let min = cov.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
        if let Some((name, c)) = cov
            .iter()
            .find(|(_, c)| !(COVERAGE_MIN..=COVERAGE_MAX).contains(c))
        {
            self.flag(&format!(
                "phase walls cover {:.1}% of a {name} call (tolerance {:.0}%..{:.0}%)",
                c * 100.0,
                COVERAGE_MIN * 100.0,
                COVERAGE_MAX * 100.0
            ));
        }
        self.metric("trace.coverage_min", if cov.is_empty() { 0.0 } else { min });
        self.metric("trace.spans", tr.spans.len() as f64);
        let mut self_ms = String::new();
        for (name, ms) in tr.self_by_name() {
            let _ = write!(self_ms, " {name}={ms:.1}");
        }
        self.note(&format!("self time by span (ms):{self_ms}"));
        match tr.write_verified(&self.trace_path) {
            Ok(n) => self.note(&format!(
                "trace: {n} spans in {}",
                self.trace_path.display()
            )),
            Err(e) => self.fail_audit(&format!("chrome trace did not round-trip: {e}")),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload join-incache|join-outcache --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let run_dir = PathBuf::from(RUN_DIR);
    let scratch = run_dir.join(format!("spill-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let mut rep = Report {
        trace_path: run_dir.join(format!("trace-{}-seed{}.json", opts.workload, opts.seed)),
        ..Report::default()
    };
    let mut tracer = opts.trace.then(|| Tracer::new(std::time::Instant::now()));
    let (seed, secs) = (opts.seed, opts.seconds);
    let incache = opts.workload == "join-incache";
    let workload = if incache {
        &joins::INCACHE
    } else {
        &joins::OUTCACHE
    };
    joins::run(workload, seed, secs, tracer.as_mut(), &scratch, &mut rep);
    // The serve ladder's latencies are bimodal across processes on a
    // 2-vCPU host, too unsteady for an end-to-end workload; its layers are
    // measured here, in the traced run of join-incache.
    if let (true, Some(tr)) = (incache, tracer.as_mut()) {
        serve::run(seed, secs, tr, &scratch, &mut rep);
    }
    if let Some(tr) = &tracer {
        rep.finish_trace(tr);
    }
    // Joins remove their own spill directories; anything left is an orphan.
    let orphans = count_files(&scratch);
    if orphans > 0 {
        rep.fail_audit(&format!(
            "{orphans} spill files orphaned under {}",
            scratch.display()
        ));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    finish(&opts, &rep, &run_dir);
}

fn count_files(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| {
        d.flatten()
            .map(|e| {
                if e.path().is_dir() {
                    count_files(&e.path())
                } else {
                    1
                }
            })
            .sum()
    })
}

/// `VmHWM` of this process, in MiB: the peak heap plus what the
/// allocator kept mapped after it was freed.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn finish(opts: &Opts, rep: &Report, run_dir: &Path) {
    let mut values = rep.metrics.clone();
    values.insert("setup_s".to_string(), rep.setup_s);
    values.insert("peak_heap_mib".to_string(), heap::peak_mib());
    values.insert("alloc.peak_rss_mib".to_string(), peak_rss_mib());
    let declared: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&str, f64, &str)> = declared
        .iter()
        .map(|&(n, u)| (n, values.get(n).copied().unwrap_or(0.0), u))
        .collect();
    let correct = rep.mismatches == 0 && rep.audit_failures == 0 && rep.attempted > 0;

    // Human-readable summary and provenance, on stderr and in the report.
    // Git may look for a repository here but not above this directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let (sha, dirty) = mmjoin_bench::ledger::git_provenance();
    let host = mmjoin_bench::ledger::Host::detect();
    let provenance = format!(
        "{{\"git_sha\": \"{sha}\", \"dirty\": {dirty}, \"host_fingerprint\": \"{}\", \"threads\": {THREADS}, \
         \"available_parallelism\": {}, \"meta\": {}}}",
        host.fingerprint,
        host.threads_avail,
        mmjoin_bench::harness::meta_json()
    );
    eprintln!(
        "perfbench {} seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    eprintln!("provenance {provenance}");
    for n in &rep.notes {
        eprintln!("  {n}");
    }
    for (name, v, unit) in &metrics {
        eprintln!("  {name:<32} {v:>14.4} {unit}");
    }
    eprintln!(
        "  operations attempted {} failed {} (mismatches {}, audit failures {})",
        rep.attempted, rep.failed, rep.mismatches, rep.audit_failures
    );
    for e in &rep.errors {
        eprintln!("  error: {e}");
    }

    let metrics_json = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        rep.attempted.max(1),
        rep.failed
    );
    let strings = |xs: &[String]| {
        xs.iter()
            .map(|s| mmjoin_bench::harness::json_escape(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let report = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"provenance\": {provenance}, \
         \"result\": {result}, \"flags\": [{}], \"notes\": [{}], \"errors\": [{}]}}\n",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        strings(&rep.flags),
        strings(&rep.notes),
        strings(&rep.errors)
    );
    let path = run_dir.join(format!(
        "report-{}-seed{}-trace{}.json",
        opts.workload, opts.seed, opts.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, report) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => match value.as_str() {
                    "join-incache" | "join-outcache" => workload = Some(value.clone()),
                    other => return Err(format!("unknown workload {other}")),
                },
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds {s} out of range (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root declares exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_declared_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v = mmjoin_util::jsonv::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    /// A path on which every call fails leaves no sample. That must make
    /// the run incorrect rather than read as a fast path.
    #[test]
    fn path_with_no_successful_call_fails_the_audit() {
        let mut rep = Report::default();
        let medians = joins::path_medians(
            joins::INCACHE.paths,
            &[
                vec![10.0, 12.0],
                vec![],
                vec![30.0],
                vec![1.0],
                vec![2.0],
                vec![3.0],
                vec![4.0],
            ],
            &mut rep,
        );
        assert_eq!(rep.audit_failures, 1);
        assert_eq!(medians[0], 11.0);
        // The empty path's median reads 0; a geomean over it is not a
        // number, which the metric check refuses as well.
        rep.metric("typical_ms", stats::geomean(&medians));
        assert_eq!(rep.audit_failures, 2);
        assert!(!rep.metrics.contains_key("typical_ms"));
        rep.metric("serve.service_p99_ms", f64::INFINITY);
        assert_eq!(rep.audit_failures, 3);
        assert!(!rep.metrics.contains_key("serve.service_p99_ms"));

        let mut ok = Report::default();
        joins::path_medians(joins::INCACHE.paths, &vec![vec![5.0]; 7], &mut ok);
        assert_eq!(ok.audit_failures, 0);
    }
}
