//! Native observability harness: run any (default all 13) of the join
//! algorithms with per-worker span + PMU-counter profiling enabled, emit
//! a chrome://tracing trace and a flat metrics document, and cross-check
//! native LLC/dTLB miss counts against the trace-driven cache simulator
//! behind Table 4.
//!
//! ```text
//! cargo run -p mmjoin-bench --release --bin profile              # full
//! cargo run -p mmjoin-bench --release --bin profile -- --quick   # CI smoke
//! cargo run -p mmjoin-bench --release --bin profile -- --quick --check
//! cargo run -p mmjoin-bench --release --bin profile -- --algo CPRL
//! ```
//!
//! Emits `PROFILE_trace.json` (open in chrome://tracing or
//! ui.perfetto.dev) and `PROFILE_metrics.json`; override with
//! `--trace-out` / `--metrics-out`. With `--check`, re-reads both files
//! and validates them against the expected schema, exiting non-zero on
//! any violation — the CI gate for the exporter formats. The memsim
//! cross-check is report-only (ratios, no gate): on hosts without PMU
//! access (perf_event_paranoid, VMs, non-Linux) native columns read
//! `n/a` and the comparison is skipped.

use mmjoin_bench::harness::{self, HarnessOpts, Table};
use mmjoin_bench::ledger;
use mmjoin_core::instrumented::{instrument, PageConfig};
use mmjoin_core::{observe, Algorithm, Join, JoinResult, ProfileConfig};
use mmjoin_util::jsonv::{self, Value};
use mmjoin_util::perf;

fn usage() -> ! {
    eprintln!(
        "usage: profile [--quick] [--check] [--algo NAME] [--no-memsim]\n\
         \x20              [--trace-out PATH] [--metrics-out PATH] [--ledger PATH]\n\
         \x20              [--scale N] [--threads N] [--sim-threads N]"
    );
    std::process::exit(2);
}

struct Opts {
    quick: bool,
    check: bool,
    memsim: bool,
    algorithms: Vec<Algorithm>,
    trace_out: String,
    metrics_out: String,
    ledger: Option<String>,
    harness: HarnessOpts,
}

fn parse_opts() -> Opts {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (hopts, rest) = HarnessOpts::parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage();
    });
    let mut opts = Opts {
        quick: false,
        check: false,
        memsim: true,
        algorithms: Algorithm::ALL.to_vec(),
        trace_out: "PROFILE_trace.json".to_string(),
        metrics_out: "PROFILE_metrics.json".to_string(),
        ledger: None,
        harness: hopts,
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--check" => opts.check = true,
            "--no-memsim" => opts.memsim = false,
            "--algo" => {
                let name = it.next().unwrap_or_else(|| {
                    eprintln!("--algo needs a value");
                    usage();
                });
                let alg = Algorithm::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown algorithm {name:?}");
                    usage();
                });
                opts.algorithms = vec![alg];
            }
            "--trace-out" => {
                opts.trace_out = it.next().unwrap_or_else(|| {
                    eprintln!("--trace-out needs a value");
                    usage();
                })
            }
            "--metrics-out" => {
                opts.metrics_out = it.next().unwrap_or_else(|| {
                    eprintln!("--metrics-out needs a value");
                    usage();
                })
            }
            "--ledger" => {
                opts.ledger = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--ledger needs a value");
                    usage();
                }))
            }
            other => {
                eprintln!("unknown option {other:?}");
                usage();
            }
        }
    }
    opts
}

fn fmt_opt(v: Option<u64>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "n/a".to_string(),
    }
}

fn ratio(native: Option<u64>, sim: u64) -> String {
    match native {
        Some(n) if sim > 0 => format!("{:.2}", n as f64 / sim as f64),
        _ => "n/a".to_string(),
    }
}

/// Schema check for one emitted artifact; returns every violation found.
fn validate_trace(v: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    let Some(events) = v.as_arr() else {
        return vec!["trace: top level is not an array".to_string()];
    };
    if events.is_empty() {
        errs.push("trace: no events".to_string());
    }
    for (i, e) in events.iter().enumerate() {
        let ctx = format!("trace event {i}");
        if e.get("name").and_then(Value::as_str).is_none() {
            errs.push(format!("{ctx}: missing string \"name\""));
        }
        let ph = e.get("ph").and_then(Value::as_str);
        if !matches!(ph, Some("X") | Some("M")) {
            errs.push(format!("{ctx}: \"ph\" must be \"X\" or \"M\""));
        }
        for key in ["pid", "tid"] {
            if e.get(key).and_then(Value::as_num).is_none() {
                errs.push(format!("{ctx}: missing numeric {key:?}"));
            }
        }
        if ph == Some("X") {
            for key in ["ts", "dur"] {
                if e.get(key).and_then(Value::as_num).is_none() {
                    errs.push(format!("{ctx}: complete event missing {key:?}"));
                }
            }
        }
    }
    errs
}

fn validate_metrics(v: &Value, expected_runs: usize) -> Vec<String> {
    let mut errs = Vec::new();
    let meta = v.get("meta");
    match meta {
        Some(m) => {
            if m.get("cpu_model").and_then(Value::as_str).is_none() {
                errs.push("metrics: meta.cpu_model missing".to_string());
            }
            if m.get("kernel_mode").and_then(Value::as_str).is_none() {
                errs.push("metrics: meta.kernel_mode missing".to_string());
            }
            if m.get("perf_counters").and_then(Value::as_bool).is_none() {
                errs.push("metrics: meta.perf_counters missing".to_string());
            }
        }
        None => errs.push("metrics: missing \"meta\"".to_string()),
    }
    let Some(runs) = v.get("runs").and_then(Value::as_arr) else {
        errs.push("metrics: missing \"runs\" array".to_string());
        return errs;
    };
    if runs.len() != expected_runs {
        errs.push(format!(
            "metrics: {} runs, expected {expected_runs}",
            runs.len()
        ));
    }
    for r in runs {
        let name = r
            .get("algorithm")
            .and_then(Value::as_str)
            .unwrap_or("<unnamed>")
            .to_string();
        let ctx = format!("metrics run {name}");
        if !r
            .get("checksum")
            .and_then(Value::as_str)
            .is_some_and(|c| c.starts_with("0x"))
        {
            errs.push(format!("{ctx}: checksum must be a hex string"));
        }
        if r.get("matches").and_then(Value::as_num).is_none() {
            errs.push(format!("{ctx}: missing numeric matches"));
        }
        let Some(phases) = r.get("phases").and_then(Value::as_arr) else {
            errs.push(format!("{ctx}: missing phases array"));
            continue;
        };
        if phases.is_empty() {
            errs.push(format!("{ctx}: no phases"));
        }
        for p in phases {
            let pname = p.get("name").and_then(Value::as_str).unwrap_or("<unnamed>");
            let pctx = format!("{ctx} phase {pname}");
            for key in ["wall_ms", "tasks", "steals", "idle_ms"] {
                if p.get(key).and_then(Value::as_num).is_none() {
                    errs.push(format!("{pctx}: missing numeric {key:?}"));
                }
            }
            let Some(workers) = p.get("workers").and_then(Value::as_arr) else {
                errs.push(format!("{pctx}: missing workers array"));
                continue;
            };
            if workers.is_empty() {
                errs.push(format!("{pctx}: profiling was on but no worker spans"));
            }
            for w in workers {
                for key in [
                    "cycles",
                    "instructions",
                    "llc_misses",
                    "dtlb_misses",
                    "task_clock_ns",
                ] {
                    if !w.get(key).is_some_and(Value::is_num_or_null) {
                        errs.push(format!("{pctx}: worker {key:?} must be number or null"));
                    }
                }
            }
        }
    }
    errs
}

fn main() {
    let opts = parse_opts();
    let (r_n, s_mult) = if opts.quick {
        (8_192, 10)
    } else {
        (65_536, 10)
    };
    let s_n = r_n * s_mult;
    let placement = opts.harness.placement();
    let r = mmjoin_datagen::gen_build_dense(r_n, 0x9F0F, placement);
    let s = mmjoin_datagen::gen_probe_fk(s_n, r_n, 0x9F10, placement);

    let mut cfg = opts.harness.cfg();
    cfg.profile = ProfileConfig::on();
    println!(
        "profiling {} algorithm(s): |R|={r_n} |S|={s_n} threads={} native counters: {}",
        opts.algorithms.len(),
        cfg.threads,
        if perf::available() {
            "yes"
        } else {
            "no (all-None fallback)"
        }
    );

    let results: Vec<JoinResult> = opts
        .algorithms
        .iter()
        .map(|&alg| {
            Join::new(alg)
                .with_config(cfg.clone())
                .run(&r, &s)
                .unwrap_or_else(|e| {
                    eprintln!("error: {alg} failed: {e}");
                    std::process::exit(1);
                })
        })
        .collect();

    // Correctness: identical workload, identical answer across variants.
    if let Some(first) = results.first() {
        for res in &results {
            if (res.matches, res.checksum) != (first.matches, first.checksum) {
                eprintln!(
                    "error: {} disagrees with {} (matches/checksum)",
                    res.algorithm, first.algorithm
                );
                std::process::exit(1);
            }
        }
    }

    let mut summary = Table::new(
        "profile summary (native counters; n/a = PMU unavailable)",
        &[
            "join",
            "wall ms",
            "tasks",
            "steals",
            "cycles",
            "instr",
            "LLC miss",
            "dTLB miss",
        ],
    );
    for res in &results {
        let t = res.counter_totals();
        let e = res.total_exec();
        summary.row(vec![
            res.algorithm.name().to_string(),
            format!("{:.2}", res.total_wall().as_secs_f64() * 1e3),
            e.tasks.to_string(),
            e.steals.to_string(),
            fmt_opt(t.cycles),
            fmt_opt(t.instructions),
            fmt_opt(t.llc_misses),
            fmt_opt(t.dtlb_misses),
        ]);
    }
    summary.print();

    // Table-4 cross-check: native LLC/dTLB misses vs the memsim
    // prediction for the same inputs. Report-only — the simulator
    // models the paper's machine, not this host, so the ratio is a
    // sanity band, not a gate.
    if opts.memsim {
        let scale = (opts.harness.scale * 16).max(512);
        let page = PageConfig::huge(scale);
        let mut simcfg = opts.harness.cfg();
        simcfg.topology.capacity_scale = scale;
        let bits = simcfg.bits_for_hash_tables(r_n);
        let mut cross = Table::new(
            "memsim cross-check (native / simulated; report-only)",
            &[
                "join",
                "LLC native",
                "L3 sim",
                "ratio",
                "dTLB native",
                "TLB sim",
                "ratio",
            ],
        );
        for res in &results {
            let alg = res.algorithm;
            let b = if alg == Algorithm::Prb {
                14.min(bits * 2)
            } else {
                bits
            };
            let run = instrument(alg, &r, &s, scale, page, b);
            let mut sim = run.first;
            sim.merge(&run.second);
            let native = res.counter_totals();
            cross.row(vec![
                alg.name().to_string(),
                fmt_opt(native.llc_misses),
                sim.l3_misses.to_string(),
                ratio(native.llc_misses, sim.l3_misses),
                fmt_opt(native.dtlb_misses),
                sim.tlb_misses.to_string(),
                ratio(native.dtlb_misses, sim.tlb_misses),
            ]);
        }
        if !perf::available() {
            cross.note("native counters unavailable on this host; ratios reported as n/a");
        }
        cross.print();
    }

    if let Some(path) = &opts.ledger {
        // One wall-time sample per profiled algorithm: profiling runs are
        // single-shot, so the ledger cell carries a length-1 raw vector
        // (the sentinel then compares via bootstrap intervals, degenerate
        // but deterministic).
        let workload = if opts.quick {
            "profile-quick"
        } else {
            "profile-full"
        };
        let samples: Vec<ledger::SampleSet> = results
            .iter()
            .map(|res| ledger::SampleSet {
                algorithm: res.algorithm.name().to_string(),
                workload: workload.to_string(),
                kernel_mode: ledger::kernel_mode_name(),
                secs: vec![res.total_wall().as_secs_f64()],
            })
            .collect();
        let entry = ledger::Entry::stamped("profile", cfg.threads, samples);
        match ledger::append(std::path::Path::new(path), &entry) {
            Ok(()) => eprintln!("ledger: appended {} to {path}", entry.describe()),
            Err(e) => {
                eprintln!("error: cannot append to ledger {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    let trace = observe::chrome_trace(&results);
    let metrics = observe::metrics(&results, Some(&harness::meta_json()));
    for (path, payload) in [(&opts.trace_out, &trace), (&opts.metrics_out, &metrics)] {
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {path}");
    }

    if opts.check {
        let mut errs = Vec::new();
        match jsonv::parse(&std::fs::read_to_string(&opts.trace_out).unwrap()) {
            Ok(v) => errs.extend(validate_trace(&v)),
            Err(e) => errs.push(format!("trace: parse error: {e}")),
        }
        match jsonv::parse(&std::fs::read_to_string(&opts.metrics_out).unwrap()) {
            Ok(v) => errs.extend(validate_metrics(&v, results.len())),
            Err(e) => errs.push(format!("metrics: parse error: {e}")),
        }
        if !errs.is_empty() {
            for e in &errs {
                eprintln!("FAIL: {e}");
            }
            std::process::exit(1);
        }
        println!("check: trace + metrics schemas ok");
    }
}
