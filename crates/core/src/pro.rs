//! The PR* and CPR* families.
//!
//! * `join_pro` — PRO/PRL/PRA and their improved-scheduling variants
//!   PROiS/PRLiS/PRAiS: one-pass parallel radix partitioning with SWWCB +
//!   streaming into a contiguous (interleaved) buffer, then independent
//!   co-partition joins pulled from a task queue. The only differences
//!   inside the family are the per-partition table and the queue order
//!   (Sections 5.1, 5.2, 6.2).
//! * `join_cpr` — CPRL/CPRA (Section 6.1): chunked partitioning with no
//!   global histogram; the join phase gathers every partition's chunk
//!   slices (large sequential, possibly remote reads) instead of having
//!   partitioned them with random remote writes.

use std::time::Instant;

use mmjoin_hashtable::{
    ArrayTable, IdentityHash, JoinTable, StChainedTable, StLinearTable, TableSpec,
};
use mmjoin_partition::{
    chunked_partition_on, partition_parallel_on, task_order, ChunkedPartitions,
    PartitionedRelation, RadixFn, ScatterMode, ScheduleOrder,
};
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::tuple::Tuple;
use mmjoin_util::Relation;

use crate::config::{JoinConfig, TableKind};
use crate::exec::join_morsels;
use crate::executor::QueuePolicy;
use crate::fault::{CtxPool, FaultCtx};
use crate::plan::JoinError;
use crate::spec::{self, ops, PartitionLayout, PartitionWrites};
use crate::stats::JoinResult;
use crate::Algorithm;

/// Per-tuple CPU cost of build/probe for a table kind.
pub(crate) fn table_cpu(kind: TableKind) -> (f64, f64) {
    match kind {
        TableKind::Chained | TableKind::Linear => (ops::BUILD, ops::PROBE),
        TableKind::Array => (ops::ARRAY, ops::ARRAY),
    }
}

/// Approximate per-build-tuple table footprint for the cost model.
pub(crate) fn table_bytes_per_tuple(
    kind: TableKind,
    domain: usize,
    bits: u32,
    r_len: usize,
) -> f64 {
    match kind {
        // 32-byte bucket holds 2 tuples at the sized load factor.
        TableKind::Chained => 16.0,
        // next_pow2(2n) 8-byte slots.
        TableKind::Linear => 16.0,
        TableKind::Array => {
            let slots = (domain >> bits).max(1) as f64 + 2.0;
            let avg_part = (r_len as f64 / (1u64 << bits) as f64).max(1.0);
            slots * 4.0 / avg_part
        }
    }
}

/// Build a table of `kind` over `r` slices and probe with `s` slices.
/// `unique` selects first-match probes (the study's PK assumption).
fn join_one<T: JoinTable>(
    spec: &TableSpec,
    unique: bool,
    r_slices: &mut dyn Iterator<Item = &[Tuple]>,
    s_slices: &mut dyn Iterator<Item = &[Tuple]>,
    c: &mut JoinChecksum,
) {
    let mut table = T::with_spec(spec);
    for slice in r_slices {
        table.insert_batch(slice);
    }
    for slice in s_slices {
        table.probe_batch(slice, unique, |t, bp| c.add(t.key, bp, t.payload));
    }
}

/// Dispatch on the table kind (monomorphized join kernels).
pub(crate) fn join_co_partition(
    kind: TableKind,
    spec: &TableSpec,
    unique: bool,
    r_slices: &mut dyn Iterator<Item = &[Tuple]>,
    s_slices: &mut dyn Iterator<Item = &[Tuple]>,
    c: &mut JoinChecksum,
) {
    match kind {
        TableKind::Chained => {
            join_one::<StChainedTable<IdentityHash>>(spec, unique, r_slices, s_slices, c)
        }
        TableKind::Linear => {
            join_one::<StLinearTable<IdentityHash>>(spec, unique, r_slices, s_slices, c)
        }
        TableKind::Array => join_one::<ArrayTable>(spec, unique, r_slices, s_slices, c),
    }
}

/// Table spec for partition `p` with `r_len` build tuples in it.
pub(crate) fn spec_for(kind: TableKind, bits: u32, domain: usize, part_r_len: usize) -> TableSpec {
    match kind {
        TableKind::Array => TableSpec::array(bits, domain),
        // Hash on the bits above the partition digits, or identity
        // hashing would send every key of the partition to one bucket.
        _ => TableSpec::hashed_partition(part_r_len.max(1), bits),
    }
}

pub(crate) fn radix_bits(cfg: &JoinConfig, kind: TableKind, r_len: usize) -> u32 {
    match kind {
        TableKind::Array => cfg.bits_for_array_tables(r_len),
        _ => cfg.bits_for_hash_tables(r_len),
    }
}

/// PRO family: contiguous partitioning + task-queue co-partition joins.
pub fn join_pro(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    kind: TableKind,
    improved_sched: bool,
) -> Result<JoinResult, JoinError> {
    let alg = match (kind, improved_sched) {
        (TableKind::Chained, false) => Algorithm::Pro,
        (TableKind::Linear, false) => Algorithm::Prl,
        (TableKind::Array, false) => Algorithm::Pra,
        (TableKind::Chained, true) => Algorithm::ProIs,
        (TableKind::Linear, true) => Algorithm::PrlIs,
        (TableKind::Array, true) => Algorithm::PraIs,
    };
    let ctx = FaultCtx::begin(alg, cfg);
    let mut result = JoinResult::new(alg);
    let bits = radix_bits(cfg, kind, r.len());
    result.radix_bits = Some(bits);
    let f = RadixFn::new(bits);
    let parts = f.fanout();
    let domain = cfg.domain(r.len());

    let pool = CtxPool::new(cfg, &ctx);

    // Partition phase (R then S, like the original driver).
    ctx.enter_phase("partition");
    // Partitioned copies of both inputs (8 B/tuple) plus the per-worker
    // SWWCB pools (one cache line per partition per worker).
    let _part_charge = ctx.charge((r.len() + s.len()) * 8 + cfg.threads * parts * 64)?;
    let start = Instant::now();
    let pr = partition_parallel_on(r.tuples(), f, &pool, ScatterMode::Swwcb);
    let ps = partition_parallel_on(s.tuples(), f, &pool, ScatterMode::Swwcb);
    let part_wall = start.elapsed();
    let mut part_sim = 0.0;
    for (rel, len) in [(r, r.len()), (s, s.len())] {
        let specs = spec::partition_pass_specs(
            cfg,
            len,
            rel.placement(),
            parts,
            true,
            PartitionWrites::GlobalInterleaved,
        );
        let order: Vec<usize> = (0..specs.len()).collect();
        let (t, sim) = spec::run_phase(cfg, &specs, &order);
        part_sim += t;
        if cfg.keep_timelines {
            result.timelines.push(("partition", sim));
        }
    }
    result.push_phase("partition", part_wall, part_sim, &pool);
    ctx.checkpoint(&result)?;

    // Join phase. The simulator still sees the queue *insertion order*
    // (sequential vs NUMA round-robin); on the host, improved scheduling
    // is the executor's NUMA-local queue policy with work stealing.
    ctx.enter_phase("join");
    let order_kind = if improved_sched {
        ScheduleOrder::NumaRoundRobin {
            nodes: cfg.topology.nodes,
        }
    } else {
        ScheduleOrder::Sequential
    };
    let policy = if improved_sched {
        QueuePolicy::NumaLocal {
            nodes: cfg.topology.nodes,
        }
    } else {
        QueuePolicy::Shared
    };
    let order = task_order(parts, order_kind);
    let start = Instant::now();
    let checksum = run_contiguous_join_phase(
        &pool, &ctx, policy, &pr, &ps, &order, cfg, kind, bits, domain,
    );
    let join_wall = start.elapsed();
    result.set_checksum(checksum);

    let (r_sizes, s_sizes) = partition_sizes(&pr, &ps);
    let (r_sizes, s_sizes, order) = if cfg.skew_handling {
        spec::split_skewed_sizes(&r_sizes, &s_sizes, &order, cfg.sim_threads())
    } else {
        (r_sizes, s_sizes, order)
    };
    let (cpu_build, cpu_probe) = table_cpu(kind);
    let tasks = spec::join_task_specs(
        cfg,
        &r_sizes,
        &s_sizes,
        PartitionLayout::Contiguous,
        cpu_build,
        cpu_probe,
        table_bytes_per_tuple(kind, domain, bits, r.len()),
    );
    let (join_sim, sim) = spec::run_phase(cfg, &tasks, &order);
    result.push_phase("join", join_wall, join_sim, &pool);
    if cfg.keep_timelines {
        result.timelines.push(("join", sim));
    }
    ctx.checkpoint(&result)?;
    Ok(result)
}

fn partition_sizes(pr: &PartitionedRelation, ps: &PartitionedRelation) -> (Vec<usize>, Vec<usize>) {
    let parts = pr.parts();
    (
        (0..parts).map(|p| pr.part_len(p)).collect(),
        (0..parts).map(|p| ps.part_len(p)).collect(),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_contiguous_join_phase(
    pool: &CtxPool,
    ctx: &FaultCtx,
    policy: QueuePolicy,
    pr: &PartitionedRelation,
    ps: &PartitionedRelation,
    order: &[usize],
    cfg: &JoinConfig,
    kind: TableKind,
    bits: u32,
    domain: usize,
) -> JoinChecksum {
    let (queue_order, skewed) = if cfg.skew_handling {
        let s_sizes: Vec<usize> = (0..ps.parts()).map(|p| ps.part_len(p)).collect();
        let (_, skewed) = crate::skew::classify_partitions(&s_sizes, cfg.threads);
        let filtered: Vec<usize> = order
            .iter()
            .copied()
            .filter(|p| !skewed.contains(p))
            .collect();
        (filtered, skewed)
    } else {
        (order.to_vec(), Vec::new())
    };
    let mut total = join_morsels(pool, &queue_order, pr.parts(), policy, |p| {
        let mut c = JoinChecksum::new();
        if ctx.tick() {
            return c;
        }
        let spec = spec_for(kind, bits, domain, pr.part_len(p));
        let _table_charge = match ctx.try_charge(spec.table_bytes()) {
            Some(charge) => charge,
            None => return c,
        };
        join_co_partition(
            kind,
            &spec,
            cfg.unique_build_keys,
            &mut std::iter::once(pr.partition(p)),
            &mut std::iter::once(ps.partition(p)),
            &mut c,
        );
        c
    });
    // Oversized partitions: one build, all threads probing (extension —
    // the paper leaves this unexploited, Appendix A).
    for p in skewed {
        if ctx.should_stop() {
            break;
        }
        let spec = spec_for(kind, bits, domain, pr.part_len(p));
        let _table_charge = match ctx.try_charge(spec.table_bytes()) {
            Some(charge) => charge,
            None => break,
        };
        total.merge(crate::skew::join_skewed_partition(
            cfg,
            pool,
            kind,
            &spec,
            &[pr.partition(p)],
            &[ps.partition(p)],
        ));
    }
    total
}

/// PRO with *two-pass* partitioning (total bits split evenly across the
/// passes) — the configuration Figure 2 compares against single-pass
/// partitioning.
pub fn join_pro_two_pass(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    kind: TableKind,
) -> Result<JoinResult, JoinError> {
    let ctx = FaultCtx::begin(Algorithm::Pro, cfg);
    let mut result = JoinResult::new(Algorithm::Pro);
    let total_bits = cfg
        .radix_bits
        .unwrap_or_else(|| radix_bits(cfg, kind, r.len()))
        .max(2);
    let bits1 = total_bits / 2;
    let bits2 = total_bits - bits1;
    result.radix_bits = Some(total_bits);
    let parts = 1usize << total_bits;
    let domain = cfg.domain(r.len());

    let pool = CtxPool::new(cfg, &ctx);

    ctx.enter_phase("partition");
    // Two passes: the pass-1 output lives until pass 2 finishes, so the
    // peak holds two full copies of both inputs.
    let _part_charge = ctx.charge(2 * (r.len() + s.len()) * 8)?;
    let start = Instant::now();
    let pr = mmjoin_partition::two_pass_partition_on(
        r.tuples(),
        bits1,
        bits2,
        &pool,
        ScatterMode::Swwcb,
    );
    let ps = mmjoin_partition::two_pass_partition_on(
        s.tuples(),
        bits1,
        bits2,
        &pool,
        ScatterMode::Swwcb,
    );
    let part_wall = start.elapsed();
    let mut part_sim = 0.0;
    for (rel, len) in [(r, r.len()), (s, s.len())] {
        for pass_bits in [bits1, bits2] {
            let specs = spec::partition_pass_specs(
                cfg,
                len,
                rel.placement(),
                1usize << pass_bits,
                true,
                PartitionWrites::GlobalInterleaved,
            );
            let order: Vec<usize> = (0..specs.len()).collect();
            part_sim += spec::run_phase(cfg, &specs, &order).0;
        }
    }
    result.push_phase("partition", part_wall, part_sim, &pool);
    ctx.checkpoint(&result)?;

    ctx.enter_phase("join");
    let order = task_order(parts, ScheduleOrder::Sequential);
    let start = Instant::now();
    let checksum = run_contiguous_join_phase(
        &pool,
        &ctx,
        QueuePolicy::Shared,
        &pr,
        &ps,
        &order,
        cfg,
        kind,
        total_bits,
        domain,
    );
    let join_wall = start.elapsed();
    result.set_checksum(checksum);
    let (r_sizes, s_sizes) = partition_sizes(&pr, &ps);
    let (cpu_build, cpu_probe) = table_cpu(kind);
    let tasks = spec::join_task_specs(
        cfg,
        &r_sizes,
        &s_sizes,
        PartitionLayout::Contiguous,
        cpu_build,
        cpu_probe,
        table_bytes_per_tuple(kind, domain, total_bits, r.len()),
    );
    let (join_sim, _) = spec::run_phase(cfg, &tasks, &order);
    result.push_phase("join", join_wall, join_sim, &pool);
    ctx.checkpoint(&result)?;
    Ok(result)
}

/// CPR family: chunked partitioning + gather-style co-partition joins.
pub fn join_cpr(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    kind: TableKind,
) -> Result<JoinResult, JoinError> {
    let alg = match kind {
        TableKind::Linear => Algorithm::Cprl,
        TableKind::Array => Algorithm::Cpra,
        TableKind::Chained => Algorithm::Cprl, // not a paper variant; linear is canonical
    };
    let ctx = FaultCtx::begin(alg, cfg);
    let mut result = JoinResult::new(alg);
    let bits = radix_bits(cfg, kind, r.len());
    result.radix_bits = Some(bits);
    let f = RadixFn::new(bits);
    let parts = f.fanout();
    let domain = cfg.domain(r.len());

    let pool = CtxPool::new(cfg, &ctx);

    // Chunk-local partition phase.
    ctx.enter_phase("partition");
    // Chunk-local partitioned copies plus per-worker SWWCB pools.
    let _part_charge = ctx.charge((r.len() + s.len()) * 8 + cfg.threads * parts * 64)?;
    let start = Instant::now();
    let cr = chunked_partition_on(r.tuples(), f, &pool, ScatterMode::Swwcb);
    let cs = chunked_partition_on(s.tuples(), f, &pool, ScatterMode::Swwcb);
    let part_wall = start.elapsed();
    let mut part_sim = 0.0;
    for (rel, len) in [(r, r.len()), (s, s.len())] {
        let specs = spec::partition_pass_specs(
            cfg,
            len,
            rel.placement(),
            parts,
            true,
            PartitionWrites::Local,
        );
        let order: Vec<usize> = (0..specs.len()).collect();
        let (t, sim) = spec::run_phase(cfg, &specs, &order);
        part_sim += t;
        if cfg.keep_timelines {
            result.timelines.push(("partition", sim));
        }
    }
    result.push_phase("partition", part_wall, part_sim, &pool);
    ctx.checkpoint(&result)?;

    // Join phase: gather chunk slices per partition.
    ctx.enter_phase("join");
    let order = task_order(parts, ScheduleOrder::Sequential);
    let start = Instant::now();
    let checksum = run_chunked_join_phase(
        &pool,
        &ctx,
        QueuePolicy::Shared,
        &cr,
        &cs,
        &order,
        cfg,
        kind,
        bits,
        domain,
    );
    let join_wall = start.elapsed();
    result.set_checksum(checksum);

    let r_sizes: Vec<usize> = (0..parts).map(|p| cr.part_len(p)).collect();
    let s_sizes: Vec<usize> = (0..parts).map(|p| cs.part_len(p)).collect();
    let (r_sizes, s_sizes, order) = if cfg.skew_handling {
        spec::split_skewed_sizes(&r_sizes, &s_sizes, &order, cfg.sim_threads())
    } else {
        (r_sizes, s_sizes, order)
    };
    let (cpu_build, cpu_probe) = table_cpu(kind);
    let tasks = spec::join_task_specs(
        cfg,
        &r_sizes,
        &s_sizes,
        PartitionLayout::Spread,
        cpu_build,
        cpu_probe,
        table_bytes_per_tuple(kind, domain, bits, r.len()),
    );
    let (join_sim, sim) = spec::run_phase(cfg, &tasks, &order);
    result.push_phase("join", join_wall, join_sim, &pool);
    if cfg.keep_timelines {
        result.timelines.push(("join", sim));
    }
    ctx.checkpoint(&result)?;
    Ok(result)
}

#[allow(clippy::too_many_arguments)]
fn run_chunked_join_phase(
    pool: &CtxPool,
    ctx: &FaultCtx,
    policy: QueuePolicy,
    cr: &ChunkedPartitions,
    cs: &ChunkedPartitions,
    order: &[usize],
    cfg: &JoinConfig,
    kind: TableKind,
    bits: u32,
    domain: usize,
) -> JoinChecksum {
    let (queue_order, skewed) = if cfg.skew_handling {
        let s_sizes: Vec<usize> = (0..cs.parts()).map(|p| cs.part_len(p)).collect();
        let (_, skewed) = crate::skew::classify_partitions(&s_sizes, cfg.threads);
        let filtered: Vec<usize> = order
            .iter()
            .copied()
            .filter(|p| !skewed.contains(p))
            .collect();
        (filtered, skewed)
    } else {
        (order.to_vec(), Vec::new())
    };
    let mut total = join_morsels(pool, &queue_order, cr.parts(), policy, |p| {
        let mut c = JoinChecksum::new();
        if ctx.tick() {
            return c;
        }
        let spec = spec_for(kind, bits, domain, cr.part_len(p));
        let _table_charge = match ctx.try_charge(spec.table_bytes()) {
            Some(charge) => charge,
            None => return c,
        };
        let mut r_iter = cr.chunks().iter().map(|ch| ch.partition(p));
        let mut s_iter = cs.chunks().iter().map(|ch| ch.partition(p));
        join_co_partition(
            kind,
            &spec,
            cfg.unique_build_keys,
            &mut r_iter,
            &mut s_iter,
            &mut c,
        );
        c
    });
    for p in skewed {
        if ctx.should_stop() {
            break;
        }
        let spec = spec_for(kind, bits, domain, cr.part_len(p));
        let _table_charge = match ctx.try_charge(spec.table_bytes()) {
            Some(charge) => charge,
            None => break,
        };
        let r_slices: Vec<&[mmjoin_util::Tuple]> =
            cr.chunks().iter().map(|ch| ch.partition(p)).collect();
        let s_slices: Vec<&[mmjoin_util::Tuple]> =
            cs.chunks().iter().map(|ch| ch.partition(p)).collect();
        total.merge(crate::skew::join_skewed_partition(
            cfg, pool, kind, &spec, &r_slices, &s_slices,
        ));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};
    use mmjoin_util::Placement;

    fn workload(n: usize) -> (Relation, Relation) {
        let r = gen_build_dense(n, 5, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(n * 3, n, 6, Placement::Chunked { parts: 4 });
        (r, s)
    }

    fn cfg_with(threads: usize, bits: Option<u32>) -> JoinConfig {
        let mut cfg = JoinConfig::new(threads);
        cfg.simulate = false;
        cfg.radix_bits = bits;
        cfg
    }

    #[test]
    fn pro_family_matches_reference() {
        let (r, s) = workload(4_000);
        let expect = reference_join(&r, &s);
        for kind in [TableKind::Chained, TableKind::Linear, TableKind::Array] {
            for improved in [false, true] {
                let res = join_pro(&r, &s, &cfg_with(4, Some(5)), kind, improved).unwrap();
                assert_eq!(res.matches, expect.count, "{kind:?} improved={improved}");
                assert_eq!(res.checksum, expect.digest, "{kind:?}");
            }
        }
    }

    #[test]
    fn cpr_family_matches_reference() {
        let (r, s) = workload(4_000);
        let expect = reference_join(&r, &s);
        for kind in [TableKind::Linear, TableKind::Array] {
            for threads in [1, 3, 8] {
                let res = join_cpr(&r, &s, &cfg_with(threads, Some(6)), kind).unwrap();
                assert_eq!(res.matches, expect.count, "{kind:?} threads={threads}");
                assert_eq!(res.checksum, expect.digest);
            }
        }
    }

    #[test]
    fn two_pass_pro_matches_reference() {
        let (r, s) = workload(4_000);
        let expect = reference_join(&r, &s);
        for kind in [TableKind::Chained, TableKind::Linear, TableKind::Array] {
            let res = join_pro_two_pass(&r, &s, &cfg_with(4, Some(6)), kind).unwrap();
            assert_eq!(res.matches, expect.count, "{kind:?}");
            assert_eq!(res.checksum, expect.digest, "{kind:?}");
        }
    }

    #[test]
    fn skewed_probe_is_correct() {
        let n = 2_000;
        let r = gen_build_dense(n, 7, Placement::Chunked { parts: 4 });
        let s = gen_probe_zipf(10_000, n, 0.99, 8, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        let res = join_pro(&r, &s, &cfg_with(4, Some(4)), TableKind::Linear, true).unwrap();
        assert_eq!(res.matches, expect.count);
        assert_eq!(res.checksum, expect.digest);
        let res = join_cpr(&r, &s, &cfg_with(4, Some(4)), TableKind::Linear).unwrap();
        assert_eq!(res.matches, expect.count);
        assert_eq!(res.checksum, expect.digest);
    }

    #[test]
    fn skew_handling_preserves_results() {
        let n = 2_000;
        let r = gen_build_dense(n, 41, Placement::Chunked { parts: 4 });
        let s = gen_probe_zipf(30_000, n, 0.99, 42, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        for kind in [TableKind::Linear, TableKind::Array] {
            let mut cfg = cfg_with(4, Some(5));
            cfg.skew_handling = true;
            let a = join_pro(&r, &s, &cfg, kind, true).unwrap();
            let b = join_cpr(&r, &s, &cfg, kind).unwrap();
            for res in [&a, &b] {
                assert_eq!(res.matches, expect.count, "{kind:?}");
                assert_eq!(res.checksum, expect.digest, "{kind:?}");
            }
        }
    }

    #[test]
    fn equation_one_bits_applied_when_unset() {
        let (r, s) = workload(2_000);
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        let res = join_pro(&r, &s, &cfg, TableKind::Linear, false).unwrap();
        assert!(res.radix_bits.is_some());
        assert!(res.radix_bits.unwrap() >= 1);
    }

    #[test]
    fn empty_relations() {
        let empty = Relation::from_tuples(&[], Placement::Interleaved);
        let (r, _) = workload(100);
        let cfg = cfg_with(2, Some(3));
        assert_eq!(
            join_pro(&empty, &r, &cfg, TableKind::Linear, false)
                .unwrap()
                .matches,
            0
        );
        assert_eq!(
            join_pro(&r, &empty, &cfg, TableKind::Chained, false)
                .unwrap()
                .matches,
            0
        );
        assert_eq!(
            join_cpr(&empty, &empty, &cfg, TableKind::Linear)
                .unwrap()
                .matches,
            0
        );
    }

    #[test]
    fn simulated_time_present_when_enabled() {
        let (r, s) = workload(2_000);
        let mut cfg = JoinConfig::new(4);
        cfg.radix_bits = Some(4);
        let res = join_pro(&r, &s, &cfg, TableKind::Linear, false).unwrap();
        assert!(res.total_sim() > 0.0);
        assert!(res.sim_of("partition") > 0.0);
        assert!(res.sim_of("join") > 0.0);
    }
}
