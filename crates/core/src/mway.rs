//! MWAY — the multi-way sort-merge join (Balkesen et al. 2013).
//!
//! Pipeline: (1) one radix pass with SWWCB into a *small* number of
//! partitions; (2) each partition's build and probe sides are sorted
//! independently — runs formed and merged with sorting networks, combined
//! with a bandwidth-saving multiway (loser-tree) merge; (3) co-partitions
//! are merge-joined.
//!
//! The original requires a power-of-two thread count; this implementation
//! has no such restriction (tasks come from a queue), but the harness
//! mirrors the paper and caps MWAY at 32 threads in Figure 1-style runs.

use std::time::Instant;

use mmjoin_partition::{partition_parallel_on, task_order, RadixFn, ScatterMode, ScheduleOrder};
use mmjoin_sort::{sort_packed, LoserTree};
use mmjoin_util::alloc::AlignedVec;
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::tuple::Tuple;
use mmjoin_util::{next_pow2, Relation};

use crate::config::JoinConfig;
use crate::exec::{join_morsels, morsel_map};
use crate::executor::QueuePolicy;
use crate::fault::{CtxPool, FaultCtx};
use crate::plan::JoinError;
use crate::spec::{self, ops, PartitionLayout, PartitionWrites};
use crate::stats::JoinResult;
use crate::Algorithm;

/// Sub-runs sorted independently and combined by the multiway merge.
const MERGE_WAYS: usize = 4;

/// MWAY join.
pub fn join_mway(r: &Relation, s: &Relation, cfg: &JoinConfig) -> Result<JoinResult, JoinError> {
    let ctx = FaultCtx::begin(Algorithm::Mway, cfg);
    let mut result = JoinResult::new(Algorithm::Mway);
    // Few partitions: enough for task parallelism, not cache-sized.
    let parts = next_pow2(cfg.threads * 4).max(4);
    let bits = parts.trailing_zeros();
    result.radix_bits = Some(bits);
    let f = RadixFn::new(bits);

    let pool = CtxPool::new(cfg, &ctx);

    // Phase 1: partition both inputs (single pass, SWWCB).
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
        part_sim += spec::run_phase(cfg, &specs, &order).0;
    }
    result.push_phase("partition", part_wall, part_sim, &pool);
    ctx.checkpoint(&result)?;

    // Phase 2: sort every partition of both sides (morsel per partition).
    ctx.enter_phase("sort");
    // Packed sort runs: both sides copied into u64 arrays.
    let _sort_charge = ctx.charge((r.len() + s.len()) * 8)?;
    let start = Instant::now();
    let sort_order: Vec<usize> = (0..parts).collect();
    let sorted: Vec<(usize, AlignedVec<u64>, AlignedVec<u64>)> = {
        let mut slots = morsel_map(&pool, &sort_order, parts, QueuePolicy::Shared, |p| {
            if ctx.tick() {
                return (p, AlignedVec::new(), AlignedVec::new());
            }
            let mut scratch = AlignedVec::new();
            (
                p,
                sort_partition(pr.partition(p), &mut scratch),
                sort_partition(ps.partition(p), &mut scratch),
            )
        });
        slots.sort_by_key(|(p, _, _)| *p);
        slots
    };
    let sort_wall = start.elapsed();
    let sort_specs = sort_phase_specs(cfg, &pr, &ps);
    let order = task_order(parts, ScheduleOrder::Sequential);
    let (sort_sim, _) = spec::run_phase(cfg, &sort_specs, &order);
    result.push_phase("sort", sort_wall, sort_sim, &pool);
    ctx.checkpoint(&result)?;

    // Phase 3: merge-join co-partitions.
    ctx.enter_phase("join");
    let start = Instant::now();
    let sorted_ref = &sorted;
    let checksum = join_morsels(&pool, &sort_order, parts, QueuePolicy::Shared, |p| {
        let mut c = JoinChecksum::new();
        if ctx.tick() {
            return c;
        }
        let (_, ref rs, ref ss) = sorted_ref[p];
        merge_join_sorted(rs, ss, &mut c);
        c
    });
    let join_wall = start.elapsed();
    result.set_checksum(checksum);
    let r_sizes: Vec<usize> = (0..parts).map(|p| pr.part_len(p)).collect();
    let s_sizes: Vec<usize> = (0..parts).map(|p| ps.part_len(p)).collect();
    let tasks = spec::join_task_specs(
        cfg,
        &r_sizes,
        &s_sizes,
        PartitionLayout::Contiguous,
        ops::MERGE_JOIN,
        ops::MERGE_JOIN,
        0.0, // no table: pure streaming merge
    );
    let (join_sim, _) = spec::run_phase(cfg, &tasks, &order);
    result.push_phase("join", join_wall, join_sim, &pool);
    ctx.checkpoint(&result)?;
    Ok(result)
}

/// Sort one partition: pack tuples, sort MERGE_WAYS sub-runs with the
/// network mergesort, combine with the loser-tree multiway merge.
fn sort_partition(tuples: &[Tuple], scratch: &mut AlignedVec<u64>) -> AlignedVec<u64> {
    let mut packed = AlignedVec::with_capacity(tuples.len());
    for t in tuples {
        packed.push(t.pack());
    }
    let n = packed.len();
    if n <= 1 {
        return packed;
    }
    if n < MERGE_WAYS * 8 {
        sort_packed(&mut packed, scratch);
        return packed;
    }
    let run_len = n.div_ceil(MERGE_WAYS);
    for chunk in packed.chunks_mut(run_len) {
        sort_packed(chunk, scratch);
    }
    let runs: Vec<&[u64]> = packed.chunks(run_len).collect();
    let mut merged = AlignedVec::with_capacity(n);
    for v in LoserTree::new(runs) {
        merged.push(v);
    }
    merged
}

/// Merge-join two key-sorted packed arrays (duplicates expand to the
/// cross product, like every hash variant).
fn merge_join_sorted(rs: &[u64], ss: &[u64], c: &mut JoinChecksum) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < rs.len() && j < ss.len() {
        let rk = (rs[i] >> 32) as u32;
        let sk = (ss[j] >> 32) as u32;
        if rk < sk {
            i += 1;
        } else if sk < rk {
            j += 1;
        } else {
            let i_end = rs[i..]
                .iter()
                .take_while(|&&v| (v >> 32) as u32 == rk)
                .count()
                + i;
            let j_end = ss[j..]
                .iter()
                .take_while(|&&v| (v >> 32) as u32 == rk)
                .count()
                + j;
            for &rv in &rs[i..i_end] {
                for &sv in &ss[j..j_end] {
                    c.add(rk, rv as u32, sv as u32);
                }
            }
            i = i_end;
            j = j_end;
        }
    }
}

/// Cost specs for the sort phase: each partition streams its bytes ~3×
/// (run formation + one multiway pass) and pays n·log2(n) compares.
fn sort_phase_specs(
    cfg: &JoinConfig,
    pr: &mmjoin_partition::PartitionedRelation,
    ps: &mmjoin_partition::PartitionedRelation,
) -> Vec<mmjoin_numamodel::TaskSpec> {
    let parts = pr.parts();
    let nodes = cfg.topology.nodes;
    (0..parts)
        .map(|p| {
            let n = (pr.part_len(p) + ps.part_len(p)) as f64;
            let bytes = n * 8.0;
            let mut spec = mmjoin_numamodel::TaskSpec::new(nodes);
            let node = mmjoin_partition::task::node_of_partition(p, parts, nodes);
            spec.stream(node, bytes * 3.0);
            spec.cpu(n * (n.max(2.0)).log2() * ops::SORT_CMP);
            spec.tlb(spec::seq_tlb_misses(bytes * 3.0, cfg));
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};
    use mmjoin_util::Placement;

    #[test]
    fn mway_matches_reference() {
        let n = 5_000;
        let r = gen_build_dense(n, 31, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(20_000, n, 32, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        for threads in [1, 3, 4, 8] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            let res = join_mway(&r, &s, &cfg).unwrap();
            assert_eq!(res.matches, expect.count, "threads={threads}");
            assert_eq!(res.checksum, expect.digest);
        }
    }

    #[test]
    fn mway_duplicates_cross_product() {
        let n = 500;
        let r = gen_build_dense(n, 33, Placement::Interleaved);
        let s = gen_probe_zipf(5_000, n, 0.99, 34, Placement::Interleaved);
        let expect = reference_join(&r, &s);
        let mut cfg = JoinConfig::new(4);
        cfg.simulate = false;
        let res = join_mway(&r, &s, &cfg).unwrap();
        assert_eq!(res.matches, expect.count);
        assert_eq!(res.checksum, expect.digest);
    }

    #[test]
    fn merge_join_cross_products() {
        let rs = vec![(5u64 << 32) | 1, (5u64 << 32) | 2, (7u64 << 32) | 3];
        let ss = vec![(5u64 << 32) | 10, (5u64 << 32) | 11, (6u64 << 32) | 12];
        let mut c = JoinChecksum::new();
        merge_join_sorted(&rs, &ss, &mut c);
        assert_eq!(c.count, 4);
    }

    #[test]
    fn mway_phases() {
        let r = gen_build_dense(1_000, 1, Placement::Interleaved);
        let s = gen_probe_fk(2_000, 1_000, 2, Placement::Interleaved);
        let cfg = JoinConfig::new(2);
        let res = join_mway(&r, &s, &cfg).unwrap();
        let names: Vec<&str> = res.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["partition", "sort", "join"]);
    }
}
