//! PRB — the basic two-pass parallel radix join (Balkesen et al., as
//! shipped: no software write-combine buffers, no streaming stores).
//!
//! Two passes of 7 bits each keep the per-pass fanout (128) under the
//! 4 KB-page TLB capacity (256 entries) — which is also why PRB is the
//! one algorithm that gets *slower* with 2 MB pages and their 32 TLB
//! entries (Figure 8).

use std::time::Instant;

use mmjoin_partition::{task_order, two_pass_partition_on, ScatterMode, ScheduleOrder};
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::Relation;

use crate::config::{JoinConfig, TableKind};
use crate::exec::join_morsels;
use crate::executor::QueuePolicy;
use crate::fault::{CtxPool, FaultCtx};
use crate::plan::JoinError;
use crate::pro::{join_co_partition, spec_for, table_bytes_per_tuple, table_cpu};
use crate::spec::{self, PartitionLayout, PartitionWrites};
use crate::stats::JoinResult;
use crate::Algorithm;

/// Default PRB configuration: 2 × 7 bits.
const PRB_DEFAULT_BITS: u32 = 14;

/// PRB: two-pass radix partitioning (direct scatter), chained tables,
/// sequential task order.
pub fn join_prb(r: &Relation, s: &Relation, cfg: &JoinConfig) -> Result<JoinResult, JoinError> {
    let ctx = FaultCtx::begin(Algorithm::Prb, cfg);
    let mut result = JoinResult::new(Algorithm::Prb);
    let total_bits = cfg.radix_bits.unwrap_or(PRB_DEFAULT_BITS).max(2);
    let bits1 = total_bits / 2;
    let bits2 = total_bits - bits1;
    result.radix_bits = Some(total_bits);
    let parts = 1usize << total_bits;
    let kind = TableKind::Chained;
    let domain = cfg.domain(r.len());

    let pool = CtxPool::new(cfg, &ctx);

    // Partition phase: two passes, no SWWCB.
    ctx.enter_phase("partition");
    // Two passes each materialize a full copy of both inputs (8 B/tuple);
    // the pass-1 output is dropped when pass 2 completes, so charge the
    // peak: two live copies.
    let _part_charge = ctx.charge(2 * (r.len() + s.len()) * 8)?;
    let start = Instant::now();
    let pr = two_pass_partition_on(r.tuples(), bits1, bits2, &pool, ScatterMode::Direct);
    let ps = two_pass_partition_on(s.tuples(), bits1, bits2, &pool, ScatterMode::Direct);
    let part_wall = start.elapsed();
    let mut part_sim = 0.0;
    for (rel, len) in [(r, r.len()), (s, s.len())] {
        for pass_bits in [bits1, bits2] {
            let specs = spec::partition_pass_specs(
                cfg,
                len,
                rel.placement(),
                1usize << pass_bits,
                false,
                PartitionWrites::GlobalInterleaved,
            );
            let order: Vec<usize> = (0..specs.len()).collect();
            part_sim += spec::run_phase(cfg, &specs, &order).0;
        }
    }
    result.push_phase("partition", part_wall, part_sim, &pool);
    ctx.checkpoint(&result)?;

    // Join phase.
    ctx.enter_phase("join");
    let order = task_order(parts, ScheduleOrder::Sequential);
    let start = Instant::now();
    let checksum: JoinChecksum = join_morsels(&pool, &order, parts, QueuePolicy::Shared, |p| {
        let mut c = JoinChecksum::new();
        if ctx.tick() {
            return c;
        }
        let spec = spec_for(kind, total_bits, domain, pr.part_len(p));
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
    let join_wall = start.elapsed();
    result.set_checksum(checksum);

    let r_sizes: Vec<usize> = (0..parts).map(|p| pr.part_len(p)).collect();
    let s_sizes: Vec<usize> = (0..parts).map(|p| ps.part_len(p)).collect();
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
    let (join_sim, sim) = spec::run_phase(cfg, &tasks, &order);
    result.push_phase("join", join_wall, join_sim, &pool);
    if cfg.keep_timelines {
        result.timelines.push(("join", sim));
    }
    ctx.checkpoint(&result)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
    use mmjoin_util::Placement;

    #[test]
    fn prb_matches_reference() {
        let n = 5_000;
        let r = gen_build_dense(n, 11, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(n * 4, n, 12, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        for threads in [1, 4] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            cfg.radix_bits = Some(8);
            let res = join_prb(&r, &s, &cfg).unwrap();
            assert_eq!(res.matches, expect.count, "threads={threads}");
            assert_eq!(res.checksum, expect.digest);
        }
    }

    #[test]
    fn default_bits_is_fourteen() {
        let r = gen_build_dense(500, 1, Placement::Interleaved);
        let s = gen_probe_fk(500, 500, 2, Placement::Interleaved);
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        let res = join_prb(&r, &s, &cfg).unwrap();
        assert_eq!(res.radix_bits, Some(14));
    }

    #[test]
    fn odd_total_bits_split() {
        let r = gen_build_dense(1_000, 3, Placement::Interleaved);
        let s = gen_probe_fk(2_000, 1_000, 4, Placement::Interleaved);
        let expect = reference_join(&r, &s);
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        cfg.radix_bits = Some(7); // 3 + 4
        let res = join_prb(&r, &s, &cfg).unwrap();
        assert_eq!(res.matches, expect.count);
        assert_eq!(res.checksum, expect.digest);
    }
}
