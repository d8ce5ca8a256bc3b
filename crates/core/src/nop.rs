//! NOP and NOPA — the no-partitioning joins.
//!
//! NOP (Lang et al.): all threads concurrently insert their chunk of the
//! build relation into one global lock-free linear-probing table
//! (interleaved over all NUMA nodes), then probe their chunk of the probe
//! relation. Simultaneous multi-threading and out-of-order execution are
//! left to hide the cache misses — no hardware knowledge needed.
//!
//! NOPA (this paper): same skeleton, but the "table" is a plain payload
//! array indexed by the (dense) key.

use std::time::Instant;

use mmjoin_hashtable::{ConcurrentArrayTable, ConcurrentLinearTable, IdentityHash};
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::Relation;

use crate::config::JoinConfig;
use crate::exec::{merge_checksums, parallel_chunks, MORSEL};
use crate::fault::{CtxPool, FaultCtx};
use crate::plan::JoinError;
use crate::spec::{self, ops};
use crate::stats::JoinResult;
use crate::Algorithm;

/// NOP: lock-free linear-probing global table.
pub fn join_nop(r: &Relation, s: &Relation, cfg: &JoinConfig) -> Result<JoinResult, JoinError> {
    let ctx = FaultCtx::begin(Algorithm::Nop, cfg);
    let mut result = JoinResult::new(Algorithm::Nop);
    let pool = CtxPool::new(cfg, &ctx);

    // Build phase.
    ctx.enter_phase("build");
    // The global table: capacity rounds |R| up to the next power of two
    // at 2x load headroom, 8 B per slot.
    let _table_charge = ctx.charge((2 * r.len().max(1)).next_power_of_two() * 8)?;
    let table = ConcurrentLinearTable::<IdentityHash>::with_capacity(r.len());
    let table_bytes = table.memory_bytes() as f64;
    let start = Instant::now();
    parallel_chunks(&pool, r.tuples(), |_, chunk| {
        for block in chunk.chunks(MORSEL) {
            if ctx.should_stop() {
                return;
            }
            table.insert_batch(block);
        }
    });
    let build_wall = start.elapsed();
    let build_specs =
        spec::global_build_specs(cfg, r.len(), r.placement(), table_bytes, ops::BUILD);
    let order: Vec<usize> = (0..build_specs.len()).collect();
    let (build_sim, build_phase) = spec::run_phase(cfg, &build_specs, &order);
    result.push_phase("build", build_wall, build_sim, &pool);
    if cfg.keep_timelines {
        result.timelines.push(("build", build_phase));
    }
    ctx.checkpoint(&result)?;

    // Probe phase.
    ctx.enter_phase("probe");
    let start = Instant::now();
    let checksums = parallel_chunks(&pool, s.tuples(), |_, chunk| {
        let mut c = JoinChecksum::new();
        for block in chunk.chunks(MORSEL) {
            if ctx.should_stop() {
                return c;
            }
            table.probe_batch(block, cfg.unique_build_keys, |t, bp| {
                c.add(t.key, bp, t.payload)
            });
        }
        c
    });
    let probe_wall = start.elapsed();
    result.set_checksum(merge_checksums(checksums));
    let probe_specs =
        spec::global_probe_specs(cfg, s.len(), s.placement(), table_bytes, 1.0, ops::PROBE);
    let order: Vec<usize> = (0..probe_specs.len()).collect();
    let (probe_sim, probe_phase) = spec::run_phase(cfg, &probe_specs, &order);
    result.push_phase("probe", probe_wall, probe_sim, &pool);
    if cfg.keep_timelines {
        result.timelines.push(("probe", probe_phase));
    }
    ctx.checkpoint(&result)?;
    Ok(result)
}

/// NOPA: global payload array over the key domain.
pub fn join_nopa(r: &Relation, s: &Relation, cfg: &JoinConfig) -> Result<JoinResult, JoinError> {
    let ctx = FaultCtx::begin(Algorithm::Nopa, cfg);
    let mut result = JoinResult::new(Algorithm::Nopa);
    let pool = CtxPool::new(cfg, &ctx);

    ctx.enter_phase("build");
    let domain = cfg.domain(r.len());
    // The payload array: one 8 B slot per domain value.
    let _table_charge = ctx.charge((domain + 1) * 8)?;
    let table = ConcurrentArrayTable::new(domain + 1, 1);
    let table_bytes = table.memory_bytes() as f64;

    let start = Instant::now();
    parallel_chunks(&pool, r.tuples(), |_, chunk| {
        for block in chunk.chunks(MORSEL) {
            if ctx.should_stop() {
                return;
            }
            table.insert_batch(block);
        }
    });
    let build_wall = start.elapsed();
    let build_specs =
        spec::global_build_specs(cfg, r.len(), r.placement(), table_bytes, ops::ARRAY);
    let order: Vec<usize> = (0..build_specs.len()).collect();
    let (build_sim, _) = spec::run_phase(cfg, &build_specs, &order);
    result.push_phase("build", build_wall, build_sim, &pool);
    ctx.checkpoint(&result)?;

    ctx.enter_phase("probe");
    let start = Instant::now();
    let checksums = parallel_chunks(&pool, s.tuples(), |_, chunk| {
        let mut c = JoinChecksum::new();
        for block in chunk.chunks(MORSEL) {
            if ctx.should_stop() {
                return c;
            }
            table.probe_batch(block, |t, bp| c.add(t.key, bp, t.payload));
        }
        c
    });
    let probe_wall = start.elapsed();
    result.set_checksum(merge_checksums(checksums));
    let probe_specs =
        spec::global_probe_specs(cfg, s.len(), s.placement(), table_bytes, 1.0, ops::ARRAY);
    let order: Vec<usize> = (0..probe_specs.len()).collect();
    let (probe_sim, _) = spec::run_phase(cfg, &probe_specs, &order);
    result.push_phase("probe", probe_wall, probe_sim, &pool);
    ctx.checkpoint(&result)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
    use mmjoin_util::Placement;

    fn workload(n: usize) -> (Relation, Relation) {
        let r = gen_build_dense(n, 1, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(n * 4, n, 2, Placement::Chunked { parts: 4 });
        (r, s)
    }

    #[test]
    fn nop_matches_reference() {
        let (r, s) = workload(5_000);
        let expect = reference_join(&r, &s);
        for threads in [1, 2, 8] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            let got = join_nop(&r, &s, &cfg).unwrap();
            assert_eq!(got.matches, expect.count, "threads={threads}");
            assert_eq!(got.checksum, expect.digest);
        }
    }

    #[test]
    fn nopa_matches_reference() {
        let (r, s) = workload(5_000);
        let expect = reference_join(&r, &s);
        let mut cfg = JoinConfig::new(4);
        cfg.simulate = false;
        let got = join_nopa(&r, &s, &cfg).unwrap();
        assert_eq!(got.matches, expect.count);
        assert_eq!(got.checksum, expect.digest);
    }

    #[test]
    fn phases_recorded() {
        let (r, s) = workload(1_000);
        let cfg = JoinConfig::new(2);
        let res = join_nop(&r, &s, &cfg).unwrap();
        assert_eq!(res.phases.len(), 2);
        assert!(res.total_sim() > 0.0, "simulation produced time");
    }

    #[test]
    fn empty_probe() {
        let r = gen_build_dense(100, 1, Placement::Interleaved);
        let s = Relation::from_tuples(&[], Placement::Interleaved);
        let cfg = JoinConfig::new(2);
        assert_eq!(join_nop(&r, &s, &cfg).unwrap().matches, 0);
        assert_eq!(join_nopa(&r, &s, &cfg).unwrap().matches, 0);
    }
}
