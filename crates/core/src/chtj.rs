//! CHTJ — the concise-hash-table join (Barber et al.).
//!
//! Classified as a no-partitioning join (Section 3.2): the build side is
//! partitioned by hash prefix only so threads can bulkload disjoint CHT
//! regions without synchronization; the probe phase is chunk-parallel
//! against the one global (read-only) CHT, exactly like NOP.

use std::time::Instant;

use mmjoin_hashtable::ConciseHashTable;
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::Relation;

use crate::config::JoinConfig;
use crate::exec::{merge_checksums, parallel_chunks, MORSEL};
use crate::fault::{CtxPool, FaultCtx};
use crate::plan::JoinError;
use crate::spec::{self, ops};
use crate::stats::JoinResult;
use crate::Algorithm;

/// CHTJ: bulkloaded concise hash table + chunk-parallel probe.
pub fn join_chtj(r: &Relation, s: &Relation, cfg: &JoinConfig) -> Result<JoinResult, JoinError> {
    let ctx = FaultCtx::begin(Algorithm::Chtj, cfg);
    let mut result = JoinResult::new(Algorithm::Chtj);
    let pool = CtxPool::new(cfg, &ctx);

    // Build (region-parallel bulkload inside).
    ctx.enter_phase("build");
    // CHT footprint: bitmap word + dense tuple array, ~16 B per build
    // tuple.
    let _table_charge = ctx.charge(r.len() * 16)?;
    let start = Instant::now();
    let cht = ConciseHashTable::<mmjoin_hashtable::MultiplicativeHash>::build_on(r.tuples(), &pool);
    let build_wall = start.elapsed();
    let table_bytes = cht.memory_bytes() as f64;
    // Build = scan + radix scatter by hash prefix + bulkload writes.
    let build_specs =
        spec::global_build_specs(cfg, r.len(), r.placement(), table_bytes, ops::BUILD + 2.0);
    let order: Vec<usize> = (0..build_specs.len()).collect();
    let (build_sim, _) = spec::run_phase(cfg, &build_specs, &order);
    result.push_phase("build", build_wall, build_sim, &pool);
    ctx.checkpoint(&result)?;

    // Probe: every lookup touches the bitmap word *and* the dense array —
    // the "at least two random accesses for every operation" that makes
    // CHTJ the most data-size-sensitive NOP*-algorithm (Section 7.3,
    // Table 4).
    ctx.enter_phase("probe");
    let start = Instant::now();
    let checksums = parallel_chunks(&pool, s.tuples(), |_, chunk| {
        let mut c = JoinChecksum::new();
        for block in chunk.chunks(MORSEL) {
            if ctx.should_stop() {
                return c;
            }
            cht.probe_batch(block, |t, bp| c.add(t.key, bp, t.payload));
        }
        c
    });
    let probe_wall = start.elapsed();
    result.set_checksum(merge_checksums(checksums));
    let probe_specs = spec::global_probe_specs(
        cfg,
        s.len(),
        s.placement(),
        table_bytes,
        2.0,
        ops::CHT_PROBE,
    );
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
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};
    use mmjoin_util::Placement;

    #[test]
    fn chtj_matches_reference() {
        let n = 5_000;
        let r = gen_build_dense(n, 21, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(20_000, n, 22, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        for threads in [1, 4, 8] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            let res = join_chtj(&r, &s, &cfg).unwrap();
            assert_eq!(res.matches, expect.count, "threads={threads}");
            assert_eq!(res.checksum, expect.digest);
        }
    }

    #[test]
    fn chtj_skewed_probe() {
        let n = 2_000;
        let r = gen_build_dense(n, 23, Placement::Interleaved);
        let s = gen_probe_zipf(10_000, n, 0.9, 24, Placement::Interleaved);
        let expect = reference_join(&r, &s);
        let mut cfg = JoinConfig::new(4);
        cfg.simulate = false;
        let res = join_chtj(&r, &s, &cfg).unwrap();
        assert_eq!(res.matches, expect.count);
        assert_eq!(res.checksum, expect.digest);
    }
}
