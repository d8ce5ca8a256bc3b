//! Direct calls into single layers, outside any join driver: radix
//! partitioning of S, a linear-probing table built from R and probed
//! with S, and the packed mergesort over S's keys. Each result is
//! checked, and each call is a span in the traced run.

use std::time::Instant;

use mmjoin_hashtable::StLinearTable;
use mmjoin_partition::{partition_parallel, RadixFn, ScatterMode};
use mmjoin_sort::sort_packed;
use mmjoin_util::alloc::AlignedVec;
use mmjoin_util::checksum::JoinChecksum;

use crate::joins::{ms_since, Relations};
use crate::trace::Tracer;
use crate::{stats, Report, THREADS};

/// The sort kernel is single-threaded; past this many keys it would
/// take seconds per call, so it sorts this prefix of S's keys.
const SORT_MAX: usize = 1 << 22;
const REPS: usize = 3;

pub fn measure(rel: &Relations, radix_bits: u32, tr: &mut Tracer, rep: &mut Report) {
    let s = rel.s.tuples();
    let mut id = 1 << 32;
    let mut span = |tr: &mut Tracer, name: &str, t: Instant, tuples: usize| {
        let start = tr.ms(t);
        tr.push(
            name,
            id,
            None,
            start,
            start + ms_since(t),
            vec![("tuples_in", tuples as f64)],
        );
        id += 1;
    };

    let mut part = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let out = partition_parallel(s, RadixFn::new(radix_bits), THREADS, ScatterMode::Swwcb);
        part.push(ms_since(t));
        span(tr, "layer.partition", t, s.len());
        if out.len() != s.len() {
            rep.fail_mismatch(&format!(
                "partition_parallel returned {} of {} tuples",
                out.len(),
                s.len()
            ));
        }
    }
    rep.metric(
        "partition.mtps",
        s.len() as f64 / 1e3 / stats::median(&part),
    );

    let mut probe = Vec::new();
    for _ in 0..REPS {
        let mut table: StLinearTable = StLinearTable::with_capacity(rel.r.len());
        table.insert_batch(rel.r.tuples());
        let t = Instant::now();
        let mut c = JoinChecksum::new();
        table.probe_batch(s, true, |p, b| c.add(p.key, b, p.payload));
        probe.push(ms_since(t));
        span(tr, "layer.hashtable_probe", t, s.len());
        if c != rel.expected {
            rep.fail_mismatch("linear-table probe_batch checksum differs from the reference");
        }
    }
    rep.metric(
        "hashtable.probe_mtps",
        s.len() as f64 / 1e3 / stats::median(&probe),
    );

    let n = s.len().min(SORT_MAX);
    let mut sort = Vec::new();
    let mut scratch = AlignedVec::new();
    for _ in 0..REPS {
        let mut keys: Vec<u64> = s[..n]
            .iter()
            .map(|t| (u64::from(t.key) << 32) | u64::from(t.payload))
            .collect();
        let t = Instant::now();
        sort_packed(&mut keys, &mut scratch);
        sort.push(ms_since(t));
        span(tr, "layer.sort", t, n);
        if !keys.windows(2).all(|w| w[0] <= w[1]) {
            rep.fail_mismatch("sort_packed output is not sorted");
        }
    }
    rep.metric("sort.mtps", n as f64 / 1e3 / stats::median(&sort));
}
