//! Shared machinery for the ring-based AllReduce algorithms.
//!
//! A *ring phase* runs over an ordered node list `r_0 .. r_{K-1}` (successor
//! of `r_p` is `r_{(p+1) mod K}`) on a byte range split into `K` parts:
//!
//! * **ReduceScatter**: at step `s` (`0..K-1` exclusive of the last), `r_p`
//!   sends part `(p - s) mod K` to its successor, which adds it. After
//!   `K - 1` steps, `r_p` holds the fully reduced part `(p + 1) mod K`.
//! * **AllGather**: at step `s`, `r_p` sends part `(p + 1 - s) mod K`
//!   (a final value) to its successor, which overwrites.
//!
//! RingBiOdd extends a phase with a *feeder* — the excluded corner node
//! streams its parts into a designated merge position just in time for each
//! ring step (paper Algorithm 1) — and a *drain* that returns all final
//! parts to the excluded node during AllGather. Fault-aware ring repair
//! generalizes this to any number of feeders: every survivor the masked
//! cycle could not place gets its own feed/drain chain through a usable
//! neighbor on the cycle.

use meshcoll_topo::NodeId;

use crate::schedule::{split_range, OpId, OpKind};
use crate::stream::OpSink;
use crate::CollectiveError;

/// The excluded node's attachment to a ring direction (RingBiOdd).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Feeder {
    /// The excluded node.
    pub node: NodeId,
    /// Ring position of the merge node (must be a mesh neighbor of `node`).
    pub merge_pos: usize,
}

/// Ops emitted by one ring ReduceScatter phase.
#[derive(Debug)]
pub(crate) struct RsPhase {
    /// Per ring position, the ops whose completion means "this node's
    /// ReduceScatter result is final" (its last incoming reduce, plus the
    /// final feeder op at the merge position).
    pub completion: Vec<Vec<OpId>>,
}

/// Ops emitted by one ring AllGather phase.
#[derive(Debug)]
pub(crate) struct AgPhase {
    /// Per ring position, the ops whose completion means "this node holds
    /// the entire range": its last incoming gather plus its own
    /// ReduceScatter-final dependencies (the `entry` ops), which the gather
    /// chain does not otherwise imply.
    pub completion: Vec<Vec<OpId>>,
}

/// `x mod k` for the ring offsets this module forms, which all lie in
/// `[-k, 2k)`: one compare-and-add instead of an integer division per op.
#[inline]
fn wrap(x: isize, k: usize) -> usize {
    let k = k as isize;
    debug_assert!((-k..2 * k).contains(&x), "ring offset {x} out of range");
    let x = if x < 0 {
        x + k
    } else if x >= k {
        x - k
    } else {
        x
    };
    x as usize
}

/// Builds the ReduceScatter half of a ring phase.
///
/// `entry(p)` returns extra dependencies attached to *every* send from ring
/// position `p` — used by hierarchical algorithms to gate a phase on the
/// previous phase's per-node completion (a node may only forward data that
/// already includes its own, fully prepared contribution).
///
/// Every op's dependency list is assembled in one reused buffer, so
/// emission allocates O(k) per phase rather than once per op.
pub(crate) fn ring_reduce_scatter<'e>(
    b: &mut dyn OpSink,
    order: &[NodeId],
    range: (u64, u64),
    chunk: u32,
    entry: impl Fn(usize) -> &'e [OpId],
    feeders: &[Feeder],
) -> Result<RsPhase, CollectiveError> {
    let k = order.len();
    assert!(k >= 2, "ring needs at least two nodes");
    let parts = split_range(range.0, range.1, k as u64)?;

    // Feeder ops first, one chain per feeder: f[i] carries part j, j-1,
    // j-2, ... (mod K) for i = 0, 1, 2, ...; f[s] is exactly the part the
    // merge node forwards at ring step s.
    let mut feeds: Vec<Vec<OpId>> = Vec::with_capacity(feeders.len());
    for f in feeders {
        let j = f.merge_pos as isize;
        let mut feed: Vec<OpId> = Vec::with_capacity(k);
        for i in 0..k {
            let part = parts[wrap(j - i as isize, k)];
            let prev = feed.last().copied();
            feed.push(b.push(
                f.node,
                order[f.merge_pos],
                part.0,
                part.1,
                OpKind::Reduce,
                chunk,
                prev.as_slice(),
            ));
        }
        feeds.push(feed);
    }

    // Each step only depends on the previous step's ops, so two O(k) rows
    // suffice — the full (k-1) x k matrix would retain O(k²) ids, which at
    // 4,096-node rings is tens of MB of pure scratch.
    let mut prev: Vec<OpId> = Vec::new();
    let mut row: Vec<OpId> = Vec::with_capacity(k);
    let mut deps: Vec<OpId> = Vec::new();
    for s in 0..k - 1 {
        row.clear();
        for p in 0..k {
            let part = parts[wrap(p as isize - s as isize, k)];
            deps.clear();
            deps.extend_from_slice(entry(p));
            if s > 0 {
                deps.push(prev[wrap(p as isize - 1, k)]);
            }
            for (f, feed) in feeders.iter().zip(&feeds) {
                if p == f.merge_pos {
                    deps.push(feed[s]);
                }
            }
            row.push(b.push(
                order[p],
                order[wrap(p as isize + 1, k)],
                part.0,
                part.1,
                OpKind::Reduce,
                chunk,
                &deps,
            ));
        }
        std::mem::swap(&mut prev, &mut row);
    }

    // Completion: position p's final part (p+1) is delivered by the last
    // step's send from p-1 (`prev`, the final row); at each merge position
    // the feeder's last op also contributes.
    let completion: Vec<Vec<OpId>> = (0..k)
        .map(|p| {
            let mut v = vec![prev[wrap(p as isize - 1, k)]];
            for (f, feed) in feeders.iter().zip(&feeds) {
                if p == f.merge_pos {
                    v.push(*feed.last().expect("feeder ops exist"));
                }
            }
            // The terminal node's own contribution to its final part is
            // added locally by its entry ops (e.g. the previous hierarchy
            // phase), not by the ring chain — completion must wait for it.
            v.extend_from_slice(entry(p));
            v
        })
        .collect();

    Ok(RsPhase { completion })
}

/// Builds the AllGather half of a ring phase.
///
/// `entry(p)` must return the dependencies establishing that ring position
/// `p` holds its final part `(p + 1) mod K` (typically the ReduceScatter
/// phase's `completion[p]`). Each `drain` makes its merge node forward
/// every final part to the excluded node as it appears. Ring ops pass
/// their dependencies as borrowed slices and drain ops share one reused
/// buffer, so emission allocates per row, not per op.
pub(crate) fn ring_all_gather<'e>(
    b: &mut dyn OpSink,
    order: &[NodeId],
    range: (u64, u64),
    chunk: u32,
    entry: impl Fn(usize) -> &'e [OpId],
    drains: &[Feeder],
) -> Result<AgPhase, CollectiveError> {
    let k = order.len();
    assert!(k >= 2, "ring needs at least two nodes");
    let parts = split_range(range.0, range.1, k as u64)?;

    let mut ops: Vec<Vec<OpId>> = Vec::with_capacity(k - 1);
    for s in 0..k - 1 {
        let mut row = Vec::with_capacity(k);
        for p in 0..k {
            let part = parts[wrap(p as isize + 1 - s as isize, k)];
            let deps = if s == 0 {
                entry(p)
            } else {
                std::slice::from_ref(&ops[s - 1][wrap(p as isize - 1, k)])
            };
            row.push(b.push(
                order[p],
                order[wrap(p as isize + 1, k)],
                part.0,
                part.1,
                OpKind::Gather,
                chunk,
                deps,
            ));
        }
        ops.push(row);
    }

    let completion: Vec<Vec<OpId>> = (0..k)
        .map(|p| {
            // A node receives one part per AllGather step, and those
            // receives are *not* ancestors of one another (op[s][p-1]
            // depends on op[s-1][p-2], not on op[s-1][p-1]) — "holds the
            // entire range" therefore needs every incoming op, plus the
            // node's own ReduceScatter-final dependencies (the entry ops).
            let mut v: Vec<OpId> = (0..k - 1)
                .map(|s| ops[s][wrap(p as isize - 1, k)])
                .collect();
            v.extend_from_slice(entry(p));
            v
        })
        .collect();

    // Drain to each excluded node: the merge node owns part (j+1) and then
    // receives parts j, j-1, ... during AllGather; it forwards each to the
    // excluded node.
    let mut deps: Vec<OpId> = Vec::new();
    for d in drains {
        let j = d.merge_pos as isize;
        let mut prev: Option<OpId> = None;
        for s in 0..k {
            let part = parts[wrap(j + 1 - s as isize, k)];
            deps.clear();
            if s == 0 {
                deps.extend_from_slice(entry(d.merge_pos));
            } else {
                deps.push(ops[s - 1][wrap(j - 1, k)]);
            }
            deps.extend(prev);
            prev = Some(b.push(
                order[d.merge_pos],
                d.node,
                part.0,
                part.1,
                OpKind::Gather,
                chunk,
                &deps,
            ));
        }
    }

    Ok(AgPhase { completion })
}

/// No extra entry dependencies.
pub(crate) fn no_entry(_p: usize) -> &'static [OpId] {
    &[]
}
