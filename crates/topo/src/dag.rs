//! A read-only view of a point-to-point transfer DAG.
//!
//! The packet engines simulate DAGs of transfers: each moves `bytes` from
//! `src` to `dst` once every transfer it depends on has completed. Several
//! layers own such a DAG in their own layout — a collective schedule with
//! its CSR dependency arena, a slice of network messages — and
//! [`TransferDag`] lets the engines read any of them in place, so no layer
//! has to copy its DAG into another's before a run.

use crate::NodeId;

/// A DAG of transfers indexed densely by `0..len()`.
///
/// Every dependency of transfer `i` is an index in `0..len()`. The engines
/// validate the rest of the contract (distinct endpoints, non-empty
/// payloads, [`id`](TransferDag::id) equal to the index) and report
/// violations as typed errors.
pub trait TransferDag {
    /// Number of transfers.
    fn len(&self) -> usize;

    /// `true` when the DAG has no transfers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sending node of transfer `i`.
    fn src(&self, i: usize) -> NodeId;

    /// Receiving node of transfer `i`.
    fn dst(&self, i: usize) -> NodeId;

    /// Payload of transfer `i` in bytes.
    fn bytes(&self, i: usize) -> u64;

    /// Earliest injection time of transfer `i` in ns, independent of its
    /// dependencies.
    fn ready_at_ns(&self, _i: usize) -> f64 {
        0.0
    }

    /// Indices of the transfers `i` waits for.
    fn deps(&self, i: usize) -> impl ExactSizeIterator<Item = usize> + '_;

    /// The id transfer `i` carries. Layouts that index by position need
    /// not override this; a layout that stores ids (a message slice) reports
    /// them, so the engines can reject a DAG whose ids are not dense.
    fn id(&self, i: usize) -> usize {
        i
    }
}
