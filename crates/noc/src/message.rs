use std::fmt;

use meshcoll_topo::{NodeId, TransferDag};

/// Identifier of a message within one simulation run. Ids must be dense
/// (`0..n` in input order) so the simulators can index by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MsgId(pub usize);

impl MsgId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One point-to-point transfer in a message DAG.
///
/// A message becomes *ready* when all its dependencies have completed
/// (delivered their last packet); it is then packetized and injected at its
/// source. The engines read any [`TransferDag`] in place — a collective
/// schedule runs without conversion (one op is one transfer) — so a
/// `Message` list is the builder for hand-written DAGs in tests and tools.
///
/// # Example
///
/// ```
/// use meshcoll_noc::{Message, MsgId};
/// use meshcoll_topo::NodeId;
/// let m = Message::new(MsgId(1), NodeId(0), NodeId(3), 4096)
///     .with_deps([MsgId(0)])
///     .with_ready_at(100.0);
/// assert_eq!(m.deps, vec![MsgId(0)]);
/// assert_eq!(m.ready_at_ns, 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Dense message id.
    pub id: MsgId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size in bytes (must be non-zero).
    pub bytes: u64,
    /// Messages that must complete before this one may start.
    pub deps: Vec<MsgId>,
    /// Earliest injection time in ns, independent of dependencies
    /// (used to model compute availability, e.g. layer-wise gradient
    /// readiness in the overlap experiments). The packet engines inject at
    /// the first picosecond at or past it ([`ns_to_ps`](crate::ns_to_ps));
    /// a negative time injects at 0.
    pub ready_at_ns: f64,
}

impl Message {
    /// Creates a message with no dependencies, ready at time 0.
    pub fn new(id: MsgId, src: NodeId, dst: NodeId, bytes: u64) -> Self {
        Message {
            id,
            src,
            dst,
            bytes,
            deps: Vec::new(),
            ready_at_ns: 0.0,
        }
    }

    /// Adds dependencies (builder style).
    #[must_use]
    pub fn with_deps<I: IntoIterator<Item = MsgId>>(mut self, deps: I) -> Self {
        self.deps.extend(deps);
        self
    }

    /// Sets the earliest injection time (builder style).
    #[must_use]
    pub fn with_ready_at(mut self, t_ns: f64) -> Self {
        self.ready_at_ns = t_ns;
        self
    }
}

/// A message slice read as a [`TransferDag`]: message `i` is transfer `i`,
/// and it reports its own [`Message::id`] so the engines can reject
/// non-dense ids. (The trait lives in `meshcoll-topo`, so the slice needs
/// this local wrapper to implement it.)
#[derive(Debug, Clone, Copy)]
pub(crate) struct MessageDag<'a>(pub(crate) &'a [Message]);

impl TransferDag for MessageDag<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    fn src(&self, i: usize) -> NodeId {
        self.0[i].src
    }

    #[inline]
    fn dst(&self, i: usize) -> NodeId {
        self.0[i].dst
    }

    #[inline]
    fn bytes(&self, i: usize) -> u64 {
        self.0[i].bytes
    }

    #[inline]
    fn ready_at_ns(&self, i: usize) -> f64 {
        self.0[i].ready_at_ns
    }

    #[inline]
    fn deps(&self, i: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.0[i].deps.iter().map(|d| d.index())
    }

    #[inline]
    fn id(&self, i: usize) -> usize {
        self.0[i].id.index()
    }
}

/// Largest supported message count per simulation run.
///
/// Both engines index messages densely, and several structures (route
/// memos, event keys, schedule op ids) pack those indices into `u32`;
/// past this bound a `usize → u32` narrowing would silently alias distinct
/// messages, so [`check_count`] turns it into a typed error up front.
pub const MAX_MESSAGES: usize = u32::MAX as usize;

/// Rejects runs whose message count exceeds [`MAX_MESSAGES`].
#[inline]
pub(crate) fn check_count(n: usize) -> Result<(), crate::NocError> {
    if n > MAX_MESSAGES {
        return Err(crate::NocError::TooManyMessages {
            count: n,
            max: MAX_MESSAGES,
        });
    }
    Ok(())
}

/// Validates a message slice: bounded count, dense ids, in-range deps,
/// non-empty payloads, distinct endpoints. Shared by both simulator engines.
pub(crate) fn validate(messages: &[Message]) -> Result<(), crate::NocError> {
    check_count(messages.len())?;
    for i in 0..messages.len() {
        validate_one(&MessageDag(messages), i)?;
    }
    Ok(())
}

/// The per-transfer half of [`validate`], so single-pass preparers can fold
/// validation into their main loop instead of paying a separate full sweep
/// over a ~10^5-transfer DAG; returns the transfer's `(src, dst)` so the
/// caller reads them once. Callers must [`check_count`] once up front.
#[inline]
pub(crate) fn validate_one<D: TransferDag + ?Sized>(
    dag: &D,
    i: usize,
) -> Result<(NodeId, NodeId), crate::NocError> {
    let id = dag.id(i);
    if id != i {
        return Err(crate::NocError::NonDenseIds {
            msg: id,
            expected: i,
        });
    }
    if dag.bytes(i) == 0 {
        return Err(crate::NocError::EmptyMessage { msg: i });
    }
    let (src, dst) = (dag.src(i), dag.dst(i));
    if src == dst {
        return Err(crate::NocError::SelfMessage { msg: i });
    }
    let n = dag.len();
    if let Some(dep) = dag.deps(i).find(|&d| d >= n) {
        return Err(crate::NocError::UnknownDependency { msg: i, dep });
    }
    Ok((src, dst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NocError;

    #[test]
    fn validate_accepts_good_dag() {
        let msgs = vec![
            Message::new(MsgId(0), NodeId(0), NodeId(1), 10),
            Message::new(MsgId(1), NodeId(1), NodeId(2), 10).with_deps([MsgId(0)]),
        ];
        assert!(validate(&msgs).is_ok());
    }

    #[test]
    fn validate_rejects_bad_input() {
        let m = |id| Message::new(MsgId(id), NodeId(0), NodeId(1), 10);
        assert!(matches!(
            validate(&[m(1)]),
            Err(NocError::NonDenseIds { .. })
        ));
        assert!(matches!(
            validate(&[Message::new(MsgId(0), NodeId(0), NodeId(1), 0)]),
            Err(NocError::EmptyMessage { .. })
        ));
        assert!(matches!(
            validate(&[Message::new(MsgId(0), NodeId(2), NodeId(2), 8)]),
            Err(NocError::SelfMessage { .. })
        ));
        assert!(matches!(
            validate(&[m(0).with_deps([MsgId(7)])]),
            Err(NocError::UnknownDependency { .. })
        ));
    }
}
