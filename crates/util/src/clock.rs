//! Hybrid logical clocks and the timestamps carried in NameRing tuples.
//!
//! The paper stamps every NameRing tuple with "a UNIX timestamp representing
//! a creation or deletion time" and resolves merge conflicts by
//! larger-timestamp-wins (§3.3.2). Raw millisecond clocks collide under
//! concurrent updates, so — as real deployments would — we use a *hybrid*
//! timestamp: Unix-style milliseconds, a logical sequence number, and the id
//! of the issuing node as total-order tie-breakers. Two updates issued
//! anywhere in the cluster therefore never compare equal unless they are the
//! same update.

use std::fmt;
use std::str::FromStr;

use crate::id::NodeId;
use crate::{lock_rank, OrderedMutex};

// ---------------------------------------------------------------------------
// Wall-clock facade
// ---------------------------------------------------------------------------
//
// This file is the single sanctioned gateway to real time. Everything else
// in the workspace is virtual-time (`CostModel`/`OpCtx`) and must stay
// deterministic; `h2lint`'s determinism rule flags `Instant::now`,
// `SystemTime::now` and `thread::sleep` in any other file. Code that has a
// legitimate real-time need — pacing sleeps in the load generator, the
// threaded-gossip idle backoff, convergence deadlines in threaded tests —
// calls through here, which keeps every wall-clock touchpoint greppable
// and auditable in one place.

/// Read the real monotonic clock. The only sanctioned `Instant::now`.
pub fn wall_now() -> std::time::Instant {
    std::time::Instant::now()
}

/// Sleep for real. The only sanctioned `thread::sleep`.
pub fn wall_sleep(d: std::time::Duration) {
    std::thread::sleep(d);
}

/// Real Unix time in milliseconds. The only sanctioned `SystemTime::now`.
pub fn wall_unix_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// A hybrid timestamp: `(millis, seq, node)` compared lexicographically.
///
/// Serialized (by the Formatter) as `millis.seq.node`, e.g.
/// `1469346604539.0007.01`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// Unix-style milliseconds (simulated in tests/benches).
    pub millis: u64,
    /// Logical counter distinguishing same-millisecond events on one node.
    pub seq: u32,
    /// Issuing node, the final tie-breaker.
    pub node: NodeId,
}

impl Timestamp {
    pub const ZERO: Timestamp = Timestamp {
        millis: 0,
        seq: 0,
        node: NodeId(0),
    };

    pub fn new(millis: u64, seq: u32, node: NodeId) -> Self {
        Timestamp { millis, seq, node }
    }

    /// Pack into a sortable u128 (used as a compact map key).
    pub fn as_u128(self) -> u128 {
        ((self.millis as u128) << 48) | ((self.seq as u128) << 16) | self.node.0 as u128
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:04}.{:02}", self.millis, self.seq, self.node.0)
    }
}

impl FromStr for Timestamp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split('.');
        let millis = it
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad timestamp millis in {s:?}"))?;
        let seq = it
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad timestamp seq in {s:?}"))?;
        let node = it
            .next()
            .and_then(|p| p.parse().ok())
            .map(NodeId)
            .ok_or_else(|| format!("bad timestamp node in {s:?}"))?;
        if it.next().is_some() {
            return Err(format!("trailing garbage in timestamp {s:?}"));
        }
        Ok(Timestamp { millis, seq, node })
    }
}

/// Monotonic hybrid clock, one per H2Middleware.
///
/// `tick()` never returns the same timestamp twice and never goes backwards:
/// the logical `seq` advances, and [`observe`](Self::observe) lifts the
/// clock past any timestamp it is shown — the standard HLC construction.
#[derive(Debug)]
pub struct HybridClock {
    node: NodeId,
    state: OrderedMutex<(u64, u32)>, // (last millis, last seq)
}

impl HybridClock {
    /// A clock starting at `base_millis` for the given node. Its millis
    /// move only when it observes a later timestamp; ticks advance `seq`.
    pub fn new(node: NodeId, base_millis: u64) -> Self {
        HybridClock {
            node,
            state: OrderedMutex::new(lock_rank::LEAF, "clock.state", (base_millis, 0)),
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Merge a remote timestamp (HLC receive rule): local time never runs
    /// behind anything it has seen.
    pub fn observe(&self, remote: Timestamp) {
        let mut st = self.state.lock();
        if remote.millis > st.0 {
            *st = (remote.millis, remote.seq);
        } else if remote.millis == st.0 && remote.seq > st.1 {
            st.1 = remote.seq;
        }
    }

    /// Produce the next strictly increasing timestamp.
    pub fn tick(&self) -> Timestamp {
        let mut st = self.state.lock();
        st.1 = st.1.checked_add(1).expect("HLC seq overflow");
        Timestamp {
            millis: st.0,
            seq: st.1,
            node: self.node,
        }
    }

    /// Current reading without advancing.
    pub fn peek(&self) -> Timestamp {
        let st = self.state.lock();
        Timestamp {
            millis: st.0,
            seq: st.1,
            node: self.node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_order_lexicographically() {
        let a = Timestamp::new(10, 0, NodeId(1));
        let b = Timestamp::new(10, 1, NodeId(0));
        let c = Timestamp::new(11, 0, NodeId(0));
        assert!(a < b && b < c);
        assert!(a.as_u128() < b.as_u128() && b.as_u128() < c.as_u128());
    }

    #[test]
    fn node_breaks_exact_ties() {
        let a = Timestamp::new(10, 3, NodeId(1));
        let b = Timestamp::new(10, 3, NodeId(2));
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn display_parse_roundtrip() {
        let t = Timestamp::new(1_469_346_604_539, 7, NodeId(1));
        assert_eq!(t.to_string(), "1469346604539.0007.01");
        assert_eq!(t.to_string().parse::<Timestamp>().unwrap(), t);
        assert!("nope".parse::<Timestamp>().is_err());
        assert!("1.2".parse::<Timestamp>().is_err());
        assert!("1.2.3.4".parse::<Timestamp>().is_err());
    }

    #[test]
    fn clock_is_strictly_monotonic() {
        let c = HybridClock::new(NodeId(1), 1000);
        let mut last = Timestamp::ZERO;
        for _ in 0..1000 {
            let t = c.tick();
            assert!(t > last);
            last = t;
        }
        assert_eq!(last.millis, 1000); // ticks advance seq, never millis
    }

    #[test]
    fn observe_applies_receive_rule() {
        let c = HybridClock::new(NodeId(1), 1000);
        c.observe(Timestamp::new(5000, 9, NodeId(2)));
        let t = c.tick();
        assert!(t > Timestamp::new(5000, 9, NodeId(2)));
        assert_eq!(t.millis, 5000);
    }
}
