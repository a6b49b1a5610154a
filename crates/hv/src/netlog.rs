//! The NetBench sender's reply log.
//!
//! The external sender (`Hypervisor::attach_net_traffic`) records the
//! sequence number and arrival time of every reply, one per millisecond
//! of a NetBench run. Two analyses read the log: the Section VI-A loss
//! rule (`nlh_campaign::classify::netbench_affected`) and the Section
//! VII-B reply gap (`nlh_experiments::netbench_reply_gap`). A plain
//! `(u64, SimTime)` vector spends 16 bytes per reply and dominated the
//! memory of a machine running NetBench; [`NetReplyLog`] keeps every
//! reply exactly in about a third of that.

use std::fmt;

use nlh_sim::SimTime;

/// An append-only, exact log of `(seq, time)` replies.
///
/// Each reply is stored as its sequence-number delta and its time delta
/// from the previous reply (the first from `(0, 0)`), zigzag-encoded as
/// two LEB128 varints. Replies arrive on different CPUs, so either delta
/// may be negative; deltas wrap, so every `u64` round-trips exactly.
///
/// `Debug` prints the replies as a list of `(seq, SimTime)` pairs, byte
/// for byte what a `Vec<(u64, SimTime)>` prints, so machine digests that
/// format the log are those of the vector it replaced.
#[derive(Clone, Default)]
pub struct NetReplyLog {
    bytes: Vec<u8>,
    len: usize,
    /// The last reply pushed, from which the next delta is taken.
    last: (u64, u64),
}

impl NetReplyLog {
    /// Appends the reply numbered `seq` that arrived at `at`.
    pub fn push(&mut self, seq: u64, at: SimTime) {
        let at = at.as_nanos();
        put_varint(&mut self.bytes, zigzag(seq.wrapping_sub(self.last.0)));
        put_varint(&mut self.bytes, zigzag(at.wrapping_sub(self.last.1)));
        self.last = (seq, at);
        self.len += 1;
    }

    /// The number of replies logged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no reply has been logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the encoded replies occupy (excluding spare capacity).
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The replies as `(seq, time)`, in the order they were pushed.
    pub fn iter(&self) -> impl Iterator<Item = (u64, SimTime)> + '_ {
        let mut rest = self.bytes.as_slice();
        let (mut seq, mut at) = (0u64, 0u64);
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            seq = seq.wrapping_add(unzigzag(take_varint(&mut rest)));
            at = at.wrapping_add(unzigzag(take_varint(&mut rest)));
            Some((seq, SimTime::from_nanos(at)))
        })
    }
}

impl fmt::Debug for NetReplyLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Maps a two's-complement delta to an unsigned one whose magnitude is
/// small when the delta's is: 0, -1, 1, -2, … become 0, 1, 2, 3, ….
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Appends `v` as an LEB128 varint: seven bits per byte, low first, the
/// high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one varint written by [`put_varint`] off the front of `bytes`.
fn take_varint(bytes: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&b, rest) = bytes
            .split_first()
            .expect("the log holds only whole varints");
        *bytes = rest;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn log_of(replies: &[(u64, SimTime)]) -> NetReplyLog {
        let mut log = NetReplyLog::default();
        for &(seq, at) in replies {
            log.push(seq, at);
        }
        log
    }

    #[test]
    fn extremes_round_trip() {
        let replies: Vec<(u64, SimTime)> = [
            (0, 0),
            (u64::MAX, u64::MAX),
            (0, 0),
            (1, u64::MAX),
            (u64::MAX, 1),
            (u64::MAX, u64::MAX),
            (1 << 63, 1 << 63),
            (0, 0),
        ]
        .iter()
        .map(|&(s, t)| (s, SimTime::from_nanos(t)))
        .collect();
        let log = log_of(&replies);
        assert_eq!(log.iter().collect::<Vec<_>>(), replies);
        assert_eq!(log.len(), replies.len());
    }

    #[test]
    fn an_empty_log_prints_as_an_empty_vec() {
        let log = NetReplyLog::default();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.iter().count(), 0);
        let empty: Vec<(u64, SimTime)> = Vec::new();
        assert_eq!(format!("{log:?}"), format!("{empty:?}"));
        assert_eq!(format!("{log:#?}"), format!("{empty:#?}"));
    }

    /// A value near zero, near `u64::MAX`, or anywhere, so deltas of both
    /// signs and every width occur.
    fn value() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..4,
            (0u64..4).prop_map(|d| u64::MAX - d),
            0u64..5_000_000,
            any::<u64>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The log gives back exactly the pushed replies, in order, and
        /// formats as the vector does, plainly and pretty-printed; a clone
        /// iterates the same and logs on independently.
        #[test]
        fn log_is_exact_and_prints_as_the_vec(
            pushes in prop::collection::vec((value(), value()), 0..64),
            extra in (value(), value()),
        ) {
            let replies: Vec<(u64, SimTime)> = pushes
                .iter()
                .map(|&(s, t)| (s, SimTime::from_nanos(t)))
                .collect();
            let log = log_of(&replies);
            prop_assert_eq!(log.len(), replies.len());
            prop_assert_eq!(log.is_empty(), replies.is_empty());
            prop_assert_eq!(log.iter().collect::<Vec<_>>(), replies.clone());
            prop_assert_eq!(format!("{log:?}"), format!("{replies:?}"));
            prop_assert_eq!(format!("{log:#?}"), format!("{replies:#?}"));

            let mut copy = log.clone();
            prop_assert_eq!(copy.iter().collect::<Vec<_>>(), replies.clone());
            let extra = (extra.0, SimTime::from_nanos(extra.1));
            copy.push(extra.0, extra.1);
            let mut longer = replies.clone();
            longer.push(extra);
            prop_assert_eq!(copy.iter().collect::<Vec<_>>(), longer);
            prop_assert_eq!(log.iter().collect::<Vec<_>>(), replies);
        }
    }
}
