//! Messages and wire-size accounting.

use std::any::Any;
use std::sync::Arc;

use crate::hostprof::{self, Scope as ProfScope};
use crate::reqtrace::ReqToken;
use crate::runtime::ProcId;
use crate::time::SimTime;

/// A delivered message.
///
/// Payloads travel as `Box<dyn Any>` — all processes share one address space,
/// so no bytes are actually serialized; instead every send *declares* its
/// as-if serialized size, which is the currency of the network cost model.
pub struct Envelope {
    pub src: ProcId,
    pub dst: ProcId,
    /// Application-level tag (protocol message kind).
    pub tag: u32,
    /// Correlation id: non-zero on RPC requests and their replies.
    pub corr: u64,
    /// True when this envelope is the reply half of an RPC.
    pub(crate) is_reply: bool,
    pub payload: Box<dyn Any + Send>,
    /// Declared wire size in bytes.
    pub bytes: u64,
    /// Run-unique message sequence number — the same value recorded on the
    /// `TraceEvent::Send`/`Recv` pair, so application code can correlate a
    /// delivered message with the trace.
    pub seq: u64,
    /// Sender clock at send time.
    pub sent_at: SimTime,
    /// Receiver clock when the transfer completed.
    pub arrival: SimTime,
    /// Request-trace token (None unless request tracing is enabled and the
    /// fabric issued this envelope). `SimCtx::reply*` copies it onto the
    /// reply, carrying the trace context end to end.
    pub(crate) req: Option<ReqToken>,
}

impl Envelope {
    /// Whether this envelope is the reply half of an RPC rather than a fresh
    /// request. Receive-anything server loops should skip stray replies —
    /// e.g. a reply from a slow peer arriving after the caller already timed
    /// out, re-resolved its route, and retried elsewhere.
    pub fn is_reply(&self) -> bool {
        self.is_reply
    }

    /// Borrow the payload as `T`, panicking with a diagnostic on mismatch.
    /// Transparent to the `Arc`s the fabric ships requests in; see
    /// [`payload_ref`].
    pub fn downcast_ref<T: 'static>(&self) -> &T {
        let _prof = hostprof::scope(ProfScope::CodecDecode);
        payload_ref(self.payload.as_ref()).unwrap_or_else(|| {
            panic!(
                "envelope tag {} from {:?}: payload is not a {}",
                self.tag,
                self.src,
                std::any::type_name::<T>()
            )
        })
    }

    /// Take the payload as `T`, panicking with a diagnostic on mismatch.
    pub fn downcast<T: 'static>(self) -> T {
        let _prof = hostprof::scope(ProfScope::CodecDecode);
        match self.payload.downcast::<T>() {
            Ok(b) => *b,
            Err(_) => panic!(
                "envelope tag {} from {:?}: payload is not a {}",
                self.tag,
                self.src,
                std::any::type_name::<T>()
            ),
        }
    }
}

/// Borrow a request payload as `T`, seeing through the `Arc` the fabric
/// wraps it in once so retries resend without a deep clone: `Arc<T>`, or
/// `Arc<dyn Any + Send + Sync>` from a caller whose requests mix types.
/// The receiver never notices either.
pub fn payload_ref<T: 'static>(payload: &dyn Any) -> Option<&T> {
    payload
        .downcast_ref::<T>()
        .or_else(|| payload.downcast_ref::<Arc<T>>().map(|a| &**a))
        .or_else(|| {
            payload
                .downcast_ref::<Arc<dyn Any + Send + Sync>>()
                .and_then(|a| (**a).downcast_ref::<T>())
        })
}

/// As-if serialized size of a value, in bytes.
///
/// Implementations mirror a compact binary codec: fixed-width numerics, an
/// 8-byte length prefix per collection. The figures in the paper are driven
/// by *how many bytes cross which NIC*, so this trait is what ties algorithm
/// code to the network model.
pub trait WireSize {
    fn wire_size(&self) -> u64;
}

macro_rules! fixed_wire {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(impl WireSize for $t {
            #[inline]
            fn wire_size(&self) -> u64 { $n }
        })*
    };
}

fixed_wire! {
    u8 => 1, i8 => 1, bool => 1,
    u16 => 2, i16 => 2,
    u32 => 4, i32 => 4, f32 => 4,
    u64 => 8, i64 => 8, f64 => 8,
    usize => 8, isize => 8,
    () => 0,
}

impl WireSize for String {
    fn wire_size(&self) -> u64 {
        8 + self.len() as u64
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> u64 {
        8 + self.iter().map(WireSize::wire_size).sum::<u64>()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_size(&self) -> u64 {
        1 + self.as_ref().map_or(0, WireSize::wire_size)
    }
}

impl<T: WireSize + ?Sized> WireSize for &T {
    fn wire_size(&self) -> u64 {
        (**self).wire_size()
    }
}

impl<T: WireSize> WireSize for [T] {
    fn wire_size(&self) -> u64 {
        8 + self.iter().map(WireSize::wire_size).sum::<u64>()
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_size(&self) -> u64 {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize> WireSize for (A, B, C) {
    fn wire_size(&self) -> u64 {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(1u8.wire_size(), 1);
        assert_eq!(1u32.wire_size(), 4);
        assert_eq!(1.0f64.wire_size(), 8);
        assert_eq!(().wire_size(), 0);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!(vec![1.0f64; 10].wire_size(), 8 + 80);
        assert_eq!("abc".to_string().wire_size(), 11);
        assert_eq!((1u32, 2.0f64).wire_size(), 12);
        assert_eq!(Some(5u64).wire_size(), 9);
        assert_eq!(None::<u64>.wire_size(), 1);
        // sparse (index, value) pairs: 12 bytes each, the figure the paper's
        // sparse-communication advantage rests on.
        let sparse: Vec<(u32, f64)> = vec![(0, 1.0), (7, 2.0)];
        assert_eq!(sparse.wire_size(), 8 + 2 * 12);
    }
}
