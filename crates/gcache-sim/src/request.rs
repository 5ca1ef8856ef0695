//! Memory-system messages flowing between cores and partitions.

use gcache_core::addr::{CoreId, LineAddr, PartitionId};
use gcache_core::policy::{AccessKind, RequestClass};
use gcache_core::record;

/// A core-local warp slot index, used to wake the right warp when its
/// memory transactions return.
pub type WarpSlot = usize;

record! {
    /// A request travelling from an L1 towards a memory partition.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct MemRequest {
        /// Requested line.
        pub line: LineAddr,
        /// Access kind. Reads and atomics generate a response; stores and
        /// clean copy-backs are fire-and-forget.
        pub kind: AccessKind,
        /// Requesting core.
        pub core: CoreId,
        /// Warp to wake on response (meaningless for stores).
        pub warp: WarpSlot,
        /// Request class the issuing warp declared (deadline slack + declared
        /// reuse); `None` for unclassified traffic.
        pub class: Option<RequestClass>,
    }
}

impl MemRequest {
    /// Whether the partition must send a response back.
    pub fn wants_response(&self) -> bool {
        !matches!(self.kind, AccessKind::Write | AccessKind::CopyBack)
    }
}

/// What the interconnect reads off a message to route and serialise it
/// (see [`crate::system::Route`]).
pub trait Packet {
    /// The line the message is about (selects the owning partition).
    fn line(&self) -> LineAddr;

    /// The core the message came from or returns to.
    fn core(&self) -> CoreId;

    /// Payload size in bytes as seen by the interconnect.
    fn packet_bytes(&self, line_size: u32) -> u32;
}

impl Packet for MemRequest {
    fn line(&self) -> LineAddr {
        self.line
    }

    fn core(&self) -> CoreId {
        self.core
    }

    /// Stores and clean copy-backs carry the line's data plus a header;
    /// reads and atomics are header-only.
    fn packet_bytes(&self, line_size: u32) -> u32 {
        match self.kind {
            AccessKind::Write | AccessKind::CopyBack => line_size + 8,
            AccessKind::Read => 8,
            AccessKind::Atomic => 16,
        }
    }
}

record! {
    /// A response travelling from a memory partition back to a core.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct MemResponse {
        /// The line whose data is returning.
        pub line: LineAddr,
        /// Original access kind (read or atomic).
        pub kind: AccessKind,
        /// Destination core.
        pub core: CoreId,
        /// Warp to wake.
        pub warp: WarpSlot,
        /// G-Cache victim hint observed by the L2 (see
        /// [`gcache_core::victim_bits`]); travels with the data at no extra
        /// traffic cost (§4.3).
        pub victim_hint: bool,
        /// The primary requester's declared class, echoed back so the L1's
        /// fill decision sees it without any MSHR-side storage.
        pub class: Option<RequestClass>,
    }
}

impl Packet for MemResponse {
    fn line(&self) -> LineAddr {
        self.line
    }

    fn core(&self) -> CoreId {
        self.core
    }

    /// Read responses carry the line, atomic responses carry the old
    /// values (lane-sized, bounded by a line).
    fn packet_bytes(&self, line_size: u32) -> u32 {
        match self.kind {
            AccessKind::Atomic => 8 + line_size / 4,
            _ => line_size + 8,
        }
    }
}

/// Maps a line address to its memory partition by low line-address bits —
/// consecutive lines interleave across partitions, spreading streams
/// evenly (the standard GPGPU-Sim mapping).
pub fn partition_of(line: LineAddr, partitions: usize) -> PartitionId {
    debug_assert!(partitions.is_power_of_two());
    PartitionId((line.raw() & (partitions as u64 - 1)) as usize)
}

/// The line address as seen by a partition-local L2 bank: the partition
/// bits are stripped so each bank indexes its full set range.
pub fn partition_local_line(line: LineAddr, partitions: usize) -> LineAddr {
    LineAddr::new(line.raw() >> partitions.trailing_zeros())
}

/// Inverse of [`partition_local_line`] given the partition id.
pub fn global_line(local: LineAddr, part: PartitionId, partitions: usize) -> LineAddr {
    LineAddr::new((local.raw() << partitions.trailing_zeros()) | part.index() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcache_core::snapshot::assert_round_trip;

    #[test]
    fn consecutive_lines_interleave() {
        let p: Vec<_> = (0..16)
            .map(|l| partition_of(LineAddr::new(l), 8).index())
            .collect();
        assert_eq!(p, vec![0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn local_line_round_trip() {
        for raw in [0u64, 7, 8, 0x1234, 0xffff_ffff] {
            let line = LineAddr::new(raw);
            let part = partition_of(line, 8);
            let local = partition_local_line(line, 8);
            assert_eq!(global_line(local, part, 8), line);
        }
    }

    #[test]
    fn packet_sizes() {
        let read = MemRequest {
            line: LineAddr::new(0),
            kind: AccessKind::Read,
            core: CoreId(0),
            warp: 0,
            class: None,
        };
        let write = MemRequest {
            kind: AccessKind::Write,
            ..read
        };
        let atomic = MemRequest {
            kind: AccessKind::Atomic,
            ..read
        };
        let copy_back = MemRequest {
            kind: AccessKind::CopyBack,
            ..read
        };
        assert_eq!(read.packet_bytes(128), 8);
        assert_eq!(write.packet_bytes(128), 136);
        assert_eq!(atomic.packet_bytes(128), 16);
        assert_eq!(copy_back.packet_bytes(128), 136, "carries line data");
        assert!(read.wants_response());
        assert!(!write.wants_response());
        assert!(atomic.wants_response());
        assert!(!copy_back.wants_response());

        let resp = MemResponse {
            line: LineAddr::new(0),
            kind: AccessKind::Read,
            core: CoreId(0),
            warp: 0,
            victim_hint: false,
            class: None,
        };
        assert_eq!(resp.packet_bytes(128), 136);
        let at = MemResponse {
            kind: AccessKind::Atomic,
            ..resp
        };
        assert_eq!(at.packet_bytes(128), 40);
    }

    #[test]
    fn messages_round_trip_through_a_snapshot() {
        let class = RequestClass::from_wire(6).unwrap();
        assert_round_trip(&MemRequest {
            line: LineAddr::new(1),
            kind: AccessKind::Atomic,
            core: CoreId(2),
            warp: 3,
            class,
        });
        assert_round_trip(&MemResponse {
            line: LineAddr::new(4),
            kind: AccessKind::Read,
            core: CoreId(5),
            warp: 6,
            victim_hint: true,
            class,
        });
    }
}
