//! # gather-trace
//!
//! A compact, versioned binary format for per-round simulation traces,
//! plus the streaming machinery to record, replay, and diff them.
//!
//! Campaigns persist end-of-run scalars; a surprising scalar (the
//! paper's algorithm disconnecting a square under SSYNC, say) is only
//! re-examinable if the *per-round action stream* that produced it can
//! be stored and re-executed bit-exactly. This crate owns that stream:
//!
//! * [`TraceHeader`] + [`TraceWriter`] / [`TraceReader`] — the wire
//!   format: a header pinning the scenario (ID, seed, config digest,
//!   initial positions) followed by one [`RoundRecord`] per round,
//!   varint + delta encoded so a round costs a handful of bytes per
//!   *moving* robot, not per robot.
//! * [`Playback`] — re-derives the swarm evolution from a record
//!   stream alone (no controller needed), using the engine's own
//!   [`Swarm`](grid_engine::Swarm) merge semantics, and verifies every round's population
//!   and position digest.
//! * [`diff_rounds`] / [`first_divergent_robot`] — structural
//!   comparison of two record streams, localising the first divergence
//!   to a round and, where possible, a robot index.
//!
//! ## Wire format (version 2)
//!
//! ```text
//! header:  "GTRC" | version u16 LE | id len+bytes | seed varint |
//!          config_digest u64 LE | n varint | n × (zigzag x, zigzag y)
//! round:   0x01 | round varint | activation | moves | pending |
//!          merged varint | population varint | digest u64 LE
//!   activation: 0x00 (all)  or  0x01 | count | first | gaps…
//!   moves:      count | (robot gap varint, step byte)…   step = (dx+1)·3+(dy+1)
//!   pending:    count | (robot gap varint, step byte, delay varint)…
//! end:     0x00
//! ```
//!
//! Integers are LEB128 varints; signed values are zigzag-mapped first.
//! Index lists are sorted, so they are stored as first value + gaps.
//! The explicit `0x00` terminator makes torn files (a killed recorder)
//! distinguishable from complete ones, and the leading version makes
//! format drift a loud [`TraceError::VersionMismatch`] instead of a
//! silent misparse.
//!
//! The `pending` section is new in version 2: the moves an ASYNC
//! scheduler parked this round (look now, move `delay ≥ 1` rounds
//! later). Its step byte *does* allow the zero step — a robot in
//! flight may have decided to stay — whereas the committed move list
//! still rejects it. Version 1 streams (which predate ASYNC) are still
//! read in full; their rounds decode with empty pending lists, so
//! every committed trace keeps replaying bit-exactly.

pub mod diff;
pub mod format;
pub mod playback;
pub mod stream;
pub mod varint;

pub use diff::{diff_rounds, divergence_between, first_divergent_robot, RoundDivergence};
pub use format::{TraceError, TraceHeader, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION};
pub use playback::{Playback, PlaybackError};
pub use stream::{read_all_rounds, TraceReader, TraceWriter};

// The record types are defined next to the engine that emits them.
pub use grid_engine::{PendingMove, RobotMove, RoundRecord};

/// Digest a byte string into the u64 the header's `config_digest` field
/// carries: a fold over `grid_engine::splitmix64`, the one mixer the
/// whole workspace shares. Callers fold whatever pins their
/// configuration (scenario ID, seed, budget) into the bytes.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0x5851_f42d_4c95_7f2du64 ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = grid_engine::splitmix64(h ^ u64::from_le_bytes(word));
    }
    grid_engine::splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let a = digest_bytes(b"line/n16/s1/paper|seed=1");
        assert_eq!(a, digest_bytes(b"line/n16/s1/paper|seed=1"));
        assert_ne!(a, digest_bytes(b"line/n16/s1/paper|seed=2"));
        assert_ne!(digest_bytes(b""), digest_bytes(b"\0"));
    }
}
