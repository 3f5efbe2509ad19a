//! Corruption-hardening properties of the checkpoint decoder
//! (DESIGN.md §4.7): no byte stream — truncated, bit-flipped, extended or
//! outright garbage — may panic the decoder. Structural damage must
//! surface as [`SnapshotError::Corrupt`], the variant
//! [`fault::run_resilient`] skips past when scanning for a usable
//! rollback image.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use unison_core::checkpoint::{self, Resumed};
use unison_core::{
    manual_partition, snapshot_struct, NodeId, SimCtx, SimNode, SnapshotError, Time, WorldBuilder,
};

/// Minimal checkpointable model: enough state to populate every section
/// of the image (nodes, pending events, links, sequence counters).
struct Counter {
    acc: u64,
}

snapshot_struct!(Counter { acc });

impl SimNode for Counter {
    type Payload = u64;
    fn handle(&mut self, p: u64, ctx: &mut dyn SimCtx<Self>) {
        self.acc = self.acc.wrapping_add(p);
        ctx.schedule(Time(1_000), NodeId((p % 4) as u32), self.acc);
    }
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}.bin", std::process::id()))
}

/// A valid encoded checkpoint, built once via `write_initial` (the same
/// encoder every rollback image goes through).
fn valid_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut b = WorldBuilder::new();
        for _ in 0..4 {
            b.add_node(Counter { acc: 0 });
        }
        for i in 0..4u32 {
            b.add_link(NodeId(i), NodeId((i + 1) % 4), Time(2_000));
        }
        for t in 0..6u64 {
            b.schedule(Time(t), NodeId((t % 4) as u32), t * 17);
        }
        b.stop_at(Time(100_000));
        let world = b.build();
        let partition = manual_partition(world.graph(), &[0, 0, 1, 1]);
        let path = tmp("corrupt-valid");
        checkpoint::write_initial(world, &partition, &path).expect("encode");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        bytes
    })
}

/// Decodes a (possibly mutated) image through the public `resume` path.
/// `tag` keeps the scratch files of concurrently running tests apart.
fn decode(tag: &str, bytes: &[u8]) -> Result<Resumed<Counter>, SnapshotError> {
    let path = tmp(&format!("corrupt-{tag}"));
    std::fs::write(&path, bytes).expect("write mutated image");
    let out = checkpoint::resume::<Counter>(&path, None);
    std::fs::remove_file(&path).ok();
    out
}

#[test]
fn the_unmutated_image_decodes() {
    let resumed = decode("sanity", valid_bytes()).expect("valid image");
    assert_eq!(resumed.time, Time::ZERO);
    assert_eq!(resumed.assignment, vec![0, 0, 1, 1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a valid image is a typed `Corrupt` error —
    /// never a panic, never a silently short world.
    #[test]
    fn truncation_is_a_typed_error(cut in 0usize..1 << 16) {
        let full = valid_bytes();
        let cut = cut % full.len();
        let err = decode("trunc", &full[..cut]).err().expect("prefix must not decode");
        prop_assert!(matches!(err, SnapshotError::Corrupt(_)), "got {err}");
    }

    /// A single flipped bit anywhere in the image never panics the
    /// decoder: it either still decodes (the flip hit model state) or
    /// fails as `Corrupt`.
    #[test]
    fn bit_flips_never_panic(pos in 0usize..1 << 16, bit in 0u32..8) {
        let mut bytes = valid_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Err(err) = decode("flip", &bytes) {
            prop_assert!(matches!(err, SnapshotError::Corrupt(_)), "got {err}");
        }
    }

    /// Trailing junk after a complete image is rejected (`finish()`
    /// demands full consumption), so a usable-looking file cannot carry
    /// undetected extra state.
    #[test]
    fn trailing_bytes_are_rejected(extra in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut bytes = valid_bytes().to_vec();
        bytes.extend_from_slice(&extra);
        let err = decode("extend", &bytes).err().expect("extended image must not decode");
        prop_assert!(matches!(err, SnapshotError::Corrupt(_)), "got {err}");
    }

    /// Arbitrary garbage — wrong magic, random lengths, random tags —
    /// fails cleanly.
    #[test]
    fn arbitrary_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let err = decode("garbage", &bytes).err().expect("garbage must not decode");
        prop_assert!(matches!(err, SnapshotError::Corrupt(_)), "got {err}");
    }
}
