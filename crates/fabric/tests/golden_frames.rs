//! Wire bytes, request ids and the PRNG draw sequence are part of the
//! contract the differential suites judge by: the first 10 000 frames a
//! seeded client emits must hash to the value recorded before the in-place
//! issue path existed (PR 11's tree), through the owned-packet path and the
//! in-place path alike.

use netchain_core::{ClientState, WorkloadSpec};
use netchain_fabric::{FabricConfig, MAX_FRAME_LEN};
use netchain_sim::SimTime;

const FRAMES: u64 = 10_000;
/// Client 0, 100 % uniform reads over 4096 keys, the default seed.
const GOLDEN_READS: u64 = 0x5cb1_8c16_83b1_a5f3;
/// Client 3, 50 % reads / 40 % writes / 10 % CAS over 4096 keys.
const GOLDEN_MIX: u64 = 0x234a_93cf_c903_8660;

/// FNV-1a over every frame, each prefixed by its 16-bit length.
#[derive(Clone, Copy)]
struct StreamHash(u64);

impl StreamHash {
    fn new() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }

    fn frame(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u16).to_be_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn client(spec: WorkloadSpec, id: u32) -> ClientState {
    let spec = WorkloadSpec {
        window: FRAMES as usize,
        ..spec
    };
    ClientState::new(id, &FabricConfig::new(1).build_ring(), spec)
}

fn owned_path(spec: WorkloadSpec, id: u32) -> u64 {
    let mut client = client(spec, id);
    let mut hash = StreamHash::new();
    for i in 0..FRAMES {
        hash.frame(&client.issue_at(SimTime(i)).to_bytes());
    }
    hash.0
}

fn in_place_path(spec: WorkloadSpec, id: u32) -> u64 {
    let mut client = client(spec, id);
    let mut hash = StreamHash::new();
    // Leftovers of the previous frame must never leak into the next.
    let mut slot = [0xa5u8; MAX_FRAME_LEN];
    for i in 0..FRAMES {
        let op = client.draw();
        let len = client.issue_drawn(SimTime(i), &op, &mut slot);
        hash.frame(&slot[..len]);
    }
    hash.0
}

#[test]
fn read_stream_is_bit_identical_to_the_parent_commit() {
    let spec = WorkloadSpec::uniform_read(4096, FRAMES);
    assert_eq!(owned_path(spec, 0), GOLDEN_READS);
    assert_eq!(in_place_path(spec, 0), GOLDEN_READS);
}

#[test]
fn write_mix_stream_is_bit_identical_to_the_parent_commit() {
    let spec = WorkloadSpec::mixed(4096, FRAMES, 50, 40);
    assert_eq!(owned_path(spec, 3), GOLDEN_MIX);
    assert_eq!(in_place_path(spec, 3), GOLDEN_MIX);
}
