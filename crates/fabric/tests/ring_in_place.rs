//! The ring's in-place calls under stress: a two-thread stream of
//! variable-length checksummed frames written straight into the slots and
//! verified where they lie, across thousands of wrap-arounds; and a
//! single-thread property that any interleaving of the in-place calls with
//! the move-in/move-out wrappers keeps the queue FIFO, lossless and
//! duplicate-free.

use netchain_fabric::{spsc_ring, Frame, MAX_FRAME_LEN};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};

/// xorshift step: the frames' lengths and bodies derive from their sequence
/// number alone, so the consumer can recompute them.
fn mix(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Frame `seq`: 8 bytes of sequence number, a body of pseudo-random length
/// and content, and an 8-byte checksum over both.
fn write_frame(seq: u64, buf: &mut [u8; MAX_FRAME_LEN]) -> usize {
    let body = (mix(seq + 1) % (MAX_FRAME_LEN as u64 - 16)) as usize;
    buf[..8].copy_from_slice(&seq.to_be_bytes());
    let mut sum = seq;
    let mut x = seq ^ 0x9e37_79b9_7f4a_7c15;
    for b in &mut buf[8..8 + body] {
        x = mix(x | 1);
        *b = x as u8;
        sum = sum.wrapping_mul(31).wrapping_add(u64::from(*b));
    }
    buf[8 + body..16 + body].copy_from_slice(&sum.to_be_bytes());
    16 + body
}

fn check_frame(seq: u64, bytes: &[u8]) {
    let mut expected = [0u8; MAX_FRAME_LEN];
    let len = write_frame(seq, &mut expected);
    assert_eq!(bytes, &expected[..len], "frame {seq} arrived damaged");
}

#[test]
fn in_place_stream_survives_two_threads_and_wraparound() {
    const N: u64 = 300_000;
    // A small ring, so the stream wraps ~10 000 times and both "full" and
    // "empty" are hit constantly.
    let (mut tx, mut rx) = spsc_ring::<Frame>(32);
    let start = Arc::new(Barrier::new(2));
    let producer = {
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            let mut seq = 0u64;
            while seq < N {
                // Publish in bursts of varying size, like a window refill.
                let burst = 1 + mix(seq + 7) % 24;
                let mut written = 0;
                while written < burst && seq < N {
                    match tx.reserve() {
                        Some(slot) => {
                            slot.encode_with(|buf| write_frame(seq, buf));
                            tx.commit();
                            seq += 1;
                            written += 1;
                        }
                        None => {
                            // Full: what is committed must become visible
                            // or the consumer can never make room.
                            tx.publish();
                            std::hint::spin_loop();
                        }
                    }
                }
                tx.publish();
            }
        })
    };
    start.wait();
    let mut next = 0u64;
    while next < N {
        let max = 1 + (mix(next + 3) % 40) as usize;
        let run = rx.run(max);
        let got = run.len();
        if got == 0 {
            std::hint::spin_loop();
            continue;
        }
        assert!(got <= max);
        for frame in run.iter() {
            check_frame(next, frame.as_bytes());
            next += 1;
        }
        rx.release(got);
    }
    producer.join().expect("producer panicked");
    assert!(rx.is_empty_now());
}

/// One step of the interleaving property.
#[derive(Debug, Clone)]
enum Move {
    Push,
    PushBatch(usize),
    /// reserve + write + commit, without publishing.
    Commit,
    Publish,
    Pop,
    PopBatch(usize),
    /// Borrow a run of up to `.0`, release the first `.1` of it.
    RunRelease(usize, usize),
}

fn arb_step() -> impl Strategy<Value = Move> {
    prop_oneof![
        Just(Move::Push),
        (1usize..6).prop_map(Move::PushBatch),
        Just(Move::Commit),
        Just(Move::Commit),
        Just(Move::Publish),
        Just(Move::Pop),
        (1usize..6).prop_map(Move::PopBatch),
        (1usize..6, 0usize..6).prop_map(|(max, keep)| Move::RunRelease(max, keep)),
    ]
}

proptest! {
    #[test]
    fn wrappers_and_in_place_calls_interleave_fifo(
        steps in proptest::collection::vec(arb_step(), 1..200),
    ) {
        let (mut tx, mut rx) = spsc_ring::<u64>(8);
        // The model: what the consumer may see, and what is committed but
        // not yet published.
        let mut visible: VecDeque<u64> = VecDeque::new();
        let mut staged: VecDeque<u64> = VecDeque::new();
        let mut next = 1u64;
        let mut expect = 1u64;
        for step in steps {
            let room = 8 - visible.len() - staged.len();
            match step {
                Move::Push => {
                    // `push` publishes everything committed so far, too.
                    let pushed = tx.push(next).is_ok();
                    prop_assert_eq!(pushed, room > 0);
                    if pushed {
                        visible.extend(staged.drain(..));
                        visible.push_back(next);
                        next += 1;
                    }
                }
                Move::PushBatch(n) => {
                    let mut items: Vec<u64> = (next..next + n as u64).collect();
                    let took = tx.push_batch(&mut items);
                    // The producer's view of the consumer may be stale, so
                    // a batch can take fewer than fit — never none of them.
                    prop_assert!(took <= n.min(room));
                    prop_assert_eq!(took == 0, room == 0);
                    prop_assert_eq!(items.len(), n - took);
                    visible.extend(staged.drain(..));
                    visible.extend(next..next + took as u64);
                    next += took as u64;
                }
                Move::Commit => match tx.reserve() {
                    Some(slot) => {
                        prop_assert!(room > 0);
                        *slot = next;
                        tx.commit();
                        staged.push_back(next);
                        next += 1;
                    }
                    None => prop_assert_eq!(room, 0),
                },
                Move::Publish => {
                    tx.publish();
                    visible.extend(staged.drain(..));
                }
                Move::Pop => {
                    let got = rx.pop();
                    prop_assert_eq!(got, visible.pop_front());
                    if let Some(v) = got {
                        prop_assert_eq!(v, expect);
                        expect += 1;
                    }
                }
                Move::PopBatch(max) => {
                    let mut out = Vec::new();
                    let took = rx.pop_batch(&mut out, max);
                    // A batch may stop short at the end of the buffer or at
                    // a stale view of the producer, never at zero if items
                    // are visible.
                    prop_assert!(took <= max.min(visible.len()));
                    prop_assert_eq!(took == 0, visible.is_empty());
                    for v in out {
                        prop_assert_eq!(Some(v), visible.pop_front());
                        prop_assert_eq!(v, expect);
                        expect += 1;
                    }
                }
                Move::RunRelease(max, keep) => {
                    let run = rx.run(max);
                    prop_assert!(run.len() <= max.min(visible.len()));
                    prop_assert_eq!(run.is_empty(), visible.is_empty());
                    for (seen, model) in run.iter().zip(visible.iter()) {
                        prop_assert_eq!(seen, model);
                    }
                    let release = keep.min(run.len());
                    rx.release(release);
                    for _ in 0..release {
                        prop_assert_eq!(visible.pop_front(), Some(expect));
                        expect += 1;
                    }
                }
            }
        }
        // Drain: everything ever accepted comes out once, in order.
        tx.publish();
        visible.extend(staged.drain(..));
        while let Some(v) = rx.pop() {
            prop_assert_eq!(Some(v), visible.pop_front());
            prop_assert_eq!(v, expect);
            expect += 1;
        }
        prop_assert!(visible.is_empty());
        prop_assert_eq!(expect, next);
    }
}
