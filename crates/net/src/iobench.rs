//! The controlled batched-vs-single syscall measurement.
//!
//! The open-loop system runs in [`crate::openloop`] measure the whole
//! co-located pipeline — generators, shard workers and the kernel sharing
//! whatever cores the machine has — so on small machines the burst/single
//! comparison there is dominated by scheduler placement, not syscall cost.
//! This microbenchmark isolates the quantity the `mmsg` shim actually
//! changes: one thread, one socket pair, the same frames, timed once
//! through `sendmmsg`/`recvmmsg` bursts and once through the
//! `send_to`/`recv_from` single-packet discipline. The difference is pure
//! per-datagram syscall amortization and is stable even on a single core.
//! The shim's batch-capable calls choose their syscall: bursts of 64 are a
//! backlog from the warm-up's third receive on ([`SyscallBench::burst_recv_fill`]).

pub use mmsg::MAX_BURST;

use mmsg::{RecvQueue, SendQueue};
use netchain_wire::MAX_FRAME_LEN;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Result of [`syscall_microbench`]: nanoseconds of send+receive syscall
/// work per datagram, for each I/O discipline.
#[derive(Debug, Clone, Copy)]
pub struct SyscallBench {
    /// ns/datagram through `send_to` + `recv_from` (one syscall pair each).
    pub single_ns_per_datagram: f64,
    /// ns/datagram through `sendmmsg` + `recvmmsg` (one syscall pair per
    /// [`MAX_BURST`]).
    pub burst_ns_per_datagram: f64,
    /// Datagrams per receive call on the burst side of the timed passes:
    /// [`MAX_BURST`] when every one was a full `recvmmsg`.
    pub burst_recv_fill: f64,
}

impl SyscallBench {
    /// How much faster the batched discipline moves a datagram.
    pub fn speedup(&self) -> f64 {
        self.single_ns_per_datagram / self.burst_ns_per_datagram.max(1e-9)
    }
}

/// Times `bursts` round trips of [`MAX_BURST`] query-sized datagrams over a
/// loopback socket pair, in both I/O disciplines; each discipline's figure
/// is the minimum over `repeats` timed runs (minimum, because every source
/// of error — scheduling, interrupts — only ever adds time).
pub fn syscall_microbench(bursts: u32, repeats: u32) -> SyscallBench {
    assert!(bursts > 0 && repeats > 0);
    let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
    let dst = rx.local_addr().expect("rx addr");
    rx.set_read_timeout(Some(Duration::from_secs(1)))
        .expect("rx timeout");
    // A representative query frame: headers plus a short value, well under
    // MAX_FRAME_LEN, like the load generator emits.
    let frame = [0x5au8; 100];
    let mut rq = RecvQueue::new(MAX_BURST, MAX_FRAME_LEN + 1);
    let mut sq = SendQueue::with_capacity(MAX_BURST, MAX_FRAME_LEN);
    let mut buf = [0u8; MAX_FRAME_LEN + 1];

    let burst_pass = |sq: &mut SendQueue, rq: &mut RecvQueue| {
        for _ in 0..bursts {
            sq.clear();
            for _ in 0..MAX_BURST {
                sq.push(&frame, dst);
            }
            sq.send(&tx).expect("burst send");
            let mut got = 0;
            while got < MAX_BURST {
                got += rq.recv(&rx).expect("burst recv");
            }
        }
    };
    let single_pass = |buf: &mut [u8]| {
        for _ in 0..bursts {
            // The single-packet discipline still moves the same windows of
            // MAX_BURST in-flight datagrams — only the syscall shape
            // differs.
            for _ in 0..MAX_BURST {
                tx.send_to(&frame, dst).expect("single send");
            }
            for _ in 0..MAX_BURST {
                rx.recv_from(buf).expect("single recv");
            }
        }
    };

    // Warm up both paths (page faults, route caches) before timing.
    burst_pass(&mut sq, &mut rq);
    single_pass(&mut buf);

    let datagrams = f64::from(bursts) * MAX_BURST as f64;
    let warm_up_calls = rq.single_calls() + rq.burst_calls();
    let mut burst_ns = f64::INFINITY;
    let mut single_ns = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        burst_pass(&mut sq, &mut rq);
        burst_ns = burst_ns.min(t0.elapsed().as_nanos() as f64 / datagrams);
        let t0 = Instant::now();
        single_pass(&mut buf);
        single_ns = single_ns.min(t0.elapsed().as_nanos() as f64 / datagrams);
    }
    SyscallBench {
        single_ns_per_datagram: single_ns,
        burst_ns_per_datagram: burst_ns,
        burst_recv_fill: f64::from(repeats) * datagrams
            / (rq.single_calls() + rq.burst_calls() - warm_up_calls) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_times_both_disciplines() {
        let bench = syscall_microbench(20, 2);
        assert!(bench.single_ns_per_datagram > 0.0);
        assert!(bench.burst_ns_per_datagram > 0.0);
        assert!(bench.speedup() > 0.0);
        // The burst side measured `recvmmsg`, not the calm queue's
        // `recv_from`.
        let fill = bench.burst_recv_fill;
        assert!(fill <= MAX_BURST as f64 && (fill > 32.0 || !mmsg::BURST_SYSCALLS));
    }
}
