//! The blocking UDP client: one operation at a time over a real socket,
//! reusing the sans-IO agent core for packet construction, reply matching
//! and retries.

use crate::dataplane::NetDataplane;
use netchain_core::{AgentConfig, AgentCore, ChainDirectory, CompletedQuery, KvOp};
use netchain_sim::SimTime;
use netchain_wire::{Key, NetChainPacket, Value, MAX_FRAME_LEN};
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// How long one `recv_from` waits before the retry timers are looked at.
const READ_TIMEOUT: Duration = Duration::from_millis(10);

impl NetDataplane {
    /// Creates a blocking client: binds its socket and registers the reply
    /// route for `config.client_ip` (the caller picks one no live client
    /// uses), which the client removes when dropped.
    pub fn client(&self, config: AgentConfig) -> std::io::Result<LoopbackClient<'_>> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_read_timeout(Some(READ_TIMEOUT))?;
        // Register the client so tail switches can route replies back to it.
        self.register_client(config.client_ip, socket.local_addr()?);
        Ok(LoopbackClient {
            plane: self,
            socket,
            agent: AgentCore::new(config, ChainDirectory::new(self.ring().clone())),
            oversized: 0,
            late_completions: 0,
        })
    }
}

/// A client issuing NetChain operations over real loopback sockets.
pub struct LoopbackClient<'a> {
    plane: &'a NetDataplane,
    socket: UdpSocket,
    agent: AgentCore,
    /// Datagrams longer than the longest legal frame, counted not truncated.
    oversized: u64,
    /// Replies that completed an *earlier* operation (one whose `execute`
    /// already returned) — observed, counted, never misattributed.
    late_completions: u64,
}

impl LoopbackClient<'_> {
    fn now(&self) -> SimTime {
        SimTime(self.plane.epoch().elapsed().as_nanos() as u64)
    }

    /// Sends `pkt` to the worker owning its key.
    fn transmit(&self, pkt: &NetChainPacket) -> std::io::Result<()> {
        let dest = self.plane.addr_of_key(&pkt.netchain.key);
        let mut frame = [0u8; MAX_FRAME_LEN];
        let len = pkt.emit_into(&mut frame).expect("bounded frame");
        self.socket.send_to(&frame[..len], dest)?;
        Ok(())
    }

    /// Executes one operation synchronously, retrying on timeout, and returns
    /// the completed query (or an error if the overall deadline expires).
    pub fn execute(&mut self, op: KvOp, deadline: Duration) -> std::io::Result<CompletedQuery> {
        let start = Instant::now();
        let (request_id, pkt) = self.agent.begin(self.now(), op);
        self.transmit(&pkt)?;
        // One byte past the longest legal frame: any datagram that does not
        // fit is detectably oversized rather than silently truncated.
        let mut buf = [0u8; MAX_FRAME_LEN + 1];
        loop {
            if start.elapsed() > deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "operation deadline exceeded",
                ));
            }
            match self.socket.recv_from(&mut buf) {
                Ok((len, _)) => {
                    if len > MAX_FRAME_LEN {
                        self.oversized += 1;
                    } else if let Ok(reply) = NetChainPacket::from_bytes(&buf[..len]) {
                        if let Some(done) = self.agent.on_reply(self.now(), &reply) {
                            if done.request_id == request_id {
                                return Ok(done);
                            }
                            // A straggler completed an earlier operation whose
                            // `execute` already returned; count it, never
                            // attribute it to the op running now.
                            self.late_completions += 1;
                        }
                    }
                }
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
            // Drive retransmissions for anything that timed out.
            let outcome = self.agent.poll_retries(self.now());
            for retry in outcome.retransmit {
                self.transmit(&retry)?;
            }
            // Only an abandonment of *this* operation fails it; an earlier
            // in-flight request exhausting its budget concurrently is not
            // this op's outcome.
            if outcome.abandoned.iter().any(|q| q.request_id == request_id) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "operation abandoned after retries",
                ));
            }
        }
    }

    /// Convenience: write a value.
    pub fn write(&mut self, key: Key, value: Value) -> std::io::Result<CompletedQuery> {
        self.execute(KvOp::Write(key, value), Duration::from_secs(2))
    }

    /// Convenience: read a value.
    pub fn read(&mut self, key: Key) -> std::io::Result<CompletedQuery> {
        self.execute(KvOp::Read(key), Duration::from_secs(2))
    }

    /// Convenience: compare-and-swap.
    pub fn cas(&mut self, key: Key, expected: u64, new: u64) -> std::io::Result<CompletedQuery> {
        self.execute(KvOp::Cas { key, expected, new }, Duration::from_secs(2))
    }

    /// Agent statistics (retries, latency, version regressions).
    pub fn agent_stats(&self) -> &netchain_core::AgentStats {
        self.agent.stats()
    }

    /// Datagrams received that exceeded the maximum legal frame length.
    pub fn oversized(&self) -> u64 {
        self.oversized
    }

    /// Replies that completed an earlier (already returned) operation.
    pub fn late_completions(&self) -> u64 {
        self.late_completions
    }
}

impl Drop for LoopbackClient<'_> {
    /// Deregisters the client's reply route: long-lived dataplanes churn
    /// through clients, and a stale entry would alias any future client that
    /// recycles this virtual IP.
    fn drop(&mut self) {
        self.plane.deregister_client(self.agent.config().client_ip);
    }
}
