//! Consistent-hash ring lookups: the per-query cost a client agent pays to
//! find a chain.
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netchain_core::{ChainDirectory, HashRing};
use netchain_wire::{Ipv4Addr, Key};

fn bench_ring(c: &mut Criterion) {
    let switches: Vec<Ipv4Addr> = (0..100).map(Ipv4Addr::for_switch).collect();
    let ring = HashRing::new(switches, 100, 3, 7);
    let directory = ChainDirectory::new(ring.clone());
    let key = Key::from_name("some-configuration-key");
    c.bench_function("hashring/chain_for_key_100_switches", |b| {
        b.iter(|| ring.chain_for_key(black_box(&key)))
    });
    c.bench_function("hashring/write_route", |b| {
        b.iter(|| directory.write_route_of(directory.locate(black_box(&key)).group))
    });
    c.bench_function("hashring/read_route", |b| {
        b.iter(|| directory.read_route_of(directory.locate(black_box(&key)).group))
    });
}

criterion_group!(benches, bench_ring);
criterion_main!(benches);
