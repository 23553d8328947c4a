//! The reactor's wakeup primitive: one ready socket among N idle ones.
//!
//! `Poller::wait` asks a persistent epoll registration for what is
//! ready; `poll_fds` hands the kernel the whole set to scan. The ready
//! socket holds an unread byte, so (level-triggered) every call returns
//! at once with exactly one event and the loop times the syscall alone.
//! Each measured unit is a batch of [`BATCH`] waits.

use std::io::Write;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixDatagram, UnixStream};
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oat_poll::{poll_fds, Events, PollFd, Poller, POLLIN};

const BATCH: u64 = 1000;

fn bench_one_ready_among_idle(c: &mut Criterion) {
    let mut g = c.benchmark_group("poller/one_ready_among_idle");
    g.throughput(Throughput::Elements(BATCH));
    for idle in [1usize, 64, 1024] {
        // One descriptor each: an unbound datagram socket never becomes
        // readable. A process capped below ~1100 descriptors skips 1024.
        let Ok(idlers) = (0..idle)
            .map(|_| UnixDatagram::unbound())
            .collect::<std::io::Result<Vec<_>>>()
        else {
            println!("poller/one_ready_among_idle: {idle} skipped (descriptor limit)");
            continue;
        };
        let (mut tx, rx) = UnixStream::pair().expect("socketpair");
        tx.write_all(&[1]).expect("make one socket ready");

        let poller = Poller::new().expect("epoll");
        for (i, s) in idlers.iter().enumerate() {
            poller.add(s.as_raw_fd(), i as u64, POLLIN).expect("add");
        }
        poller
            .add(rx.as_raw_fd(), idle as u64, POLLIN)
            .expect("add");
        let mut events = Events::with_capacity(64);
        g.bench_with_input(BenchmarkId::new("poller_wait", idle), &idle, |b, _| {
            b.iter(|| {
                for _ in 0..BATCH {
                    let n = poller
                        .wait(&mut events, Some(Duration::ZERO))
                        .expect("wait");
                    assert_eq!(black_box(n), 1);
                }
            })
        });

        let mut fds: Vec<PollFd> = idlers
            .iter()
            .map(|s| PollFd::new(s.as_raw_fd(), POLLIN))
            .collect();
        fds.push(PollFd::new(rx.as_raw_fd(), POLLIN));
        g.bench_with_input(BenchmarkId::new("poll_fds", idle), &idle, |b, _| {
            b.iter(|| {
                for _ in 0..BATCH {
                    let n = poll_fds(&mut fds, Some(Duration::ZERO)).expect("poll");
                    assert_eq!(black_box(n), 1);
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_one_ready_among_idle);
criterion_main!(benches);
