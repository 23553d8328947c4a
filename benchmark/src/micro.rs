//! Micro sections of the traced pass: one layer's public functions,
//! timed in isolation from outside. Every figure is the median over
//! [`BATCHES`] batches of a per-operation mean.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use oat::core::agg::SumI64;
use oat::core::mechanism::{MechNode, Outbox};
use oat::core::message::{Message, MsgKind};
use oat::core::policy::rww::{RwwNode, RwwSpec};
use oat::core::policy::PolicySpec;
use oat::core::request::{sigma_prime, ReqOp, Request};
use oat::core::tree::{NodeId, Tree};
use oat::net::frame::{decode_batch, encode_batch, write_frame, FrameDecoder, TAG_REQ_WRITE};
use oat::net::{DurabilityMode, TransportKind};
use oat::offline::opt_dp::opt_edge_cost;
use oat::query::{oracle_finals, QuerySpec};
use oat::sim::{Engine, Schedule};
use oat::wal::{encode_record, replay_log, Record, Wal, WalOptions, WalState};
use oat_obs::{EventKind, LogHistogram};
use oat_poll::{poll_fds, PollFd, POLLIN};

use crate::cluster;
use crate::gen;
use crate::metrics::LayerValues;
use crate::query::QUERY;
use crate::stats::median;
use crate::workload::{CLUSTER_NODES, QUERY_KEYS};

/// Batches per figure (the median is over these).
pub const BATCHES: usize = 12;

/// Median over [`BATCHES`] runs of `batch`, which returns the ns it
/// spent per operation.
fn median_of_batches(mut batch: impl FnMut(usize) -> f64) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES).map(&mut batch).collect();
    median(&per_op).unwrap_or(0.0)
}

/// Times `ops` calls of `op` and returns ns per call.
fn ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..ops {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Runs every micro section. `tmp` must exist; WAL files go under it.
pub fn run_all(seed: u64, tmp: &Path) -> Result<LayerValues, String> {
    let mut v = LayerValues::default();
    let tree = Tree::kary(CLUSTER_NODES, 2);
    let seq = oat::workloads::uniform(&tree, 20_000, 0.5, seed);
    wire(&mut v);
    mechanism(&mut v, &tree, &seq);
    sim_engine(&mut v, &tree, &seq);
    frame(&mut v).map_err(|e| format!("net.frame micro: {e}"))?;
    poll_wakeup(&mut v).map_err(|e| format!("poll micro: {e}"))?;
    for (kind, name) in [
        (TransportKind::Tcp, "net.transport.rtt_tcp_us"),
        (TransportKind::Uds, "net.transport.rtt_uds_us"),
        (TransportKind::Ring, "net.transport.rtt_ring_us"),
    ] {
        let us = transport_rtt(kind).map_err(|e| format!("{name}: {e}"))?;
        v.set(name, us);
    }
    let wal_dir = tmp.join(format!("wal-micro-{}", std::process::id()));
    wal(&mut v, &wal_dir).map_err(|e| format!("wal micro: {e}"))?;
    obs(&mut v);
    offline_query_workloads(&mut v, &tree, &seq, seed)?;
    Ok(v)
}

fn sample_messages() -> Vec<Message<i64>> {
    vec![
        Message::Probe { epoch: 3 },
        Message::Response {
            x: 1234,
            flag: true,
            epoch: 3,
            wlog: None,
        },
        Message::Update {
            x: -77,
            id: 42,
            wlog: None,
        },
        Message::Release { ids: vec![41, 42] },
    ]
}

/// `Message::encode_wire` / `decode_wire` over the four kinds in turn.
fn wire(v: &mut LayerValues) {
    let msgs = sample_messages();
    let encoded: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut b = Vec::new();
            m.encode_wire(&mut b);
            b
        })
        .collect();
    let mut buf = Vec::with_capacity(64);
    v.set(
        "core.wire.encode_ns",
        median_of_batches(|_| {
            ns_per_op(40_000, |i| {
                buf.clear();
                black_box(&msgs[i & 3]).encode_wire(&mut buf);
                black_box(&buf);
            })
        }),
    );
    v.set(
        "core.wire.decode_ns",
        median_of_batches(|_| {
            ns_per_op(40_000, |i| {
                black_box(Message::<i64>::decode_wire(black_box(&encoded[i & 3])).ok());
            })
        }),
    );
}

/// What one `Instant::now()` + `elapsed()` pair costs, so per-call
/// timings can be reported net of the timer.
fn timer_overhead_ns() -> f64 {
    median_of_batches(|_| {
        let mut total = 0u128;
        for _ in 0..20_000 {
            let t = Instant::now();
            total += black_box(t.elapsed().as_nanos());
        }
        total as f64 / 20_000.0
    })
}

/// The six handler entry points of `MechNode`, timed per call by kind
/// while the `seq-uniform` sequence is pumped through a `Vec` of
/// automata and a FIFO — the mechanism with no I/O around it.
fn mechanism(v: &mut LayerValues, tree: &Tree, seq: &[Request<i64>]) {
    const COMBINE: usize = 4;
    const WRITE: usize = 5;
    let overhead = timer_overhead_ns();
    let mut nodes: Vec<MechNode<RwwNode, SumI64>> = tree
        .nodes()
        .map(|u| MechNode::new(tree, u, SumI64, RwwSpec.build(tree.degree(u)), false))
        .collect();
    let mut fifo: VecDeque<(NodeId, NodeId, Message<i64>)> = VecDeque::new();
    let mut out: Outbox<i64> = Vec::new();
    // Per batch, per kind (probe, response, update, release, combine,
    // write): mean ns per call, net of the timer.
    let mut per_batch: [Vec<f64>; 6] = Default::default();
    for chunk in seq.chunks(seq.len().div_ceil(BATCHES)) {
        let mut sum = [0u128; 6];
        let mut calls = [0u64; 6];
        for q in chunk {
            let node = &mut nodes[q.node.idx()];
            let t = Instant::now();
            let slot = match &q.op {
                ReqOp::Combine => {
                    black_box(node.handle_combine(&mut out));
                    COMBINE
                }
                ReqOp::Write(arg) => {
                    node.handle_write(*arg, &mut out);
                    WRITE
                }
            };
            sum[slot] += t.elapsed().as_nanos();
            calls[slot] += 1;
            fifo.extend(out.drain(..).map(|(to, m)| (q.node, to, m)));
            while let Some((from, to, msg)) = fifo.pop_front() {
                let slot = msg.kind().index();
                let t = Instant::now();
                black_box(nodes[to.idx()].handle_message(from, msg, &mut out));
                sum[slot] += t.elapsed().as_nanos();
                calls[slot] += 1;
                fifo.extend(out.drain(..).map(|(next, m)| (to, next, m)));
            }
        }
        for k in 0..6 {
            if calls[k] > 0 {
                per_batch[k].push((sum[k] as f64 / calls[k] as f64 - overhead).max(0.0));
            }
        }
    }
    let names = [
        (MsgKind::Probe.index(), "core.mechanism.probe_ns"),
        (MsgKind::Response.index(), "core.mechanism.response_ns"),
        (MsgKind::Update.index(), "core.mechanism.update_ns"),
        (MsgKind::Release.index(), "core.mechanism.release_ns"),
        (COMBINE, "core.mechanism.combine_ns"),
        (WRITE, "core.mechanism.write_ns"),
    ];
    for (slot, name) in names {
        v.set(name, median(&per_batch[slot]).unwrap_or(0.0));
    }
}

/// `oat_sim::Engine` on the same sequence: the no-I/O ceiling.
fn sim_engine(v: &mut LayerValues, tree: &Tree, seq: &[Request<i64>]) {
    let mut req_per_s = Vec::with_capacity(BATCHES);
    let mut ns_per_msg = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut engine = Engine::new(tree.clone(), SumI64, &RwwSpec, Schedule::Fifo, false);
        let start = Instant::now();
        for q in seq {
            match &q.op {
                ReqOp::Write(arg) => engine.initiate_write(q.node, *arg),
                ReqOp::Combine => {
                    black_box(engine.initiate_combine(q.node));
                }
            }
            black_box(engine.run_to_quiescence());
        }
        let secs = start.elapsed().as_secs_f64();
        req_per_s.push(seq.len() as f64 / secs);
        ns_per_msg.push(secs * 1e9 / engine.stats().total().max(1) as f64);
    }
    v.set("sim.engine.req_per_s", median(&req_per_s).unwrap_or(0.0));
    v.set("sim.engine.ns_per_msg", median(&ns_per_msg).unwrap_or(0.0));
}

/// `write_frame` / `FrameDecoder` on a write request's frame, and
/// `encode_batch` / `decode_batch` on a batch of 32 of them.
fn frame(v: &mut LayerValues) -> std::io::Result<()> {
    const FRAMES: usize = 1000;
    let payload = [7u8; 16];
    let mut buf = Vec::with_capacity(FRAMES * 24);
    let mut failed = None;
    v.set(
        "net.frame.write_ns",
        median_of_batches(|_| {
            buf.clear();
            ns_per_op(FRAMES, |_| {
                if let Err(e) = write_frame(&mut buf, TAG_REQ_WRITE, black_box(&payload)) {
                    failed = Some(e);
                }
            })
        }),
    );
    if let Some(e) = failed {
        return Err(e);
    }
    v.set(
        "net.frame.decode_ns",
        median_of_batches(|_| {
            let mut dec = FrameDecoder::new();
            let start = Instant::now();
            dec.extend(black_box(&buf));
            let mut frames = 0;
            while let Ok(Some(frame)) = dec.try_frame() {
                black_box(frame);
                frames += 1;
            }
            start.elapsed().as_nanos() as f64 / frames.max(1) as f64
        }),
    );
    let items: Vec<(u8, Vec<u8>)> = (0..32).map(|_| (TAG_REQ_WRITE, payload.to_vec())).collect();
    let encoded = encode_batch(&items);
    v.set(
        "net.frame.batch_encode_ns_per_item",
        median_of_batches(|_| {
            ns_per_op(2_000, |_| {
                black_box(encode_batch(black_box(&items)));
            }) / 32.0
        }),
    );
    v.set(
        "net.frame.batch_decode_ns_per_item",
        median_of_batches(|_| {
            ns_per_op(2_000, |_| {
                black_box(decode_batch(black_box(&encoded)).ok());
            }) / 32.0
        }),
    );
    Ok(())
}

/// One byte each way over a `UnixStream::pair` between two threads that
/// block in `oat_poll::poll_fds`: the floor of any thread wake-up.
fn poll_wakeup(v: &mut LayerValues) -> std::io::Result<()> {
    const ROUND_TRIPS: usize = 2_000;
    let (mut near, mut far) = UnixStream::pair()?;
    let wait = |s: &UnixStream| -> std::io::Result<()> {
        let mut fds = [PollFd::new(s.as_raw_fd(), POLLIN)];
        while poll_fds(&mut fds, None)? == 0 {}
        Ok(())
    };
    let rtt = std::thread::scope(|scope| -> std::io::Result<f64> {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let mut byte = [0u8; 1];
            loop {
                wait(&far)?;
                if far.read(&mut byte)? == 0 || byte[0] == 0 {
                    return Ok(());
                }
                far.write_all(&byte)?;
            }
        });
        let mut byte = [1u8; 1];
        let mut per_batch = Vec::with_capacity(BATCHES);
        let mut pinged = Ok(());
        'batches: for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..ROUND_TRIPS {
                pinged = near
                    .write_all(&byte)
                    .and_then(|()| wait(&near))
                    .and_then(|()| near.read_exact(&mut byte));
                if pinged.is_err() {
                    break 'batches;
                }
            }
            per_batch.push(start.elapsed().as_nanos() as f64 / ROUND_TRIPS as f64);
        }
        // Stop the echo thread (a zero byte, or EOF if the write fails).
        let _ = near.write_all(&[0]);
        drop(near);
        echo.join().expect("echo thread panicked")?;
        pinged?;
        Ok(median(&per_batch).unwrap_or(0.0))
    })?;
    v.set("poll.wakeup_rtt_ns", rtt);
    Ok(())
}

/// Blocking `combine()` on a one-node cluster: client codec, byte pipe,
/// reactor wake-up, dispatch and respond, with zero mechanism messages.
fn transport_rtt(transport: TransportKind) -> Result<f64, String> {
    let tree = Tree::kary(1, 2);
    let cluster = cluster::spawn(&tree, transport, DurabilityMode::Memory)?;
    let mut client = cluster
        .client(NodeId(0))
        .map_err(|e| format!("connect: {e}"))?;
    let mut failed = None;
    let ns = median_of_batches(|_| {
        ns_per_op(400, |_| match client.combine() {
            Ok(value) => {
                black_box(value);
            }
            Err(e) => failed = Some(e.to_string()),
        })
    });
    drop(client);
    cluster.shutdown();
    match failed {
        Some(e) => Err(format!("combine: {e}")),
        None => Ok(ns / 1e3),
    }
}

/// The write-ahead log: a group-committed append, a forced-sync
/// append, an explicit sync, replay, snapshot and recovery.
fn wal(v: &mut LayerValues, dir: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    let never_sync = WalOptions {
        fsync_every: u64::MAX,
        snapshot_every: 0,
        ..WalOptions::default()
    };
    let mut failed: Option<std::io::Error> = None;
    let mut note = |r: std::io::Result<()>| {
        if let Err(e) = r {
            failed.get_or_insert(e);
        }
    };

    let mut log = Wal::open(dir.join("append"), never_sync.clone())?;
    v.set(
        "wal.append_ns",
        median_of_batches(|_| {
            ns_per_op(5_000, |i| {
                note(log.append(&Record::Rx {
                    peer: 1,
                    rx_seq: i as u64,
                }))
            })
        }),
    );
    drop(log);

    let mut log = Wal::open(dir.join("sync"), never_sync.clone())?;
    let write = Record::Write {
        val: 42i64.to_le_bytes().to_vec(),
    };
    v.set(
        "wal.append_sync_us",
        median_of_batches(|_| ns_per_op(20, |_| note(log.append(&write))) / 1e3),
    );
    v.set(
        "wal.sync_us",
        median_of_batches(|_| {
            let mut total = 0u128;
            for i in 0..20u64 {
                for j in 0..8 {
                    note(log.append(&Record::Ack {
                        peer: 1,
                        acked: i * 8 + j,
                    }));
                }
                let start = Instant::now();
                note(log.sync());
                total += start.elapsed().as_nanos();
            }
            total as f64 / 20.0 / 1e3
        }),
    );
    drop(log);

    // The record mix of a busy interior node: sequenced sends with their
    // acks and receive watermarks, lease flips, the odd local write.
    let mut bytes = Vec::new();
    let mut records = 0u64;
    for i in 1..=20_000u64 {
        let peer = (i % 3) as u32;
        encode_record(
            &Record::Send {
                peer,
                seq: i,
                inner: 2,
                body: vec![0xAB; 24],
            },
            &mut bytes,
        );
        encode_record(&Record::Rx { peer, rx_seq: i }, &mut bytes);
        encode_record(&Record::Ack { peer, acked: i }, &mut bytes);
        records += 3;
        if i % 8 == 0 {
            encode_record(
                &Record::Lease {
                    peer,
                    bits: (i % 4) as u8,
                },
                &mut bytes,
            );
            encode_record(&write, &mut bytes);
            records += 2;
        }
    }
    let mut state = WalState::default();
    v.set(
        "wal.replay_mb_per_s",
        median_of_batches(|_| {
            let start = Instant::now();
            let replay = replay_log(WalState::default(), black_box(&bytes));
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(replay.records, records, "replay must accept every record");
            state = replay.state;
            bytes.len() as f64 / 1e6 / secs
        }),
    );

    let mut log = Wal::open(dir.join("snapshot"), never_sync.clone())?;
    v.set(
        "wal.snapshot_ms",
        median_of_batches(|_| ns_per_op(1, |_| note(log.snapshot(&state))) / 1e6),
    );
    drop(log);

    // Recovery of a log one snapshot interval long (4096 records).
    let recover_dir = dir.join("recover");
    let mut log = Wal::open(&recover_dir, never_sync.clone())?;
    for i in 1..=4096u64 {
        note(log.append(&Record::Send {
            peer: (i % 3) as u32,
            seq: i,
            inner: 2,
            body: vec![0xAB; 24],
        }));
    }
    note(log.sync());
    drop(log);
    let mut recovered = 0;
    v.set(
        "wal.recover_ms",
        median_of_batches(|_| {
            let start = Instant::now();
            match Wal::open(&recover_dir, never_sync.clone()).and_then(|mut w| w.recover()) {
                Ok(r) => recovered = r.records,
                Err(e) => note(Err(e)),
            }
            start.elapsed().as_nanos() as f64 / 1e6
        }),
    );
    let _ = std::fs::remove_dir_all(dir);
    match failed {
        Some(e) => Err(e),
        None if recovered != 4096 => Err(std::io::Error::other(format!(
            "recovery replayed {recovered} of 4096 records"
        ))),
        None => Ok(()),
    }
}

/// The trace rings and histograms. Leaves tracing disabled.
fn obs(v: &mut LayerValues) {
    oat_obs::install(1 << 16);
    v.set(
        "obs.ring.emit_ns",
        median_of_batches(|_| {
            ns_per_op(50_000, |i| {
                oat_obs::emit(EventKind::ReqRecv, 0, 1, 2, black_box(i as u64))
            })
        }),
    );
    v.set(
        "obs.ring.now_ns",
        median_of_batches(|_| {
            ns_per_op(50_000, |_| {
                black_box(oat_obs::now_ns());
            })
        }),
    );
    oat_obs::disable();
    v.set(
        "obs.ring.emit_disabled_ns",
        median_of_batches(|_| {
            ns_per_op(1_000_000, |i| {
                oat_obs::trace_event!(EventKind::ReqRecv, 1, 2, black_box(i as u64));
            })
        }),
    );
    let mut hist = LogHistogram::new();
    v.set(
        "obs.hist.record_ns",
        median_of_batches(|_| {
            ns_per_op(100_000, |i| {
                hist.record(black_box(1_000 + (i as u64).wrapping_mul(7919) % 1_000_000))
            })
        }),
    );
    black_box(hist.count());
}

/// The oracles and generators the benchmark itself leans on.
fn offline_query_workloads(
    v: &mut LayerValues,
    tree: &Tree,
    seq: &[Request<i64>],
    seed: u64,
) -> Result<(), String> {
    let events = sigma_prime(tree, seq, NodeId(0), NodeId(1));
    v.set(
        "offline.opt_dp_ns_per_event",
        median_of_batches(|_| {
            ns_per_op(8, |_| {
                black_box(opt_edge_cost(black_box(&events)));
            }) / events.len().max(1) as f64
        }),
    );
    let spec: QuerySpec = QUERY
        .parse()
        .map_err(|e: String| format!("query spec: {e}"))?;
    let facts = gen::fact_stream(10_000, QUERY_KEYS, seed);
    v.set(
        "query.oracle_ms",
        median_of_batches(|_| {
            ns_per_op(1, |_| {
                black_box(oracle_finals(&spec, black_box(&facts)));
            }) / 1e6
        }),
    );
    v.set(
        "workloads.gen_ns_per_req",
        median_of_batches(|b| {
            ns_per_op(1, |_| {
                black_box(oat::workloads::uniform(tree, 50_000, 0.5, seed + b as u64));
            }) / 50_000.0
        }),
    );
    Ok(())
}
