//! Reactor-transport tests: the epoll event-loop runtime under loads
//! and failure shapes the thread-per-connection runtime never hit.
//!
//! Seven properties pinned here:
//!
//! * **Incremental decoding** — a frame dribbled across several writes
//!   (or a client read timeout firing mid-frame) never desynchronizes
//!   the stream; this was an acknowledged caveat of the old blocking
//!   transport (a blocking frame read + read timeout could split a frame and
//!   garble everything after it).
//! * **Backpressure** — a node whose edge retransmit buffer crosses the
//!   high watermark parks its *client* intake (never its edges, acks
//!   must flow), counts the stall, and resumes below the low watermark;
//!   nothing is lost and nothing deadlocks.
//! * **High fan-in** — a 64-leaf star (one hub owning 64 connections on
//!   one reactor) keeps per-edge FIFO exactly-once delivery and
//!   oracle-exact combines under pipelined multi-client load, and under
//!   chaos (probabilistic drops + a scheduled connection kill).
//! * **Thread budget** — OS threads scale with the configured reactor
//!   pool, not with the node count.
//! * **Quiet registration** — the reactor wakes for readiness, never
//!   for a socket it merely holds: a blocked write queue waits on
//!   `POLLOUT` without spinning and disarms it once drained, and a
//!   client that hangs up while its node is stalled costs no wakeups
//!   (both counted as `PollWake` events through `oat_obs`).
//! * **Traceable requests** — in a fault-free traced pipelined run,
//!   every request a client timed is matched to the node-side record
//!   that served it, so the phase breakdown covers all of them.
//! * **No spurious recovery** — a fault-free run loses no connection and
//!   re-sends nothing on any transport: only a lost connection re-sends,
//!   however long an ack waits for a frame to ride.

use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use oat::core::agg::SumI64;
use oat::core::fault::{FaultPlan, KillConn};
use oat::core::policy::rww::RwwSpec;
use oat::core::request::{ReqOp, Request};
use oat::core::tree::{NodeId, Tree};
use oat::core::wire::put_u64;
use oat::net::frame::{
    write_frame, FrameDecoder, TAG_HELLO_CLIENT, TAG_REQ_COMBINE, TAG_REQ_WRITE, TAG_RESP_COMBINE,
    TAG_RESP_WRITE,
};
use oat::net::{Cluster, ClusterClient, NetConfig, NodeAddr, TransportKind};
use oat::workloads::uniform;
use oat_obs::Json;

const CLIENT_TIMEOUT: Duration = Duration::from_millis(250);
const CLIENT_RETRIES: u32 = 120;
const DRAIN: Duration = Duration::from_secs(30);

/// The `oat_obs` sink is process-global and `install` resets it, so the
/// tests that trace take turns. While one traces every thread records,
/// and a node-side request event names its request only by ids that
/// every cluster reuses (node, client connection, request id), so each
/// test that serves client requests from a cluster takes a turn too.
static TRACING: Mutex<()> = Mutex::new(());

/// Reads the next whole frame off a blocking socket through the
/// runtime's own decoder; `dec` keeps any bytes of later frames for the
/// next call on the same socket.
fn next_frame(s: &mut impl Read, dec: &mut FrameDecoder) -> io::Result<(u8, Vec<u8>)> {
    loop {
        if let Some(frame) = dec.try_frame()? {
            return Ok(frame);
        }
        let mut chunk = [0u8; 4096];
        match s.read(&mut chunk)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => dec.extend(&chunk[..n]),
        }
    }
}

/// Per-thread ring size for the wakeup-counting tests: room for every
/// event their one reactor thread emits, so none is overwritten.
const TRACE_RING: usize = 1 << 18;

/// `PollWake` spans the reactor thread that served request `marker`
/// began inside `[from, to]` (`oat_obs::now_ns` stamps). The thread is
/// found by the `ReqRecv` event carrying the marker's unique request id,
/// which keeps concurrently running clusters out of the count; send the
/// marker last, so that even a spinning reactor that wrapped its ring
/// still holds it.
fn wakeups_between(trace: &oat_obs::Trace, marker: u64, from: u64, to: u64) -> usize {
    let tid = trace
        .events
        .iter()
        .find(|e| e.kind == oat_obs::EventKind::ReqRecv && e.c == marker)
        .expect("the marker request was traced")
        .tid;
    trace
        .events
        .iter()
        .filter(|e| e.kind == oat_obs::EventKind::PollWake && e.tid == tid)
        .filter(|e| (from..=to).contains(&e.ts_ns))
        .count()
}

/// `hello` then one combine per id, as raw wire bytes.
fn hello_and_combines(ids: impl Iterator<Item = u64>) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, TAG_HELLO_CLIENT, &[]).unwrap();
    for id in ids {
        write_frame(&mut wire, TAG_REQ_COMBINE, &id.to_le_bytes()).unwrap();
    }
    wire
}

/// Sequential replay with retrying clients, asserting every combine
/// equals the running oracle. Copied shape from `chaos_net.rs`.
fn replay_against_oracle(cluster: &Cluster<SumI64>, seq: &[Request<i64>]) -> usize {
    replay_with_hook(cluster, seq, |_, _| {})
}

/// [`replay_against_oracle`] with a test hook around every request:
/// `hook(i, false)` runs before request `i` is sent (the cluster is
/// quiescent), `hook(i, true)` as soon as it was answered — before the
/// cluster has drained the messages it caused.
fn replay_with_hook(
    cluster: &Cluster<SumI64>,
    seq: &[Request<i64>],
    mut hook: impl FnMut(usize, bool),
) -> usize {
    let tree = cluster.tree();
    let mut clients: Vec<Option<ClusterClient<i64>>> = (0..tree.len()).map(|_| None).collect();
    let mut last = vec![0i64; tree.len()];
    let mut combines = 0;
    for (i, q) in seq.iter().enumerate() {
        hook(i, false);
        let slot = &mut clients[q.node.idx()];
        let client = match slot {
            Some(c) => c,
            None => {
                let mut c = cluster.client(q.node).expect("client connect");
                c.set_timeout(Some(CLIENT_TIMEOUT), CLIENT_RETRIES)
                    .expect("arm timeout");
                slot.insert(c)
            }
        };
        match &q.op {
            ReqOp::Write(v) => {
                client
                    .write(*v)
                    .unwrap_or_else(|e| panic!("request {i}: write failed: {e}"));
                last[q.node.idx()] = *v;
            }
            ReqOp::Combine => {
                let got = client
                    .combine()
                    .unwrap_or_else(|e| panic!("request {i}: combine failed: {e}"));
                let want: i64 = last.iter().sum();
                assert_eq!(got, want, "request {i}: combine diverged from the oracle");
                combines += 1;
            }
        }
        hook(i, true);
        assert!(
            cluster.quiesce_for(DRAIN),
            "request {i}: cluster failed to drain within {DRAIN:?}"
        );
    }
    combines
}

#[test]
fn frame_dribbled_across_writes_is_reassembled_by_the_node() {
    // Client → node direction: a raw socket sends hello + one write
    // request with every frame split across three socket writes and
    // real pauses between them. The node's per-connection decoder must
    // reassemble silently; the write must land.
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let tree = Tree::pair();
    let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, false).expect("spawn");

    let mut wire = Vec::new();
    write_frame(&mut wire, TAG_HELLO_CLIENT, &[]).unwrap();
    let mut payload = Vec::new();
    put_u64(&mut payload, 1); // request id
    put_u64(&mut payload, 42u64); // i64 value 42, LE
    write_frame(&mut wire, TAG_REQ_WRITE, &payload).unwrap();

    let oat::net::NodeAddr::Tcp(addr) = cluster.addrs()[0].clone() else {
        panic!("default transport is TCP");
    };
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).unwrap();
    // Three slices with cut points inside the length prefix of the
    // hello and inside the body of the request frame.
    let cuts = [2, wire.len() - 5, wire.len()];
    let mut from = 0;
    for cut in cuts {
        s.write_all(&wire[from..cut]).expect("dribble");
        s.flush().unwrap();
        from = cut;
        thread::sleep(Duration::from_millis(30));
    }
    let (tag, resp) = next_frame(&mut s, &mut FrameDecoder::new()).expect("read ack");
    assert_eq!(tag, TAG_RESP_WRITE);
    assert_eq!(resp[..8], 1u64.to_le_bytes());
    drop(s);

    cluster.quiesce();
    let mut c = cluster.client(NodeId(1)).expect("client");
    assert_eq!(c.combine().expect("combine"), 42);
    cluster.quiesce();
    cluster.shutdown();
}

#[test]
fn client_timeout_mid_frame_does_not_desync_the_stream() {
    // Node → client direction, against a scripted server so the dribble
    // is forced: the response frame arrives in three chunks spaced
    // wider than the client's read timeout. The old transport's
    // blocking frame read would split here and desynchronize; the
    // buffered decoder must ride the timeouts (re-sending its pending
    // request each time — duplicates the server ignores) and still
    // return the value.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_nodelay(true).unwrap();
        let mut dec = FrameDecoder::new();
        let (tag, _) = next_frame(&mut s, &mut dec).expect("hello");
        assert_eq!(tag, TAG_HELLO_CLIENT);
        let (tag, req) = next_frame(&mut s, &mut dec).expect("req");
        assert_eq!(tag, TAG_REQ_COMBINE);
        let mut resp = Vec::new();
        resp.extend_from_slice(&req[..8]); // echo the request id
        put_u64(&mut resp, 7u64); // i64 value 7
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_RESP_COMBINE, &resp).unwrap();
        // Cut inside the length prefix, then inside the payload; the
        // 60 ms gaps each outlast the client's 40 ms timeout. The
        // client's retries land in our receive buffer, unread — which
        // is exactly how a busy node treats duplicates of an already
        // parked combine.
        let cuts = [3, wire.len() - 4, wire.len()];
        let mut from = 0;
        for cut in cuts {
            s.write_all(&wire[from..cut]).expect("dribble");
            s.flush().unwrap();
            from = cut;
            thread::sleep(Duration::from_millis(60));
        }
    });

    let mut client = ClusterClient::<i64>::connect(addr, NodeId(0)).expect("connect");
    client
        .set_timeout(Some(Duration::from_millis(40)), 20)
        .expect("arm timeout");
    assert_eq!(client.combine().expect("combine"), 7);
    assert!(
        client.timeouts() >= 1,
        "the dribble must actually have outlasted the read timeout"
    );
    server.join().unwrap();
}

#[test]
fn blocked_write_queue_waits_on_pollout_without_spinning() {
    // A client pipelines far more combines than a Unix socket buffers
    // responses for (~208 KiB) and reads nothing: the node's write
    // queue hits WouldBlock and arms POLLOUT. While the client sits
    // there the reactor must sleep, not spin on a socket that is not
    // writable; when the client resumes every response arrives in
    // order; and once the queue drained POLLOUT must be disarmed again,
    // or the now always-writable socket would spin the loop.
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    oat_obs::install(TRACE_RING);
    const N: u64 = 30_000;
    const BASE: u64 = 0xB10C_0000_0000;
    const WINDOW: Duration = Duration::from_millis(200);
    let cfg = NetConfig {
        threads: Some(1),
        transport: TransportKind::Uds,
        ..NetConfig::default()
    };
    let tree = Tree::pair();
    let cluster = Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, FaultPlan::default(), cfg)
        .expect("spawn");
    let NodeAddr::Uds(path) = cluster.addrs()[0].clone() else {
        panic!("asked for the Unix-socket transport");
    };
    let mut s = UnixStream::connect(path).expect("connect");
    s.write_all(&hello_and_combines(BASE..BASE + N))
        .expect("pipeline");
    // Every request dispatched; 21 bytes of response each are queued,
    // most of them in userspace behind the full socket.
    assert!(cluster.quiesce_for(DRAIN));
    thread::sleep(Duration::from_millis(20));
    let blocked_from = oat_obs::now_ns();
    thread::sleep(WINDOW);
    let blocked_to = oat_obs::now_ns();

    let mut dec = FrameDecoder::new();
    for i in 0..N {
        let (tag, resp) = next_frame(&mut s, &mut dec).expect("response");
        assert_eq!(tag, TAG_RESP_COMBINE);
        assert_eq!(resp[..8], (BASE + i).to_le_bytes(), "response {i}");
    }
    thread::sleep(Duration::from_millis(20));
    let drained_from = oat_obs::now_ns();
    thread::sleep(WINDOW);
    let drained_to = oat_obs::now_ns();
    const MARKER: u64 = BASE + N;
    let mut last = Vec::new();
    write_frame(&mut last, TAG_REQ_COMBINE, &MARKER.to_le_bytes()).unwrap();
    s.write_all(&last).expect("marker");
    next_frame(&mut s, &mut dec).expect("marker response");

    drop(s);
    let report = cluster.shutdown();
    assert!(report.dead_nodes.is_empty());
    oat_obs::disable();
    let trace = oat_obs::drain();
    let blocked = wakeups_between(&trace, MARKER, blocked_from, blocked_to);
    let drained = wakeups_between(&trace, MARKER, drained_from, drained_to);
    assert!(
        blocked < 50,
        "{blocked} wakeups in {WINDOW:?} behind a blocked write queue"
    );
    assert!(
        drained < 50,
        "{drained} wakeups in {WINDOW:?} after the queue drained: POLLOUT still armed"
    );
}

#[test]
fn backpressure_stalls_client_intake_and_recovers() {
    // A watermark of 1 makes any unacked sequenced frame trip the
    // stall, and heavy injected drops sever connections whose frames
    // stay unacked until the reconnect replays them. Client intake
    // parks; acks (which never stall) eventually drain the retransmit
    // buffers and intake resumes. Everything still completes and
    // matches the oracle.
    //
    // Each round also leaves a bystander client on node 0 that hangs up
    // right after a write there tripped the stall. A stalled node's
    // client sockets are out of the poller, so the hangup costs nothing
    // until the stall clears and the socket is retired; were they only
    // masked, epoll would report the hangup on every wait and the loop
    // would spin until the stall clears: for the ack's deadline, or
    // through a reconnect when the frame was dropped.
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    oat_obs::install(TRACE_RING);
    const BASE: u64 = 0x57A1_0000_0000;
    let started = oat_obs::now_ns();
    let tree = Tree::path(3);
    let plan = FaultPlan {
        seed: 21,
        drop_p: 0.25,
        ..FaultPlan::default()
    };
    let cfg = NetConfig {
        threads: Some(1),
        rtx_high: 1,
        rtx_low: 0,
        ..NetConfig::default()
    };
    let cluster = Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, plan, cfg).expect("spawn");

    let NodeAddr::Tcp(addr) = cluster.addrs()[0].clone() else {
        panic!("default transport is TCP");
    };
    let mut seq = Vec::new();
    for round in 0..12i64 {
        seq.push(Request::write(NodeId(0), round + 1));
        seq.push(Request::combine(NodeId(1)));
        seq.push(Request::combine(NodeId(2)));
        seq.push(Request::write(NodeId(2), -round));
    }
    let mut bystander = None;
    let combines = replay_with_hook(&cluster, &seq, |i, answered| {
        if i % 4 != 0 {
            return;
        }
        // Around each round's write at node 0. From the second round on
        // node 1 holds a lease there, so the write sends an update: it
        // is unacked at the flush that answers the write, and the node
        // stalls until the ack comes back. The combines that follow are
        // served from leases, so no frame comes back to carry it: the
        // stall lasts until node 1's ack deadline, or through a
        // reconnect when the update was dropped.
        if answered {
            bystander = None;
            return;
        }
        // The bystander is a served client before the stall: its two
        // combines (unique ids, which also mark the reactor thread in the
        // trace) have been answered. The second answer arrives after the
        // first was read, and stays unread so that closing the socket
        // resets it — a bare FIN only raises POLLIN, a reset is the
        // ERR|HUP no mask filters.
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).unwrap();
        let id = BASE + 2 * i as u64;
        s.write_all(&hello_and_combines(id..id + 1))
            .expect("bystander combine");
        let (tag, resp) = next_frame(&mut s, &mut FrameDecoder::new()).expect("bystander response");
        assert_eq!(tag, TAG_RESP_COMBINE);
        assert_eq!(resp[..8], id.to_le_bytes());
        let mut second = Vec::new();
        write_frame(&mut second, TAG_REQ_COMBINE, &(id + 1).to_le_bytes()).unwrap();
        s.write_all(&second).expect("bystander's second combine");
        s.peek(&mut [0u8; 1]).expect("the second answer arrived");
        assert!(cluster.quiesce_for(DRAIN));
        bystander = Some(s);
    });
    assert_eq!(combines, 24);

    let mut stalls = 0;
    for u in tree.nodes() {
        stalls += cluster
            .node_metrics(u)
            .expect("metrics")
            .backpressure_stalls;
    }
    assert!(
        stalls >= 1,
        "a watermark of one frame must have parked client intake at least once"
    );
    let metrics = Json::parse(&cluster.metrics_json().expect("json")).expect("parse");
    let reported: u64 = metrics
        .items()
        .iter()
        .map(|m| {
            m.at(&["faults", "backpressure_stalls"])
                .and_then(Json::as_u64)
                .expect("a count")
        })
        .sum();
    assert!(
        reported >= stalls,
        "the metrics document reports the stalls"
    );

    let (drops, ..) = cluster.injected().snapshot();
    assert!(drops > 0, "the drop plan must actually have fired");
    let report = cluster.shutdown();
    assert!(report.dead_nodes.is_empty());
    assert!(report.faults.retransmits > 0);
    let finished = oat_obs::now_ns();
    oat_obs::disable();
    // Healthy runs read ~260; a hangup spinning through the stalls
    // (client sockets masked and skipped instead of removed) reads
    // 32 000–40 000. The marker is the last bystander's first combine.
    let wakeups = wakeups_between(&oat_obs::drain(), BASE + 2 * 44, started, finished);
    assert!(
        wakeups < 2_000,
        "{wakeups} reactor wakeups for 60 requests: a hung-up client spun a stalled node"
    );
}

#[test]
fn fault_free_runs_resend_nothing() {
    // Only a lost connection re-sends a frame, and without injected
    // faults no connection is lost: no reconnect, no retransmit, and no
    // duplicate for a receiver to drop, however long a reactor pass or
    // an ack waits. A sequence gap would sever, and show as a reconnect.
    // The sequential replay leaves edges idle between requests, so its
    // acks go out at their deadline; the pipelined one keeps edges busy,
    // so its acks mostly ride. It runs two frontends, as the benchmark's
    // pipelined workloads do. The pause before the books are read
    // outlasts every ack deadline.
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let tree = Tree::kary(15, 2);
    let seq = uniform(&tree, 300, 0.5, 0xACE);
    let frontends = [NodeId(7), NodeId(14)];
    let piped: Vec<Request<i64>> = (seq.iter().enumerate())
        .map(|(i, r)| Request {
            node: frontends[i % 2],
            op: r.op.clone(),
        })
        .collect();
    for transport in [TransportKind::Tcp, TransportKind::Uds] {
        let cfg = NetConfig {
            transport,
            ..NetConfig::default()
        };
        let cluster =
            Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, FaultPlan::default(), cfg)
                .expect("spawn");
        cluster.replay_sequential(&seq).expect("sequential replay");
        cluster
            .replay_pipelined(&piped, 8)
            .expect("pipelined replay");
        assert!(cluster.quiesce_for(DRAIN), "{transport:?}: never drained");
        thread::sleep(Duration::from_millis(100));
        for u in tree.nodes() {
            let m = cluster.node_metrics(u).expect("metrics");
            assert_eq!(m.dup_drops, 0, "{transport:?}: node {} dropped frames", u.0);
        }
        let report = cluster.shutdown();
        assert!(report.dead_nodes.is_empty());
        let f = report.faults;
        assert_eq!(
            (f.retransmits, f.reconnects),
            (0, 0),
            "{transport:?}: retransmits, reconnects without a fault"
        );
    }
}

#[test]
fn high_fan_in_star_keeps_fifo_and_oracle_under_pipelining() {
    // 64 leaves, one hub, on a fixed two-thread pool: the hub's reactor
    // holds 32 of the leaves, whose edges are local pipes, and the other
    // 32 edge connections (plus the pipelined clients) multiplex onto
    // TCP sockets across the two threads. Phase 1 writes a known value
    // at every leaf under depth-8 two-client pipelining; after
    // quiescence, phase 2 pipelines combines everywhere and every answer
    // must equal the full sum. dup_drops == 0 certifies per-edge FIFO:
    // the sequencer discards any frame that arrives out of order, so a
    // reordering pipe or transport could not keep it at zero.
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let fan = 64;
    let tree = Tree::kary(fan + 1, fan);
    let cfg = NetConfig {
        threads: Some(2),
        ..NetConfig::default()
    };
    let cluster = Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, FaultPlan::default(), cfg)
        .expect("spawn");
    assert_eq!(cluster.threads_spawned(), 2);

    let mut writes = Vec::new();
    for round in 0..3i64 {
        for leaf in 1..=fan as u32 {
            writes.push(Request::write(NodeId(leaf), leaf as i64 + 100 * round));
        }
    }
    // One client per node for the writes: multi-client dealing would
    // abandon per-node submission order and make the final value
    // nondeterministic. Depth-8 pipelining still overlaps all 64 leaves.
    let w = cluster.replay_pipelined(&writes, 8).expect("writes");
    assert_eq!(w.latencies.len(), writes.len());
    assert!(
        cluster.quiesce_for(DRAIN),
        "star failed to drain after the write phase"
    );

    // Final round left leaf ℓ holding ℓ + 200.
    let want: i64 = (1..=fan as i64).map(|l| l + 200).sum();
    let combines: Vec<Request<i64>> = (0..tree.len() as u32)
        .map(|u| Request::combine(NodeId(u)))
        .collect();
    let r = cluster
        .replay_pipelined_multi(&combines, 8, 2)
        .expect("combines");
    assert_eq!(r.combines.len(), tree.len());
    for (i, v) in &r.combines {
        assert_eq!(*v, want, "combine {i} diverged on the star");
    }
    assert!(cluster.quiesce_for(DRAIN));

    let mut dup_drops = 0;
    for u in tree.nodes() {
        dup_drops += cluster.node_metrics(u).expect("metrics").dup_drops;
    }
    assert_eq!(
        dup_drops, 0,
        "per-edge FIFO violated: sequencer dropped frames"
    );

    let report = cluster.shutdown();
    assert!(report.dead_nodes.is_empty());
    assert_eq!(report.delivered, report.stats.total());
    assert_eq!(report.threads_spawned, 2);
}

#[test]
fn high_fan_in_star_survives_chaos() {
    // The same star under probabilistic drops plus a scheduled kill of
    // a hub-leaf connection: sequential oracle replay must stay exact
    // and the killed edge must come back.
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let fan = 64;
    let tree = Tree::kary(fan + 1, fan);
    let plan = FaultPlan {
        seed: 33,
        drop_p: 0.04,
        dup_p: 0.04,
        kills: vec![KillConn {
            from: NodeId(0),
            to: NodeId(7),
            after_frames: 2,
        }],
        ..FaultPlan::default()
    };
    let cluster =
        Cluster::spawn_with_faults(&tree, SumI64, &RwwSpec, false, plan).expect("spawn chaos");

    let mut seq = Vec::new();
    // Touch the killed edge's leaf explicitly, then a seeded mix.
    seq.push(Request::write(NodeId(7), 70));
    seq.push(Request::combine(NodeId(0)));
    seq.extend(uniform(&tree, 60, 0.5, 0x5717));
    seq.push(Request::combine(NodeId(7)));
    let combines = replay_against_oracle(&cluster, &seq);
    assert!(combines >= 2);

    let (_, _, _, kills, _) = cluster.injected().snapshot();
    assert_eq!(kills, 1, "the scheduled kill must fire");
    let report = cluster.shutdown();
    assert!(report.dead_nodes.is_empty());
    assert!(
        report.faults.reconnects >= 1,
        "the killed hub-leaf connection must reconnect"
    );
}

#[test]
fn thread_count_tracks_the_pool_not_the_nodes() {
    // 31 nodes on explicit pools of 1 and 3: threads_spawned reports
    // the pool, and an oversized request clamps to the node count.
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let tree = Tree::kary(31, 2);
    for pool in [1usize, 3] {
        let cfg = NetConfig {
            threads: Some(pool),
            ..NetConfig::default()
        };
        let cluster =
            Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, FaultPlan::default(), cfg)
                .expect("spawn");
        assert_eq!(cluster.threads_spawned(), pool);
        let mut c = cluster.client(NodeId(30)).expect("client");
        c.write(5).expect("write");
        cluster.quiesce();
        assert_eq!(
            cluster
                .client(NodeId(0))
                .expect("client")
                .combine()
                .expect("combine"),
            5
        );
        cluster.quiesce();
        let report = cluster.shutdown();
        assert_eq!(report.threads_spawned, pool);
        assert!(report.dead_nodes.is_empty());
    }

    let tiny = Tree::pair();
    let cfg = NetConfig {
        threads: Some(16),
        ..NetConfig::default()
    };
    let cluster = Cluster::spawn_with(&tiny, SumI64, &RwwSpec, false, FaultPlan::default(), cfg)
        .expect("spawn");
    assert_eq!(
        cluster.threads_spawned(),
        2,
        "pool must clamp to the node count"
    );
    cluster.shutdown();
}

#[test]
fn traced_pipelined_requests_all_match_their_node_side_records() {
    // Sixteen mixed requests on a 4-node path, pipelined from this
    // thread: one client per node, each node's requests submitted before
    // any response is read. With no faults every client-side
    // ReqStart/ReqEnd window must pair with the ReqRecv/ReqServe/RespTx
    // record of the node that served it, on every transport.
    let _turn = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    const MARKER: u64 = 0x7EAC_0000_0000;
    let tree = Tree::path(4);
    let seq: Vec<Request<i64>> = (0..16u32)
        .map(|i| {
            let node = NodeId(i % 4);
            if i % 3 == 0 {
                Request::combine(node)
            } else {
                Request::write(node, i64::from(i))
            }
        })
        .collect();
    for transport in [TransportKind::Tcp, TransportKind::Uds] {
        let cfg = NetConfig {
            transport,
            ..NetConfig::default()
        };
        let cluster =
            Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, FaultPlan::default(), cfg)
                .expect("spawn");
        let mut clients: Vec<ClusterClient<i64>> = tree
            .nodes()
            .map(|u| cluster.client(u).expect("client"))
            .collect();
        oat_obs::install(TRACE_RING);
        // Tags this thread's ring: other tests' clients may run while
        // tracing is on, and only this thread's request windows count.
        oat_obs::emit(oat_obs::EventKind::ReqStart, 0, u32::MAX, 0, MARKER);
        let mut outstanding = vec![0usize; tree.len()];
        for q in &seq {
            let client = &mut clients[q.node.idx()];
            match &q.op {
                ReqOp::Combine => client.submit_combine().expect("submit combine"),
                ReqOp::Write(v) => client.submit_write(*v).expect("submit write"),
            };
            outstanding[q.node.idx()] += 1;
        }
        for (client, n) in clients.iter_mut().zip(&outstanding) {
            for _ in 0..*n {
                client.next_response().expect("response");
            }
        }
        assert!(cluster.quiesce_for(DRAIN));
        oat_obs::disable();
        let mut events = oat_obs::drain().events;
        let mine = events
            .iter()
            .find(|e| e.kind == oat_obs::EventKind::ReqStart && e.c == MARKER)
            .expect("the marker was traced")
            .tid;
        events.retain(|e| {
            !matches!(
                e.kind,
                oat_obs::EventKind::ReqStart | oat_obs::EventKind::ReqEnd
            ) || e.tid == mine
        });
        let b = oat_obs::phase_breakdown(&events);
        let name = transport.name();
        assert_eq!(b.requests, 16, "{name}: every request timed client-side");
        assert_eq!(
            b.matched, 16,
            "{name}: fault-free pipelined requests all match"
        );
        drop(clients);
        cluster.shutdown();
    }
}
