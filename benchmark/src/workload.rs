//! The seven named workloads and how big a run of each is.

use oat::net::TransportKind;

/// How a workload drives the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// One request in flight cluster-wide, `Cluster::quiesce` after each.
    Sequential,
    /// Each frontend keeps `depth` requests in flight.
    Pipelined {
        /// Requests in flight per frontend.
        depth: usize,
    },
    /// Each frontend sends `REQ_BATCH` frames of `size` requests, one
    /// batch in flight.
    Batched {
        /// Requests per batch.
        size: usize,
    },
    /// `oat_query::run` over a fact stream.
    Query,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// How it drives the system.
    pub drive: Drive,
    /// Byte pipe under every connection.
    pub transport: TransportKind,
    /// Write-ahead-log durability instead of in-memory.
    pub wal: bool,
    /// Share of requests that are writes.
    pub write_fraction: f64,
    /// Operations per second of `--seconds`: sized on the reference
    /// machine (one CPU of a shared 2-CPU VM) so the whole run, set-ups
    /// included, lasts about `--seconds`. Counts, not the clock, bound a
    /// run, so two commits do identical work.
    pub ops_per_budget_second: usize,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds later
    /// changes to its bounds. The others run in a full pass and in
    /// `compare` only: the driver's time limit pays for five workloads
    /// of the length the spread rule needs, not seven (README).
    pub gated: bool,
}

/// Nodes of the cluster workloads' tree (`kary:31:2`).
pub const CLUSTER_NODES: usize = 31;
/// Nodes of the query workload's tree (`kary:15:2`).
pub const QUERY_NODES: usize = 15;
/// Group-by keys of the query workload.
pub const QUERY_KEYS: u32 = 8;
/// Queries one run of the query workload makes (fresh cluster each);
/// its metrics are medians over them.
pub const QUERY_REPEATS: usize = 8;
/// Rounds one run of a cluster workload is measured in: each a fresh
/// cluster with its own stream, a fifth of the count. Set-up time is
/// the median over the rounds; every other metric the median over the
/// rounds' pooled slices.
pub const ROUNDS: usize = 5;
/// Reactor threads: a constant, so a bigger box measures the same
/// system.
pub const REACTOR_THREADS: usize = 2;
/// Generator threads of a concurrent drive, one per frontend. More
/// starve the reactors and measure the scheduler (see README, "known
/// cliffs").
pub const MAX_GENERATORS: usize = 2;
/// `--quick` divides every count by this.
pub const QUICK_DIVISOR: usize = 20;

/// Every workload, in the order a full pass runs them.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "seq-uniform",
        why: "sequential uniform mix: every message is a reactor wakeup, so it shows per-hop latency; the only setting with defined per-edge counts, so it carries sim parity",
        drive: Drive::Sequential,
        transport: TransportKind::Tcp,
        wal: false,
        write_fraction: 0.5,
        ops_per_budget_second: 5_400,
        gated: true,
    },
    Workload {
        name: "pipe-mixed",
        why: "2 frontends x depth 8, half writes: lease set/break churn along one path, so per-message CPU (mechanism, wire, frame, edge sequencing) sets throughput",
        drive: Drive::Pipelined { depth: 8 },
        transport: TransportKind::Tcp,
        wal: false,
        write_fraction: 0.5,
        ops_per_budget_second: 68_000,
        gated: true,
    },
    Workload {
        name: "pipe-ring",
        why: "pipe-mixed on in-process rings: a controlled pair where only the byte pipe and its doorbell differ",
        drive: Drive::Pipelined { depth: 8 },
        transport: TransportKind::Ring,
        wal: false,
        write_fraction: 0.5,
        ops_per_budget_second: 112_000,
        gated: false,
    },
    Workload {
        name: "read-hot",
        why: "2% writes: combines are lease-covered, so only client codec, reactor, dispatch and respond run; a mechanism change must show no change here",
        drive: Drive::Pipelined { depth: 8 },
        transport: TransportKind::Tcp,
        wal: false,
        write_fraction: 0.02,
        ops_per_budget_second: 115_000,
        gated: true,
    },
    Workload {
        name: "batch-mixed",
        why: "pipe-mixed mix in REQ_BATCH frames of 32: the same node layers with client syscalls and wakeups amortised, so a single-frame gain that costs batches shows",
        drive: Drive::Batched { size: 32 },
        transport: TransportKind::Tcp,
        wal: false,
        write_fraction: 0.5,
        ops_per_budget_second: 260_000,
        gated: true,
    },
    Workload {
        name: "durable-mixed",
        why: "pipe-mixed with the WAL on (fsync_every 8): forced-sync write records dominate, everything else is in the noise",
        drive: Drive::Pipelined { depth: 8 },
        transport: TransportKind::Tcp,
        wal: true,
        write_fraction: 0.5,
        ops_per_budget_second: 6_400,
        gated: false,
    },
    Workload {
        name: "query-groupby",
        why: "sum group by key over tumbling windows: the only workload on the forest/TAG_SUB/TAG_PARTIAL path and the query engine's settlement pass",
        drive: Drive::Query,
        transport: TransportKind::Tcp,
        wal: false,
        write_fraction: 1.0,
        ops_per_budget_second: 100,
        gated: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Operations in one run measuring for `seconds` (divided by
    /// [`QUICK_DIVISOR`] when `quick`), rounded down to a multiple of
    /// the workload's granule so frontends, batches and queries divide
    /// it evenly.
    pub fn count(&self, seconds: u64, quick: bool) -> usize {
        let granule = self.granule();
        let mut count = self.ops_per_budget_second * seconds.max(1) as usize;
        if quick {
            count /= QUICK_DIVISOR;
        }
        (count / granule).max(1) * granule
    }

    /// Generator threads a run of this workload uses: the sequential
    /// drive and the query engine have one.
    pub fn generators(&self) -> usize {
        match self.drive {
            Drive::Sequential | Drive::Query => 1,
            Drive::Pipelined { .. } | Drive::Batched { .. } => MAX_GENERATORS,
        }
    }

    /// The unit a run's count is a multiple of.
    fn granule(&self) -> usize {
        match self.drive {
            Drive::Sequential => ROUNDS * 100,
            Drive::Pipelined { .. } => ROUNDS * MAX_GENERATORS * 100,
            Drive::Batched { size } => ROUNDS * MAX_GENERATORS * size * 10,
            Drive::Query => QUERY_REPEATS * 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_workloads_with_unique_contract_conforming_names() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "seq-uniform",
                "pipe-mixed",
                "pipe-ring",
                "read-hot",
                "batch-mixed",
                "durable-mixed",
                "query-groupby"
            ]
        );
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn counts_scale_with_seconds_and_divide_evenly() {
        for w in &WORKLOADS {
            let full = w.count(10, false);
            let quick = w.count(10, true);
            assert_eq!(full % w.granule(), 0);
            assert_eq!(quick % w.granule(), 0);
            assert!(quick >= w.granule() && quick <= full / 10, "{}", w.name);
            assert!(w.count(20, false) >= 2 * full - w.granule());
        }
    }
}
