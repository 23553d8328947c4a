//! The metric registry: every name the benchmark prints, with its unit
//! and better direction. `BENCHMARK.json` lists the same names (a test
//! keeps the two in step).

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before the
    /// change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric (traced pass only; no bound).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name; the prefix up to the last dot is the module.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// The eight end-to-end metrics. README.md says what each one means on
/// each workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_req",
        unit: "msg/req",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "ratio_vs_opt",
        unit: "ratio",
        better: Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "facts_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "first_partial_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// (workload, metric) pairs that are exact counts: two runs of one
/// commit on one seed must agree to the last digit.
pub const EXACT: [(&str, &str); 2] = [
    ("seq-uniform", "msgs_per_req"),
    ("seq-uniform", "ratio_vs_opt"),
];

/// True when `metric` on `workload` is an exact count.
pub fn is_exact(workload: &str, metric: &str) -> bool {
    EXACT.contains(&(workload, metric))
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

macro_rules! layers {
    ($(($name:literal, $unit:literal, $better:ident)),* $(,)?) => {
        /// Every per-layer metric of the traced pass.
        pub const PER_LAYER: &[PerLayer] = &[
            $(PerLayer { name: $name, unit: $unit, better: $better }),*
        ];
    };
}

layers![
    // ---- micro sections: one layer's public calls, timed in isolation
    ("core.wire.encode_ns", "ns", Lower),
    ("core.wire.decode_ns", "ns", Lower),
    ("core.mechanism.combine_ns", "ns", Lower),
    ("core.mechanism.write_ns", "ns", Lower),
    ("core.mechanism.probe_ns", "ns", Lower),
    ("core.mechanism.response_ns", "ns", Lower),
    ("core.mechanism.update_ns", "ns", Lower),
    ("core.mechanism.release_ns", "ns", Lower),
    ("sim.engine.req_per_s", "1/s", Higher),
    ("sim.engine.ns_per_msg", "ns", Lower),
    ("net.frame.write_ns", "ns", Lower),
    ("net.frame.decode_ns", "ns", Lower),
    ("net.frame.batch_encode_ns_per_item", "ns", Lower),
    ("net.frame.batch_decode_ns_per_item", "ns", Lower),
    ("poll.wakeup_rtt_ns", "ns", Lower),
    ("net.transport.rtt_tcp_us", "us", Lower),
    ("net.transport.rtt_uds_us", "us", Lower),
    ("net.transport.rtt_ring_us", "us", Lower),
    ("wal.append_ns", "ns", Lower),
    ("wal.append_sync_us", "us", Lower),
    ("wal.sync_us", "us", Lower),
    ("wal.replay_mb_per_s", "MB/s", Higher),
    ("wal.snapshot_ms", "ms", Lower),
    ("wal.recover_ms", "ms", Lower),
    ("obs.ring.emit_ns", "ns", Lower),
    ("obs.ring.emit_disabled_ns", "ns", Lower),
    ("obs.hist.record_ns", "ns", Lower),
    ("obs.ring.now_ns", "ns", Lower),
    ("offline.opt_dp_ns_per_event", "ns", Lower),
    ("query.oracle_ms", "ms", Lower),
    ("workloads.gen_ns_per_req", "ns", Lower),
    // ---- the workload itself, seen from the client, the nodes' own
    // counters, /proc, and oat-obs
    ("net.cluster.client_submit_ns", "ns", Lower),
    ("net.cluster.client_wait_us", "us", Lower),
    ("net.cluster.quiesce_wait_us", "us", Lower),
    ("net.cluster.warmup_s", "s", Lower),
    // Plain percentiles of the traced half, beside the smoothed
    // end-to-end `lat_p50_us` / `lat_p99_us` / `first_partial_p50_ms`.
    ("net.cluster.lat_p50_us", "us", Lower),
    ("net.cluster.lat_p99_us", "us", Lower),
    ("net.cluster.combine_p50_ms", "ms", Lower),
    ("net.reactor.poll_p50_us", "us", Lower),
    ("net.node.queue_p50_us", "us", Lower),
    ("net.node.dispatch_p50_us", "us", Lower),
    ("net.transport.wire_p50_us", "us", Lower),
    ("net.edge.wire_p50_us", "us", Lower),
    ("obs.matched_share", "share", Higher),
    ("net.node.msgs_per_req", "msg/req", Lower),
    ("net.node.probe_per_req", "msg/req", Lower),
    ("net.node.response_per_req", "msg/req", Lower),
    ("net.node.update_per_req", "msg/req", Lower),
    ("net.node.release_per_req", "msg/req", Lower),
    ("net.node.lease_hit_share", "share", Higher),
    ("net.node.delivered_per_req", "msg/req", Lower),
    ("net.node.queue_peak_max", "count", Lower),
    ("net.node.retransmits", "count", Lower),
    ("net.node.rto_timeouts", "count", Lower),
    ("net.node.dup_drops", "count", Lower),
    ("net.node.backpressure_stalls", "count", Lower),
    ("net.node.reconnects", "count", Lower),
    ("net.durability.wal_records_per_req", "rec/req", Lower),
    ("net.durability.wal_fsyncs_per_req", "sync/req", Lower),
    ("net.durability.wal_snapshots", "count", Lower),
    ("query.engine.partials_per_fact", "count", Higher),
    ("query.engine.pushes_rx", "count", Higher),
    ("query.engine.staleness_p50", "count", Lower),
    ("query.engine.t95_coverage_ms", "ms", Lower),
    ("query.engine.refine_gap_p99_ms", "ms", Lower),
    ("proc.cpu_us_per_req", "us", Lower),
    ("proc.ctx_switches_per_req", "count", Lower),
    ("proc.rss_peak_mb", "MB", Lower),
    ("obs.trace_overhead_pct", "%", Lower),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Named per-layer values gathered during a run. Setting a name that is
/// not in [`PER_LAYER`] is a bug and panics, so a typo cannot silently
/// drop a metric.
#[derive(Clone, Debug, Default)]
pub struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = per_layer(name).unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        match self.0.iter_mut().find(|(n, _)| *n == def.name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((def.name, value)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Adds every value of `other` (overwriting equal names).
    pub fn merge(&mut self, other: &LayerValues) {
        for (name, value) in &other.0 {
            self.set(name, *value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(unit_ok(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn layer_values_overwrite_and_merge() {
        let mut a = LayerValues::default();
        a.set("wal.sync_us", 1.0);
        a.set("wal.sync_us", 2.0);
        let mut b = LayerValues::default();
        b.set("proc.rss_peak_mb", 3.0);
        a.merge(&b);
        assert_eq!(a.get("wal.sync_us"), Some(2.0));
        assert_eq!(a.get("proc.rss_peak_mb"), Some(3.0));
        assert_eq!(a.get("poll.wakeup_rtt_ns"), None);
    }
}
