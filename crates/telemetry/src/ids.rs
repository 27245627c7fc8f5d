//! Enumerated instrument names: span, counter, and gauge identities.
//!
//! Keeping the identities closed enums (instead of string keys) is what
//! makes the recorders allocation-free: every instrument is an index into
//! a fixed array, and a new stage is a compile-time change, not a hash
//! insert on the hot path.

/// One timed stage of the round engine (or of the runner around it).
///
/// The variants mirror the round's dependency graph: the fused client
/// gradient+encode pass, the server-side decode+re-rank, the serial
/// selection, the probe sweep, downlink pricing, the broadcast weight
/// apply, end-of-round bookkeeping, and the runner-level evaluation and
/// checkpoint writes. `BatchedForward` times the row-parallel CNN
/// inference kernel wherever evaluation calls it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum SpanId {
    /// Serial cohort setup: cohort draw, fault plan, slot binding, and the
    /// O(1) swap of returning members' population rows into the slot arena.
    Hydrate,
    /// The pipelined client pass — shard materialization, first-timer
    /// reset, local gradient and uplink encode on the workers, streaming
    /// into the in-order server consumer — minus the consumer's
    /// [`SpanId::WireFault`] and [`SpanId::ServerDecode`] time, so the three
    /// tile the pass's wall time.
    ClientPass,
    /// The consumer's frame decode + re-rank of each surviving upload into
    /// the aggregation arena, summed over the cohort; once per round.
    ServerDecode,
    /// The consumer's per-member fault handling (corruption replay, retry
    /// and deadline pricing), summed over the cohort; once per round.
    WireFault,
    /// Serial server selection of the `k` broadcast elements.
    Selection,
    /// The probe-loss sweep for the derivative-sign estimator.
    Probe,
    /// The O(N) downlink pricing sweep over the channel model.
    DownlinkPricing,
    /// Applying the broadcast sparse update to the shared weights.
    BroadcastApply,
    /// End-of-round bookkeeping (dehydration, residual writeback).
    Bookkeeping,
    /// A full evaluation sweep (global loss/accuracy + test accuracy).
    Evaluate,
    /// One row-parallel batched CNN forward inside evaluation.
    BatchedForward,
    /// Serializing and writing one checkpoint.
    CheckpointWrite,
}

impl SpanId {
    /// Number of span identities.
    pub const COUNT: usize = 12;

    /// Every span, in declaration (and index) order.
    pub const ALL: [SpanId; Self::COUNT] = [
        SpanId::Hydrate,
        SpanId::ClientPass,
        SpanId::ServerDecode,
        SpanId::WireFault,
        SpanId::Selection,
        SpanId::Probe,
        SpanId::DownlinkPricing,
        SpanId::BroadcastApply,
        SpanId::Bookkeeping,
        SpanId::Evaluate,
        SpanId::BatchedForward,
        SpanId::CheckpointWrite,
    ];

    /// The span's array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the JSONL field key.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::Hydrate => "hydrate",
            SpanId::ClientPass => "client_pass",
            SpanId::ServerDecode => "server_decode",
            SpanId::WireFault => "wire_fault",
            SpanId::Selection => "selection",
            SpanId::Probe => "probe",
            SpanId::DownlinkPricing => "downlink_pricing",
            SpanId::BroadcastApply => "broadcast_apply",
            SpanId::Bookkeeping => "bookkeeping",
            SpanId::Evaluate => "evaluate",
            SpanId::BatchedForward => "batched_forward",
            SpanId::CheckpointWrite => "checkpoint_write",
        }
    }
}

/// A monotonically increasing counter.
///
/// The deterministic subset (everything except the timing-derived
/// counters) is sourced from `agsfl_fl::RoundReport` fields that are
/// themselves bit-identical across thread counts, so counter values in
/// the JSONL sink reproduce byte-for-byte between identically seeded runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum CounterId {
    /// Rounds recorded.
    Rounds,
    /// Client-rounds: cohort members summed over rounds.
    CohortClients,
    /// Encoded uplink bytes (all clients, all rounds).
    UplinkBytes,
    /// Encoded downlink (broadcast) bytes.
    DownlinkBytes,
    /// Gradient elements broadcast on the downlink.
    DownlinkElements,
    /// Uplink frames encoded.
    UplinkFrames,
    /// Client-rounds spent offline in crash outages.
    FaultOffline,
    /// Uploads lost to Bernoulli dropout.
    FaultDropped,
    /// Straggler client-rounds.
    FaultStragglers,
    /// Corrupted uplink frames observed.
    FaultCorruptFrames,
    /// Uploads lost to any fault (offline + dropped + corrupt + deadline).
    FaultLost,
    /// Extra uplink attempts beyond each client's first.
    FaultRetries,
    /// Bytes re-transmitted by retry attempts.
    FaultRetransmittedBytes,
    /// Rows pushed through the batched CNN forward kernel.
    BatchedForwardRows,
}

impl CounterId {
    /// Number of counter identities.
    pub const COUNT: usize = 14;

    /// Every counter, in declaration (and index) order.
    pub const ALL: [CounterId; Self::COUNT] = [
        CounterId::Rounds,
        CounterId::CohortClients,
        CounterId::UplinkBytes,
        CounterId::DownlinkBytes,
        CounterId::DownlinkElements,
        CounterId::UplinkFrames,
        CounterId::FaultOffline,
        CounterId::FaultDropped,
        CounterId::FaultStragglers,
        CounterId::FaultCorruptFrames,
        CounterId::FaultLost,
        CounterId::FaultRetries,
        CounterId::FaultRetransmittedBytes,
        CounterId::BatchedForwardRows,
    ];

    /// The counter's array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the JSONL field key.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::Rounds => "rounds",
            CounterId::CohortClients => "cohort_clients",
            CounterId::UplinkBytes => "uplink_bytes",
            CounterId::DownlinkBytes => "downlink_bytes",
            CounterId::DownlinkElements => "downlink_elements",
            CounterId::UplinkFrames => "uplink_frames",
            CounterId::FaultOffline => "fault_offline",
            CounterId::FaultDropped => "fault_dropped",
            CounterId::FaultStragglers => "fault_stragglers",
            CounterId::FaultCorruptFrames => "fault_corrupt_frames",
            CounterId::FaultLost => "fault_lost",
            CounterId::FaultRetries => "fault_retries",
            CounterId::FaultRetransmittedBytes => "fault_retransmitted_bytes",
            CounterId::BatchedForwardRows => "batched_forward_rows",
        }
    }
}

/// A last-value gauge (the recorder also tracks each gauge's maximum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum GaugeId {
    /// The sparsity degree `k` used this round.
    KUsed,
    /// Largest per-client uplink frame this round, in bytes.
    MaxUplinkBytes,
    /// Peak pending tasks observed in the worker-pool queue.
    QueueDepthPeak,
    /// Worker threads in the pool.
    PoolWorkers,
    /// Process resident set, bytes.
    RssBytes,
    /// Process peak resident set (high-water mark), bytes.
    RssPeakBytes,
    /// OS threads in the process.
    Threads,
    /// Clients with resident persistent state.
    ResidentClients,
}

impl GaugeId {
    /// Number of gauge identities.
    pub const COUNT: usize = 8;

    /// Every gauge, in declaration (and index) order.
    pub const ALL: [GaugeId; Self::COUNT] = [
        GaugeId::KUsed,
        GaugeId::MaxUplinkBytes,
        GaugeId::QueueDepthPeak,
        GaugeId::PoolWorkers,
        GaugeId::RssBytes,
        GaugeId::RssPeakBytes,
        GaugeId::Threads,
        GaugeId::ResidentClients,
    ];

    /// The gauge's array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the JSONL field key.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::KUsed => "k_used",
            GaugeId::MaxUplinkBytes => "max_uplink_bytes",
            GaugeId::QueueDepthPeak => "queue_depth_peak",
            GaugeId::PoolWorkers => "pool_workers",
            GaugeId::RssBytes => "rss_bytes",
            GaugeId::RssPeakBytes => "rss_peak_bytes",
            GaugeId::Threads => "threads",
            GaugeId::ResidentClients => "resident_clients",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_declaration_order() {
        for (i, s) in SpanId::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for s in SpanId::ALL {
            assert!(seen.insert(s.name()), "duplicate span name {}", s.name());
        }
        for c in CounterId::ALL {
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
        }
        for g in GaugeId::ALL {
            assert!(seen.insert(g.name()), "duplicate gauge name {}", g.name());
        }
        for name in seen {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()),
                "{name} is not snake_case"
            );
        }
    }
}
