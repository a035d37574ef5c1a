//! Resumable chunked distribution over the faulty fabric.
//!
//! A checkpoint (usually a serialised [`mdl_compress::delta`] frame) is
//! pushed to every device on a [`Fabric`] in fixed-size chunks. A failed
//! send — lost packets past the retry policy, a partition window, a
//! dropped peer, a deadline miss — abandons the device *for that round
//! only*: the next round resumes from the device's last acknowledged
//! offset instead of restarting, so a straggler behind a three-round
//! partition pays three failed sends, not three full payloads. Each
//! device has a total failed-send budget; exhausting it marks the device
//! failed for this distribution.
//!
//! Byte accounting is exact: every delivered chunk lands in
//! `net.bytes_down` exactly once (resumed rounds ship only the missing
//! suffix), so `net.delivered_bytes` never double-counts — a property the
//! fleet proptests pin down. Per-device integrity is checked with a
//! rolling FNV-1a over the delivered chunk stream, which equals the hash
//! of the whole payload iff the device reassembled it byte-identically
//! (chunks arrive in offset order by construction).

use mdl_net::{Fabric, TransportMetrics};
use mdl_obs::{Buckets, Obs};
use mdl_tensor::stats::nearest_rank;

/// Shape of one distribution: chunking, rounds, and retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkConfig {
    /// Payload bytes per chunk (the resume granularity).
    pub chunk_bytes: u64,
    /// Distribution rounds before giving up on stragglers.
    pub max_rounds: usize,
    /// Failed sends a device may accumulate across all rounds before it
    /// is marked exhausted.
    pub retry_budget: u32,
    /// Size of the completion acknowledgement each device uploads.
    pub ack_bytes: u64,
    /// Keep each device's reassembled payload (tests only — at fleet
    /// scale the rolling hash is the integrity check).
    pub collect_payloads: bool,
}

impl Default for ChunkConfig {
    fn default() -> Self {
        Self {
            chunk_bytes: 4096,
            max_rounds: 64,
            retry_budget: 16,
            ack_bytes: 64,
            collect_payloads: false,
        }
    }
}

/// FNV-1a, the same construction [`mdl_compress::delta::param_hash`]
/// uses, here over raw payload bytes.
pub fn payload_hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// How one device fared.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOutcome {
    /// Cohort-local device index (the fabric link it rode).
    pub device: usize,
    /// Distinct payload bytes delivered (== final resume offset).
    pub delivered_bytes: u64,
    /// Chunks delivered.
    pub chunks: u32,
    /// Failed sends charged against the retry budget.
    pub failed_sends: u32,
    /// Rounds that resumed a partially delivered payload.
    pub resumes: u32,
    /// Round (1-based) in which the completion ack landed.
    pub completed_round: Option<usize>,
    /// The retry budget ran out before completion.
    pub exhausted: bool,
    /// Rolling FNV-1a over the delivered chunk stream.
    pub payload_hash: u64,
    /// Simulated seconds of successful transfer time (chunks + ack).
    pub transfer_s: f64,
}

impl DeviceOutcome {
    /// `true` once the full payload and its ack went through.
    pub fn completed(&self) -> bool {
        self.completed_round.is_some()
    }
}

/// Fleet-wide result of one distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionReport {
    /// Bytes in the payload every device needed.
    pub payload_bytes: u64,
    /// FNV-1a of the payload — what every completed device must match.
    pub payload_hash: u64,
    /// Rounds the distribution ran.
    pub rounds: usize,
    /// Devices that completed (payload + ack).
    pub completed: usize,
    /// Devices that ran out of retry budget.
    pub exhausted: usize,
    /// Per-device outcomes, in device order.
    pub devices: Vec<DeviceOutcome>,
    /// Fabric totals over the whole distribution.
    pub transport: TransportMetrics,
    /// Reassembled payloads when [`ChunkConfig::collect_payloads`] was
    /// set (`None` per device until its first chunk lands).
    pub payloads: Option<Vec<Vec<u8>>>,
}

impl DistributionReport {
    /// Fraction of the cohort that exhausted its budget.
    pub fn error_rate(&self) -> f64 {
        if self.devices.is_empty() {
            0.0
        } else {
            self.exhausted as f64 / self.devices.len() as f64
        }
    }

    /// Distinct payload bytes delivered across the cohort — must equal
    /// the fabric's `bytes_down` since distribution is the only
    /// downstream traffic.
    pub fn delivered_distinct_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.delivered_bytes).sum()
    }

    /// `true` when every completed device reassembled the exact payload.
    pub fn all_bit_identical(&self) -> bool {
        self.devices.iter().filter(|d| d.completed()).all(|d| d.payload_hash == self.payload_hash)
    }

    /// p-th percentile (0..=1) of completed devices' transfer time, in
    /// simulated seconds. Deterministic: total-order sort, index rounding
    /// up. `0.0` when nothing completed.
    pub fn transfer_percentile_s(&self, p: f64) -> f64 {
        let mut times: Vec<f64> =
            self.devices.iter().filter(|d| d.completed()).map(|d| d.transfer_s).collect();
        times.sort_by(f64::total_cmp);
        nearest_rank(&times, p).unwrap_or(0.0)
    }
}

/// Pushes `payload` to every device on `fabric`, resuming across rounds.
///
/// When `obs` is given, fleet-wide progress lands in `fleet.*` counters
/// (`fleet.chunks_delivered`, `fleet.resumes`, `fleet.delivered_bytes`,
/// `fleet.devices_completed`, …), per-device completion times in the
/// `fleet.device_transfer_us` histogram, and the whole distribution runs
/// under a `fleet.distribute` span.
pub fn distribute(
    fabric: &mut Fabric,
    payload: &[u8],
    cfg: &ChunkConfig,
    obs: Option<&Obs>,
) -> DistributionReport {
    assert!(cfg.chunk_bytes > 0, "chunk size must be positive");
    assert!(cfg.max_rounds > 0, "need at least one round");
    let n = fabric.clients();
    let len = payload.len() as u64;
    let span = obs.map(|o| o.root_span("fleet.distribute"));

    struct DeviceState {
        offset: u64,
        hash: Fnv,
        out: DeviceOutcome,
        buffer: Option<Vec<u8>>,
    }
    let mut devices: Vec<DeviceState> = (0..n)
        .map(|device| DeviceState {
            offset: 0,
            hash: Fnv::new(),
            out: DeviceOutcome {
                device,
                delivered_bytes: 0,
                chunks: 0,
                failed_sends: 0,
                resumes: 0,
                completed_round: None,
                exhausted: false,
                payload_hash: 0,
                transfer_s: 0.0,
            },
            buffer: cfg.collect_payloads.then(Vec::new),
        })
        .collect();

    let mut rounds = 0usize;
    while rounds < cfg.max_rounds
        && devices.iter().any(|d| d.out.completed_round.is_none() && !d.out.exhausted)
    {
        fabric.begin_round();
        rounds += 1;
        for (c, dev) in devices.iter_mut().enumerate() {
            if dev.out.completed_round.is_some() || dev.out.exhausted {
                continue;
            }
            if dev.offset > 0 {
                // continuing a partial payload from an earlier round
                dev.out.resumes += 1;
            }
            loop {
                if dev.offset == len {
                    // payload complete — upload the ack
                    match fabric.send_up(c, cfg.ack_bytes) {
                        Ok(receipt) => {
                            dev.out.transfer_s += receipt.elapsed_s;
                            dev.out.completed_round = Some(rounds);
                            dev.out.payload_hash = dev.hash.finish();
                        }
                        Err(_) => dev.out.failed_sends += 1,
                    }
                    break;
                }
                let chunk = cfg.chunk_bytes.min(len - dev.offset);
                match fabric.send_down(c, chunk) {
                    Ok(receipt) => {
                        let range = dev.offset as usize..(dev.offset + chunk) as usize;
                        dev.hash.update(&payload[range.clone()]);
                        if let Some(buf) = &mut dev.buffer {
                            buf.extend_from_slice(&payload[range]);
                        }
                        dev.offset += chunk;
                        dev.out.delivered_bytes = dev.offset;
                        dev.out.chunks += 1;
                        dev.out.transfer_s += receipt.elapsed_s;
                    }
                    Err(_) => {
                        dev.out.failed_sends += 1;
                        break;
                    }
                }
            }
            if dev.out.completed_round.is_none() && dev.out.failed_sends > cfg.retry_budget {
                dev.out.exhausted = true;
            }
        }
        fabric.end_round();
    }

    // devices that never finished still report their partial hash
    for dev in &mut devices {
        if dev.out.completed_round.is_none() {
            dev.out.payload_hash = dev.hash.finish();
        }
    }

    let completed = devices.iter().filter(|d| d.out.completed_round.is_some()).count();
    let exhausted = devices.iter().filter(|d| d.out.exhausted).count();
    if let Some(o) = obs {
        let r = o.registry();
        r.counter("fleet.devices").add(n as u64);
        r.counter("fleet.devices_completed").add(completed as u64);
        r.counter("fleet.devices_exhausted").add(exhausted as u64);
        r.counter("fleet.rounds").add(rounds as u64);
        r.counter("fleet.payload_bytes").add(len);
        r.counter("fleet.chunks_delivered").add(devices.iter().map(|d| d.out.chunks as u64).sum());
        r.counter("fleet.failed_sends")
            .add(devices.iter().map(|d| d.out.failed_sends as u64).sum());
        r.counter("fleet.resumes").add(devices.iter().map(|d| d.out.resumes as u64).sum());
        r.counter("fleet.delivered_bytes").add(devices.iter().map(|d| d.offset).sum());
        let transfer_us = r.histogram("fleet.device_transfer_us", Buckets::Pow2);
        for d in devices.iter().filter(|d| d.out.completed_round.is_some()) {
            transfer_us.record((d.out.transfer_s * 1e6) as u64);
        }
    }
    if let Some(s) = span {
        s.exit();
    }

    let payloads = cfg
        .collect_payloads
        .then(|| devices.iter_mut().map(|d| d.buffer.take().unwrap_or_default()).collect());
    DistributionReport {
        payload_bytes: len,
        payload_hash: payload_hash(payload),
        rounds,
        completed,
        exhausted,
        devices: devices.into_iter().map(|d| d.out).collect(),
        transport: fabric.metrics(),
        payloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_net::{FabricConfig, FaultPlan, LinkConfig, PartitionWindow};
    use mdl_obs::Obs;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn ideal_fabric_delivers_everything_in_one_round() {
        let mut fabric = Fabric::ideal(8);
        let data = payload(10_000);
        let cfg = ChunkConfig { chunk_bytes: 1024, collect_payloads: true, ..Default::default() };
        let report = distribute(&mut fabric, &data, &cfg, None);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.completed, 8);
        assert!(report.all_bit_identical());
        for p in report.payloads.as_ref().expect("collected") {
            assert_eq!(p, &data);
        }
        // ⌈10000/1024⌉ = 10 chunks per device, delivered exactly once
        assert_eq!(report.transport.bytes_down, 8 * 10_000);
        assert_eq!(report.devices[0].chunks, 10);
    }

    #[test]
    fn lossy_link_resumes_from_offset_without_restarting() {
        // 30% per-send loss with no retries: sends fail mid-payload, the
        // next round continues from the offset — never from byte zero
        let mut config = FabricConfig::ideal();
        config.link.loss_prob = 0.3;
        let mut fabric = Fabric::new(8, config, 42);
        let data = payload(4096);
        let cfg = ChunkConfig {
            chunk_bytes: 512,
            retry_budget: 64,
            collect_payloads: true,
            ..Default::default()
        };
        let report = distribute(&mut fabric, &data, &cfg, None);
        assert_eq!(report.completed, 8, "generous budget lets everyone finish");
        assert!(report.rounds > 1, "losses must spread delivery over rounds");
        assert!(report.devices.iter().any(|d| d.resumes > 0), "someone resumed");
        assert!(report.all_bit_identical());
        for (d, p) in report.devices.iter().zip(report.payloads.as_ref().expect("collected")) {
            assert_eq!(p, &data);
            // exactly ⌈4096/512⌉ successful chunk sends per device: a
            // resumed round re-ships only the missing suffix
            assert_eq!(d.chunks, 8);
            assert_eq!(d.delivered_bytes, 4096);
        }
        assert_eq!(report.transport.bytes_down, 8 * 4096, "no delivered byte counted twice");
    }

    #[test]
    fn full_partition_defers_and_resumes_cleanly() {
        // everyone partitioned for rounds 1..3: the fleet waits, then
        // completes in round 3 with two failed sends charged per device
        let faults = FaultPlan {
            partitions: vec![PartitionWindow { from_round: 1, until_round: 3, clients: vec![] }],
            ..FaultPlan::none()
        };
        let mut config = FabricConfig::ideal();
        config.faults = faults;
        let mut fabric = Fabric::new(3, config, 7);
        let data = payload(2048);
        let obs = Obs::sim();
        let cfg = ChunkConfig { chunk_bytes: 512, ..Default::default() };
        let report = distribute(&mut fabric, &data, &cfg, Some(&obs));
        assert_eq!(report.rounds, 3);
        assert_eq!(report.completed, 3);
        for d in &report.devices {
            assert_eq!(d.failed_sends, 2, "one failed send per partitioned round");
            assert_eq!(d.completed_round, Some(3));
            assert_eq!(d.resumes, 0, "nothing was delivered before the heal");
        }
        // no double counting: delivered == one payload per device
        assert_eq!(report.transport.bytes_down, 3 * 2048);
        assert_eq!(report.delivered_distinct_bytes(), 3 * 2048);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("fleet.devices_completed"), Some(3));
        assert_eq!(snap.counter("fleet.delivered_bytes"), Some(3 * 2048));
        assert_eq!(snap.counter("fleet.failed_sends"), Some(6));
        assert!(snap.histogram("fleet.device_transfer_us").is_some());
    }

    #[test]
    fn retry_budget_exhaustion_marks_devices_failed() {
        let faults = FaultPlan {
            partitions: vec![PartitionWindow { from_round: 1, until_round: 100, clients: vec![1] }],
            ..FaultPlan::none()
        };
        let mut config = FabricConfig::ideal();
        config.faults = faults;
        let mut fabric = Fabric::new(2, config, 9);
        let data = payload(100);
        let cfg = ChunkConfig { retry_budget: 3, max_rounds: 20, ..Default::default() };
        let report = distribute(&mut fabric, &data, &cfg, None);
        assert_eq!(report.completed, 1);
        assert_eq!(report.exhausted, 1);
        assert!(report.devices[1].exhausted);
        assert_eq!(report.devices[1].failed_sends, 4, "budget 3 allows 4th failure to trip");
        assert!(report.rounds <= 5, "exhaustion stops the loop early");
        assert!((report.error_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_payload_still_requires_the_ack() {
        let mut fabric = Fabric::ideal(2);
        let report = distribute(&mut fabric, &[], &ChunkConfig::default(), None);
        assert_eq!(report.completed, 2);
        assert_eq!(report.transport.bytes_down, 0);
        assert_eq!(report.transport.messages_up, 2);
        assert_eq!(report.payload_hash, payload_hash(&[]));
        assert!(report.all_bit_identical());
    }

    #[test]
    fn distribution_is_bit_reproducible() {
        let run = || {
            let mut config = FabricConfig::faulty(LinkConfig::ideal());
            config.faults.partitions =
                vec![PartitionWindow { from_round: 2, until_round: 3, clients: vec![1, 3] }];
            let mut fabric = Fabric::new(6, config, 1234);
            distribute(&mut fabric, &payload(8192), &ChunkConfig::default(), None)
        };
        assert_eq!(run(), run(), "same seed, same report, bit for bit");
    }
}
