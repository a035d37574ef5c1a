//! `train_local`: on-device training, the other way round through
//! `mdl-tensor` — the blocked panel-packed GEMM and its `_tn`/`_nt`
//! backward products (wide-MLP half) and gemv-sized recurrences under
//! BPTT (DeepMood half). An inference-only optimisation that costs
//! training shows here.

use super::{LoadStats, Op, Pace, RunArgs, Workload};
use crate::models::{biaffect, deepmood, mlp, mlp_dataset, Sessions, MLP_BATCH, MLP_SAMPLES};
use crate::probes::ProbeOut;
use crate::trace::Tracer;
use mdl_deepmood::{borrow_pairs, DeepMood};
use mdl_nn::{fit_classifier, ParamVector, Sequential, Sgd, TrainConfig};
use mdl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// BiAffect cohort, sized so one DeepMood epoch over its training part
/// takes about as long as one MLP epoch.
pub const PARTICIPANTS: usize = 40;
/// Sessions per participant.
pub const SESSIONS: usize = 50;
/// Cycles per period. Both models restart from their seeded weights at
/// every period boundary, so cycle `i` of every period must reproduce
/// cycle `i` of the first bit for bit.
const PERIOD: usize = 4;
/// Training accuracy DeepMood must reach by the last cycle of a period.
const DEEPMOOD_FLOOR: f64 = 0.7;
/// Training accuracy the MLP must reach by the last cycle of a period.
const MLP_FLOOR: f64 = 0.9;

/// One MLP epoch's configuration.
pub fn mlp_epoch_config() -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: MLP_BATCH,
        shuffle: true,
        grad_clip: None,
        kernel_threads: Some(1),
        obs: None,
    }
}

/// The training workload.
pub struct Train;

/// The two training sets.
pub struct TrainFixture {
    sessions: Sessions,
    x: Matrix,
    y: Vec<usize>,
}

/// Both models and their RNG streams, as they stand inside a period.
struct Learners {
    mood: DeepMood,
    mood_rng: StdRng,
    net: Sequential,
    opt: Sgd,
    net_rng: StdRng,
}

impl Learners {
    fn fresh(seed: u64) -> Self {
        Self {
            mood: deepmood(),
            mood_rng: StdRng::seed_from_u64(seed ^ 0x7EA1),
            net: mlp(),
            opt: Sgd::new(0.05),
            net_rng: StdRng::seed_from_u64(seed ^ 0x7EA2),
        }
    }
}

/// What one cycle must reproduce: both losses and a digest of the
/// weights it left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CycleMark {
    mood_loss: u64,
    mlp_loss: u64,
    weights: u64,
}

fn fnv(bits: impl Iterator<Item = u32>) -> u64 {
    bits.fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

impl Workload for Train {
    type Fixture = TrainFixture;

    fn setup(&self, args: &RunArgs) -> TrainFixture {
        let (sessions, _) = biaffect(PARTICIPANTS, SESSIONS);
        let (x, y) = mlp_dataset(args.seed);
        TrainFixture { sessions, x, y }
    }

    fn load(
        &self,
        fx: &mut TrainFixture,
        args: &RunArgs,
        tracer: &mut Tracer,
        _probe: Option<&ProbeOut>,
    ) -> LoadStats {
        let mut stats = LoadStats { pace: Pace::Busy, ..LoadStats::default() };
        let sessions = borrow_pairs(&fx.sessions);
        let examples = (sessions.len() + MLP_SAMPLES) as f64;
        let config = mlp_epoch_config();

        let (warm_end, deadline) = args.start_window(tracer);
        let mut reference: Vec<CycleMark> = Vec::new();
        let mut learners = Learners::fresh(args.seed);
        let (mut diverged, mut below_floor, mut periods) = (0u64, 0u64, 0u64);
        let mut cycle = 0usize;
        loop {
            let at = cycle % PERIOD;
            if at == 0 && cycle > 0 {
                learners = Learners::fresh(args.seed);
            }
            let start = Instant::now();
            if start >= deadline {
                break;
            }
            let l = &mut learners;
            let mood_epoch = l.mood.train(&sessions, &mut l.mood_rng).remove(0);
            let mid = Instant::now();
            let mlp_epoch =
                fit_classifier(&mut l.net, &mut l.opt, &fx.x, &fx.y, &config, &mut l.net_rng)
                    .remove(0);
            let end = Instant::now();

            // --- checks, outside the timed cycle ---
            let probe_logits = l.mood.logits(&sessions[0].0);
            let mark = CycleMark {
                mood_loss: mood_epoch.loss.to_bits(),
                mlp_loss: mlp_epoch.loss.to_bits(),
                weights: fnv(l
                    .net
                    .param_vector()
                    .iter()
                    .chain(probe_logits.as_slice())
                    .map(|v| v.to_bits())),
            };
            let mut ok = match reference.get(at) {
                Some(first) => *first == mark,
                None => {
                    reference.push(mark);
                    true
                }
            };
            diverged += u64::from(!ok);
            if at == PERIOD - 1 {
                periods += 1;
                let reached =
                    mood_epoch.accuracy >= DEEPMOOD_FLOOR && mlp_epoch.accuracy >= MLP_FLOOR;
                below_floor += u64::from(!reached);
                ok &= reached;
                stats.notes.truncate(0);
                stats.notes.push(format!(
                    "{periods} periods of {PERIOD} cycles; at period end DeepMood accuracy {:.3} \
                     (floor {DEEPMOOD_FLOOR}), MLP accuracy {:.3} (floor {MLP_FLOOR})",
                    mood_epoch.accuracy, mlp_epoch.accuracy
                ));
            }

            if start >= warm_end {
                stats.ops.push(Op {
                    at_s: (start - warm_end).as_secs_f64(),
                    latency_ms: Some((end - start).as_secs_f64() * 1e3),
                    attempted: 1,
                    failed: u64::from(!ok),
                    met: u64::from(ok),
                    units: if ok { examples } else { 0.0 },
                });
                let id = cycle as u64;
                let (a, b, c) = (tracer.at_ns(start), tracer.at_ns(mid), tracer.at_ns(end));
                let root = tracer.root("cycle", a, c, id);
                tracer.child(root, "deepmood.train", a, b, id);
                tracer.child(root, "nn.fit_classifier", b, c, id);
            }
            cycle += 1;
        }
        stats.check(diverged == 0, || {
            format!("{diverged} cycles did not reproduce the first period's losses and weights")
        });
        stats.check(below_floor == 0, || format!("{below_floor} periods ended below a floor"));
        stats.notes.push(format!(
            "a cycle trains {} sessions + {MLP_SAMPLES} samples; latency_p50_ms is the cycle time",
            sessions.len()
        ));
        stats
    }

    fn teardown(&self, _fx: TrainFixture) {}
}
