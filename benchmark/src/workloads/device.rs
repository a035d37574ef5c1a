//! `device_infer`: the paper's on-device path. One thread, no queue, a
//! fixed cycle of small inference calls — tiny GEMMs, per-call overhead
//! and the *dynamic* eval path (not the Plan) dominate.

use super::{LoadStats, Op, Pace, RunArgs, Workload};
use crate::models::{
    arden_net, biaffect, deepmood, expected_argmax, gru_models, gru_sequences, inputs,
    serve_config, serving_model, Sessions, ARDEN_IN, INPUT_ROWS, ON_DEVICE,
};
use crate::probes::ProbeOut;
use crate::trace::Tracer;
use mdl_deepmood::{borrow_pairs, DeepMood};
use mdl_nn::{QuantizedModel, Sequential};
use mdl_serve::{InferenceServer, Route, ServeClient};
use mdl_split::{Arden, ArdenConfig};
use mdl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// A call slower than this misses the SLO.
const LIMIT_MS: f64 = 2.0;
/// Calls of each kind per cycle, sized so that no single kind is most of
/// the cycle: the one full-model `Route::Local` submit costs about as
/// much as all the small calls together.
const DEEPMOOD_CALLS: usize = 8;
const GRU_CALLS: usize = 8;
const ARDEN_CALLS: usize = 4;
/// Calls in one cycle.
pub const CYCLE_CALLS: usize = DEEPMOOD_CALLS + 2 * GRU_CALLS + ARDEN_CALLS + 1;

/// The on-device workload.
pub struct Device {
    inputs: Matrix,
    expected: Vec<usize>,
}

impl Device {
    /// Builds the workload and the serving model's answer key.
    pub fn new() -> Self {
        let inputs = inputs();
        let expected = expected_argmax(&inputs);
        Self { inputs, expected }
    }
}

/// Everything resident on the "device".
pub struct DeviceFixture {
    mood: DeepMood,
    held_out: Sessions,
    gru_f32: Sequential,
    gru_int8: QuantizedModel,
    sequences: Vec<Matrix>,
    arden: Arden,
    arden_x: Matrix,
    server: InferenceServer,
    client: ServeClient,
}

impl Workload for Device {
    type Fixture = DeviceFixture;

    fn setup(&self, args: &RunArgs) -> DeviceFixture {
        let (train, held_out) = biaffect(10, 12);
        let mut mood = deepmood();
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xDE71CE);
        for _ in 0..2 {
            let _ = mood.train(&borrow_pairs(&train), &mut rng);
        }
        let (gru_f32, gru_int8) = gru_models();
        let arden = Arden::from_pretrained(arden_net(), ArdenConfig::default());
        let arden_x = Matrix::from_fn(1, ARDEN_IN, |_, c| (c as f32 * 0.61).sin().abs());
        let server = InferenceServer::start(serving_model(), None, serve_config());
        let client = server.client();
        let first = client
            .submit(self.inputs.row(0), ON_DEVICE)
            .expect("server just started")
            .recv()
            .expect("local requests are answered inline");
        assert_eq!(first.route, Route::Local, "a flagship on Wi-Fi must run the model on-device");
        DeviceFixture {
            mood,
            held_out,
            gru_f32,
            gru_int8,
            sequences: gru_sequences(),
            arden,
            arden_x,
            server,
            client,
        }
    }

    fn load(
        &self,
        fx: &mut DeviceFixture,
        args: &RunArgs,
        tracer: &mut Tracer,
        _probe: Option<&ProbeOut>,
    ) -> LoadStats {
        let mut stats = LoadStats { pace: Pace::Busy, ..LoadStats::default() };
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xDE71CE);
        let held_out = borrow_pairs(&fx.held_out);

        // answer keys from a first, untimed pass: a later call that
        // answers differently is a wrong answer
        let mood_key: Vec<usize> = held_out.iter().map(|(v, _)| fx.mood.predict(v)).collect();
        // a sequence's class is the argmax at its last step
        let last = |per_step: Vec<usize>| per_step.last().copied();
        let f32_key: Vec<Option<usize>> =
            fx.sequences.iter().map(|s| last(fx.gru_f32.predict(s))).collect();
        let int8_key: Vec<Option<usize>> =
            fx.sequences.iter().map(|s| last(fx.gru_int8.predict(s))).collect();
        let agree = f32_key.iter().zip(&int8_key).filter(|(a, b)| a == b).count() as f64
            / f32_key.len() as f64;
        stats.check(agree >= 0.98, || format!("GRU int8/f32 agreement {agree:.4} < 0.98"));

        // visiting order is the seeded input
        let mut mood_order: Vec<usize> = (0..held_out.len()).collect();
        let mut seq_order: Vec<usize> = (0..fx.sequences.len()).collect();
        let mut row_order: Vec<usize> = (0..INPUT_ROWS).collect();
        mood_order.shuffle(&mut rng);
        seq_order.shuffle(&mut rng);
        row_order.shuffle(&mut rng);

        let (warm_end, deadline) = args.start_window(tracer);
        let mut wrong = 0u64;
        let mut cycle = 0usize;
        loop {
            let cycle_start = Instant::now();
            if cycle_start >= deadline {
                break;
            }
            let measured = cycle_start >= warm_end;
            let mut op = Op {
                at_s: cycle_start.saturating_duration_since(warm_end).as_secs_f64(),
                latency_ms: None,
                attempted: 0,
                failed: 0,
                met: 0,
                units: 0.0,
            };
            let id = cycle as u64;
            let start_ns = tracer.at_ns(cycle_start);
            let root = if measured {
                // closed below, once the end is known
                tracer.root("cycle", start_ns, start_ns, id)
            } else {
                None
            };
            // one timed call: (right answer?, within the limit?)
            let mut call = |name: &'static str, f: &mut dyn FnMut() -> bool| {
                let t0 = Instant::now();
                let right = f();
                let t1 = Instant::now();
                tracer.child(root, name, tracer.at_ns(t0), tracer.at_ns(t1), id);
                op.attempted += 1;
                if right {
                    op.units += 1.0;
                    op.met += u64::from((t1 - t0).as_secs_f64() * 1e3 <= LIMIT_MS);
                } else {
                    op.failed += 1;
                }
            };
            for k in 0..DEEPMOOD_CALLS {
                let i = mood_order[(cycle * DEEPMOOD_CALLS + k) % mood_order.len()];
                call("deepmood.predict", &mut || fx.mood.predict(&held_out[i].0) == mood_key[i]);
            }
            for k in 0..GRU_CALLS {
                let i = seq_order[(cycle * GRU_CALLS + k) % seq_order.len()];
                call("nn.gru_predict_f32", &mut || {
                    last(fx.gru_f32.predict(&fx.sequences[i])) == f32_key[i]
                });
                call("nn.gru_predict_int8", &mut || {
                    last(fx.gru_int8.predict(&fx.sequences[i])) == int8_key[i]
                });
            }
            for _ in 0..ARDEN_CALLS {
                // the perturbation is random by design: only the range is checkable
                call("split.arden_infer", &mut || {
                    fx.arden.infer(&fx.arden_x, &mut rng).first().is_some_and(|&c| c < 10)
                });
            }
            let row = row_order[cycle % INPUT_ROWS];
            call("serve.submit_local", &mut || {
                fx.client
                    .submit(self.inputs.row(row), ON_DEVICE)
                    .ok()
                    .and_then(|rx| rx.recv().ok())
                    .is_some_and(|r| r.route == Route::Local && r.argmax == self.expected[row])
            });
            let cycle_end = Instant::now();
            if measured {
                op.latency_ms = Some((cycle_end - cycle_start).as_secs_f64() * 1e3);
                wrong += op.failed;
                stats.ops.push(op);
                if let Some(root) = root {
                    tracer.close(root, tracer.at_ns(cycle_end));
                }
            }
            cycle += 1;
        }
        stats.check(wrong == 0, || format!("{wrong} calls answered differently from their key"));
        stats.notes.push(format!(
            "{} cycles of {CYCLE_CALLS} calls; latency_p50_ms is the cycle time; \
             GRU int8/f32 agreement {agree:.4}",
            stats.ops.len()
        ));
        stats
    }

    fn teardown(&self, fx: DeviceFixture) {
        drop(fx.client);
        fx.server.shutdown();
    }
}
