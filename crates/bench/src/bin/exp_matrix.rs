//! E15 — deployment matrix: device profile × model architecture ×
//! weight precision, the capability table behind the paper's placement
//! story (§III). Each model trains once on the synthetic digit task;
//! each codebook precision snaps its weights onto a `2^bits`-level grid
//! (the artifact a quantized rollout ships, see `mdl_compress::delta`)
//! but still *executes* in f32 — those rows are labelled `Nb→f32`. The
//! `int8` row is the genuinely quantized path: per-channel int8 weights
//! through the `kernel::int8` GEMM, 1 byte/weight at inference time.
//! Each device then prices the model through the analytic cost model.
//! Prints the matrix, checks that accuracy degrades monotonically-ish
//! with precision while cost shrinks, and writes `BENCH_matrix.json`.
//!
//! `-- smoke` runs the reduced CI grid (one model, two precisions).

use mdl_bench::{fmt_bytes, print_table};
use mdl_core::compress::{snap_to_codebook, uniform_codebook};
use mdl_core::prelude::*;
use std::fmt::Write as _;

const SEED: u64 = 0x3A721;

struct ModelSpec {
    name: &'static str,
    dims: Vec<usize>,
}

struct Cell {
    device: &'static str,
    model: &'static str,
    /// Storage bits per weight (8 for the true-int8 row).
    bits: u32,
    /// Honest execution label: `f32`, `Nb→f32` (snapped codebook,
    /// dequantized to f32 for inference) or `int8` (int8 execution).
    precision: String,
    accuracy: f64,
    model_bytes: u64,
    latency_ms: f64,
    energy_mj: f64,
}

fn build(dims: &[usize], rng: &mut StdRng) -> Sequential {
    let mut net = Sequential::new();
    for (i, w) in dims.windows(2).enumerate() {
        let act = if i + 2 == dims.len() { Activation::Identity } else { Activation::Relu };
        net.push(Dense::new(w[0], w[1], act, rng));
    }
    net
}

fn main() {
    let smoke = std::env::args().nth(1).as_deref() == Some("smoke");
    let models: Vec<ModelSpec> = if smoke {
        vec![ModelSpec { name: "small", dims: vec![64, 32, 10] }]
    } else {
        vec![
            ModelSpec { name: "small", dims: vec![64, 32, 10] },
            ModelSpec { name: "medium", dims: vec![64, 64, 32, 10] },
            ModelSpec { name: "large", dims: vec![64, 128, 64, 10] },
        ]
    };
    let precisions: &[u32] = if smoke { &[32, 5] } else { &[32, 8, 5, 3] };
    let devices = [
        ("wearable", DeviceProfile::wearable()),
        ("midrange", DeviceProfile::midrange_phone()),
        ("flagship", DeviceProfile::flagship_phone()),
        ("cloud", DeviceProfile::cloud_server()),
    ];

    let mut rng = StdRng::seed_from_u64(SEED);
    let data = mdl_core::data::synthetic::synthetic_digits(1500, 0.08, &mut rng);
    let (train, test) = data.split(0.8, &mut rng);

    let mut cells: Vec<Cell> = Vec::new();
    for spec in &models {
        let mut model = build(&spec.dims, &mut rng);
        let mut opt = Adam::new(0.005);
        fit_classifier(
            &mut model,
            &mut opt,
            &train.x,
            &train.y,
            &TrainConfig {
                epochs: if smoke { 2 } else { 5 },
                batch_size: 32,
                ..Default::default()
            },
            &mut rng,
        );
        let trained = model.param_vector();
        let infos: Vec<_> = model.layers().iter().map(|l| l.info()).collect();
        let params: u64 = infos.iter().map(|l| l.params as u64).sum();

        for &bits in precisions {
            // full precision keeps the trained weights; lower precisions
            // snap them onto the 2^bits-level grid the rollout would ship
            let snapped = if bits >= 32 {
                trained.clone()
            } else {
                snap_to_codebook(&trained, &uniform_codebook(&trained, 1usize << bits))
            };
            model.set_param_vector(&snapped);
            let accuracy = model.accuracy(&test.x, &test.y);
            let bytes_per_weight = bits as f64 / 8.0;
            let precision = if bits >= 32 { "f32".to_string() } else { format!("{bits}b→f32") };
            for (dev_name, profile) in &devices {
                let cost = profile.inference_cost(&infos, bytes_per_weight);
                cells.push(Cell {
                    device: dev_name,
                    model: spec.name,
                    bits,
                    precision: precision.clone(),
                    accuracy,
                    model_bytes: (params as f64 * bytes_per_weight) as u64,
                    latency_ms: 1000.0 * cost.latency_s,
                    energy_mj: 1000.0 * cost.energy_j,
                });
            }
        }
        model.set_param_vector(&trained);

        // the true int8 row: per-channel quantized weights executed
        // through the int8 GEMM, not dequantized back to f32
        let qm = QuantizedModel::from_model(&model).expect("all-Dense model quantizes");
        let q_accuracy = qm.accuracy(&test.x, &test.y);
        for (dev_name, profile) in &devices {
            let cost = profile.inference_cost(&infos, 1.0);
            cells.push(Cell {
                device: dev_name,
                model: spec.name,
                bits: 8,
                precision: "int8".to_string(),
                accuracy: q_accuracy,
                model_bytes: qm.storage_bytes() as u64,
                latency_ms: 1000.0 * cost.latency_s,
                energy_mj: 1000.0 * cost.energy_j,
            });
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.device.to_string(),
                c.model.to_string(),
                c.precision.clone(),
                format!("{:.2}%", 100.0 * c.accuracy),
                fmt_bytes(c.model_bytes),
                format!("{:.3} ms", c.latency_ms),
                format!("{:.4} mJ", c.energy_mj),
            ]
        })
        .collect();
    print_table(
        "deployment matrix: device x model x precision (digits task)",
        &["device", "model", "precision", "accuracy", "weights", "latency", "energy"],
        &rows,
    );

    // coherence checks across the grid
    for spec in &models {
        let full = cells
            .iter()
            .find(|c| c.model == spec.name && c.bits == 32)
            .expect("full-precision cell exists");
        let floor = if smoke { 0.5 } else { 0.7 };
        assert!(
            full.accuracy > floor,
            "{}: fp32 accuracy {:.3} below {floor}",
            spec.name,
            full.accuracy
        );
        for c in cells.iter().filter(|c| c.model == spec.name && c.bits < 32) {
            assert!(
                c.accuracy > full.accuracy - 0.35,
                "{} @ {}: accuracy {:.3} collapsed from {:.3}",
                spec.name,
                c.precision,
                c.accuracy,
                full.accuracy
            );
            assert!(c.model_bytes < full.model_bytes, "quantized weights must be smaller");
        }
        let int8 = cells
            .iter()
            .find(|c| c.model == spec.name && c.precision == "int8")
            .expect("int8 cell exists");
        assert!(
            int8.accuracy > full.accuracy - 0.05,
            "{}: true int8 execution lost {:.3} accuracy vs f32",
            spec.name,
            full.accuracy - int8.accuracy
        );
    }
    for c in &cells {
        assert!(c.latency_ms.is_finite() && c.energy_mj >= 0.0);
    }
    let speedup = |a: &str, b: &str| {
        let pick = |d: &str| {
            cells.iter().filter(|c| c.device == d).map(|c| c.latency_ms).fold(0.0f64, f64::max)
        };
        pick(a) / pick(b).max(1e-12)
    };
    assert!(speedup("wearable", "cloud") > 1.0, "the cloud must outrun a wearable");
    println!(
        "\nwearable worst-case latency is {:.0}x the cloud's; quantization trades \
         ≤{:.0}pp accuracy for {:.1}x smaller weights",
        speedup("wearable", "cloud"),
        100.0
            * cells
                .iter()
                .map(|c| {
                    let full = cells
                        .iter()
                        .find(|f| f.model == c.model && f.bits == 32)
                        .expect("full cell");
                    full.accuracy - c.accuracy
                })
                .fold(0.0f64, f64::max),
        32.0 / precisions.iter().copied().min().unwrap_or(32) as f64,
    );

    // --- JSON artifact ---
    let mut json = String::from("{\n  \"benchmark\": \"matrix\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"device\": \"{}\",", c.device);
        let _ = writeln!(json, "      \"model\": \"{}\",", c.model);
        let _ = writeln!(json, "      \"bits\": {},", c.bits);
        let _ = writeln!(json, "      \"precision\": \"{}\",", c.precision);
        let _ = writeln!(json, "      \"accuracy\": {:.4},", c.accuracy);
        let _ = writeln!(json, "      \"model_bytes\": {},", c.model_bytes);
        let _ = writeln!(json, "      \"latency_ms\": {:.5},", c.latency_ms);
        let _ = writeln!(json, "      \"energy_mj\": {:.6}", c.energy_mj);
        json.push_str(if i + 1 == cells.len() { "    }\n" } else { "    },\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_matrix.json", &json).expect("write BENCH_matrix.json");
    println!("wrote BENCH_matrix.json");
}
