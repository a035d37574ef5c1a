//! E5 — §III-B: the model-compression family.
//!
//! Five tables: the pruning sweep, the quantization-bits sweep, the full
//! Deep Compression pipeline (with the one-shot vs iterative ablation),
//! the low-rank rank sweep, distillation, and the block-circulant
//! storage/compute trade-off.

use mdl_bench::{fmt_bytes, pct, print_table};
use mdl_core::compress::{
    apply_masks, factorize_network, prune_network, BlockCirculant, QuantizedMatrix,
};
use mdl_core::prelude::*;

fn trained_net(rng: &mut StdRng) -> (Sequential, Dataset, Dataset) {
    let data = mdl_core::data::synthetic::synthetic_digits(1600, 0.08, rng);
    let (train, test) = data.split(0.75, rng);
    let mut net = Sequential::new();
    net.push(Dense::new(64, 128, Activation::Relu, rng));
    net.push(Dense::new(128, 10, Activation::Identity, rng));
    let mut opt = Adam::new(0.01);
    let _ = fit_classifier(
        &mut net,
        &mut opt,
        &train.x,
        &train.y,
        &TrainConfig { epochs: 30, ..Default::default() },
        rng,
    );
    (net, train, test)
}

fn rebuild(params: &[f32], rng: &mut StdRng) -> Sequential {
    let mut n = Sequential::new();
    n.push(Dense::new(64, 128, Activation::Relu, rng));
    n.push(Dense::new(128, 10, Activation::Identity, rng));
    n.set_param_vector(params);
    n
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1005);
    let (mut base, train, test) = trained_net(&mut rng);
    let base_acc = base.accuracy(&test.x, &test.y);
    let params = base.param_vector();
    println!("reference net: 64→128→10, {} params, accuracy {}", params.len(), pct(base_acc));

    // --- pruning sweep (with brief masked fine-tuning) ---
    let mut rows = Vec::new();
    for sparsity in [0.5, 0.7, 0.8, 0.9, 0.95] {
        let mut net = rebuild(&params, &mut rng);
        let masks = prune_network(&mut net, sparsity);
        let no_ft = net.accuracy(&test.x, &test.y);
        let mut opt = Adam::new(0.01);
        for _ in 0..4 {
            let _ = fit_classifier(
                &mut net,
                &mut opt,
                &train.x,
                &train.y,
                &TrainConfig { epochs: 1, ..Default::default() },
                &mut rng,
            );
            apply_masks(&mut net, &masks);
        }
        rows.push(vec![pct(sparsity), pct(no_ft), pct(net.accuracy(&test.x, &test.y))]);
    }
    print_table(
        "§III-B — magnitude pruning (references [13], [28])",
        &["sparsity", "accuracy (one-shot)", "accuracy (+4 retrain epochs)"],
        &rows,
    );

    // --- quantization bits sweep ---
    let mut rows = Vec::new();
    for bits in [2u32, 3, 4, 5, 8] {
        let mut net = rebuild(&params, &mut rng);
        let mut q_bytes = 0u64;
        for layer in net.layers_mut() {
            let d = layer.as_any_mut().downcast_mut::<Dense>().expect("dense net");
            let q = QuantizedMatrix::kmeans(d.weight(), bits, &mut rng);
            q_bytes += q.storage_bytes();
            *d.weight_mut() = q.dequantize();
        }
        rows.push(vec![format!("{bits}"), pct(net.accuracy(&test.x, &test.y)), fmt_bytes(q_bytes)]);
    }
    print_table(
        "§III-B — k-means weight sharing (references [28], [32]–[34])",
        &["codebook bits", "accuracy", "weight storage"],
        &rows,
    );

    // --- deep compression pipeline: one-shot vs iterative ablation ---
    let mut rows = Vec::new();
    for (label, steps, finetune) in [
        ("one-shot, no retrain", 1usize, None),
        ("one-shot + retrain", 1, Some((6usize, 0.01f32))),
        ("iterative (3 steps) + retrain", 3, Some((6, 0.01))),
    ] {
        let mut net = rebuild(&params, &mut rng);
        let c = deep_compress(
            &mut net,
            Some((&train.x, &train.y)),
            &DeepCompressionConfig { sparsity: 0.8, quant_bits: 4, finetune, prune_steps: steps },
            &mut rng,
        );
        let acc = c.decompress().accuracy(&test.x, &test.y);
        rows.push(vec![
            label.into(),
            format!("{:.1}×", c.report.ratio()),
            fmt_bytes(c.report.original_bytes),
            fmt_bytes(c.report.final_bytes),
            pct(acc),
        ]);
    }
    print_table(
        "§III-B — Deep Compression pipeline at 80% sparsity + 4-bit + Huffman",
        &["schedule", "ratio", "fp32 size", "compressed", "accuracy"],
        &rows,
    );

    // --- low-rank factorization sweep ---
    let mut rows = Vec::new();
    for rank in [2usize, 4, 8, 16, 32] {
        let mut net = rebuild(&params, &mut rng);
        let fact =
            factorize_network(&mut net, |d| rank.min(d.weight().rows().min(d.weight().cols())));
        let infos = fact.layer_infos();
        let p: usize = infos.iter().map(|i| i.params).sum();
        rows.push(vec![format!("{rank}"), format!("{p}"), pct(fact.accuracy(&test.x, &test.y))]);
    }
    print_table(
        "§III-B — low-rank factorization (reference [36])",
        &["rank", "params", "accuracy (no fine-tune)"],
        &rows,
    );

    // --- distillation ---
    let mut rows = Vec::new();
    for student_hidden in [8usize, 16, 32] {
        let teacher = rebuild(&params, &mut rng);
        let mut student = Sequential::new();
        student.push(Dense::new(64, student_hidden, Activation::Relu, &mut rng));
        student.push(Dense::new(student_hidden, 10, Activation::Identity, &mut rng));
        let sp = student.num_params();
        let mut opt = Adam::new(0.01);
        let _ = distill(
            &teacher,
            &mut student,
            &mut opt,
            &train.x,
            &train.y,
            &DistillConfig { epochs: 40, ..Default::default() },
            &mut rng,
        );
        rows.push(vec![
            format!("64→{student_hidden}→10"),
            format!("{sp}"),
            format!("{:.1}×", params.len() as f64 / sp as f64),
            pct(student.accuracy(&test.x, &test.y)),
        ]);
    }
    print_table(
        "§III-B — knowledge distillation (reference [37])",
        &["student", "params", "shrink", "student accuracy"],
        &rows,
    );

    // --- block-circulant (CirCNN) ---
    let mut rows = Vec::new();
    for block in [4usize, 8, 16, 32] {
        let mut net = Sequential::new();
        net.push(Dense::new(64, 64, Activation::Relu, &mut rng));
        net.push(BlockCirculant::new(64, 64, block, Activation::Relu, &mut rng));
        net.push(Dense::new(64, 10, Activation::Identity, &mut rng));
        let mut opt = Adam::new(0.01);
        let _ = fit_classifier(
            &mut net,
            &mut opt,
            &train.x,
            &train.y,
            &TrainConfig { epochs: 20, ..Default::default() },
            &mut rng,
        );
        let infos = net.layer_infos();
        rows.push(vec![
            format!("{block}"),
            format!("{}", infos[1].params),
            format!("{}", infos[1].macs),
            pct(net.accuracy(&test.x, &test.y)),
        ]);
    }
    print_table(
        "§III-B — block-circulant middle layer, 64×64 (CirCNN, reference [14]; dense = 4160 params / 4096 MACs)",
        &["block size", "layer params", "layer MACs (FFT)", "accuracy"],
        &rows,
    );
    println!(
        "\nexpected shape: every family trades a controlled accuracy loss for a\n\
         large size/compute reduction; retraining (pruning) and temperature\n\
         (distillation) recover most of the loss."
    );
}
