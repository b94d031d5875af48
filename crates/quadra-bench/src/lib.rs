//! Shared harness code for the QuadraLib-rs paper reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (`table1`–`table6`, `fig5`, `fig7`, `fig8`, `fig10`); this library holds the
//! classification-training harness and the table-printing helpers they share.
//!
//! All harnesses run at a CPU-friendly scale by default; set the environment
//! variable `QUADRA_SCALE=full` for larger (slower) runs that are closer to the
//! paper's settings.

use quadra_core::{build_model, ModelConfig};
use quadra_data::ShapeImageDataset;
use quadra_nn::{CosineAnnealingLr, CrossEntropyLoss, Layer, Sgd, SgdConfig, Trainer, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Experiment scale selected through the `QUADRA_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small, fast settings (default) — minutes on a laptop CPU.
    Quick,
    /// Larger settings closer to the paper's configuration.
    Full,
}

/// Read the experiment scale from the environment.
pub fn scale() -> Scale {
    match std::env::var("QUADRA_SCALE").as_deref() {
        Ok("full") | Ok("FULL") => Scale::Full,
        _ => Scale::Quick,
    }
}

/// Result row of one classification training run.
#[derive(Debug, Clone)]
pub struct ClassificationResult {
    /// Variant name (e.g. "First-order", "QuadraNN").
    pub name: String,
    /// Number of convolution layers of the configuration.
    pub conv_layers: usize,
    /// Trainable parameter count.
    pub params: usize,
    /// Mean training time per batch in milliseconds.
    pub train_ms_per_batch: f32,
    /// Modelled training memory in MiB (params + grads + optimizer + peak activations).
    pub train_memory_mib: f64,
    /// Mean inference time per batch in milliseconds.
    pub test_ms_per_batch: f32,
    /// Final training accuracy.
    pub train_acc: f32,
    /// Held-out test accuracy.
    pub test_acc: f32,
}

/// Hyper-parameters of a harness training run.
#[derive(Debug, Clone, Copy)]
pub struct RunSettings {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate (annealed with cosine schedule, as in the paper).
    pub lr: f32,
    /// Seed for model init and shuffling.
    pub seed: u64,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings { epochs: 6, batch_size: 32, lr: 0.05, seed: 0 }
    }
}

/// Train a model described by `config` on a shape-image dataset and evaluate it
/// on a held-out set, reporting the Table 3 metrics.
pub fn run_classification(
    name: &str,
    config: &ModelConfig,
    train: &ShapeImageDataset,
    test: &ShapeImageDataset,
    settings: RunSettings,
) -> ClassificationResult {
    let mut rng = StdRng::seed_from_u64(settings.seed);
    let mut model = build_model(config, &mut rng);
    let params = model.param_count();
    let mut trainer = Trainer::new(TrainerConfig {
        epochs: settings.epochs,
        batch_size: settings.batch_size,
        shuffle: true,
        seed: settings.seed,
        verbose: false,
    });
    let mut opt = Sgd::new(SgdConfig { lr: settings.lr, momentum: 0.9, weight_decay: 5e-4, nesterov: false });
    let scheduler = CosineAnnealingLr::new(settings.lr, settings.epochs.max(1), 1e-4);
    let report = trainer.fit(
        &mut model,
        &CrossEntropyLoss::new(),
        &mut opt,
        &scheduler,
        &train.images,
        &train.labels,
        None,
    );
    let (test_acc, _) = trainer.evaluate(&mut model, &test.images, &test.labels);
    ClassificationResult {
        name: name.to_string(),
        conv_layers: config.conv_layer_count(),
        params,
        train_ms_per_batch: report.train_time_per_batch_ms,
        train_memory_mib: report.total_train_memory_bytes() as f64 / (1024.0 * 1024.0),
        test_ms_per_batch: report.test_time_per_batch_ms,
        train_acc: report.final_train_acc(),
        test_acc,
    }
}

/// Print a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {} ===", title);
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter().map(|r| r.get(i).map(|c| c.len()).unwrap_or(0)).chain([h.len()]).max().unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::from("| ");
        for (c, w) in cells.iter().zip(&widths) {
            s.push_str(&format!("{:<width$} | ", c, width = w));
        }
        s
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for r in rows {
        println!("{}", line(r.clone()));
    }
}

/// Format a [`ClassificationResult`] as a Table 3-style row.
pub fn classification_row(r: &ClassificationResult) -> Vec<String> {
    vec![
        r.name.clone(),
        r.conv_layers.to_string(),
        format!("{:.2e}", r.params as f64),
        format!("{:.1}ms", r.train_ms_per_batch),
        format!("{:.1}MiB", r.train_memory_mib),
        format!("{:.1}ms", r.test_ms_per_batch),
        format!("{:.2}%", r.train_acc * 100.0),
        format!("{:.2}%", r.test_acc * 100.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadra_core::{LayerSpec, NeuronType};

    #[test]
    fn scale_defaults_to_quick() {
        std::env::remove_var("QUADRA_SCALE");
        assert_eq!(scale(), Scale::Quick);
    }

    #[test]
    fn classification_harness_learns_a_tiny_problem() {
        let cfg = ModelConfig::new(
            "tiny",
            3,
            12,
            3,
            vec![
                LayerSpec::qconv3x3(NeuronType::Ours, 6),
                LayerSpec::MaxPool { kernel: 2 },
                LayerSpec::GlobalAvgPool,
                LayerSpec::Linear { out_features: 3, relu: false },
            ],
        );
        let train = ShapeImageDataset::generate(90, 3, 12, 3, 0.05, 1);
        let test = ShapeImageDataset::generate(30, 3, 12, 3, 0.05, 2);
        let result = run_classification(
            "tiny-q",
            &cfg,
            &train,
            &test,
            RunSettings { epochs: 8, batch_size: 16, lr: 0.05, seed: 0 },
        );
        assert_eq!(result.conv_layers, 1);
        assert!(result.params > 0);
        assert!(result.train_acc > 0.4, "train acc {}", result.train_acc);
        assert!(result.train_memory_mib > 0.0);
        let row = classification_row(&result);
        assert_eq!(row.len(), 8);
        print_table("test", &["a", "b", "c", "d", "e", "f", "g", "h"], &[row]);
    }
}
