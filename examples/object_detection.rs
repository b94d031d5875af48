//! Object detection with a quadratic backbone: train the SSD stand-in on the
//! synthetic detection dataset with a first-order and a quadratic backbone,
//! and report each one's size and training loss.
//!
//! At this demo scale (80 training scenes, 6 epochs) neither backbone finds a
//! test box at IoU 0.5, so mean average precision would read 0 for both and
//! is not printed; `Detector::evaluate_map` computes it.
//!
//! Run with `cargo run --example object_detection --release`.

use quadralib::core::NeuronType;
use quadralib::data::DetectionDataset;
use quadralib::models::{Detector, DetectorConfig};

fn main() {
    let train = DetectionDataset::generate(80, 3, 32, 2, 1);
    for (name, quadratic) in [("first-order backbone", None), ("QuadraNN backbone", Some(NeuronType::Ours))] {
        let mut det = Detector::new(DetectorConfig {
            num_classes: 3,
            image_size: 32,
            backbone_width: 8,
            grid: 4,
            quadratic,
            seed: 3,
        });
        let losses = det.train(&train, 6, 16, 0.05, 4);
        println!(
            "{:<22} params {:>8}  loss per epoch {:?}",
            name,
            det.param_count(),
            losses.iter().map(|l| (l * 1000.0).round() / 1000.0).collect::<Vec<_>>()
        );
    }
}
