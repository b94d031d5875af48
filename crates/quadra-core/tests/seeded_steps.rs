//! Twenty seeded SGD steps of the 4-stage quadratic CNN, in default and in
//! hybrid back-propagation, each held to the loss bit patterns an earlier
//! build recorded when the ReLU masks were f32 tensors and the max-pool
//! argmax was a flat `usize` index. How compactly a layer stores what its
//! backward needs must not change a single bit of training.

mod common;

use common::{cnn, sgd};
use quadra_core::build_model;
use quadra_nn::{CrossEntropyLoss, Layer, Loss, Optimizer, Sgd};
use quadra_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn losses(hybrid: bool) -> Vec<u32> {
    let mut model = build_model(&cnn(), &mut StdRng::seed_from_u64(11));
    model.set_memory_saving(hybrid);
    let mut optimizer = Sgd::new(sgd());
    let mut data = StdRng::seed_from_u64(21);
    (0..20)
        .map(|_| {
            let x = Tensor::randn(&[16, 3, 32, 32], 0.0, 1.0, &mut data);
            let labels: Vec<f32> = (0..16).map(|_| data.gen_range(0..10) as f32).collect();
            let y = Tensor::from_vec(labels, &[16]).expect("one label per sample");
            let (loss, grad) = CrossEntropyLoss::new().compute(&model.forward(&x, true), &y);
            let _ = model.backward(&grad);
            let mut params = model.params_mut();
            optimizer.step(&mut params);
            optimizer.zero_grad(&mut params);
            loss.to_bits()
        })
        .collect()
}

#[test]
fn twenty_steps_keep_their_loss_bits() {
    // Hybrid BP recomputes exactly what default BP caches, so both modes
    // train to the same bits.
    const LOSS_BITS: [u32; 20] = [
        1077207286, 1076541100, 1075483376, 1075491094, 1075000275, 1076122853, 1075945627, 1075167908,
        1075183755, 1075557015, 1075756185, 1075362589, 1076104846, 1075300797, 1076209138, 1076089367,
        1074922614, 1075195521, 1076442851, 1076612916,
    ];
    assert_eq!(losses(false), LOSS_BITS, "default BP");
    assert_eq!(losses(true), LOSS_BITS, "hybrid BP");
}
