//! Worker scaling: adding workers to an endpoint must not fragment its
//! batches.
//!
//! Without the batch-formation token, every idle worker seeds a batch of its
//! own and the workers split one arrival stream between them: 16 closed-loop
//! clients spread over 4 forming workers leave each one short of a full batch
//! until its wait budget runs out, so the mean batch falls towards 16 / 4
//! and the clients spend the window waiting. With the token exactly one
//! worker forms at a time: the batches stay full at every worker count, and
//! more workers serve more requests, never fewer.

use quadra_nn::Layer;
use quadra_serve::{BatchPolicy, Router, ServeConfig};
use quadra_tensor::Tensor;
use std::time::{Duration, Instant};

const MODEL: &str = "model";
const CLIENTS: usize = 16;
const MAX_BATCH: usize = 8;
/// Service time of one batch, whatever its size.
const SERVICE: Duration = Duration::from_millis(4);
/// How long the clients keep the endpoint busy at each worker count.
const WINDOW: Duration = Duration::from_millis(300);

/// An identity model that sleeps through its service time, so the batch
/// sizes depend on formation alone, not on how many cores the host has.
struct SleepingIdentity;

impl Layer for SleepingIdentity {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        std::thread::sleep(SERVICE);
        x.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn layer_type(&self) -> &'static str {
        "sleeping_identity"
    }
}

#[test]
fn batches_stay_full_as_workers_are_added() {
    let mut one_worker_served = 0;
    for workers in [1, 2, 4] {
        let config = ServeConfig {
            workers,
            policy: BatchPolicy {
                max_batch_size: MAX_BATCH,
                // A fixed budget far above the service time: a batch that
                // dispatches short did so because its worker timed out
                // waiting for requests another worker had taken.
                max_wait: Duration::from_millis(100),
                adaptive_wait: false,
            },
            ..ServeConfig::default()
        };
        let router =
            Router::builder().endpoint(MODEL, config, || Box::new(SleepingIdentity)).start().unwrap();
        let until = Instant::now() + WINDOW;
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = router.client();
                std::thread::spawn(move || {
                    let input = Tensor::full(&[1, 2], c as f32);
                    let mut served = 0u64;
                    while Instant::now() < until {
                        let response = client.infer(MODEL, input.clone()).unwrap();
                        assert_eq!(response.output, input);
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        let sent: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();

        let metrics = router.shutdown().models.remove(0);
        assert_eq!(metrics.completed_requests, sent, "{workers} workers");
        assert_eq!(metrics.errored_requests, 0, "{workers} workers");
        assert_eq!(metrics.shed_requests, 0, "{workers} workers");
        assert!(
            metrics.mean_batch_size >= 6.0,
            "{workers} workers fragmented the arrival stream: mean batch {:.2} over {} batches",
            metrics.mean_batch_size,
            metrics.batches
        );
        // Fragments that wait out their budget also starve the clients: with
        // the token, more workers overlap more batches and serve more.
        if workers == 1 {
            one_worker_served = sent;
        }
        assert!(
            sent >= one_worker_served,
            "{workers} workers served {sent} requests, fewer than 1 worker's {one_worker_served}"
        );
    }
}
