//! The `quadra-gateway` server binary: a [`Router`] behind real sockets.
//!
//! ```text
//! quadra-gateway [--listen ADDR] [--workers N] [--max-batch N] [--queue N]
//!                [--endpoint NAME=SPEC]...
//! ```
//!
//! Endpoint specs (repeatable; default `mlp=mlp:64x32x10`):
//!
//! * `mlp:64x32x10` — ReLU MLP with the given layer widths; requests carry
//!   `[n, 64]` inputs.
//! * `mobilenet:16` — MobileNetV1 (0.25×, 5 depthwise pairs) on `[n, 3,
//!   16, 16]` images.
//! * `resnet:16` — ResNet-20 (width 8) on `[n, 3, 16, 16]` images.
//!
//! On startup the binary prints exactly one line to stdout —
//! `quadra-gateway listening on ADDR` — which a supervising process (see
//! `tests/binary.rs`) parses to learn the ephemeral port. It then serves until **stdin reaches EOF**, which triggers the
//! graceful drain; final router metrics land on stderr. Driving shutdown
//! through stdin keeps the contract portable (no signal handling) and makes
//! "kill it cleanly from a script" a one-liner: close the pipe.

use quadra_core::{build_model, ModelConfig};
use quadra_gateway::{Gateway, GatewayConfig};
use quadra_models::{mobilenet_v1_config, resnet20_config};
use quadra_nn::{Layer, Linear, Relu, Sequential};
use quadra_serve::{AdmissionPolicy, BatchPolicy, Router, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::time::Duration;

/// One parsed `--endpoint NAME=SPEC`.
enum ModelSpec {
    Mlp(Vec<usize>),
    Config(ModelConfig),
}

fn parse_spec(spec: &str) -> Result<ModelSpec, String> {
    let (kind, params) = spec.split_once(':').ok_or_else(|| format!("spec `{spec}` needs KIND:PARAMS"))?;
    match kind {
        "mlp" => {
            let widths: Result<Vec<usize>, _> = params.split('x').map(str::parse).collect();
            let widths = widths.map_err(|e| format!("bad mlp widths in `{spec}`: {e}"))?;
            if widths.len() < 2 {
                return Err(format!("mlp spec `{spec}` needs at least in/out widths"));
            }
            Ok(ModelSpec::Mlp(widths))
        }
        "mobilenet" => {
            let image: usize = params.parse().map_err(|e| format!("bad image size in `{spec}`: {e}"))?;
            Ok(ModelSpec::Config(mobilenet_v1_config(5, 0.25, 3, image, 10)))
        }
        "resnet" => {
            let image: usize = params.parse().map_err(|e| format!("bad image size in `{spec}`: {e}"))?;
            Ok(ModelSpec::Config(resnet20_config(8, 10, image)))
        }
        other => Err(format!("unknown model kind `{other}` (mlp | mobilenet | resnet)")),
    }
}

fn mlp_factory(widths: Vec<usize>) -> impl Fn() -> Box<dyn Layer> + Send + Sync + 'static {
    move || {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        for (i, pair) in widths.windows(2).enumerate() {
            if i > 0 {
                layers.push(Box::new(Relu::new()));
            }
            layers.push(Box::new(Linear::new(pair[0], pair[1], true, &mut rng)));
        }
        Box::new(Sequential::new(layers))
    }
}

struct Args {
    listen: String,
    workers: usize,
    max_batch: usize,
    queue: usize,
    endpoints: Vec<(String, ModelSpec)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:0".to_string(),
        workers: 2,
        max_batch: 8,
        queue: 256,
        endpoints: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--workers" => {
                args.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--max-batch" => {
                args.max_batch = value("--max-batch")?.parse().map_err(|e| format!("--max-batch: {e}"))?
            }
            "--queue" => args.queue = value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?,
            "--endpoint" => {
                let pair = value("--endpoint")?;
                let (name, spec) =
                    pair.split_once('=').ok_or_else(|| format!("--endpoint `{pair}` needs NAME=SPEC"))?;
                args.endpoints.push((name.to_string(), parse_spec(spec)?));
            }
            "--help" | "-h" => {
                return Err("usage: quadra-gateway [--listen ADDR] [--workers N] [--max-batch N] \
                            [--queue N] [--endpoint NAME=SPEC]..."
                    .to_string())
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if args.endpoints.is_empty() {
        args.endpoints.push(("mlp".to_string(), parse_spec("mlp:64x32x10")?));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let serve_config = ServeConfig {
        workers: args.workers,
        policy: BatchPolicy { max_batch_size: args.max_batch, ..BatchPolicy::default() },
        admission: AdmissionPolicy { queue_capacity: Some(args.queue), ..AdmissionPolicy::default() },
        ..ServeConfig::default()
    };
    let mut builder = Router::builder();
    for (name, spec) in args.endpoints {
        builder = match spec {
            ModelSpec::Mlp(widths) => builder.endpoint(&name, serve_config, mlp_factory(widths)),
            ModelSpec::Config(config) => builder.endpoint(&name, serve_config, move || {
                Box::new(build_model(&config, &mut StdRng::seed_from_u64(11)))
            }),
        };
    }
    let router = match builder.start() {
        Ok(router) => router,
        Err(e) => {
            eprintln!("router failed to start: {e}");
            std::process::exit(1);
        }
    };

    let gateway_config = GatewayConfig {
        listen: args.listen,
        drain_timeout: Duration::from_secs(10),
        ..GatewayConfig::default()
    };
    let gateway = match Gateway::start(gateway_config, router) {
        Ok(gateway) => gateway,
        Err(e) => {
            eprintln!("gateway failed to start: {e}");
            std::process::exit(1);
        }
    };

    // The one line supervisors parse; flush so a piped reader sees it now.
    println!("quadra-gateway listening on {}", gateway.local_addr());
    let _ = std::io::stdout().flush();

    // Serve until stdin closes.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }

    eprintln!("quadra-gateway: draining");
    let metrics = gateway.shutdown();
    for m in &metrics.models {
        eprintln!(
            "quadra-gateway: {} served {} requests in {} batches (mean batch {:.2})",
            m.model, m.completed_requests, m.batches, m.mean_batch_size
        );
    }
}
