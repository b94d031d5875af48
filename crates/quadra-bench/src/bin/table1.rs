//! Table 1 — the quadratic-neuron taxonomy: formula, computation complexity,
//! parameter complexity and the practical issues (P1–P4) of every design.
//!
//! The "Verified params" column instantiates a square `QuadraticLinear` of
//! each type (`n` neurons over `n` inputs) and divides its weight count by
//! `n`. The binary exits non-zero if any differs from the closed-form
//! `NeuronType::param_count`.
//!
//! Regenerate with `cargo run -p quadra-bench --release --bin table1`.

use quadra_bench::print_table;
use quadra_core::{NeuronType, QuadraticLinear};
use quadra_nn::Layer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let n = 64usize;
    let mut rng = StdRng::seed_from_u64(0);
    let mut mismatches = Vec::new();
    let rows: Vec<Vec<String>> = NeuronType::ALL
        .iter()
        .map(|t| {
            let layer = QuadraticLinear::new(*t, n, n, &mut rng);
            // Every weight but the bias, shared out over the layer's n neurons.
            let per_neuron = (layer.param_count() - n) / n;
            if per_neuron != t.param_count(n) {
                mismatches.push(t.name());
            }
            let issues: Vec<&str> = [
                ("P1", t.has_approximation_issue()),
                ("P2", t.has_complexity_issue()),
                ("P3", t.has_gradient_vanishing_issue()),
                ("P4", !t.is_library_friendly()),
            ]
            .iter()
            .filter(|(_, f)| *f)
            .map(|(n, _)| *n)
            .collect();
            vec![
                t.name().to_string(),
                t.formula().to_string(),
                format!("{} MACs", t.flop_count(n)),
                format!("{} params", t.param_count(n)),
                format!("{} (instantiated)", per_neuron),
                if issues.is_empty() { "-".to_string() } else { issues.join(" ") },
                t.reference().to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Table 1: quadratic neuron taxonomy (input size n = {})", n),
        &[
            "Type",
            "Neuron format",
            "Computation",
            "Model structure",
            "Verified params",
            "Issues",
            "Reference",
        ],
        &rows,
    );
    println!("\nNote: 'Verified params' instantiates each neuron type as a layer of n neurons and");
    println!("counts its weight tensors per neuron, checking the closed-form complexity column.");
    if mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("instantiated weights differ from the closed form for: {}", mismatches.join(", "));
        ExitCode::FAILURE
    }
}
