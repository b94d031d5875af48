//! Model checkpointing: save and restore the parameters of any [`Layer`] as a
//! named state dictionary (JSON on disk).
//!
//! The paper's detection experiments initialise the SSD backbone from a model
//! pre-trained on classification; this module provides the mechanism for that
//! workflow — extract a state dict from one model, persist it, and load it into
//! another model with the same architecture.
//!
//! The file is one compact [`json`](crate::json) object,
//! `{"params":{KEY:{"shape":[..],"data":[..]},..},"buffers":{..}}`, keyed as
//! [`StateDict`] describes. Each value is written as the shortest decimal that
//! parses back to the same `f32` bits and is read without passing through
//! `f64`, so a round trip restores every weight bitwise. JSON has no NaN or
//! infinity: writing a checkpoint that holds one fails and names the entry. A
//! missing `"buffers"` key (checkpoints written before buffers were persisted)
//! reads as no buffers.

use crate::json::{self, Value};
use crate::layer::Layer;
use quadra_tensor::Tensor;
use std::collections::BTreeMap;
use std::path::Path;

/// A serialisable snapshot of one parameter tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamState {
    /// Tensor shape.
    pub shape: Vec<usize>,
    /// Row-major values.
    pub data: Vec<f32>,
}

impl ParamState {
    fn to_value(&self, key: &str) -> Result<Value, String> {
        let data = self.data.iter().map(|&x| {
            Value::f32(x)
                .ok_or_else(|| format!("checkpoint entry '{key}' holds {x}, which JSON cannot represent"))
        });
        Ok(Value::object([
            ("shape", Value::Arr(self.shape.iter().map(|n| Value::Num(n.to_string())).collect())),
            ("data", Value::Arr(data.collect::<Result<_, _>>()?)),
        ]))
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(ParamState {
            shape: v.read("shape", |s| s.as_arr()?.iter().map(Value::as_usize).collect())?,
            data: v.read("data", |d| d.as_arr()?.iter().map(Value::as_f32).collect())?,
        })
    }
}

/// A named collection of parameter snapshots.
///
/// Keys are `"{index:04}:{param_name}"`, which makes the ordering explicit and
/// detects architecture mismatches on load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDict {
    /// Parameter snapshots keyed by position and name.
    pub params: BTreeMap<String, ParamState>,
    /// Non-trainable buffer snapshots (batch-norm running statistics and the
    /// like), keyed the same way. Without these a restored model would fall
    /// back to the layer-construction defaults in eval mode.
    pub buffers: BTreeMap<String, ParamState>,
}

fn entries_to_value(entries: &BTreeMap<String, ParamState>) -> Result<Value, String> {
    entries
        .iter()
        .map(|(key, state)| Ok((key.clone(), state.to_value(key)?)))
        .collect::<Result<_, _>>()
        .map(Value::Obj)
}

fn entries_from_value(v: &Value) -> Result<BTreeMap<String, ParamState>, String> {
    v.as_obj()?
        .iter()
        .map(|(key, state)| {
            Ok((key.clone(), ParamState::from_value(state).map_err(|e| format!("'{key}': {e}"))?))
        })
        .collect()
}

/// Check one checkpoint entry against a model tensor and copy it over.
fn restore_entry(
    what: &str,
    i: usize,
    key: &str,
    state: &ParamState,
    name: &str,
    value: &mut Tensor,
) -> Result<(), String> {
    let expected_key = format!("{:04}:{}", i, name);
    if key != expected_key {
        return Err(format!("{} {} name mismatch: checkpoint '{}', model '{}'", what, i, key, expected_key));
    }
    if value.shape() != state.shape.as_slice() {
        return Err(format!(
            "{} '{}' shape mismatch: checkpoint {:?}, model {:?}",
            what,
            key,
            state.shape,
            value.shape()
        ));
    }
    let tensor = Tensor::from_vec(state.data.clone(), &state.shape)
        .map_err(|e| format!("corrupt checkpoint entry '{}': {}", key, e))?;
    value.copy_from(&tensor).map_err(|e| format!("copy failed for '{}': {}", key, e))
}

impl StateDict {
    /// Capture the current parameters and buffers of a model.
    pub fn from_layer(model: &dyn Layer) -> Self {
        let mut params = BTreeMap::new();
        for (i, p) in model.params().iter().enumerate() {
            params.insert(
                format!("{:04}:{}", i, p.name),
                ParamState { shape: p.value.shape().to_vec(), data: p.value.as_slice().to_vec() },
            );
        }
        let mut buffers = BTreeMap::new();
        for (i, (name, t)) in model.buffers().iter().enumerate() {
            buffers.insert(
                format!("{:04}:{}", i, name),
                ParamState { shape: t.shape().to_vec(), data: t.as_slice().to_vec() },
            );
        }
        StateDict { params, buffers }
    }

    /// Number of stored parameter tensors (excluding buffers).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if the snapshot holds neither parameters nor buffers.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty() && self.buffers.is_empty()
    }

    /// Total number of scalar values stored, parameters plus buffers.
    pub fn numel(&self) -> usize {
        self.params.values().chain(self.buffers.values()).map(|p| p.data.len()).sum()
    }

    /// Load the snapshot into a model with the same architecture.
    ///
    /// Returns an error message when the number, names or shapes of the
    /// parameters or buffers do not match.
    pub fn load_into(&self, model: &mut dyn Layer) -> Result<(), String> {
        {
            let mut target = model.params_mut();
            if target.len() != self.params.len() {
                return Err(format!(
                    "parameter count mismatch: checkpoint has {}, model has {}",
                    self.params.len(),
                    target.len()
                ));
            }
            for (i, (key, state)) in self.params.iter().enumerate() {
                let p = &mut target[i];
                restore_entry("parameter", i, key, state, &p.name, &mut p.value)?;
            }
        }
        let mut target = model.buffers_mut();
        if target.len() != self.buffers.len() {
            return Err(format!(
                "buffer count mismatch: checkpoint has {}, model has {} (was the checkpoint saved before buffers were persisted?)",
                self.buffers.len(),
                target.len()
            ));
        }
        for (i, (key, state)) in self.buffers.iter().enumerate() {
            let (name, value) = &mut target[i];
            restore_entry("buffer", i, key, state, name, value)?;
        }
        Ok(())
    }

    /// Serialise to a JSON string; fails on a NaN or infinite value, naming
    /// its entry.
    pub fn to_json(&self) -> Result<String, String> {
        let doc = Value::object([
            ("params", entries_to_value(&self.params)?),
            ("buffers", entries_to_value(&self.buffers)?),
        ]);
        Ok(doc.to_text(false))
    }

    /// Parse from a JSON string.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = json::parse(json)?;
        let params = doc.read("params", entries_from_value)?;
        let buffers = match doc.get("buffers") {
            Some(buffers) => entries_from_value(buffers).map_err(|e| format!("`buffers`: {e}"))?,
            None => BTreeMap::new(),
        };
        Ok(StateDict { params, buffers })
    }

    /// Write the checkpoint to disk; a value JSON cannot hold is an
    /// [`InvalidData`](std::io::ErrorKind::InvalidData) error.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let json = self.to_json().map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json)
    }

    /// Read a checkpoint from disk.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::layer::Sequential;
    use crate::linear::Linear;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Linear::new(4, 8, true, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 3, true, &mut rng)),
        ])
    }

    #[test]
    fn roundtrip_restores_exact_outputs() {
        let mut src = model(1);
        let mut dst = model(2);
        let x = Tensor::randn(&[5, 4], 0.0, 1.0, &mut StdRng::seed_from_u64(3));
        let before_src = src.forward(&x, false);
        let before_dst = dst.forward(&x, false);
        assert!(before_src.max_abs_diff(&before_dst).unwrap() > 1e-3);

        let state = StateDict::from_layer(&src);
        assert_eq!(state.len(), 4);
        assert!(!state.is_empty());
        assert_eq!(state.numel(), src.param_count());
        state.load_into(&mut dst).unwrap();
        let after_dst = dst.forward(&x, false);
        assert!(after_dst.allclose(&before_src, 1e-6));
    }

    #[test]
    fn json_and_file_roundtrip() {
        let src = model(4);
        let state = StateDict::from_layer(&src);
        let json = state.to_json().unwrap();
        let back = StateDict::from_json(&json).unwrap();
        assert_eq!(back, state);
        assert!(StateDict::from_json("{bad").is_err());

        let path = std::env::temp_dir().join("quadralib_ckpt_test.json");
        state.save(&path).unwrap();
        let loaded = StateDict::load(&path).unwrap();
        assert_eq!(loaded, state);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_values_are_refused_by_name() {
        let mut state = StateDict::default();
        state.params.insert("0000:w".into(), ParamState { shape: vec![2], data: vec![0.1, 0.2] });
        state
            .buffers
            .insert("0000:running_var".into(), ParamState { shape: vec![2], data: vec![f32::NAN, 0.1] });
        let err = state.to_json().unwrap_err();
        assert!(err.contains("'0000:running_var'") && err.contains("NaN"), "{}", err);

        let path = std::env::temp_dir().join("quadralib_ckpt_non_finite.json");
        std::fs::remove_file(&path).ok();
        assert_eq!(state.save(&path).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        assert!(!path.exists(), "nothing is written");

        state.buffers.clear();
        state.params.get_mut("0000:w").unwrap().data[1] = f32::NEG_INFINITY;
        assert!(state.to_json().unwrap_err().contains("'0000:w' holds -inf"));

        // What such a checkpoint used to be written as: `null` in place of NaN.
        let err =
            StateDict::from_json(r#"{"params":{"0000:w":{"shape":[2],"data":[null,0.1]}}}"#).unwrap_err();
        assert!(err.contains("'0000:w'") && err.contains("found null"), "{}", err);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every finite `f32`, including -0.0, subnormals and the extremes,
        /// comes back from the JSON text with the same bits.
        #[test]
        fn finite_values_restore_bitwise(bits in prop::collection::vec(0u32..u32::MAX, 1..48)) {
            let edges = [-0.0, f32::MAX, f32::MIN, f32::MIN_POSITIVE, f32::from_bits(1), -f32::from_bits(0x007f_ffff)];
            let data: Vec<f32> = bits.into_iter().map(f32::from_bits).filter(|x| x.is_finite()).chain(edges).collect();
            let state = StateDict {
                params: BTreeMap::from([("0000:w".to_string(), ParamState { shape: vec![data.len()], data })]),
                buffers: BTreeMap::new(),
            };
            let back = StateDict::from_json(&state.to_json().unwrap()).unwrap();
            let bits_of = |s: &StateDict| s.params["0000:w"].data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits_of(&back), bits_of(&state));
        }
    }

    #[test]
    fn batchnorm_running_stats_survive_roundtrip() {
        use crate::batchnorm::BatchNorm2d;
        use crate::dropout::Flatten;
        let bn_model = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            Sequential::new(vec![
                Box::new(BatchNorm2d::new(3)) as Box<dyn crate::layer::Layer>,
                Box::new(Flatten::new()),
                Box::new(Linear::new(3 * 2 * 2, 2, true, &mut rng)),
            ])
        };
        let mut src = bn_model(1);
        // Drive the running statistics away from their (0, 1) defaults.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let batch = Tensor::randn(&[6, 3, 2, 2], 3.0, 2.0, &mut rng);
            src.forward(&batch, true);
        }
        let x = Tensor::randn(&[4, 3, 2, 2], 3.0, 2.0, &mut rng);
        let expected = src.forward(&x, false);

        let state = StateDict::from_layer(&src);
        assert_eq!(state.buffers.len(), 2, "running_mean and running_var must be captured");
        assert_eq!(state.numel(), src.param_count() + 6);
        // JSON round-trip preserves the buffers too.
        let state = StateDict::from_json(&state.to_json().unwrap()).unwrap();
        let mut dst = bn_model(2);
        state.load_into(&mut dst).unwrap();
        let got = dst.forward(&x, false);
        assert_eq!(
            got.as_slice(),
            expected.as_slice(),
            "restored eval forward must match the original exactly"
        );
    }

    #[test]
    fn pre_buffer_checkpoints_still_parse() {
        // JSON written before buffers were persisted has no "buffers" key; it
        // must parse (empty buffers) and load into buffer-free models.
        let src = model(8);
        let mut legacy = StateDict::from_layer(&src);
        legacy.buffers.clear();
        let json = legacy.to_json().unwrap();
        let without_buffers = json.replace(",\"buffers\":{}", "").replace("\"buffers\":{},", "");
        assert!(!without_buffers.contains("buffers"), "test must exercise the missing-key path");
        let parsed = StateDict::from_json(&without_buffers).unwrap();
        assert!(parsed.buffers.is_empty());
        assert_eq!(parsed.params, legacy.params);
        let mut dst = model(9);
        parsed.load_into(&mut dst).unwrap();
    }

    #[test]
    fn missing_buffers_are_rejected() {
        use crate::batchnorm::BatchNorm2d;
        let src = Sequential::new(vec![Box::new(Relu::new()) as Box<dyn crate::layer::Layer>]);
        let state = StateDict::from_layer(&src);
        let mut dst = Sequential::new(vec![Box::new(BatchNorm2d::new(2)) as Box<dyn crate::layer::Layer>]);
        // Checkpoint has gamma/beta missing too, so the parameter check fires
        // first; a buffer-only mismatch must also be caught.
        let mut no_params = StateDict { params: state.params.clone(), buffers: BTreeMap::new() };
        no_params.params.insert("0000:bn.gamma".into(), ParamState { shape: vec![2], data: vec![1.0, 1.0] });
        no_params.params.insert("0001:bn.beta".into(), ParamState { shape: vec![2], data: vec![0.0, 0.0] });
        let err = no_params.load_into(&mut dst).unwrap_err();
        assert!(err.contains("buffer count mismatch"), "{}", err);
    }

    #[test]
    fn mismatched_architecture_is_rejected() {
        let src = model(5);
        let state = StateDict::from_layer(&src);

        // Different layer sizes -> shape mismatch.
        let mut rng = StdRng::seed_from_u64(6);
        let mut wrong_shape = Sequential::new(vec![
            Box::new(Linear::new(4, 16, true, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(16, 3, true, &mut rng)),
        ]);
        assert!(state.load_into(&mut wrong_shape).unwrap_err().contains("shape mismatch"));

        // Different parameter count -> count mismatch.
        let mut fewer = Sequential::new(vec![Box::new(Linear::new(4, 3, true, &mut rng))]);
        assert!(state.load_into(&mut fewer).unwrap_err().contains("count mismatch"));
    }

    #[test]
    fn empty_model_produces_empty_state() {
        let relu_only = Sequential::new(vec![Box::new(Relu::new())]);
        let state = StateDict::from_layer(&relu_only);
        assert!(state.is_empty());
        assert_eq!(state.numel(), 0);
        let mut other = Sequential::new(vec![Box::new(Relu::new())]);
        state.load_into(&mut other).unwrap();
    }
}
