//! Model-structure configuration files and the construction function that
//! turns them into runnable models.
//!
//! The paper's manual construction flow starts from a "structure configuration
//! file" describing depth, width and layer types, which is then fed to a
//! construction function that assembles the model as a layer sequence.
//! [`ModelConfig`] is that configuration file, and [`build_model`] is the
//! construction function.
//!
//! On disk a configuration is pretty-printed [`json`](quadra_nn::json): a
//! struct is a plain object with its fields in declaration order, and a
//! [`LayerSpec`] is externally tagged, `{"Conv": {...}}` for a variant with
//! fields and `"GlobalAvgPool"` / `"Flatten"` for the two without. A
//! [`NeuronType`] is its variant name. Sizes must be written as non-negative
//! integers that fit `usize`, and kernels, strides, groups and pool windows
//! must be at least 1 (a max-pool window at most
//! [`PoolIndices::MAX_WINDOW`]); `Dropout.p` is written as the shortest decimal
//! that parses back to the same `f32`, and must lie in `[0, 1)` when read, so
//! NaN and the infinities are rejected.

use crate::neuron::NeuronType;
use crate::qconv::QuadraticConv2d;
use crate::qlinear::QuadraticLinear;
use quadra_nn::json::{self, Value};
use quadra_nn::{
    AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, GlobalAvgPool, Layer, Linear, MaxPool2d, Relu,
    Residual, Sequential,
};
use quadra_tensor::PoolIndices;
use rand::Rng;
use std::path::Path;

/// One entry of a model-structure configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// First-order convolution (+ optional batch-norm and ReLU).
    Conv {
        /// Output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
        /// Groups (`in_channels` for depth-wise convolution).
        groups: usize,
        /// Append a BatchNorm2d after the convolution.
        batch_norm: bool,
        /// Append a ReLU after the (optional) batch-norm.
        relu: bool,
    },
    /// Quadratic convolution of the given neuron type (+ optional BN / ReLU).
    QuadraticConv {
        /// Neuron design.
        neuron: NeuronType,
        /// Output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
        /// Groups.
        groups: usize,
        /// Append a BatchNorm2d (strongly recommended: the second-order term
        /// produces extreme values, design insight 2 of the paper).
        batch_norm: bool,
        /// Append a ReLU.
        relu: bool,
    },
    /// Max pooling with a square window (stride = window).
    MaxPool {
        /// Window size.
        kernel: usize,
    },
    /// Average pooling with a square window (stride = window).
    AvgPool {
        /// Window size.
        kernel: usize,
    },
    /// Global average pooling (`[n,c,h,w] -> [n,c]`).
    GlobalAvgPool,
    /// Flatten to `[n, features]`.
    Flatten,
    /// Fully connected layer (+ optional ReLU).
    Linear {
        /// Output features.
        out_features: usize,
        /// Append a ReLU.
        relu: bool,
    },
    /// Quadratic fully connected layer of the given neuron type.
    QuadraticLinear {
        /// Neuron design.
        neuron: NeuronType,
        /// Output features.
        out_features: usize,
    },
    /// Dropout with the given probability.
    Dropout {
        /// Drop probability.
        p: f32,
    },
    /// Residual block wrapping a body of layer specs, with an optional 1×1
    /// projection shortcut (required whenever the body changes channels or
    /// spatial size).
    Residual {
        /// The residual body.
        body: Vec<LayerSpec>,
        /// Use a projection (1×1 convolution) shortcut.
        projection: bool,
        /// Apply ReLU after the addition.
        final_relu: bool,
    },
}

impl LayerSpec {
    /// Convenience constructor: 3×3 first-order convolution with BN + ReLU.
    pub fn conv3x3(out_channels: usize) -> Self {
        LayerSpec::Conv {
            out_channels,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
            batch_norm: true,
            relu: true,
        }
    }

    /// Convenience constructor: 3×3 quadratic convolution with BN + ReLU.
    pub fn qconv3x3(neuron: NeuronType, out_channels: usize) -> Self {
        LayerSpec::QuadraticConv {
            neuron,
            out_channels,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
            batch_norm: true,
            relu: true,
        }
    }

    /// True for convolution-type entries (first-order or quadratic).
    pub fn is_conv(&self) -> bool {
        matches!(self, LayerSpec::Conv { .. } | LayerSpec::QuadraticConv { .. })
    }

    /// True for quadratic entries (conv or linear).
    pub fn is_quadratic(&self) -> bool {
        matches!(self, LayerSpec::QuadraticConv { .. } | LayerSpec::QuadraticLinear { .. })
    }

    fn to_value(&self) -> Value {
        let n = |x: &usize| Value::Num(x.to_string());
        let b = |x: &bool| Value::Bool(*x);
        let (tag, body) = match self {
            LayerSpec::Conv { out_channels, kernel, stride, padding, groups, batch_norm, relu } => (
                "Conv",
                Value::object([
                    ("out_channels", n(out_channels)),
                    ("kernel", n(kernel)),
                    ("stride", n(stride)),
                    ("padding", n(padding)),
                    ("groups", n(groups)),
                    ("batch_norm", b(batch_norm)),
                    ("relu", b(relu)),
                ]),
            ),
            LayerSpec::QuadraticConv {
                neuron,
                out_channels,
                kernel,
                stride,
                padding,
                groups,
                batch_norm,
                relu,
            } => (
                "QuadraticConv",
                Value::object([
                    ("neuron", neuron.to_value()),
                    ("out_channels", n(out_channels)),
                    ("kernel", n(kernel)),
                    ("stride", n(stride)),
                    ("padding", n(padding)),
                    ("groups", n(groups)),
                    ("batch_norm", b(batch_norm)),
                    ("relu", b(relu)),
                ]),
            ),
            LayerSpec::MaxPool { kernel } => ("MaxPool", Value::object([("kernel", n(kernel))])),
            LayerSpec::AvgPool { kernel } => ("AvgPool", Value::object([("kernel", n(kernel))])),
            LayerSpec::GlobalAvgPool => return Value::Str("GlobalAvgPool".into()),
            LayerSpec::Flatten => return Value::Str("Flatten".into()),
            LayerSpec::Linear { out_features, relu } => {
                ("Linear", Value::object([("out_features", n(out_features)), ("relu", b(relu))]))
            }
            LayerSpec::QuadraticLinear { neuron, out_features } => (
                "QuadraticLinear",
                Value::object([("neuron", neuron.to_value()), ("out_features", n(out_features))]),
            ),
            LayerSpec::Dropout { p } => {
                ("Dropout", Value::object([("p", Value::f32(*p).expect("dropout probability is finite"))]))
            }
            LayerSpec::Residual { body, projection, final_relu } => (
                "Residual",
                Value::object([
                    ("body", Value::Arr(body.iter().map(LayerSpec::to_value).collect())),
                    ("projection", b(projection)),
                    ("final_relu", b(final_relu)),
                ]),
            ),
        };
        Value::object([(tag, body)])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        if let Value::Str(tag) = v {
            return match tag.as_str() {
                "GlobalAvgPool" => Ok(LayerSpec::GlobalAvgPool),
                "Flatten" => Ok(LayerSpec::Flatten),
                other => Err(format!("unknown layer `{other}`")),
            };
        }
        let [(tag, body)] = v.as_obj()? else {
            return Err("expected a layer: an object with one variant name as its key".to_string());
        };
        let n = |key| body.read(key, Value::as_usize);
        // Strides, kernels, groups and pool windows divide geometry.
        let positive = |key| match n(key)? {
            0 => Err(format!("`{key}`: must be at least 1, found 0")),
            v => Ok(v),
        };
        let b = |key| body.read(key, Value::as_bool);
        let neuron = || body.read("neuron", NeuronType::from_value);
        let spec = || -> Result<LayerSpec, String> {
            Ok(match tag.as_str() {
                "Conv" => LayerSpec::Conv {
                    out_channels: n("out_channels")?,
                    kernel: positive("kernel")?,
                    stride: positive("stride")?,
                    padding: n("padding")?,
                    groups: positive("groups")?,
                    batch_norm: b("batch_norm")?,
                    relu: b("relu")?,
                },
                "QuadraticConv" => LayerSpec::QuadraticConv {
                    neuron: neuron()?,
                    out_channels: n("out_channels")?,
                    kernel: positive("kernel")?,
                    stride: positive("stride")?,
                    padding: n("padding")?,
                    groups: positive("groups")?,
                    batch_norm: b("batch_norm")?,
                    relu: b("relu")?,
                },
                "MaxPool" => {
                    let kernel = positive("kernel")?;
                    if kernel > PoolIndices::MAX_WINDOW {
                        let max = PoolIndices::MAX_WINDOW;
                        return Err(format!("`kernel`: a max-pool window is at most {max}, found {kernel}"));
                    }
                    LayerSpec::MaxPool { kernel }
                }
                "AvgPool" => LayerSpec::AvgPool { kernel: positive("kernel")? },
                "Linear" => LayerSpec::Linear { out_features: n("out_features")?, relu: b("relu")? },
                "QuadraticLinear" => {
                    LayerSpec::QuadraticLinear { neuron: neuron()?, out_features: n("out_features")? }
                }
                "Dropout" => {
                    let p = body.read("p", Value::as_f32)?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(format!("`p`: a drop probability must lie in [0, 1), found {p}"));
                    }
                    LayerSpec::Dropout { p }
                }
                "Residual" => LayerSpec::Residual {
                    body: body.read("body", layers_from_value)?,
                    projection: b("projection")?,
                    final_relu: b("final_relu")?,
                },
                other => return Err(format!("unknown layer `{other}`")),
            })
        };
        spec().map_err(|e| format!("`{tag}`: {e}"))
    }
}

fn layers_from_value(v: &Value) -> Result<Vec<LayerSpec>, String> {
    v.as_arr()?.iter().map(LayerSpec::from_value).collect()
}

/// A complete model-structure configuration ("configuration file").
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Model name used in reports and file names.
    pub name: String,
    /// Number of input channels (3 for RGB images).
    pub input_channels: usize,
    /// Input spatial size (square images).
    pub image_size: usize,
    /// Number of output classes of the classifier head.
    pub num_classes: usize,
    /// The layer sequence.
    pub layers: Vec<LayerSpec>,
}

impl ModelConfig {
    /// Create a configuration.
    pub fn new(
        name: impl Into<String>,
        input_channels: usize,
        image_size: usize,
        num_classes: usize,
        layers: Vec<LayerSpec>,
    ) -> Self {
        ModelConfig { name: name.into(), input_channels, image_size, num_classes, layers }
    }

    /// Serialise to pretty JSON.
    ///
    /// # Panics
    ///
    /// If a `Dropout` probability is NaN or infinite, which
    /// [`build_model`] would refuse as well.
    pub fn to_json(&self) -> String {
        Value::object([
            ("name", Value::Str(self.name.clone())),
            ("input_channels", Value::Num(self.input_channels.to_string())),
            ("image_size", Value::Num(self.image_size.to_string())),
            ("num_classes", Value::Num(self.num_classes.to_string())),
            ("layers", Value::Arr(self.layers.iter().map(LayerSpec::to_value).collect())),
        ])
        .to_text(true)
    }

    /// Parse from JSON, rejecting sizes that are not integers in `usize`
    /// range, zero kernels, strides, groups and pool windows, max-pool
    /// windows above [`PoolIndices::MAX_WINDOW`] and drop probabilities
    /// outside `[0, 1)`, with an error naming the layer and the field.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = json::parse(json)?;
        Ok(ModelConfig {
            name: doc.read("name", Value::as_str)?.to_string(),
            input_channels: doc.read("input_channels", Value::as_usize)?,
            image_size: doc.read("image_size", Value::as_usize)?,
            num_classes: doc.read("num_classes", Value::as_usize)?,
            layers: doc.read("layers", layers_from_value)?,
        })
    }

    /// Write the configuration file to disk.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load a configuration file from disk.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Number of convolution entries (first-order or quadratic), counting
    /// recursively into residual bodies. This is the "#Layer" column of Table 3.
    pub fn conv_layer_count(&self) -> usize {
        fn count(specs: &[LayerSpec]) -> usize {
            specs
                .iter()
                .map(|s| match s {
                    LayerSpec::Conv { .. } | LayerSpec::QuadraticConv { .. } => 1,
                    LayerSpec::Residual { body, .. } => count(body),
                    _ => 0,
                })
                .sum()
        }
        count(&self.layers)
    }

    /// Number of residual blocks at the top level.
    pub fn residual_block_count(&self) -> usize {
        self.layers.iter().filter(|s| matches!(s, LayerSpec::Residual { .. })).count()
    }

    /// True if any layer is quadratic.
    pub fn is_quadratic(&self) -> bool {
        fn any_quad(specs: &[LayerSpec]) -> bool {
            specs.iter().any(|s| match s {
                LayerSpec::Residual { body, .. } => any_quad(body),
                other => other.is_quadratic(),
            })
        }
        any_quad(&self.layers)
    }
}

/// Tracks tensor geometry while walking a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Current channel count (or feature count after flattening).
    pub channels: usize,
    /// Current spatial extent (0 after flattening).
    pub spatial: usize,
    /// Whether the tensor has been flattened to 2-D.
    pub flat: bool,
}

impl Geometry {
    /// Features seen by a dense layer at this point.
    pub fn features(&self) -> usize {
        if self.flat || self.spatial == 0 {
            self.channels
        } else {
            self.channels * self.spatial * self.spatial
        }
    }
}

/// Walk a layer-spec list, calling `visit` with the geometry *before* each spec
/// and returning the geometry after the last one.
pub fn walk_geometry(
    specs: &[LayerSpec],
    mut geom: Geometry,
    visit: &mut impl FnMut(&LayerSpec, Geometry),
) -> Geometry {
    for spec in specs {
        visit(spec, geom);
        geom = advance_geometry(spec, geom);
    }
    geom
}

/// Geometry after applying a single spec.
pub fn advance_geometry(spec: &LayerSpec, geom: Geometry) -> Geometry {
    let out_hw = |size: usize, k: usize, s: usize, p: usize| (size + 2 * p).saturating_sub(k) / s + 1;
    match spec {
        LayerSpec::Conv { out_channels, kernel, stride, padding, .. }
        | LayerSpec::QuadraticConv { out_channels, kernel, stride, padding, .. } => Geometry {
            channels: *out_channels,
            spatial: out_hw(geom.spatial, *kernel, *stride, *padding),
            flat: false,
        },
        LayerSpec::MaxPool { kernel } | LayerSpec::AvgPool { kernel } => {
            Geometry { channels: geom.channels, spatial: geom.spatial / kernel, flat: false }
        }
        LayerSpec::GlobalAvgPool => Geometry { channels: geom.channels, spatial: 0, flat: true },
        LayerSpec::Flatten => Geometry { channels: geom.features(), spatial: 0, flat: true },
        LayerSpec::Linear { out_features, .. } | LayerSpec::QuadraticLinear { out_features, .. } => {
            Geometry { channels: *out_features, spatial: 0, flat: true }
        }
        LayerSpec::Dropout { .. } => geom,
        LayerSpec::Residual { body, .. } => {
            let mut g = geom;
            for s in body {
                g = advance_geometry(s, g);
            }
            g
        }
    }
}

/// Build a runnable model from a configuration file (the paper's construction
/// function). The random generator seeds every weight tensor, so the same
/// configuration and seed always produce the same model.
pub fn build_model(config: &ModelConfig, rng: &mut impl Rng) -> Sequential {
    let geom = Geometry { channels: config.input_channels, spatial: config.image_size, flat: false };
    let (layers, _g) = build_specs(&config.layers, geom, rng);
    Sequential::new(layers)
}

fn build_specs(
    specs: &[LayerSpec],
    mut geom: Geometry,
    rng: &mut impl Rng,
) -> (Vec<Box<dyn Layer>>, Geometry) {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for spec in specs {
        match spec {
            LayerSpec::Conv { out_channels, kernel, stride, padding, groups, batch_norm, relu } => {
                layers.push(Box::new(Conv2d::new(
                    geom.channels,
                    *out_channels,
                    *kernel,
                    *stride,
                    *padding,
                    *groups,
                    !*batch_norm,
                    rng,
                )));
                if *batch_norm {
                    layers.push(Box::new(BatchNorm2d::new(*out_channels)));
                }
                if *relu {
                    layers.push(Box::new(Relu::new()));
                }
            }
            LayerSpec::QuadraticConv {
                neuron,
                out_channels,
                kernel,
                stride,
                padding,
                groups,
                batch_norm,
                relu,
            } => {
                layers.push(Box::new(QuadraticConv2d::new(
                    *neuron,
                    geom.channels,
                    *out_channels,
                    *kernel,
                    *stride,
                    *padding,
                    *groups,
                    rng,
                )));
                if *batch_norm {
                    layers.push(Box::new(BatchNorm2d::new(*out_channels)));
                }
                if *relu {
                    layers.push(Box::new(Relu::new()));
                }
            }
            LayerSpec::MaxPool { kernel } => layers.push(Box::new(MaxPool2d::new(*kernel))),
            LayerSpec::AvgPool { kernel } => layers.push(Box::new(AvgPool2d::new(*kernel))),
            LayerSpec::GlobalAvgPool => layers.push(Box::new(GlobalAvgPool::new())),
            LayerSpec::Flatten => layers.push(Box::new(Flatten::new())),
            LayerSpec::Linear { out_features, relu } => {
                layers.push(Box::new(Linear::new(geom.features(), *out_features, true, rng)));
                if *relu {
                    layers.push(Box::new(Relu::new()));
                }
            }
            LayerSpec::QuadraticLinear { neuron, out_features } => {
                layers.push(Box::new(QuadraticLinear::new(*neuron, geom.features(), *out_features, rng)));
            }
            LayerSpec::Dropout { p } => layers.push(Box::new(Dropout::new(*p, rng.gen()))),
            LayerSpec::Residual { body, projection, final_relu } => {
                let in_geom = geom;
                let (body_layers, out_geom) = build_specs(body, geom, rng);
                let body_seq = Sequential::new(body_layers);
                let block: Box<dyn Layer> = if *projection {
                    let stride = if out_geom.spatial > 0 && in_geom.spatial > out_geom.spatial {
                        in_geom.spatial / out_geom.spatial
                    } else {
                        1
                    };
                    let shortcut: Box<dyn Layer> = Box::new(Conv2d::new(
                        in_geom.channels,
                        out_geom.channels,
                        1,
                        stride,
                        0,
                        1,
                        false,
                        rng,
                    ));
                    Box::new(Residual::with_shortcut(body_seq, shortcut, *final_relu))
                } else {
                    Box::new(Residual::new(body_seq, *final_relu))
                };
                layers.push(block);
            }
        }
        geom = advance_geometry(spec, geom);
    }
    (layers, geom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadra_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_config() -> ModelConfig {
        ModelConfig::new(
            "tiny-cnn",
            3,
            8,
            4,
            vec![
                LayerSpec::conv3x3(8),
                LayerSpec::MaxPool { kernel: 2 },
                LayerSpec::qconv3x3(NeuronType::Ours, 8),
                LayerSpec::GlobalAvgPool,
                LayerSpec::Linear { out_features: 4, relu: false },
            ],
        )
    }

    #[test]
    fn geometry_walk_matches_expectations() {
        let cfg = tiny_config();
        let geom = Geometry { channels: 3, spatial: 8, flat: false };
        let mut seen = Vec::new();
        let end = walk_geometry(&cfg.layers, geom, &mut |spec, g| {
            seen.push((spec.is_conv(), g.channels, g.spatial))
        });
        assert_eq!(seen[0], (true, 3, 8));
        assert_eq!(seen[2], (true, 8, 4));
        assert_eq!(end.channels, 4);
        assert!(end.flat);
        assert_eq!(end.features(), 4);
    }

    #[test]
    fn build_and_run_tiny_model() {
        let cfg = tiny_config();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = build_model(&cfg, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = model.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4]);
        let gin = model.backward(&Tensor::ones_like(&y));
        assert_eq!(gin.shape(), x.shape());
        assert!(cfg.is_quadratic());
        assert_eq!(cfg.conv_layer_count(), 2);
    }

    #[test]
    fn residual_config_with_projection_builds() {
        let cfg = ModelConfig::new(
            "tiny-res",
            3,
            8,
            2,
            vec![
                LayerSpec::conv3x3(8),
                LayerSpec::Residual {
                    body: vec![
                        LayerSpec::conv3x3(8),
                        LayerSpec::Conv {
                            out_channels: 8,
                            kernel: 3,
                            stride: 1,
                            padding: 1,
                            groups: 1,
                            batch_norm: true,
                            relu: false,
                        },
                    ],
                    projection: false,
                    final_relu: true,
                },
                LayerSpec::Residual {
                    body: vec![LayerSpec::Conv {
                        out_channels: 16,
                        kernel: 3,
                        stride: 2,
                        padding: 1,
                        groups: 1,
                        batch_norm: true,
                        relu: true,
                    }],
                    projection: true,
                    final_relu: true,
                },
                LayerSpec::GlobalAvgPool,
                LayerSpec::Linear { out_features: 2, relu: false },
            ],
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = build_model(&cfg, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = model.forward(&x, true);
        assert_eq!(y.shape(), &[2, 2]);
        let gin = model.backward(&Tensor::ones_like(&y));
        assert_eq!(gin.shape(), x.shape());
        assert_eq!(cfg.residual_block_count(), 2);
        assert_eq!(cfg.conv_layer_count(), 4);
        assert!(!cfg.is_quadratic());
    }

    #[test]
    fn json_roundtrip_preserves_config() {
        let cfg = tiny_config();
        let json = cfg.to_json();
        let back = ModelConfig::from_json(&json).unwrap();
        assert_eq!(back, cfg);
        assert!(json.contains("tiny-cnn"));
        assert!(ModelConfig::from_json("{not json").is_err());
        assert!(ModelConfig::from_json(&format!("{json} {{}}")).is_err(), "trailing input");

        // Sizes must be integers in `usize` range, never coerced; a drop
        // probability outside [0, 1) is refused here, not by a panic in
        // `build_model`.
        let field = |old: &str, new: &str| ModelConfig::from_json(&json.replace(old, new));
        for bad in ["-3.7", "2.9", "-1", "4.0", "1e30", "18446744073709551616", "\"4\"", "null"] {
            let err = field("\"out_features\": 4", &format!("\"out_features\": {bad}")).unwrap_err();
            assert!(
                err.starts_with("`layers`: `Linear`: `out_features`: expected an unsigned integer"),
                "{err}"
            );
        }
        assert!(field("\"kernel\": 2", "\"kernel\": -2").unwrap_err().contains("`MaxPool`: `kernel`"));
        assert!(field("\"image_size\": 8", "\"image_size\": 8.5").unwrap_err().starts_with("`image_size`"));
        assert!(field("\"Ours\"", "\"T5\"").unwrap_err().contains("unknown neuron type `T5`"));
        let dropout = |p: &str| {
            field("\"GlobalAvgPool\",", &format!("{{\"Dropout\": {{\"p\": {p}}}}}, \"GlobalAvgPool\","))
        };
        let with_dropout = dropout("0.1").unwrap();
        assert_eq!(with_dropout.layers[3], LayerSpec::Dropout { p: 0.1 });
        assert_eq!(ModelConfig::from_json(&with_dropout.to_json()).unwrap(), with_dropout);
        for bad in ["1", "1.5", "-0.1", "1e39", "null"] {
            assert!(dropout(bad).unwrap_err().starts_with("`layers`: `Dropout`: `p`"), "{bad}");
        }
    }

    /// Written by `to_json` before the workspace had its own JSON module: all
    /// eleven layer kinds, a nested residual and all eight neuron types.
    const EARLIER_CONFIG: &str = r#"{
  "name": "compat",
  "input_channels": 3,
  "image_size": 8,
  "num_classes": 2,
  "layers": [
    {
      "Residual": {
        "body": [
          {
            "Residual": {
              "body": [
                {
                  "Conv": {
                    "out_channels": 4,
                    "kernel": 3,
                    "stride": 1,
                    "padding": 1,
                    "groups": 1,
                    "batch_norm": true,
                    "relu": true
                  }
                }
              ],
              "projection": true,
              "final_relu": false
            }
          }
        ],
        "projection": false,
        "final_relu": true
      }
    },
    {
      "QuadraticConv": {
        "neuron": "T1",
        "out_channels": 4,
        "kernel": 3,
        "stride": 1,
        "padding": 1,
        "groups": 1,
        "batch_norm": true,
        "relu": true
      }
    },
    {
      "MaxPool": {
        "kernel": 2
      }
    },
    {
      "AvgPool": {
        "kernel": 2
      }
    },
    "GlobalAvgPool",
    "Flatten",
    {
      "Linear": {
        "out_features": 4,
        "relu": true
      }
    },
    {
      "Dropout": {
        "p": 0.25
      }
    },
    {
      "QuadraticLinear": {
        "neuron": "T2",
        "out_features": 2
      }
    },
    {
      "QuadraticLinear": {
        "neuron": "T3",
        "out_features": 2
      }
    },
    {
      "QuadraticLinear": {
        "neuron": "T4",
        "out_features": 2
      }
    },
    {
      "QuadraticLinear": {
        "neuron": "T1And2",
        "out_features": 2
      }
    },
    {
      "QuadraticLinear": {
        "neuron": "T2And4",
        "out_features": 2
      }
    },
    {
      "QuadraticLinear": {
        "neuron": "T4Identity",
        "out_features": 2
      }
    },
    {
      "QuadraticLinear": {
        "neuron": "Ours",
        "out_features": 2
      }
    }
  ]
}"#;

    #[test]
    fn earlier_config_text_reads_and_rewrites_unchanged() {
        let inner =
            LayerSpec::Residual { body: vec![LayerSpec::conv3x3(4)], projection: true, final_relu: false };
        let mut layers = vec![
            LayerSpec::Residual { body: vec![inner], projection: false, final_relu: true },
            LayerSpec::qconv3x3(NeuronType::T1, 4),
            LayerSpec::MaxPool { kernel: 2 },
            LayerSpec::AvgPool { kernel: 2 },
            LayerSpec::GlobalAvgPool,
            LayerSpec::Flatten,
            LayerSpec::Linear { out_features: 4, relu: true },
            LayerSpec::Dropout { p: 0.25 },
        ];
        layers.extend(
            NeuronType::ALL[1..].iter().map(|&neuron| LayerSpec::QuadraticLinear { neuron, out_features: 2 }),
        );
        let expected = ModelConfig::new("compat", 3, 8, 2, layers);
        assert_eq!(ModelConfig::from_json(EARLIER_CONFIG), Ok(expected.clone()));
        assert_eq!(expected.to_json(), EARLIER_CONFIG);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let cfg = tiny_config();
        let dir = std::env::temp_dir().join("quadralib_test_cfg.json");
        cfg.save(&dir).unwrap();
        let back = ModelConfig::load(&dir).unwrap();
        assert_eq!(back, cfg);
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn depthwise_separable_spec_builds() {
        // MobileNet-style pair: depthwise 3x3 (groups == channels) then pointwise 1x1.
        let cfg = ModelConfig::new(
            "dw",
            3,
            8,
            2,
            vec![
                LayerSpec::Conv {
                    out_channels: 8,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    groups: 1,
                    batch_norm: true,
                    relu: true,
                },
                LayerSpec::Conv {
                    out_channels: 8,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    groups: 8,
                    batch_norm: true,
                    relu: true,
                },
                LayerSpec::Conv {
                    out_channels: 16,
                    kernel: 1,
                    stride: 1,
                    padding: 0,
                    groups: 1,
                    batch_norm: true,
                    relu: true,
                },
                LayerSpec::GlobalAvgPool,
                LayerSpec::Linear { out_features: 2, relu: false },
            ],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = build_model(&cfg, &mut rng);
        let y = model.forward(&Tensor::randn(&[1, 3, 8, 8], 0.0, 1.0, &mut rng), true);
        assert_eq!(y.shape(), &[1, 2]);
    }

    #[test]
    fn flatten_then_linear_uses_feature_count() {
        let cfg = ModelConfig::new(
            "flat",
            1,
            4,
            3,
            vec![LayerSpec::Flatten, LayerSpec::Linear { out_features: 3, relu: false }],
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = build_model(&cfg, &mut rng);
        let y = model.forward(&Tensor::randn(&[2, 1, 4, 4], 0.0, 1.0, &mut rng), true);
        assert_eq!(y.shape(), &[2, 3]);
        // Linear weight should be 16x3.
        assert_eq!(model.params()[0].value.shape(), &[16, 3]);
    }

    #[test]
    fn spec_helpers() {
        assert!(LayerSpec::conv3x3(4).is_conv());
        assert!(!LayerSpec::conv3x3(4).is_quadratic());
        assert!(LayerSpec::qconv3x3(NeuronType::Ours, 4).is_quadratic());
        assert!(!LayerSpec::Flatten.is_conv());
        let dropout_cfg = ModelConfig::new(
            "d",
            1,
            4,
            2,
            vec![
                LayerSpec::Flatten,
                LayerSpec::Dropout { p: 0.5 },
                LayerSpec::Linear { out_features: 2, relu: true },
                LayerSpec::QuadraticLinear { neuron: NeuronType::Ours, out_features: 2 },
            ],
        );
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = build_model(&dropout_cfg, &mut rng);
        let y = model.forward(&Tensor::randn(&[2, 1, 4, 4], 0.0, 1.0, &mut rng), true);
        assert_eq!(y.shape(), &[2, 2]);
        assert!(dropout_cfg.is_quadratic());
    }

    /// The error `from_json` gives for `spec`'s one-layer config, nested in a
    /// residual body when `nested`, with `"field": good` written as `bad`.
    fn refused(spec: LayerSpec, nested: bool, field: &str, bad: &str) -> String {
        let layer = if nested {
            LayerSpec::Residual { body: vec![spec], projection: true, final_relu: true }
        } else {
            spec
        };
        let json = ModelConfig::new("one", 4, 8, 2, vec![layer]).to_json();
        let good = json.find(&format!("\"{field}\": ")).expect("the field is written");
        let end = good + json[good..].find(['\n', ',']).expect("the value ends");
        ModelConfig::from_json(&format!("{}\"{field}\": {bad}{}", &json[..good], &json[end..])).unwrap_err()
    }

    fn conv(quadratic: bool) -> LayerSpec {
        if quadratic {
            LayerSpec::qconv3x3(NeuronType::Ours, 4)
        } else {
            LayerSpec::conv3x3(4)
        }
    }

    #[test]
    fn zero_stride_is_refused() {
        let err = refused(conv(false), false, "stride", "0");
        assert_eq!(err, "`layers`: `Conv`: `stride`: must be at least 1, found 0");
        let err = refused(conv(true), true, "stride", "0");
        assert_eq!(
            err,
            "`layers`: `Residual`: `body`: `QuadraticConv`: `stride`: must be at least 1, found 0"
        );
    }

    #[test]
    fn zero_kernel_is_refused() {
        let err = refused(conv(false), true, "kernel", "0");
        assert_eq!(err, "`layers`: `Residual`: `body`: `Conv`: `kernel`: must be at least 1, found 0");
        let err = refused(conv(true), false, "kernel", "0");
        assert_eq!(err, "`layers`: `QuadraticConv`: `kernel`: must be at least 1, found 0");
    }

    #[test]
    fn zero_groups_is_refused() {
        let err = refused(conv(false), false, "groups", "0");
        assert_eq!(err, "`layers`: `Conv`: `groups`: must be at least 1, found 0");
        let err = refused(conv(true), false, "groups", "0");
        assert_eq!(err, "`layers`: `QuadraticConv`: `groups`: must be at least 1, found 0");
    }

    #[test]
    fn zero_pool_window_is_refused() {
        let err = refused(LayerSpec::MaxPool { kernel: 2 }, false, "kernel", "0");
        assert_eq!(err, "`layers`: `MaxPool`: `kernel`: must be at least 1, found 0");
        let err = refused(LayerSpec::AvgPool { kernel: 2 }, true, "kernel", "0");
        assert_eq!(err, "`layers`: `Residual`: `body`: `AvgPool`: `kernel`: must be at least 1, found 0");
    }

    #[test]
    fn max_pool_window_above_16_is_refused() {
        let err = refused(LayerSpec::MaxPool { kernel: 2 }, false, "kernel", "17");
        assert_eq!(err, "`layers`: `MaxPool`: `kernel`: a max-pool window is at most 16, found 17");
        // The widest window whose offsets fit a byte loads, and an average
        // pool, which keeps no offsets, may be wider.
        let wide = |spec| ModelConfig::new("wide", 1, 16, 1, vec![spec]);
        for spec in [LayerSpec::MaxPool { kernel: 16 }, LayerSpec::AvgPool { kernel: 17 }] {
            let cfg = wide(spec);
            assert_eq!(ModelConfig::from_json(&cfg.to_json()).unwrap(), cfg);
        }
    }
}
