//! Pooling layers: max pooling, average pooling and global average pooling.

use crate::layer::Layer;
use quadra_tensor::{PoolIndices, PoolParams, Tensor};

/// Max pooling over non-overlapping (or strided) square windows. Training
/// keeps one byte per output: where in its window the maximum was.
pub struct MaxPool2d {
    params: PoolParams,
    indices: Option<PoolIndices>,
}

impl MaxPool2d {
    /// Non-overlapping max pooling with window `kernel`.
    pub fn new(kernel: usize) -> Self {
        MaxPool2d { params: PoolParams::new(kernel), indices: None }
    }

    /// Max pooling with an explicit stride.
    pub fn with_stride(kernel: usize, stride: usize) -> Self {
        MaxPool2d { params: PoolParams::with_stride(kernel, stride), indices: None }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (y, idx) = x.maxpool2d(self.params).expect("maxpool shapes");
        self.indices = train.then_some(idx);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let idx = self.indices.take().expect("backward called before forward");
        Tensor::maxpool2d_backward(grad_out, &idx).expect("maxpool backward")
    }

    fn cached_bytes(&self) -> usize {
        self.indices.as_ref().map(PoolIndices::nbytes).unwrap_or(0)
    }

    fn clear_cache(&mut self) {
        self.indices = None;
    }

    fn layer_type(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Average pooling over square windows.
pub struct AvgPool2d {
    params: PoolParams,
    input_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Non-overlapping average pooling with window `kernel`.
    pub fn new(kernel: usize) -> Self {
        AvgPool2d { params: PoolParams::new(kernel), input_shape: None }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.input_shape = Some(x.shape().to_vec());
        x.avgpool2d(self.params).expect("avgpool shapes")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.input_shape.take().expect("backward called before forward");
        Tensor::avgpool2d_backward(grad_out, &shape, self.params).expect("avgpool backward")
    }

    fn layer_type(&self) -> &'static str {
        "avgpool2d"
    }
}

/// Global average pooling collapsing each channel map to a single value:
/// `[n, c, h, w] -> [n, c]`.
#[derive(Default)]
pub struct GlobalAvgPool {
    input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Create a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { input_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.input_shape = Some(x.shape().to_vec());
        x.global_avg_pool().expect("global avg pool shapes")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.input_shape.take().expect("backward called before forward");
        Tensor::global_avg_pool_backward(grad_out, &shape).expect("global avg pool backward")
    }

    fn layer_type(&self) -> &'static str {
        "global_avg_pool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_layer_roundtrip() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert!(pool.cached_bytes() > 0);
        let gin = pool.backward(&Tensor::ones_like(&y));
        assert_eq!(gin.shape(), x.shape());
        assert_eq!(gin.sum(), 4.0);
        assert_eq!(pool.layer_type(), "maxpool2d");
        let _ = pool.forward(&x, true);
        pool.clear_cache();
        assert_eq!(pool.cached_bytes(), 0);
        let mut strided = MaxPool2d::with_stride(2, 1);
        assert_eq!(strided.forward(&x, true).shape(), &[1, 1, 3, 3]);
    }

    #[test]
    fn avgpool_layer_roundtrip() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[2, 3, 2, 2]);
        assert!((y.mean() - 1.0).abs() < 1e-6);
        let gin = pool.backward(&Tensor::ones_like(&y));
        assert_eq!(gin.shape(), x.shape());
        assert!((gin.sum() - y.numel() as f32).abs() < 1e-4);
        assert_eq!(pool.layer_type(), "avgpool2d");
        assert_eq!(pool.params().len(), 0);
    }

    #[test]
    fn global_avg_pool_layer() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.as_slice(), &[1.5, 5.5]);
        let gin = pool.backward(&Tensor::ones_like(&y));
        assert_eq!(gin.shape(), x.shape());
        assert!((gin.sum() - 2.0).abs() < 1e-6);
        assert_eq!(pool.layer_type(), "global_avg_pool");
    }
}
