//! One bit per element: the training cache of the layers whose backward
//! only needs to know which side of a branch each element took.

use quadra_tensor::Tensor;

/// Per-element choice between two factors, stored as one bit per element,
/// eight to a byte, lowest bit first.
///
/// `Relu`, `LeakyRelu`, `Residual`'s final ReLU and `Dropout` cache one of
/// these instead of an f32 tensor of factors. [`BitMask::apply`] multiplies
/// by the factor the bit selects, so every product — including `-0.0`, NaN
/// and the infinities — is the one an f32 factor tensor would give.
pub(crate) struct BitMask {
    bits: Vec<u8>,
    len: usize,
}

impl BitMask {
    /// Bit `i` set where `on(x[i])`.
    pub(crate) fn pack(x: &[f32], on: impl Fn(f32) -> bool) -> Self {
        let byte = |c: &[f32]| c.iter().enumerate().fold(0u8, |b, (j, &v)| b | u8::from(on(v)) << j);
        let chunks = x.chunks_exact(8);
        let tail = chunks.remainder();
        let mut bits = Vec::with_capacity(x.len().div_ceil(8));
        bits.extend(chunks.map(byte));
        if !tail.is_empty() {
            bits.push(byte(tail));
        }
        BitMask { bits, len: x.len() }
    }

    /// `len` bits drawn in index order from `draw`.
    pub(crate) fn draw(len: usize, mut draw: impl FnMut() -> bool) -> Self {
        let mut bits = vec![0u8; len.div_ceil(8)];
        for (b, byte) in bits.iter_mut().enumerate() {
            for j in 0..(len - 8 * b).min(8) {
                *byte |= u8::from(draw()) << j;
            }
        }
        BitMask { bits, len }
    }

    /// `g[i] * (bit i ? on : off)`, shaped like `g`.
    pub(crate) fn apply(&self, g: &Tensor, on: f32, off: f32) -> Tensor {
        assert_eq!(g.numel(), self.len, "mask shape");
        // The eight factors of every byte value: a chunk of 8 is then a plain
        // product with one L1-resident row.
        let mut factors = [[0.0f32; 8]; 256];
        for (byte, row) in factors.iter_mut().enumerate() {
            for (j, f) in row.iter_mut().enumerate() {
                *f = if byte >> j & 1 == 1 { on } else { off };
            }
        }
        let chunks = g.as_slice().chunks_exact(8);
        let tail = chunks.remainder();
        let mut out = Vec::with_capacity(self.len);
        // Arrays from an exact-size iterator: one reservation, no capacity
        // check per chunk.
        out.extend(chunks.zip(&self.bits).flat_map(|(c, &byte)| -> [f32; 8] {
            let row = &factors[usize::from(byte)];
            std::array::from_fn(|j| c[j] * row[j])
        }));
        if let Some(&byte) = self.bits.get(self.len / 8) {
            out.extend(tail.iter().zip(&factors[usize::from(byte)]).map(|(v, f)| v * f));
        }
        Tensor::from_vec(out, g.shape()).expect("one factor per element")
    }

    /// Bytes the mask occupies: one bit per element, rounded up to a byte.
    pub(crate) fn nbytes(&self) -> usize {
        self.bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dropout, Layer, LeakyRelu, Relu, Residual, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 19 inputs (two whole mask bytes and a partial one): NaN, both
    /// infinities, both zeros, a subnormal of each sign, ordinary values.
    fn inputs() -> Tensor {
        let v = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            1.5,
            -2.5,
            3.0,
            -0.25,
            f32::MIN_POSITIVE,
            -f32::MAX,
            7.0,
            -7.0,
            0.5,
            -1.0,
            2.0,
            -3.0,
        ];
        Tensor::from_vec(v.to_vec(), &[1, 19]).unwrap()
    }

    /// Gradients for [`inputs`], mostly negative, with NaN, ±∞ and ±0.0.
    fn grads() -> Tensor {
        let g = [
            -1.0,
            -2.0,
            f32::NAN,
            -3.0,
            -4.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -5.0,
            0.0,
            -6.0,
            -7.0,
            -8.0,
            -0.5,
            -9.0,
            f32::NEG_INFINITY,
            -1.5,
            f32::NAN,
            -2.0,
        ];
        Tensor::from_vec(g.to_vec(), &[1, 19]).unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The layer against `g * factors` for the f32 factor tensor its mask
    /// replaced: output, input gradient and cache size, bit for bit.
    fn check(layer: &mut dyn Layer, y_ref: &Tensor, factors: &Tensor) {
        let x = inputs();
        let y = layer.forward(&x, true);
        assert_eq!(bits(&y), bits(y_ref), "{} forward", layer.layer_type());
        assert_eq!(layer.cached_bytes(), 3, "{}: 19 bits", layer.layer_type());
        let gin = layer.backward(&grads());
        let gin_ref = grads().mul(factors).unwrap();
        assert_eq!(bits(&gin), bits(&gin_ref), "{} backward", layer.layer_type());
    }

    #[test]
    fn relu_is_bitwise_the_f32_mask_product() {
        let x = inputs();
        let factors = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let mut relu = Relu::new();
        check(&mut relu, &x.relu(), &factors);
        // -2.5 is masked off, and its gradient -5.0 becomes -0.0, not 0.0.
        let _ = relu.forward(&x, true);
        assert_eq!(relu.backward(&grads()).as_slice()[8].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn leaky_relu_is_bitwise_the_f32_mask_product() {
        let x = inputs();
        let factors = x.map(|v| if v >= 0.0 { 1.0 } else { 0.2 });
        check(&mut LeakyRelu::new(0.2), &x.leaky_relu(0.2), &factors);
    }

    #[test]
    fn residual_final_relu_is_bitwise_the_f32_mask_product() {
        // An empty body and the identity shortcut: the block sums x + x, and
        // backward sends the masked gradient down both paths.
        let x = inputs();
        let sum = x.add(&x).unwrap();
        let factors = sum.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let mut block = Residual::new(Sequential::empty(), true);
        let y = block.forward(&x, true);
        assert_eq!(bits(&y), bits(&sum.relu()));
        assert_eq!(block.cached_bytes(), 3);
        let masked = grads().mul(&factors).unwrap();
        assert_eq!(bits(&block.backward(&grads())), bits(&masked.add(&masked).unwrap()));
    }

    #[test]
    fn dropout_is_bitwise_the_f32_mask_product() {
        // The same uniform draws as `Tensor::bernoulli`, scaled by 1/keep.
        for p in [0.5f32, 0.3] {
            let keep = 1.0 - p;
            let factors =
                Tensor::bernoulli(&[1, 19], keep, &mut StdRng::seed_from_u64(9)).mul_scalar(1.0 / keep);
            let y_ref = inputs().mul(&factors).unwrap();
            let mut dropout = Dropout::new(p, 9);
            check(&mut dropout, &y_ref, &factors);
            // The generator moves on as it did: the next draws match too.
            let mut rng = StdRng::seed_from_u64(9);
            let _ = Tensor::bernoulli(&[1, 19], keep, &mut rng);
            let next = Tensor::bernoulli(&[1, 19], keep, &mut rng).mul_scalar(1.0 / keep);
            let y = dropout.forward(&inputs(), true);
            assert_eq!(bits(&y), bits(&inputs().mul(&next).unwrap()));
        }
    }

    #[test]
    fn bits_round_trip_at_every_length() {
        for len in [0, 1, 7, 8, 9, 63, 64, 65] {
            let pattern = |i: usize| (i * 7 + 3) % 5 < 2;
            let mut draws = (0..len).map(pattern);
            let mask = BitMask::draw(len, || draws.next().unwrap());
            assert_eq!(mask.nbytes(), len.div_ceil(8));
            let g = Tensor::from_vec((0..len).map(|i| i as f32 + 1.0).collect(), &[len]).unwrap();
            let out = mask.apply(&g, 2.0, -1.0);
            for (i, &o) in out.as_slice().iter().enumerate() {
                assert_eq!(o, (i as f32 + 1.0) * if pattern(i) { 2.0 } else { -1.0 }, "len {len}, {i}");
            }
        }
    }
}
