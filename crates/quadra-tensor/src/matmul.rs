//! Matrix multiplication: 2-D GEMM (blocked, see [`crate::gemm`]) and batched
//! matmul, plus the transpose-free `matmul_nt` / `matmul_tn` entry points the
//! layer backward passes use.

use crate::error::{Result, TensorError};
use crate::fork::for_each_range;
use crate::gemm::{gemm, gemm_into, gemm_nt, gemm_tn};
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] · [k, n] -> [m, n]`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.ndim() != 2 || other.ndim() != 2 {
            return Err(TensorError::IncompatibleShapes {
                op: "matmul",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::IncompatibleShapes {
                op: "matmul",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let c = gemm(self.as_slice(), other.as_slice(), m, k, n);
        Tensor::from_vec(c, &[m, n])
    }

    /// Matrix product with a transposed right operand: `[m, k] · [n, k]ᵀ -> [m, n]`.
    ///
    /// Equivalent to `self.matmul(&other.transpose()?)` but without
    /// materialising the transposed copy — the kernel reads `other` with
    /// swapped strides while packing.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        if self.ndim() != 2 || other.ndim() != 2 || self.shape()[1] != other.shape()[1] {
            return Err(TensorError::IncompatibleShapes {
                op: "matmul_nt",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let n = other.shape()[0];
        let c = gemm_nt(self.as_slice(), other.as_slice(), m, k, n);
        Tensor::from_vec(c, &[m, n])
    }

    /// Matrix product with a transposed left operand: `[k, m]ᵀ · [k, n] -> [m, n]`.
    ///
    /// Equivalent to `self.transpose()?.matmul(other)` but transpose-free.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        if self.ndim() != 2 || other.ndim() != 2 || self.shape()[0] != other.shape()[0] {
            return Err(TensorError::IncompatibleShapes {
                op: "matmul_tn",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let n = other.shape()[1];
        let c = gemm_tn(self.as_slice(), other.as_slice(), m, k, n);
        Tensor::from_vec(c, &[m, n])
    }

    /// Batched matrix product of two rank-3 tensors: `[b, m, k] · [b, k, n] -> [b, m, n]`.
    pub fn bmm(&self, other: &Tensor) -> Result<Tensor> {
        if self.ndim() != 3 || other.ndim() != 3 {
            return Err(TensorError::IncompatibleShapes {
                op: "bmm",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, k2, n) = (other.shape()[0], other.shape()[1], other.shape()[2]);
        if b != b2 || k != k2 {
            return Err(TensorError::IncompatibleShapes {
                op: "bmm",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let a = self.as_slice();
        let bb = other.as_slice();
        let mut out = vec![0.0f32; b * m * n];
        if m * n > 0 {
            // Batches are independent; whether they fork is the region's call.
            for_each_range(&mut out, m * n, b * m * k * n, |first, range| {
                for (i, chunk) in (first..).zip(range.chunks_mut(m * n)) {
                    gemm_into(
                        chunk,
                        &a[i * m * k..(i + 1) * m * k],
                        &bb[i * k * n..(i + 1) * k * n],
                        m,
                        k,
                        n,
                    );
                }
            });
        }
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Matrix–vector product: `[m, k] · [k] -> [m]`.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        if self.ndim() != 2 || v.ndim() != 1 || self.shape()[1] != v.shape()[0] {
            return Err(TensorError::IncompatibleShapes {
                op: "matvec",
                lhs: self.shape().to_vec(),
                rhs: v.shape().to_vec(),
            });
        }
        let m = self.shape()[0];
        let k = self.shape()[1];
        let a = self.as_slice();
        let x = v.as_slice();
        let data: Vec<f32> =
            (0..m).map(|i| a[i * k..(i + 1) * k].iter().zip(x.iter()).map(|(p, q)| p * q).sum()).collect();
        Tensor::from_vec(data, &[m])
    }

    /// Dot product of two rank-1 tensors.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.ndim() != 1 || other.ndim() != 1 || self.numel() != other.numel() {
            return Err(TensorError::IncompatibleShapes {
                op: "dot",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        Ok(self.as_slice().iter().zip(other.as_slice()).map(|(a, b)| a * b).sum())
    }

    /// Outer product of two rank-1 tensors: `[m] ⊗ [n] -> [m, n]`.
    pub fn outer(&self, other: &Tensor) -> Result<Tensor> {
        if self.ndim() != 1 || other.ndim() != 1 {
            return Err(TensorError::IncompatibleShapes {
                op: "outer",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let m = self.numel();
        let n = other.numel();
        let a = self.as_slice();
        let b = other.as_slice();
        let mut data = Vec::with_capacity(m * n);
        for &ai in a {
            for &bj in b {
                data.push(ai * bj);
            }
        }
        Tensor::from_vec(data, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    /// Naive reference matmul for cross-checking the optimised kernel.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(&[i, p]) * b.at(&[p, j]);
                }
                out.set(&[i, j], s);
            }
        }
        out
    }

    #[test]
    fn small_matmul_exact() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap().as_slice(), a.as_slice());
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap().as_slice(), a.as_slice());
    }

    #[test]
    fn matches_naive_on_random_large() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&[33, 17], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[17, 29], 0.0, 1.0, &mut rng);
        let fast = a.matmul(&b).unwrap();
        let slow = naive_matmul(&a, &b);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
        assert!(Tensor::zeros(&[2, 2, 2]).matmul(&a).is_err());
    }

    #[test]
    fn bmm_batches_independently() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn(&[4, 5, 6], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[4, 6, 3], 0.0, 1.0, &mut rng);
        let c = a.bmm(&b).unwrap();
        assert_eq!(c.shape(), &[4, 5, 3]);
        // check batch 2 against 2-D matmul of the slices
        let a2 = Tensor::from_vec(a.as_slice()[2 * 30..3 * 30].to_vec(), &[5, 6]).unwrap();
        let b2 = Tensor::from_vec(b.as_slice()[2 * 18..3 * 18].to_vec(), &[6, 3]).unwrap();
        let c2 = Tensor::from_vec(c.as_slice()[2 * 15..3 * 15].to_vec(), &[5, 3]).unwrap();
        assert!(c2.allclose(&a2.matmul(&b2).unwrap(), 1e-5));
        assert!(a.bmm(&Tensor::zeros(&[3, 6, 3])).is_err());
        assert!(a.bmm(&Tensor::zeros(&[4, 7, 3])).is_err());
        assert!(a.bmm(&Tensor::zeros(&[4, 6])).is_err());
    }

    #[test]
    fn matvec_dot_outer() {
        let m = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let v = t(&[1.0, -1.0], &[2]);
        assert_eq!(m.matvec(&v).unwrap().as_slice(), &[-1.0, -1.0]);
        assert!(m.matvec(&Tensor::zeros(&[3])).is_err());
        assert_eq!(v.dot(&v).unwrap(), 2.0);
        assert!(v.dot(&Tensor::zeros(&[3])).is_err());
        let o = v.outer(&t(&[2.0, 3.0], &[2])).unwrap();
        assert_eq!(o.as_slice(), &[2.0, 3.0, -2.0, -3.0]);
        assert!(m.outer(&v).is_err());
    }

    #[test]
    fn matmul_nt_tn_match_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Tensor::randn(&[9, 13], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[11, 13], 0.0, 1.0, &mut rng);
        let nt = a.matmul_nt(&b).unwrap();
        assert_eq!(nt.shape(), &[9, 11]);
        assert!(nt.allclose(&a.matmul(&b.transpose().unwrap()).unwrap(), 1e-4));
        assert!(a.matmul_nt(&Tensor::zeros(&[11, 12])).is_err());
        assert!(a.matmul_nt(&Tensor::zeros(&[13])).is_err());

        let at = Tensor::randn(&[13, 9], 0.0, 1.0, &mut rng);
        let c = Tensor::randn(&[13, 7], 0.0, 1.0, &mut rng);
        let tn = at.matmul_tn(&c).unwrap();
        assert_eq!(tn.shape(), &[9, 7]);
        assert!(tn.allclose(&at.transpose().unwrap().matmul(&c).unwrap(), 1e-4));
        assert!(at.matmul_tn(&Tensor::zeros(&[12, 7])).is_err());
        assert!(at.matmul_tn(&Tensor::zeros(&[13])).is_err());
    }

    #[test]
    fn matmul_propagates_non_finite_values() {
        // Regression: the old kernel skipped `a == 0.0` rows, silently turning
        // 0·inf and 0·NaN into 0.0 instead of NaN as IEEE-754 requires.
        let a = t(&[0.0, 0.0], &[1, 2]);
        let b = t(&[f32::INFINITY, f32::NAN, 1.0, 2.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert!(c.as_slice()[0].is_nan(), "0·inf must yield NaN, got {}", c.as_slice()[0]);
        assert!(c.as_slice()[1].is_nan(), "0·NaN must yield NaN, got {}", c.as_slice()[1]);
        // And through bmm as well.
        let ab = a.reshape(&[1, 1, 2]).unwrap();
        let bb = b.reshape(&[1, 2, 2]).unwrap();
        assert!(ab.bmm(&bb).unwrap().has_non_finite());
    }

    #[test]
    fn gemm_zero_dimensions() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[0, 2]);
        assert_eq!(c.numel(), 0);
        // bmm with an empty row dimension must not panic either.
        let e = Tensor::zeros(&[2, 0, 3]).bmm(&Tensor::zeros(&[2, 3, 4])).unwrap();
        assert_eq!(e.shape(), &[2, 0, 4]);
    }
}
