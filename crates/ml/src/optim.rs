//! Optimizers (§5.2.4: SGD, Adam, Adagrad, RMSProp) with two faces:
//! a local in-memory update (used by driver-side and pull/push baselines)
//! and a server-side DCV `zip` closure (used by PS2).

use std::sync::Arc;

use ps2_core::ZipSegs;
use ps2_ps::ZipMutFn;

/// Adam's decay rates (paper Table 4).
pub(crate) const ADAM_BETA1: f64 = 0.9;
pub(crate) const ADAM_BETA2: f64 = 0.999;
/// The denominator guard of Adam, Adagrad and RMSProp (Table 4's `ε`).
pub(crate) const EPSILON: f64 = 1e-8;
/// RMSProp's squared-gradient decay.
const RMSPROP_DECAY: f64 = 0.9;
/// FTRL-Proximal's per-coordinate rate `α`, its `β`, and the L1 / L2
/// strengths.
const FTRL_ALPHA: f64 = 0.3;
const FTRL_BETA: f64 = 1.0;
const FTRL_L1: f64 = 1e-3;
const FTRL_L2: f64 = 1e-4;

/// Element-wise optimizer update rule. The model layout is
/// `[w, aux..., g]`: the weight vector, `aux_rows()` auxiliary vectors, and
/// the accumulated gradient.
#[derive(Clone, Copy, Debug)]
pub enum Optimizer {
    /// Plain SGD — no auxiliary state; the update is just `w -= η·g`, which
    /// pull/push systems can do with a scaled push.
    Sgd,
    /// Adam (paper Equation 1).
    Adam,
    /// Adagrad: accumulate squared gradients.
    Adagrad,
    /// RMSProp: exponentially decayed squared gradients.
    RmsProp,
    /// FTRL-Proximal — the de-facto CTR optimizer: per-coordinate
    /// accumulators `z`, `n` and built-in L1 sparsification.
    Ftrl,
}

impl Optimizer {
    pub fn name(&self) -> &'static str {
        match self {
            Optimizer::Sgd => "SGD",
            Optimizer::Adam => "Adam",
            Optimizer::Adagrad => "Adagrad",
            Optimizer::RmsProp => "RMSProp",
            Optimizer::Ftrl => "FTRL",
        }
    }

    /// Number of auxiliary vectors between `w` and `g`.
    pub fn aux_rows(&self) -> u32 {
        match self {
            Optimizer::Sgd => 0,
            Optimizer::Adam => 2, // s (squared avg), v (grad avg)
            Optimizer::Adagrad => 1,
            Optimizer::RmsProp => 1,
            Optimizer::Ftrl => 2, // z (linear accumulator), n (squared)
        }
    }

    /// Approximate flops per element of one update, for compute charging.
    pub fn flops_per_elem(&self) -> u64 {
        match self {
            Optimizer::Sgd => 2,
            Optimizer::Adam => 14,
            Optimizer::Adagrad => 8,
            Optimizer::RmsProp => 9,
            Optimizer::Ftrl => 12,
        }
    }

    /// Apply one step in place. `segs` is `[w, aux..., g]` (gradient left
    /// untouched); `t` is the 1-based iteration (Adam bias correction).
    pub fn apply(&self, lr: f64, t: i32, w: &mut [f64], aux: &mut [&mut [f64]], g: &[f64]) {
        match *self {
            Optimizer::Sgd => {
                for (wi, gi) in w.iter_mut().zip(g) {
                    *wi -= lr * gi;
                }
            }
            Optimizer::Adam => {
                let [s, v] = aux else {
                    panic!("Adam needs 2 aux vectors")
                };
                let bc1 = 1.0 - ADAM_BETA1.powi(t);
                let bc2 = 1.0 - ADAM_BETA2.powi(t);
                for i in 0..w.len() {
                    s[i] = ADAM_BETA1 * s[i] + (1.0 - ADAM_BETA1) * g[i] * g[i];
                    v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g[i];
                    let s_hat = s[i] / bc1;
                    let v_hat = v[i] / bc2;
                    w[i] -= lr * v_hat / (s_hat.sqrt() + EPSILON);
                }
            }
            Optimizer::Adagrad => {
                let [acc] = aux else {
                    panic!("Adagrad needs 1 aux vector")
                };
                for i in 0..w.len() {
                    acc[i] += g[i] * g[i];
                    w[i] -= lr * g[i] / (acc[i].sqrt() + EPSILON);
                }
            }
            Optimizer::RmsProp => {
                let [acc] = aux else {
                    panic!("RMSProp needs 1 aux vector")
                };
                for i in 0..w.len() {
                    acc[i] = RMSPROP_DECAY * acc[i] + (1.0 - RMSPROP_DECAY) * g[i] * g[i];
                    w[i] -= lr * g[i] / (acc[i].sqrt() + EPSILON);
                }
            }
            Optimizer::Ftrl => {
                // `lr` scales the gradient (usually 1.0 for FTRL; `α` is the
                // per-coordinate rate).
                let [z, n] = aux else {
                    panic!("FTRL needs 2 aux vectors")
                };
                for i in 0..w.len() {
                    let gi = lr * g[i];
                    let sigma = ((n[i] + gi * gi).sqrt() - n[i].sqrt()) / FTRL_ALPHA;
                    z[i] += gi - sigma * w[i];
                    n[i] += gi * gi;
                    w[i] = if z[i].abs() <= FTRL_L1 {
                        0.0
                    } else {
                        -(z[i] - FTRL_L1 * z[i].signum())
                            / ((FTRL_BETA + n[i].sqrt()) / FTRL_ALPHA + FTRL_L2)
                    };
                }
            }
        }
    }

    /// The same update as a server-side zip over `[w, aux..., g]` segments
    /// (paper Figure 3 lines 21-26).
    pub fn zip_fn(&self, lr: f64, t: i32) -> ZipMutFn {
        let opt = *self;
        Arc::new(move |zs: &mut ZipSegs<'_>| {
            let n = zs.segs.len();
            debug_assert_eq!(n, 2 + opt.aux_rows() as usize);
            // Split [w | aux.. | g] without overlapping borrows.
            let (w, rest) = zs.segs.split_first_mut().expect("zip needs segments");
            let (g, aux) = rest.split_last_mut().expect("zip needs gradient row");
            opt.apply(lr, t, w, aux, g);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(opt: Optimizer, steps: usize) -> Vec<f64> {
        let mut w = vec![1.0, -2.0, 0.5];
        let mut aux_store: Vec<Vec<f64>> = (0..opt.aux_rows()).map(|_| vec![0.0; 3]).collect();
        let g = vec![0.5, -1.0, 0.0];
        for t in 1..=steps {
            let mut aux: Vec<&mut [f64]> = aux_store.iter_mut().map(|v| v.as_mut_slice()).collect();
            opt.apply(0.1, t as i32, &mut w, &mut aux, &g);
        }
        w
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let w = step(Optimizer::Sgd, 1);
        assert!((w[0] - 0.95).abs() < 1e-12);
        assert!((w[1] + 1.9).abs() < 1e-12);
        assert_eq!(w[2], 0.5);
    }

    #[test]
    fn adam_first_step_is_signed_learning_rate() {
        // With bias correction, Adam's first step is ~lr * sign(g).
        let w = step(Optimizer::Adam, 1);
        assert!((w[0] - (1.0 - 0.1)).abs() < 1e-6);
        assert!((w[1] - (-2.0 + 0.1)).abs() < 1e-6);
        assert_eq!(w[2], 0.5, "zero gradient must not move the weight");
    }

    #[test]
    fn adagrad_steps_shrink_over_time() {
        let opt = Optimizer::Adagrad;
        let w1 = step(opt, 1);
        let w5 = step(opt, 5);
        let first_step = (1.0 - w1[0]).abs();
        let avg_later = (w1[0] - w5[0]).abs() / 4.0;
        assert!(avg_later < first_step);
    }

    #[test]
    fn rmsprop_converges_on_constant_gradient() {
        let w = step(Optimizer::RmsProp, 20);
        assert!(w[0] < 1.0 && w[1] > -2.0);
    }

    #[test]
    fn ftrl_sparsifies_and_learns() {
        let opt = Optimizer::Ftrl;
        let mut w = vec![0.0; 3];
        let mut z = vec![0.0; 3];
        let mut n = vec![0.0; 3];
        // Coordinate 0 sees a persistent gradient, 1 a noise gradient whose
        // 20-step sum stays below `FTRL_L1`, 2 none.
        let noise = FTRL_L1 / 100.0;
        for _ in 0..20 {
            let g = vec![0.5, noise, 0.0];
            let mut aux: Vec<&mut [f64]> = vec![&mut z, &mut n];
            opt.apply(1.0, 1, &mut w, &mut aux, &g);
        }
        assert!(
            w[0] < -0.1,
            "persistent gradient moves the weight: {}",
            w[0]
        );
        assert_eq!(w[1], 0.0, "L1 zeroes out the noise coordinate");
        assert_eq!(w[2], 0.0, "untouched coordinate stays zero");
    }

    #[test]
    fn zip_fn_matches_apply() {
        let opt = Optimizer::Adam;
        // Local reference.
        let mut w_ref = vec![1.0; 4];
        let mut s_ref = vec![0.0; 4];
        let mut v_ref = vec![0.0; 4];
        let g = vec![0.3, -0.2, 0.0, 1.0];
        {
            let mut aux: Vec<&mut [f64]> = vec![&mut s_ref, &mut v_ref];
            opt.apply(0.05, 1, &mut w_ref, &mut aux, &g);
        }
        // Zip path.
        let f = opt.zip_fn(0.05, 1);
        let mut w2 = vec![1.0; 4];
        let mut s2 = vec![0.0; 4];
        let mut v2 = vec![0.0; 4];
        let mut g2 = g.clone();
        let mut zs = ZipSegs {
            segs: vec![&mut w2, &mut s2, &mut v2, &mut g2],
            lo: 0,
        };
        f(&mut zs);
        assert_eq!(w_ref, w2);
        assert_eq!(s_ref, s2);
        assert_eq!(v_ref, v2);
    }
}
