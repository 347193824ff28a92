//! Flat-parameter utilities: averaging (FedAvg), distances, byte sizing.
//!
//! FL-GAN's server averages the G and D parameters of all workers each
//! round; these helpers implement that, plus the byte accounting used by
//! the communication-cost experiments (Tables III/IV, Figure 2).

/// Elementwise mean of several equally-long parameter vectors (FedAvg),
/// summed in input order then scaled by `1/n`. Takes owned vectors or
/// borrowed slices alike, so averaging a pair clones nothing.
///
/// # Panics
/// Panics on an empty input or mismatched lengths.
pub fn average<V: AsRef<[f32]>>(vecs: &[V]) -> Vec<f32> {
    assert!(!vecs.is_empty(), "average of zero parameter vectors");
    let n = vecs[0].as_ref().len();
    let mut out = vec![0.0f32; n];
    for v in vecs {
        let v = v.as_ref();
        assert_eq!(v.len(), n, "parameter vector length mismatch");
        for (o, &x) in out.iter_mut().zip(v) {
            *o += x;
        }
    }
    let inv = 1.0 / vecs.len() as f32;
    for o in &mut out {
        *o *= inv;
    }
    out
}

/// Euclidean distance between two parameter vectors.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_distance length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

/// Wire size in bytes of a parameter vector (f32 elements).
pub fn param_bytes(num_params: usize) -> u64 {
    num_params as u64 * 4
}

/// Wire size in bytes of a data batch of `b` objects of `d` f32 features —
/// the paper's `b·d` terms in Table III.
pub fn batch_bytes(batch: usize, object_size: usize) -> u64 {
    (batch * object_size) as u64 * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_is_elementwise_mean() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![3.0, 4.0, 5.0];
        assert_eq!(average(&[a, b]), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn average_of_one_is_identity() {
        let a = vec![1.5, -2.5];
        assert_eq!(average(std::slice::from_ref(&a)), a);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn average_rejects_ragged_input() {
        average(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn l2_distance_basics() {
        assert_eq!(l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn byte_sizing() {
        assert_eq!(param_bytes(1000), 4000);
        // CIFAR10 object: 32*32*3 floats = 12288 bytes; batch of 10.
        assert_eq!(batch_bytes(10, 32 * 32 * 3), 10 * 3072 * 4);
    }
}
