//! Deterministic input-data generators.
//!
//! All case studies use seeded generators so every run (and every system
//! under comparison) sees identical inputs. The PRL generator synthesises
//! EKR-style cancer-registry records (see DESIGN.md §4 for the
//! substitution rationale).

use mdh_core::buffer::Buffer;
use mdh_core::error::Result;
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded RNG for a named stream.
pub fn rng_for(tag: &str) -> StdRng {
    let mut seed: u64 = 0x5DCA_95D1_2025_0705;
    for b in tag.bytes() {
        seed = seed.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
    }
    StdRng::seed_from_u64(seed)
}

/// f32 buffer with values in `[-1, 1)`.
pub fn f32_buffer(name: &str, dims: Vec<usize>) -> Buffer {
    let mut rng = rng_for(name);
    let shape = Shape::new(dims);
    let data: Vec<f32> = (0..shape.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Buffer::from_f32(name, shape, data)
}

/// f64 buffer with values in `[-1, 1)`.
pub fn f64_buffer(name: &str, dims: Vec<usize>) -> Buffer {
    let mut rng = rng_for(name);
    let shape = Shape::new(dims);
    let data: Vec<f64> = (0..shape.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Buffer::from_f64(name, shape, data)
}

/// i64 buffer of consecutive identifiers.
pub fn id_buffer(name: &str, n: usize) -> Buffer {
    Buffer::from_i64(name, Shape::new(vec![n]), (0..n as i64).collect())
}

/// Fill a record buffer's element fields from per-field closures; `Err`
/// if a value does not fit the record type.
pub fn record_buffer(
    name: &str,
    ty: BasicType,
    n: usize,
    mut fill: impl FnMut(usize) -> Value,
) -> Result<Buffer> {
    let mut b = Buffer::zeros(name, ty, Shape::new(vec![n]));
    for i in 0..n {
        b.set(&[i], &fill(i))?;
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = f32_buffer("M", vec![8, 8]);
        let b = f32_buffer("M", vec![8, 8]);
        assert_eq!(a, b);
        let c = f32_buffer("other", vec![8, 8]);
        assert_ne!(a.as_f32(), c.as_f32());
    }

    #[test]
    fn values_in_range() {
        let b = f64_buffer("x", vec![1000]);
        assert!(b.as_f64().unwrap().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn id_buffer_consecutive() {
        let b = id_buffer("ids", 5);
        assert_eq!(b.as_i64().unwrap(), &[0, 1, 2, 3, 4]);
    }
}
