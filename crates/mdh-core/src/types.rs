//! Scalar and record types of the MDH formalism.
//!
//! The paper's directive declares buffers with a *basic type* `BSC_TYP`
//! (Listing 14): either a primitive scalar such as `fp32`, or a record type
//! such as PRL's `db18 = { 'values': fp64[8] }` (Listing 11). This module
//! defines those types plus the dynamically-typed [`Value`] used by the
//! reference evaluator.

use std::fmt;
use std::sync::Arc;

/// Primitive scalar kinds supported by the directive (`fp32`, `fp64`,
/// `int32`, `int64`, `bool`, `char` in the paper's listings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    F32,
    F64,
    I32,
    I64,
    Bool,
    Char,
}

impl ScalarKind {
    /// Size of one element in bytes (used by footprint/cost analyses).
    pub fn size_bytes(self) -> usize {
        match self {
            ScalarKind::F32 | ScalarKind::I32 => 4,
            ScalarKind::F64 | ScalarKind::I64 => 8,
            ScalarKind::Bool | ScalarKind::Char => 1,
        }
    }

    /// Whether the kind is a floating-point kind.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarKind::F32 | ScalarKind::F64)
    }

    /// The neutral "zero" value of this kind.
    pub fn zero(self) -> Value {
        match self {
            ScalarKind::F32 => Value::F32(0.0),
            ScalarKind::F64 => Value::F64(0.0),
            ScalarKind::I32 => Value::I32(0),
            ScalarKind::I64 => Value::I64(0),
            ScalarKind::Bool => Value::Bool(false),
            ScalarKind::Char => Value::Char(0),
        }
    }
}

impl fmt::Display for ScalarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarKind::F32 => "fp32",
            ScalarKind::F64 => "fp64",
            ScalarKind::I32 => "int32",
            ScalarKind::I64 => "int64",
            ScalarKind::Bool => "bool",
            ScalarKind::Char => "char",
        };
        f.write_str(s)
    }
}

/// Type of a record field: a plain scalar or a fixed-length array of scalars
/// (e.g. `fp64[8]` or `char[46]` in the PRL case study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    Scalar(ScalarKind),
    Array(ScalarKind, usize),
}

impl FieldType {
    pub fn kind(self) -> ScalarKind {
        match self {
            FieldType::Scalar(k) | FieldType::Array(k, _) => k,
        }
    }

    /// Number of primitive lanes in the field (1 for scalars).
    pub fn lanes(self) -> usize {
        match self {
            FieldType::Scalar(_) => 1,
            FieldType::Array(_, n) => n,
        }
    }

    pub fn size_bytes(self) -> usize {
        self.kind().size_bytes() * self.lanes()
    }
}

/// A flat (non-nested) record type, as used for PRL's probabilistic-record
/// buffers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecordType {
    pub name: String,
    pub fields: Vec<(String, FieldType)>,
}

impl RecordType {
    pub fn new(name: impl Into<String>, fields: Vec<(String, FieldType)>) -> Arc<Self> {
        Arc::new(RecordType {
            name: name.into(),
            fields,
        })
    }

    /// Index of a field by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| n == name)
    }

    pub fn field_type(&self, name: &str) -> Option<FieldType> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, t)| *t)
    }

    pub fn size_bytes(&self) -> usize {
        self.fields.iter().map(|(_, t)| t.size_bytes()).sum()
    }

    /// A zero-initialised record value.
    pub fn zero(&self) -> Value {
        Value::Record(
            self.fields
                .iter()
                .map(|(_, t)| match t {
                    FieldType::Scalar(k) => k.zero(),
                    FieldType::Array(k, n) => Value::Array(vec![k.zero(); *n]),
                })
                .collect(),
        )
    }
}

/// Basic type of a buffer element: a primitive scalar or a record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BasicType {
    Scalar(ScalarKind),
    Record(Arc<RecordType>),
}

impl BasicType {
    pub const F32: BasicType = BasicType::Scalar(ScalarKind::F32);
    pub const F64: BasicType = BasicType::Scalar(ScalarKind::F64);
    pub const I32: BasicType = BasicType::Scalar(ScalarKind::I32);
    pub const I64: BasicType = BasicType::Scalar(ScalarKind::I64);
    pub const BOOL: BasicType = BasicType::Scalar(ScalarKind::Bool);
    pub const CHAR: BasicType = BasicType::Scalar(ScalarKind::Char);

    pub fn size_bytes(&self) -> usize {
        match self {
            BasicType::Scalar(k) => k.size_bytes(),
            BasicType::Record(r) => r.size_bytes(),
        }
    }

    pub fn zero(&self) -> Value {
        match self {
            BasicType::Scalar(k) => k.zero(),
            BasicType::Record(r) => r.zero(),
        }
    }

    pub fn as_scalar(&self) -> Option<ScalarKind> {
        match self {
            BasicType::Scalar(k) => Some(*k),
            BasicType::Record(_) => None,
        }
    }

    /// Append the type as a structural key renders it: a record with its
    /// fields, since a record's name alone does not fix the loads its
    /// fields compile to.
    pub fn render(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = match self {
            BasicType::Scalar(k) => write!(out, "{k}"),
            BasicType::Record(r) => write!(out, "{}{:?}", r.name, r.fields),
        };
    }
}

impl fmt::Display for BasicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BasicType::Scalar(k) => write!(f, "{k}"),
            BasicType::Record(r) => write!(f, "{}", r.name),
        }
    }
}

impl From<ScalarKind> for BasicType {
    fn from(k: ScalarKind) -> Self {
        BasicType::Scalar(k)
    }
}

/// A dynamically-typed value. The reference evaluator and the custom
/// combine-operator interpreter operate on `Value`s; the performance
/// backends compile to primitive register banks instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    F32(f32),
    F64(f64),
    I32(i32),
    I64(i64),
    Bool(bool),
    Char(u8),
    /// Record value: one entry per field, in declaration order.
    Record(Vec<Value>),
    /// Fixed-length array (record field of array type).
    Array(Vec<Value>),
}

impl Value {
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::F32(_) => "fp32",
            Value::F64(_) => "fp64",
            Value::I32(_) => "int32",
            Value::I64(_) => "int64",
            Value::Bool(_) => "bool",
            Value::Char(_) => "char",
            Value::Record(_) => "record",
            Value::Array(_) => "array",
        }
    }

    /// Numeric cast to f64 (records/arrays are not numeric).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self {
            Value::F32(v) => *v as f64,
            Value::F64(v) => *v,
            Value::I32(v) => *v as f64,
            Value::I64(v) => *v as f64,
            Value::Bool(v) => *v as i64 as f64,
            Value::Char(v) => *v as f64,
            _ => return None,
        })
    }

    /// Numeric cast to i64.
    pub fn as_i64(&self) -> Option<i64> {
        Some(match self {
            Value::F32(v) => *v as i64,
            Value::F64(v) => *v as i64,
            Value::I32(v) => *v as i64,
            Value::I64(v) => *v,
            Value::Bool(v) => *v as i64,
            Value::Char(v) => *v as i64,
            _ => return None,
        })
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::I32(v) => Some(*v != 0),
            Value::I64(v) => Some(*v != 0),
            _ => None,
        }
    }

    pub fn is_float(&self) -> bool {
        matches!(self, Value::F32(_) | Value::F64(_))
    }

    /// Convert a numeric f64 into a value of the given scalar kind.
    pub fn from_f64(kind: ScalarKind, v: f64) -> Value {
        match kind {
            ScalarKind::F32 => Value::F32(v as f32),
            ScalarKind::F64 => Value::F64(v),
            ScalarKind::I32 => Value::I32(v as i32),
            ScalarKind::I64 => Value::I64(v as i64),
            ScalarKind::Bool => Value::Bool(v != 0.0),
            ScalarKind::Char => Value::Char(v as u8),
        }
    }

    /// Convert a numeric i64 into a value of the given scalar kind.
    pub fn from_i64(kind: ScalarKind, v: i64) -> Value {
        match kind {
            ScalarKind::F32 => Value::F32(v as f32),
            ScalarKind::F64 => Value::F64(v as f64),
            ScalarKind::I32 => Value::I32(v as i32),
            ScalarKind::I64 => Value::I64(v),
            ScalarKind::Bool => Value::Bool(v != 0),
            ScalarKind::Char => Value::Char(v as u8),
        }
    }

    /// Cast this value to the given scalar kind (numeric values only).
    pub fn cast(&self, kind: ScalarKind) -> Option<Value> {
        if self.is_float() {
            self.as_f64().map(|v| Value::from_f64(kind, v))
        } else {
            self.as_i64().map(|v| Value::from_i64(kind, v))
        }
    }

    /// Approximate equality for testing: floats compared with a relative
    /// tolerance, everything else exactly; records/arrays element-wise.
    pub fn approx_eq(&self, other: &Value, rel_tol: f64) -> bool {
        match (self, other) {
            (Value::F32(a), Value::F32(b)) => approx(*a as f64, *b as f64, rel_tol),
            (Value::F64(a), Value::F64(b)) => approx(*a, *b, rel_tol),
            (Value::Record(a), Value::Record(b)) | (Value::Array(a), Value::Array(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.approx_eq(y, rel_tol))
            }
            (a, b) => a == b,
        }
    }
}

fn approx(a: f64, b: f64, rel_tol: f64) -> bool {
    if a == b {
        return true;
    }
    if a.is_nan() && b.is_nan() {
        return true;
    }
    // mixed absolute/relative comparison: absolute near zero, relative
    // for large magnitudes
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= rel_tol * scale
}

/// A tuple of values, one per output access of a scalar function. Combine
/// operators (e.g. PRL's `prl_max`) operate on whole tuples, which is how
/// the paper expresses reductions that jointly update several output
/// buffers (Listing 11).
pub type Tuple = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(ScalarKind::F32.size_bytes(), 4);
        assert_eq!(ScalarKind::F64.size_bytes(), 8);
        assert_eq!(ScalarKind::Char.size_bytes(), 1);
    }

    #[test]
    fn record_type_lookup() {
        let r = RecordType::new(
            "db18",
            vec![
                ("values".into(), FieldType::Array(ScalarKind::F64, 8)),
                ("id".into(), FieldType::Scalar(ScalarKind::I64)),
            ],
        );
        assert_eq!(r.field_index("id"), Some(1));
        assert_eq!(
            r.field_type("values"),
            Some(FieldType::Array(ScalarKind::F64, 8))
        );
        assert_eq!(r.size_bytes(), 8 * 8 + 8);
    }

    #[test]
    fn record_zero_shape() {
        let r = RecordType::new(
            "rec",
            vec![
                ("a".into(), FieldType::Scalar(ScalarKind::F32)),
                ("b".into(), FieldType::Array(ScalarKind::Char, 3)),
            ],
        );
        match r.zero() {
            Value::Record(fields) => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0], Value::F32(0.0));
                assert_eq!(fields[1], Value::Array(vec![Value::Char(0); 3]));
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn value_casts() {
        assert_eq!(Value::F64(3.7).as_i64(), Some(3));
        assert_eq!(Value::I32(5).as_f64(), Some(5.0));
        assert_eq!(Value::I64(7).cast(ScalarKind::F32), Some(Value::F32(7.0)));
        assert_eq!(Value::Record(vec![]).as_f64(), None);
    }

    #[test]
    fn approx_eq_tolerance() {
        assert!(Value::F32(1.0).approx_eq(&Value::F32(1.0 + 1e-7), 1e-5));
        assert!(!Value::F32(1.0).approx_eq(&Value::F32(1.1), 1e-5));
        assert!(Value::F64(f64::NAN).approx_eq(&Value::F64(f64::NAN), 1e-5));
        assert!(
            Value::Record(vec![Value::I32(1)]).approx_eq(&Value::Record(vec![Value::I32(1)]), 0.0)
        );
    }

    #[test]
    fn display_types() {
        assert_eq!(BasicType::F32.to_string(), "fp32");
        let r = RecordType::new("db18", vec![]);
        assert_eq!(BasicType::Record(r).to_string(), "db18");
    }
}
