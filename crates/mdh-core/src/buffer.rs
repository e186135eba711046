//! Multi-dimensional buffers.
//!
//! Buffers hold the inputs and outputs declared in the directive's
//! `inp(...)` / `out(...)` clauses. Primitive buffers store their elements
//! contiguously; record buffers (as used by PRL) are stored column-wise
//! (structure-of-arrays), which is both what a real code generator would
//! emit for GPU-friendly layouts and what our register-VM backend loads
//! from.

use crate::combine::{fold_row, BuiltinReduce, Part, Row};
use crate::error::MdhError;
use crate::shape::Shape;
use crate::types::{BasicType, FieldType, RecordType, ScalarKind, Value};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};

/// Typed storage for the elements of a buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferData {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
    Char(Vec<u8>),
    /// Column-wise record storage: one column per field; array fields store
    /// `lanes` consecutive primitive values per element.
    Record(RecordStorage),
}

impl BufferData {
    /// `n` freshly allocated zero elements of `kind`.
    fn fresh(kind: ScalarKind, n: usize) -> BufferData {
        match kind {
            ScalarKind::F32 => BufferData::F32(vec![0.0; n]),
            ScalarKind::F64 => BufferData::F64(vec![0.0; n]),
            ScalarKind::I32 => BufferData::I32(vec![0; n]),
            ScalarKind::I64 => BufferData::I64(vec![0; n]),
            ScalarKind::Bool => BufferData::Bool(vec![false; n]),
            ScalarKind::Char => BufferData::Char(vec![0; n]),
        }
    }

    /// Element kind and count of scalar storage; `None` for records.
    fn scalar_len(&self) -> Option<(ScalarKind, usize)> {
        Some(match self {
            BufferData::F32(v) => (ScalarKind::F32, v.len()),
            BufferData::F64(v) => (ScalarKind::F64, v.len()),
            BufferData::I32(v) => (ScalarKind::I32, v.len()),
            BufferData::I64(v) => (ScalarKind::I64, v.len()),
            BufferData::Bool(v) => (ScalarKind::Bool, v.len()),
            BufferData::Char(v) => (ScalarKind::Char, v.len()),
            BufferData::Record(_) => return None,
        })
    }

    /// [`fold_row`] on this storage, the partial's of the same kind:
    /// `false`, having done nothing, for record storage or a partial of
    /// another kind.
    pub fn fold_row(
        &mut self,
        part: &Part<BufferData>,
        row: &Row,
        op: Option<BuiltinReduce>,
    ) -> bool {
        macro_rules! kinds {
            ($($k:ident),*) => {
                match self {
                    $(BufferData::$k(acc) => match part.map(|p| match p {
                        BufferData::$k(v) => Some(&v[..]),
                        _ => None,
                    }) {
                        Some(part) => fold_row(acc, &part, row, op),
                        None => return false,
                    },)*
                    BufferData::Record(_) => return false,
                }
            };
        }
        kinds!(F32, F64, I32, I64, Bool, Char);
        true
    }

    fn fill_zero(&mut self) {
        match self {
            BufferData::F32(v) => v.fill(0.0),
            BufferData::F64(v) => v.fill(0.0),
            BufferData::I32(v) => v.fill(0),
            BufferData::I64(v) => v.fill(0),
            BufferData::Bool(v) => v.fill(false),
            BufferData::Char(v) => v.fill(0),
            BufferData::Record(_) => {}
        }
    }
}

/// Scalar blocks of at least this many bytes go through [`HostBlocks`].
/// From 32 MiB glibc maps every block afresh and unmaps it on `free`;
/// below that, its heap trimming hands most of a freed block of half a
/// megabyte or more back to the kernel when one thread allocates it and
/// another frees it, as rayon workers and pool shards do. Either way the
/// next launch pays a page fault per page on first touch. The recurring
/// blocks measured re-faulting (`scan_256k`'s four 512 KiB pool shard
/// boxes, CCSD(T) Medium's 3.4 MiB output) sit at or above this floor;
/// smaller blocks the allocator reuses.
pub const HOST_BLOCK_MIN_BYTES: usize = 512 << 10;

/// The most bytes a [`HostBlocks`] list holds: room for a few of the
/// largest outputs, and a bound on the resident memory the list adds.
const HOST_HELD_MAX_BYTES: usize = 256 << 20;

/// Bytes of `n` elements of `kind` when the block is large enough to recycle.
fn recycled_bytes(kind: ScalarKind, n: usize) -> Option<usize> {
    let bytes = n.saturating_mul(kind.size_bytes());
    (bytes >= HOST_BLOCK_MIN_BYTES).then_some(bytes)
}

/// A bounded free list of large scalar storage: [`Buffer::zeros`] and
/// [`Buffer::for_overwrite`] take from it and `Buffer`'s `Drop` gives
/// back, whichever thread drops it, so a warm request reuses the last
/// one's output pages instead of mapping and faulting in fresh ones.
///
/// * Only scalar blocks of at least [`HOST_BLOCK_MIN_BYTES`] are held.
/// * A block is reused only for the same element kind and length, the one
///   reuse that needs neither a reallocation nor a reinterpretation.
/// * A block reused for [`Buffer::zeros`] is zero-filled on take, outside
///   the lock, by the thread that wants it: a block never taken again is
///   never written. One reused for [`Buffer::for_overwrite`] keeps the
///   values it was given back with.
/// * The list holds only what it lent: it counts, per kind and length,
///   the blocks it handed out and has not had back, and a give-back is
///   held only while that count is above zero. Storage it never lent (a
///   `Buffer::clone` copy, a `from_f64` vector) is freed.
/// * At most `HOST_HELD_MAX_BYTES` (256 MiB) are held: a give-back past
///   that frees the oldest held blocks first, and one larger than the cap
///   is freed itself.
#[derive(Default)]
pub struct HostBlocks {
    held: Mutex<Held>,
}

#[derive(Default)]
struct Held {
    /// Oldest first.
    blocks: Vec<BufferData>,
    /// Blocks handed out and not had back, per (kind, length); a length
    /// leaves when its count is back at 0.
    lent: Vec<((ScalarKind, usize), u64)>,
    reuses: u64,
    fresh: u64,
}

fn block_bytes(b: &BufferData) -> usize {
    b.scalar_len().map_or(0, |(kind, n)| n * kind.size_bytes())
}

impl Held {
    fn bytes(&self) -> usize {
        self.blocks.iter().map(block_bytes).sum()
    }

    fn lend(&mut self, key: (ScalarKind, usize)) {
        match self.lent.iter_mut().find(|(k, _)| *k == key) {
            Some((_, out)) => *out += 1,
            None => self.lent.push((key, 1)),
        }
    }

    /// Whether a block of `key` was out, counting it back in if so.
    fn had_lent(&mut self, key: (ScalarKind, usize)) -> bool {
        let Some(i) = self.lent.iter().position(|(k, _)| *k == key) else {
            return false;
        };
        self.lent[i].1 -= 1;
        if self.lent[i].1 == 0 {
            self.lent.swap_remove(i);
        }
        true
    }
}

/// The process-wide list behind [`Buffer::zeros`].
pub fn host_blocks() -> &'static HostBlocks {
    static HOST: LazyLock<HostBlocks> = LazyLock::new(HostBlocks::default);
    &HOST
}

impl HostBlocks {
    /// Every mutation of `Held` completes under the lock, so a panic
    /// elsewhere while it was held leaves nothing half-applied: recover the
    /// guard rather than fail every later allocation.
    fn lock(&self) -> MutexGuard<'_, Held> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(reuses, fresh, bytes_held)`: blocks handed out again and blocks
    /// large enough to recycle that had to be allocated (both monotone),
    /// and the bytes held now (a gauge).
    pub fn counters(&self) -> (u64, u64, u64) {
        let held = self.lock();
        (held.reuses, held.fresh, held.bytes() as u64)
    }

    /// `n` elements of `kind`: the newest held block of that kind and
    /// length when there is one, zero-filled if `zero`, and fresh zeroed
    /// memory otherwise.
    fn take(&self, kind: ScalarKind, n: usize, zero: bool) -> BufferData {
        if recycled_bytes(kind, n).is_none() {
            return BufferData::fresh(kind, n);
        }
        let mut held = self.lock();
        held.lend((kind, n));
        let hit = (held.blocks.iter()).rposition(|b| b.scalar_len() == Some((kind, n)));
        let Some(i) = hit else {
            held.fresh += 1;
            drop(held);
            return BufferData::fresh(kind, n);
        };
        let mut block = held.blocks.remove(i);
        held.reuses += 1;
        drop(held);
        if zero {
            block.fill_zero();
        }
        block
    }

    /// Hold `data` for a later take if the list lent a block of its kind
    /// and length and it fits under the cap, freeing the oldest held
    /// blocks to make room. Whatever is not held is freed after the guard.
    fn give_back(&self, data: BufferData) {
        let Some((kind, n)) = data.scalar_len() else {
            return;
        };
        let Some(bytes) = recycled_bytes(kind, n) else {
            return;
        };
        let mut held = self.lock();
        if !held.had_lent((kind, n)) || bytes > HOST_HELD_MAX_BYTES {
            return;
        }
        let (mut total, mut oldest) = (held.bytes() + bytes, 0);
        while total > HOST_HELD_MAX_BYTES {
            total -= block_bytes(&held.blocks[oldest]);
            oldest += 1;
        }
        let freed: Vec<_> = held.blocks.drain(..oldest).collect();
        held.blocks.push(data);
        drop(held);
        drop(freed);
    }
}

/// Structure-of-arrays storage for record buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordStorage {
    pub record: Arc<RecordType>,
    pub columns: Vec<Column>,
}

/// One field column of a record buffer. Length = `n_elems * field.lanes()`.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
    Char(Vec<u8>),
}

impl Column {
    fn zeros(kind: ScalarKind, n: usize) -> Column {
        match kind {
            ScalarKind::F32 => Column::F32(vec![0.0; n]),
            ScalarKind::F64 => Column::F64(vec![0.0; n]),
            ScalarKind::I32 => Column::I32(vec![0; n]),
            ScalarKind::I64 => Column::I64(vec![0; n]),
            ScalarKind::Bool => Column::Bool(vec![false; n]),
            ScalarKind::Char => Column::Char(vec![0; n]),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::F32(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::I32(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Char(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::F32(v) => Value::F32(v[i]),
            Column::F64(v) => Value::F64(v[i]),
            Column::I32(v) => Value::I32(v[i]),
            Column::I64(v) => Value::I64(v[i]),
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Char(v) => Value::Char(v[i]),
        }
    }

    pub fn set(&mut self, i: usize, val: &Value) -> Result<(), MdhError> {
        match (self, val) {
            (Column::F32(v), Value::F32(x)) => v[i] = *x,
            (Column::F64(v), Value::F64(x)) => v[i] = *x,
            (Column::I32(v), Value::I32(x)) => v[i] = *x,
            (Column::I64(v), Value::I64(x)) => v[i] = *x,
            (Column::Bool(v), Value::Bool(x)) => v[i] = *x,
            (Column::Char(v), Value::Char(x)) => v[i] = *x,
            (col, val) => {
                // allow numeric coercion
                let kind = match col {
                    Column::F32(_) => ScalarKind::F32,
                    Column::F64(_) => ScalarKind::F64,
                    Column::I32(_) => ScalarKind::I32,
                    Column::I64(_) => ScalarKind::I64,
                    Column::Bool(_) => ScalarKind::Bool,
                    Column::Char(_) => ScalarKind::Char,
                };
                let coerced = val.cast(kind).ok_or_else(|| {
                    MdhError::Type(format!(
                        "cannot store {} into {kind} column",
                        val.kind_name()
                    ))
                })?;
                return col.set(i, &coerced);
            }
        }
        Ok(())
    }

    /// Read i64 without allocation (integral columns).
    pub fn get_i64(&self, i: usize) -> i64 {
        match self {
            Column::F32(v) => v[i] as i64,
            Column::F64(v) => v[i] as i64,
            Column::I32(v) => v[i] as i64,
            Column::I64(v) => v[i],
            Column::Bool(v) => v[i] as i64,
            Column::Char(v) => v[i] as i64,
        }
    }

    /// Read f64 without allocation.
    pub fn get_f64(&self, i: usize) -> f64 {
        match self {
            Column::F32(v) => v[i] as f64,
            Column::F64(v) => v[i],
            Column::I32(v) => v[i] as f64,
            Column::I64(v) => v[i] as f64,
            Column::Bool(v) => v[i] as i64 as f64,
            Column::Char(v) => v[i] as f64,
        }
    }
}

/// A multi-dimensional buffer with a basic element type.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    pub name: String,
    pub ty: BasicType,
    pub shape: Shape,
    pub data: BufferData,
}

impl Buffer {
    /// Allocate a zero-initialised buffer; large scalar storage comes from
    /// [`host_blocks`].
    pub fn zeros(name: impl Into<String>, ty: BasicType, shape: Shape) -> Buffer {
        Buffer::taken(name, ty, shape, true)
    }

    /// A buffer the caller writes in full before anyone reads it: large
    /// scalar storage may be a recycled [`host_blocks`] block that still
    /// holds an earlier output of this process, handed back without its
    /// zero fill. Freshly allocated memory is zeroed as in
    /// [`Buffer::zeros`]. The one rule: call it only for an output whose
    /// every element is provably stored — the fast map kernel and the
    /// reduction-free contraction, when an injective output access covers
    /// as many points as the buffer has elements.
    pub fn for_overwrite(name: impl Into<String>, ty: BasicType, shape: Shape) -> Buffer {
        Buffer::taken(name, ty, shape, false)
    }

    fn taken(name: impl Into<String>, ty: BasicType, shape: Shape, zero: bool) -> Buffer {
        let n = shape.len();
        let data = match &ty {
            BasicType::Scalar(kind) => host_blocks().take(*kind, n, zero),
            BasicType::Record(rec) => BufferData::Record(RecordStorage {
                record: rec.clone(),
                columns: rec
                    .fields
                    .iter()
                    .map(|(_, ft)| Column::zeros(ft.kind(), n * ft.lanes()))
                    .collect(),
            }),
        };
        Buffer {
            name: name.into(),
            ty,
            shape,
            data,
        }
    }

    /// Build an f32 buffer from existing data.
    pub fn from_f32(name: impl Into<String>, shape: Shape, data: Vec<f32>) -> Buffer {
        assert_eq!(shape.len(), data.len(), "shape/data length mismatch");
        Buffer {
            name: name.into(),
            ty: BasicType::F32,
            shape,
            data: BufferData::F32(data),
        }
    }

    /// Build an f64 buffer from existing data.
    pub fn from_f64(name: impl Into<String>, shape: Shape, data: Vec<f64>) -> Buffer {
        assert_eq!(shape.len(), data.len(), "shape/data length mismatch");
        Buffer {
            name: name.into(),
            ty: BasicType::F64,
            shape,
            data: BufferData::F64(data),
        }
    }

    /// Build an i64 buffer from existing data.
    pub fn from_i64(name: impl Into<String>, shape: Shape, data: Vec<i64>) -> Buffer {
        assert_eq!(shape.len(), data.len(), "shape/data length mismatch");
        Buffer {
            name: name.into(),
            ty: BasicType::I64,
            shape,
            data: BufferData::I64(data),
        }
    }

    pub fn len(&self) -> usize {
        self.shape.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn size_bytes(&self) -> usize {
        self.len() * self.ty.size_bytes()
    }

    /// Read element at a multi-index as a dynamic value.
    pub fn get(&self, idx: &[usize]) -> Value {
        let flat = self.shape.linearize(idx);
        self.get_flat(flat)
    }

    /// Read element at a flat index.
    pub fn get_flat(&self, flat: usize) -> Value {
        match &self.data {
            BufferData::F32(v) => Value::F32(v[flat]),
            BufferData::F64(v) => Value::F64(v[flat]),
            BufferData::I32(v) => Value::I32(v[flat]),
            BufferData::I64(v) => Value::I64(v[flat]),
            BufferData::Bool(v) => Value::Bool(v[flat]),
            BufferData::Char(v) => Value::Char(v[flat]),
            BufferData::Record(rs) => Value::Record(
                rs.record
                    .fields
                    .iter()
                    .zip(&rs.columns)
                    .map(|((_, ft), col)| match ft {
                        FieldType::Scalar(_) => col.get(flat),
                        FieldType::Array(_, lanes) => {
                            Value::Array((0..*lanes).map(|l| col.get(flat * lanes + l)).collect())
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// Write element at a multi-index.
    pub fn set(&mut self, idx: &[usize], val: &Value) -> Result<(), MdhError> {
        let flat = self.shape.linearize(idx);
        self.set_flat(flat, val)
    }

    /// Write element at a flat index.
    pub fn set_flat(&mut self, flat: usize, val: &Value) -> Result<(), MdhError> {
        match (&mut self.data, val) {
            (BufferData::F32(v), Value::F32(x)) => v[flat] = *x,
            (BufferData::F64(v), Value::F64(x)) => v[flat] = *x,
            (BufferData::I32(v), Value::I32(x)) => v[flat] = *x,
            (BufferData::I64(v), Value::I64(x)) => v[flat] = *x,
            (BufferData::Bool(v), Value::Bool(x)) => v[flat] = *x,
            (BufferData::Char(v), Value::Char(x)) => v[flat] = *x,
            (BufferData::Record(rs), Value::Record(fields)) => {
                if fields.len() != rs.columns.len() {
                    return Err(MdhError::Type(format!(
                        "record value with {} fields stored into record type {} with {} fields",
                        fields.len(),
                        rs.record.name,
                        rs.columns.len()
                    )));
                }
                let field_types: Vec<FieldType> =
                    rs.record.fields.iter().map(|(_, ft)| *ft).collect();
                for ((col, fval), ft) in rs.columns.iter_mut().zip(fields).zip(field_types) {
                    match (ft, fval) {
                        (FieldType::Scalar(_), v) => col.set(flat, v)?,
                        (FieldType::Array(_, lanes), Value::Array(items)) => {
                            if items.len() != lanes {
                                return Err(MdhError::Type("array field length mismatch".into()));
                            }
                            for (l, item) in items.iter().enumerate() {
                                col.set(flat * lanes + l, item)?;
                            }
                        }
                        (FieldType::Array(..), other) => {
                            return Err(MdhError::Type(format!(
                                "expected array for array field, got {}",
                                other.kind_name()
                            )))
                        }
                    }
                }
            }
            (_, val) => {
                // numeric coercion for scalar buffers
                if let BasicType::Scalar(kind) = self.ty.clone() {
                    let coerced = val.cast(kind).ok_or_else(|| {
                        MdhError::Type(format!(
                            "cannot store {} into {kind} buffer '{}'",
                            val.kind_name(),
                            self.name
                        ))
                    })?;
                    return self.set_flat(flat, &coerced);
                }
                return Err(MdhError::Type(format!(
                    "cannot store {} into buffer '{}' of type {}",
                    val.kind_name(),
                    self.name,
                    self.ty
                )));
            }
        }
        Ok(())
    }

    /// Fill a scalar buffer from an `f64`-producing function of the flat index.
    pub fn fill_with(&mut self, f: impl Fn(usize) -> f64) {
        match &mut self.data {
            BufferData::F32(v) => v.iter_mut().enumerate().for_each(|(i, x)| *x = f(i) as f32),
            BufferData::F64(v) => v.iter_mut().enumerate().for_each(|(i, x)| *x = f(i)),
            BufferData::I32(v) => v.iter_mut().enumerate().for_each(|(i, x)| *x = f(i) as i32),
            BufferData::I64(v) => v.iter_mut().enumerate().for_each(|(i, x)| *x = f(i) as i64),
            BufferData::Bool(v) => v.iter_mut().enumerate().for_each(|(i, x)| *x = f(i) != 0.0),
            BufferData::Char(v) => v.iter_mut().enumerate().for_each(|(i, x)| *x = f(i) as u8),
            BufferData::Record(_) => panic!("fill_with is only defined for scalar buffers"),
        }
    }

    pub fn as_f32(&self) -> Option<&[f32]> {
        match &self.data {
            BufferData::F32(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f32_mut(&mut self) -> Option<&mut [f32]> {
        match &mut self.data {
            BufferData::F32(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<&[f64]> {
        match &self.data {
            BufferData::F64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64_mut(&mut self) -> Option<&mut [f64]> {
        match &mut self.data {
            BufferData::F64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<&[i64]> {
        match &self.data {
            BufferData::I64(v) => Some(v),
            _ => None,
        }
    }

    pub fn record_storage(&self) -> Option<&RecordStorage> {
        match &self.data {
            BufferData::Record(rs) => Some(rs),
            _ => None,
        }
    }

    /// `self += part`, element-wise in the buffers' own scalar type, as
    /// one [`fold_row`] of the builtin `add`: one level of the rbi
    /// partial tree and the host-side sum of adjoint parts.
    pub fn accumulate(&mut self, part: &Buffer) -> Result<(), MdhError> {
        if self.len() != part.len() {
            return Err(MdhError::Eval(format!(
                "accumulation shape mismatch: '{}' has {} elements, '{}' has {}",
                self.name,
                self.len(),
                part.name,
                part.len()
            )));
        }
        let (row, add) = (Row::along(0, 1, self.len()), Some(BuiltinReduce::Add));
        if !self.data.fold_row(&Part::Right(&part.data), &row, add) {
            return Err(MdhError::Type(format!(
                "cannot accumulate '{}' of type {} into '{}' of type {}",
                part.name, part.ty, self.name, self.ty
            )));
        }
        Ok(())
    }

    /// Approximate element-wise equality (testing helper).
    pub fn approx_eq(&self, other: &Buffer, rel_tol: f64) -> bool {
        if self.shape != other.shape || self.ty != other.ty {
            return false;
        }
        (0..self.len()).all(|i| self.get_flat(i).approx_eq(&other.get_flat(i), rel_tol))
    }
}

/// The one place storage returns to [`host_blocks`].
impl Drop for Buffer {
    fn drop(&mut self) {
        let data = std::mem::replace(&mut self.data, BufferData::Char(Vec::new()));
        host_blocks().give_back(data);
    }
}

/// FNV-1a over the raw bits of every element, little-endian, buffers in
/// order and record columns in declaration order: the one hash behind
/// every output-bits pin. Equal hashes mean bit-identical outputs — `0.0`
/// and `-0.0`, or two NaN payloads, hash apart where `==` would not tell.
pub fn bits_hash(bufs: &[Buffer]) -> u64 {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    macro_rules! eat_elems {
        ($h:expr, $data:expr, $ty:ident $(, $rest:pat => $arm:expr)?) => {
            match $data {
                $ty::F32(v) => v.iter().for_each(|x| eat($h, &x.to_bits().to_le_bytes())),
                $ty::F64(v) => v.iter().for_each(|x| eat($h, &x.to_bits().to_le_bytes())),
                $ty::I32(v) => v.iter().for_each(|x| eat($h, &x.to_le_bytes())),
                $ty::I64(v) => v.iter().for_each(|x| eat($h, &x.to_le_bytes())),
                $ty::Bool(v) => v.iter().for_each(|x| eat($h, &[*x as u8])),
                $ty::Char(v) => eat($h, v),
                $($rest => $arm,)?
            }
        };
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bufs {
        eat_elems!(&mut h, &b.data, BufferData, BufferData::Record(r) => {
            r.columns.iter().for_each(|c| eat_elems!(&mut h, c, Column))
        });
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RecordType;

    #[test]
    fn scalar_roundtrip() {
        let mut b = Buffer::zeros("w", BasicType::F32, Shape::new(vec![2, 3]));
        b.set(&[1, 2], &Value::F32(4.5)).unwrap();
        assert_eq!(b.get(&[1, 2]), Value::F32(4.5));
        assert_eq!(b.get(&[0, 0]), Value::F32(0.0));
    }

    #[test]
    fn numeric_coercion_on_store() {
        let mut b = Buffer::zeros("x", BasicType::I64, Shape::new(vec![2]));
        b.set(&[0], &Value::I32(7)).unwrap();
        assert_eq!(b.get(&[0]), Value::I64(7));
    }

    #[test]
    fn record_roundtrip_soa() {
        let rec = RecordType::new(
            "db",
            vec![
                ("id".into(), FieldType::Scalar(ScalarKind::I64)),
                ("values".into(), FieldType::Array(ScalarKind::F64, 3)),
            ],
        );
        let mut b = Buffer::zeros("probM", BasicType::Record(rec.clone()), Shape::new(vec![4]));
        let v = Value::Record(vec![
            Value::I64(42),
            Value::Array(vec![Value::F64(1.0), Value::F64(2.0), Value::F64(3.0)]),
        ]);
        b.set(&[2], &v).unwrap();
        assert_eq!(b.get(&[2]), v);
        assert_eq!(b.get(&[0]), rec.zero());
        // verify columnar layout
        let rs = b.record_storage().unwrap();
        assert_eq!(rs.columns[0].len(), 4);
        assert_eq!(rs.columns[1].len(), 12);
        assert_eq!(rs.columns[1].get_f64(2 * 3 + 1), 2.0);
    }

    #[test]
    fn record_store_wrong_arity_fails() {
        let rec = RecordType::new("r", vec![("a".into(), FieldType::Scalar(ScalarKind::F32))]);
        let mut b = Buffer::zeros("b", BasicType::Record(rec), Shape::new(vec![1]));
        let err = b.set(&[0], &Value::Record(vec![Value::F32(1.0), Value::F32(2.0)]));
        assert!(err.is_err());
    }

    #[test]
    fn fill_with_and_slices() {
        let mut b = Buffer::zeros("m", BasicType::F32, Shape::new(vec![4]));
        b.fill_with(|i| i as f64 * 2.0);
        assert_eq!(b.as_f32().unwrap(), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn approx_eq_buffers() {
        let mut a = Buffer::zeros("a", BasicType::F32, Shape::new(vec![3]));
        let mut b = Buffer::zeros("b", BasicType::F32, Shape::new(vec![3]));
        a.fill_with(|i| i as f64);
        b.fill_with(|i| i as f64 + 1e-9);
        // names differ but shape/type/content match approximately
        assert!(a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn size_bytes() {
        let b = Buffer::zeros("m", BasicType::F64, Shape::new(vec![10, 10]));
        assert_eq!(b.size_bytes(), 800);
    }

    #[test]
    fn bits_hash_tells_apart_what_equality_cannot() {
        let f64s = |x: f64, y: f64| [Buffer::from_f64("b", Shape::new(vec![2]), vec![x, y])];
        assert_ne!(bits_hash(&f64s(0.0, 1.0)), bits_hash(&f64s(-0.0, 1.0)));
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        assert_ne!(bits_hash(&f64s(nan(1), 1.0)), bits_hash(&f64s(nan(2), 1.0)));
        // the FNV-1a test vector for the single byte 'a', through a Char buffer
        let mut c = Buffer::zeros("c", BasicType::CHAR, Shape::new(vec![1]));
        c.set(&[0], &Value::Char(b'a')).unwrap();
        assert_eq!(bits_hash(&[c]), 0xaf63dc4c8601ec8c);

        // records hash column by column: a change in either field moves it
        let rec = RecordType::new(
            "r",
            vec![
                ("id".into(), FieldType::Scalar(ScalarKind::I64)),
                ("w".into(), FieldType::Array(ScalarKind::F32, 2)),
            ],
        );
        let record = |id: i64, w: f32| {
            let mut b = Buffer::zeros("r", BasicType::Record(rec.clone()), Shape::new(vec![2]));
            let v = Value::Record(vec![
                Value::I64(id),
                Value::Array(vec![Value::F32(w), Value::F32(0.0)]),
            ]);
            b.set(&[1], &v).unwrap();
            [b]
        };
        let base = bits_hash(&record(7, 0.0));
        assert_eq!(base, bits_hash(&record(7, 0.0)));
        assert_ne!(base, bits_hash(&record(8, 0.0)));
        assert_ne!(base, bits_hash(&record(7, -0.0)));
    }

    // The list tests run on their own `HostBlocks`, never the process-wide
    // one, and give back untouched `vec![0.0; n]` blocks where they can:
    // those are mapped but not resident.

    /// f64 elements in the smallest recycled block.
    const N: usize = HOST_BLOCK_MIN_BYTES / 8;

    fn f64s(n: usize) -> BufferData {
        BufferData::F64(vec![0.0; n])
    }

    fn ptr(b: &BufferData) -> usize {
        match b {
            BufferData::F64(v) => v.as_ptr() as usize,
            BufferData::I64(v) => v.as_ptr() as usize,
            _ => unreachable!("the list tests use f64 and i64 blocks"),
        }
    }

    fn counters(reuses: u64, fresh: u64, bytes_held: usize) -> (u64, u64, u64) {
        (reuses, fresh, bytes_held as u64)
    }

    #[test]
    fn a_dirtied_returned_block_comes_back_all_zero() {
        let list = HostBlocks::default();
        let mut block = list.take(ScalarKind::F64, N, true);
        let at = ptr(&block);
        if let BufferData::F64(v) = &mut block {
            v.fill(-0.0);
            v[N / 2] = f64::NAN;
        }
        list.give_back(block);
        assert_eq!(list.counters(), counters(0, 1, HOST_BLOCK_MIN_BYTES));
        let again = list.take(ScalarKind::F64, N, true);
        assert_eq!(ptr(&again), at, "the held block is the one reused");
        let BufferData::F64(v) = &again else {
            unreachable!()
        };
        assert!(
            v.iter().all(|x| x.to_bits() == 0),
            "every bit zero, -0.0 too"
        );
        assert_eq!(list.counters(), counters(1, 1, 0));
    }

    #[test]
    fn an_overwrite_take_keeps_the_given_back_values_and_zeros_clears_them() {
        fn f64s_of(b: &BufferData) -> &[f64] {
            match b {
                BufferData::F64(v) => v,
                _ => unreachable!(),
            }
        }
        let list = HostBlocks::default();
        // fresh memory is zeroed whichever take asks for it
        let mut block = list.take(ScalarKind::F64, N, false);
        assert!(f64s_of(&block).iter().all(|x| x.to_bits() == 0));
        let at = ptr(&block);
        if let BufferData::F64(v) = &mut block {
            v.iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = i as f64 - 0.5);
        }
        let given = f64s_of(&block).to_vec();
        list.give_back(block);
        let stale = list.take(ScalarKind::F64, N, false);
        assert_eq!(ptr(&stale), at, "the held block is the one reused");
        let kept = f64s_of(&stale);
        assert!(kept
            .iter()
            .zip(&given)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        list.give_back(stale);
        let zeroed = list.take(ScalarKind::F64, N, true);
        assert_eq!(ptr(&zeroed), at);
        assert!(f64s_of(&zeroed).iter().all(|x| x.to_bits() == 0));
        assert_eq!(list.counters(), counters(2, 1, 0));
    }

    #[test]
    fn a_block_of_another_kind_or_length_is_never_reused() {
        let list = HostBlocks::default();
        let held = list.take(ScalarKind::F64, N, true);
        let at = ptr(&held);
        list.give_back(held);
        // the same bytes as i64: a miss, and the f64 block of that length stays
        let other_kind = list.take(ScalarKind::I64, N, true);
        assert_ne!(ptr(&other_kind), at);
        assert_eq!(list.counters(), counters(0, 2, HOST_BLOCK_MIN_BYTES));
        let other_len = list.take(ScalarKind::F64, N + 1, true);
        assert!(matches!(&other_len, BufferData::F64(v) if v.len() == N + 1));
        assert_eq!(list.counters(), counters(0, 3, HOST_BLOCK_MIN_BYTES));
    }

    #[test]
    fn records_and_blocks_below_the_floor_are_never_pooled() {
        let list = HostBlocks::default();
        let rec = RecordType::new("r", vec![("x".into(), FieldType::Scalar(ScalarKind::F64))]);
        list.give_back(BufferData::Record(RecordStorage {
            record: rec,
            columns: vec![Column::F64(vec![0.0; 2 * N])],
        }));
        list.give_back(f64s(N - 1));
        list.give_back(BufferData::Char(vec![0; HOST_BLOCK_MIN_BYTES - 1]));
        let small = list.take(ScalarKind::F64, N - 1, true);
        assert_eq!(small.scalar_len(), Some((ScalarKind::F64, N - 1)));
        assert_eq!(
            list.counters(),
            counters(0, 0, 0),
            "small takes are not counted"
        );
    }

    #[test]
    fn held_bytes_stay_under_the_cap() {
        // a calloc'd block this large is mapped but never resident
        let big_bytes = HOST_HELD_MAX_BYTES - HOST_BLOCK_MIN_BYTES;
        let list = HostBlocks::default();
        let big = list.take(ScalarKind::Char, big_bytes, true);
        let (a, b) = (
            list.take(ScalarKind::F64, N, true),
            list.take(ScalarKind::F64, N, true),
        );
        let mut given = [ptr(&a), ptr(&b)];
        list.give_back(big);
        list.give_back(a);
        assert_eq!(list.counters(), counters(0, 3, HOST_HELD_MAX_BYTES));
        // one block more does not fit: the oldest held one is freed for it
        list.give_back(b);
        assert_eq!(list.counters(), counters(0, 3, 2 * HOST_BLOCK_MIN_BYTES));
        let again = [
            list.take(ScalarKind::F64, N, true),
            list.take(ScalarKind::F64, N, true),
        ];
        let mut taken = again.each_ref().map(ptr);
        given.sort();
        taken.sort();
        assert_eq!(taken, given, "both small blocks were held");
        // a block larger than the cap is freed whole, not held
        let huge = list.take(ScalarKind::Char, HOST_HELD_MAX_BYTES + 1, true);
        list.give_back(huge);
        assert_eq!(list.counters(), counters(2, 4, 0));
    }

    #[test]
    fn a_held_block_survives_misses_of_other_lengths() {
        let list = HostBlocks::default();
        let block = list.take(ScalarKind::F64, N, true);
        let at = ptr(&block);
        list.give_back(block);
        let _misses = [
            list.take(ScalarKind::I64, N, true),
            list.take(ScalarKind::F64, N + 1, true),
            list.take(ScalarKind::F64, 4 * N, true),
        ];
        assert_eq!(list.counters(), counters(0, 4, HOST_BLOCK_MIN_BYTES));
        assert_eq!(ptr(&list.take(ScalarKind::F64, N, true)), at);
        assert_eq!(list.counters(), counters(1, 4, 0));
    }

    #[test]
    fn a_block_dropped_on_another_thread_is_held() {
        let list = HostBlocks::default();
        let block = std::thread::scope(|s| {
            s.spawn(|| list.take(ScalarKind::F64, N, true))
                .join()
                .unwrap()
        });
        let at = ptr(&block);
        std::thread::scope(|s| s.spawn(|| list.give_back(block)).join().unwrap());
        assert_eq!(list.counters(), counters(0, 1, HOST_BLOCK_MIN_BYTES));
        assert_eq!(ptr(&list.take(ScalarKind::F64, N, true)), at);
    }

    #[test]
    fn a_give_back_of_a_length_never_lent_is_freed() {
        let list = HostBlocks::default();
        list.give_back(f64s(N));
        assert_eq!(list.counters(), counters(0, 0, 0));
        // a copy of a lent block was not lent: one of the two is held
        let lent = list.take(ScalarKind::F64, N, true);
        list.give_back(lent.clone());
        list.give_back(lent);
        assert_eq!(list.counters(), counters(0, 1, HOST_BLOCK_MIN_BYTES));
    }

    #[test]
    fn the_lent_table_forgets_a_length_once_none_of_it_is_out() {
        let list = HostBlocks::default();
        let lent = |list: &HostBlocks| list.lock().lent.clone();
        let out: Vec<_> = (1..=3)
            .map(|k| list.take(ScalarKind::F64, k * N, true))
            .collect();
        let twice = list.take(ScalarKind::F64, N, true);
        assert_eq!(lent(&list).len(), 3);
        out.into_iter().for_each(|b| list.give_back(b));
        assert_eq!(lent(&list), [((ScalarKind::F64, N), 1)]);
        list.give_back(twice);
        assert_eq!(lent(&list), []);
        // held blocks taken and given back again leave no entry either
        for _ in 0..3 {
            let b = list.take(ScalarKind::F64, 2 * N, true);
            list.give_back(b);
        }
        assert_eq!(lent(&list), []);
        assert_eq!(list.counters(), counters(3, 4, 7 * HOST_BLOCK_MIN_BYTES));
    }

    #[test]
    fn concurrent_takers_never_share_a_block() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        let list = HostBlocks::default();
        let live = Mutex::new(HashSet::new());
        // every round, all four threads hold a block at once
        let all_hold = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let (list, live, all_hold) = (&list, &live, &all_hold);
                s.spawn(move || {
                    for round in 0..8 {
                        let mut block = list.take(ScalarKind::F64, N, true);
                        let at = ptr(&block);
                        assert!(live.lock().unwrap().insert(at), "{at:#x} handed out twice");
                        let BufferData::F64(v) = &mut block else {
                            unreachable!()
                        };
                        let mark = f64::from(t) * 100.0 + f64::from(round);
                        assert_eq!((v[0], v[N - 1]), (0.0, 0.0));
                        (v[0], v[N - 1]) = (mark, mark);
                        all_hold.wait();
                        assert_eq!((v[0], v[N - 1]), (mark, mark), "written by another owner");
                        live.lock().unwrap().remove(&at);
                        list.give_back(block);
                    }
                });
            }
        });
        // four blocks for the first round; after it, a taker always finds
        // one that it or another thread gave back
        let want = counters(28, 4, 4 * HOST_BLOCK_MIN_BYTES);
        assert_eq!(list.counters(), want);
    }
}
