//! Decomposition of a scheduled program into an execution plan.
//!
//! The (de)composition rules of the MDH formalism let us partition the
//! iteration space into rectangular chunks, evaluate each chunk
//! independently, and recombine partial results with the per-dimension
//! combine operators. [`ExecutionPlan`] materialises that partitioning for
//! a given [`Schedule`]: the task ranges, and which tasks' partial results
//! must be combined along which dimensions.

use crate::schedule::Schedule;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::shape::{MdRange, Shape};

/// One parallel task: a rectangular chunk of the iteration space.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    pub id: usize,
    /// Chunk coordinate per dimension (which chunk of that dim).
    pub chunk_coord: Vec<usize>,
    pub range: MdRange,
}

/// A group of tasks whose partial results must be combined: they agree on
/// every non-split dimension's chunk and differ only along split
/// (partitioned reduction) dimensions. Task ids are ordered row-major by
/// split-dimension coordinates, which is the order scan (`ps`) combining
/// requires.
#[derive(Debug, Clone, PartialEq)]
pub struct CombineGroup {
    pub task_ids: Vec<usize>,
}

/// The materialised plan for one (program, schedule) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    pub tasks: Vec<Task>,
    /// Reduction dimensions that are split across tasks (in ascending
    /// order). Empty when every task owns a disjoint output region.
    pub split_dims: Vec<usize>,
    /// Combine groups (one per distinct non-split chunk coordinate): every
    /// task is in exactly one.
    pub groups: Vec<CombineGroup>,
}

/// Split `size` into `chunks` contiguous intervals as evenly as possible.
pub fn split_even(size: usize, chunks: usize) -> Vec<(usize, usize)> {
    assert!(chunks >= 1);
    let chunks = chunks.min(size.max(1));
    let base = size / chunks;
    let rem = size % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut lo = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < rem);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

impl ExecutionPlan {
    /// Build the plan from a validated schedule.
    pub fn build(prog: &DslProgram, schedule: &Schedule) -> Result<ExecutionPlan> {
        let rank = prog.rank();
        if schedule.par_chunks.len() != rank {
            return Err(MdhError::Validation(
                "schedule rank does not match program".into(),
            ));
        }
        let sizes = &prog.md_hom.sizes;
        // per-dim chunk intervals
        let intervals: Vec<Vec<(usize, usize)>> = (0..rank)
            .map(|d| split_even(sizes[d], schedule.par_chunks[d]))
            .collect();
        let chunk_counts: Vec<usize> = intervals.iter().map(|iv| iv.len()).collect();
        let chunk_grid = Shape::new(chunk_counts.clone());

        let mut tasks = Vec::with_capacity(chunk_grid.len());
        for coord in chunk_grid.iter() {
            let lo: Vec<usize> = coord
                .iter()
                .enumerate()
                .map(|(d, &c)| intervals[d][c].0)
                .collect();
            let hi: Vec<usize> = coord
                .iter()
                .enumerate()
                .map(|(d, &c)| intervals[d][c].1)
                .collect();
            tasks.push(Task {
                id: tasks.len(),
                chunk_coord: coord,
                range: MdRange::new(lo, hi),
            });
        }

        // which reduction dims are split?
        let reduction_dims = prog.md_hom.reduction_dims();
        let split_dims: Vec<usize> = reduction_dims
            .into_iter()
            .filter(|&d| chunk_counts[d] > 1)
            .collect();

        // group by non-split coordinates: without a split every task is a
        // group of its own
        let key_dims: Vec<usize> = (0..rank).filter(|d| !split_dims.contains(d)).collect();
        let key_shape = Shape::new(
            key_dims
                .iter()
                .map(|&d| chunk_counts[d])
                .collect::<Vec<_>>(),
        );
        let split_shape: Vec<usize> = split_dims.iter().map(|&d| chunk_counts[d]).collect();
        let split_grid = Shape::new(split_shape);
        let mut groups: Vec<CombineGroup> = (0..key_shape.len())
            .map(|_| CombineGroup {
                task_ids: vec![usize::MAX; split_grid.len()],
            })
            .collect();
        for t in &tasks {
            let key: Vec<usize> = key_dims.iter().map(|&d| t.chunk_coord[d]).collect();
            let split_coord: Vec<usize> = split_dims.iter().map(|&d| t.chunk_coord[d]).collect();
            let g = key_shape.linearize(&key);
            let s = split_grid.linearize(&split_coord);
            groups[g].task_ids[s] = t.id;
        }
        debug_assert!(groups
            .iter()
            .all(|g| g.task_ids.iter().all(|&t| t != usize::MAX)));

        Ok(ExecutionPlan {
            tasks,
            split_dims,
            groups,
        })
    }

    /// `partials` — one per task, by task id — taken group by group, each
    /// group's owner (its first task) first and its members after it in
    /// task-id order: the one order every split reduction recombines in,
    /// whatever combines the partials.
    pub fn grouped<P>(&self, partials: Vec<P>) -> Result<Vec<Vec<(usize, P)>>> {
        let mut partials: Vec<Option<P>> = partials.into_iter().map(Some).collect();
        let mut take = |tid: usize| {
            let partial = partials.get_mut(tid).and_then(Option::take);
            let missing = || MdhError::Eval(format!("task {tid} is in no group or two"));
            partial.map(|p| (tid, p)).ok_or_else(missing)
        };
        (self.groups.iter())
            .map(|g| g.task_ids.iter().map(|&tid| take(tid)).collect())
            .collect()
    }

    /// Total number of iteration points covered (must equal the program's).
    pub fn covered_points(&self) -> usize {
        self.tasks.iter().map(|t| t.range.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::DeviceKind;
    use crate::schedule::ReductionStrategy;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::expr::ScalarFunction;
    use mdh_core::index_fn::IndexFn;
    use mdh_core::types::{BasicType, ScalarKind};

    fn matvec(i: usize, k: usize) -> DslProgram {
        DslBuilder::new("matvec", vec![i, k])
            .out_buffer("w", BasicType::F32)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F32)
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F32)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    #[test]
    fn split_even_covers() {
        assert_eq!(split_even(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(split_even(4, 8), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(split_even(6, 1), vec![(0, 6)]);
    }

    #[test]
    fn plan_without_reduction_split() {
        let p = matvec(16, 8);
        let mut s = Schedule::sequential(2, DeviceKind::Cpu);
        s.par_chunks = vec![4, 1];
        let plan = ExecutionPlan::build(&p, &s).unwrap();
        assert_eq!(plan.tasks.len(), 4);
        assert!(plan.split_dims.is_empty());
        assert_eq!(plan.groups.len(), 4, "one task per group");
        assert_eq!(plan.covered_points(), 16 * 8);
    }

    #[test]
    fn plan_with_split_reduction() {
        let p = matvec(16, 8);
        let mut s = Schedule::sequential(2, DeviceKind::Cpu);
        s.par_chunks = vec![2, 4];
        s.reduction = ReductionStrategy::Tree;
        let plan = ExecutionPlan::build(&p, &s).unwrap();
        assert_eq!(plan.tasks.len(), 8);
        assert_eq!(plan.split_dims, vec![1]);
        assert_eq!(plan.groups.len(), 2, "one group per i-chunk");
        for g in &plan.groups {
            assert_eq!(g.task_ids.len(), 4);
            // ordered by k-chunk: ranges must be ascending in k
            let mut last_hi = 0;
            for &tid in &g.task_ids {
                let r = &plan.tasks[tid].range;
                assert_eq!(r.lo[1], last_hi);
                last_hi = r.hi[1];
            }
        }
    }

    #[test]
    fn plan_chunks_capped_by_size() {
        let p = matvec(3, 2);
        let mut s = Schedule::sequential(2, DeviceKind::Cpu);
        s.par_chunks = vec![3, 2];
        s.reduction = ReductionStrategy::Tree;
        let plan = ExecutionPlan::build(&p, &s).unwrap();
        assert_eq!(plan.covered_points(), 6);
        assert_eq!(plan.tasks.len(), 6);
    }

    #[test]
    fn multi_split_dims_grid() {
        // 3D program, both k-like dims reduced and split
        let p = DslBuilder::new("t3", vec![4, 6, 8])
            .out_buffer("o", BasicType::F64)
            .out_access("o", IndexFn::select(3, &[0]))
            .inp_buffer("a", BasicType::F64)
            .inp_access("a", IndexFn::identity(3, 3))
            .inp_buffer("b", BasicType::F64)
            .inp_access("b", IndexFn::select(3, &[1, 2]))
            .scalar_function(ScalarFunction::mul2("f", ScalarKind::F64))
            .combine_ops(vec![
                CombineOp::cc(),
                CombineOp::pw_add(),
                CombineOp::pw_add(),
            ])
            .build()
            .unwrap();
        let mut s = Schedule::sequential(3, DeviceKind::Cpu);
        s.par_chunks = vec![2, 3, 2];
        s.reduction = ReductionStrategy::Tree;
        let plan = ExecutionPlan::build(&p, &s).unwrap();
        assert_eq!(plan.split_dims, vec![1, 2]);
        assert_eq!(plan.groups.len(), 2);
        // a 3 x 2 grid of split chunks, row-major: the second split dim
        // fastest
        let split_coords: Vec<(usize, usize)> = (plan.groups[0].task_ids.iter())
            .map(|&t| (plan.tasks[t].chunk_coord[1], plan.tasks[t].chunk_coord[2]))
            .collect();
        assert_eq!(
            split_coords,
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        );
    }
}
