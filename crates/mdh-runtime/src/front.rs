//! The serving front: the front-end memo.

use crate::protocol::{check_operand_bytes, deterministic_inputs, Submit};
use crate::request::Operands;
use crate::sync::lock;
use mdh_core::dsl::DslProgram;
use mdh_directive::compile_any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Most front-end memo entries a server retains. A serving fleet sees a
/// small working set of distinct (source, bindings) pairs; when the memo
/// overflows it is simply cleared — correctness never depends on a hit.
const FRONTEND_MEMO_CAP: usize = 64;

/// Bounded memo for front-end compilation on the serving edge. A
/// pipelined connection re-sends the same directive source on every
/// frame, and re-parsing and re-lowering it per frame would dominate
/// service time for small requests — the runtime's plan cache only
/// amortises *scheduling*, not the front end. Keyed by the source text
/// plus the sorted size bindings, which are exactly the
/// [`mdh_directive::DirectiveEnv`] the frame compiles under
/// ([`Submit::parse`] refuses a repeated name). An entry holds the
/// compiled program and its deterministic operands behind the one
/// [`Operands`] handle every launch of that (source, bindings) shares —
/// a `count=N` SUBMIT and a `PIPE` burst read the same allocation.
type MemoKey = (String, Vec<(String, i64)>);

pub(crate) struct Compiled {
    pub(crate) prog: DslProgram,
    pub(crate) inputs: Operands,
}

#[derive(Default)]
pub(crate) struct FrontendMemo {
    entries: Mutex<HashMap<MemoKey, Arc<Compiled>>>,
}

impl FrontendMemo {
    /// The program and operands of `src` under `submit`'s bindings. The
    /// frame's own body becomes the key, so a hit copies no source.
    pub(crate) fn compile(
        &self,
        src: String,
        submit: &Submit,
    ) -> std::result::Result<Arc<Compiled>, String> {
        let mut bindings = submit.header.opts.bindings.clone();
        bindings.sort();
        let key = (src, bindings);
        if let Some(hit) = lock(&self.entries).get(&key) {
            return Ok(Arc::clone(hit));
        }
        // compile outside the lock: a miss is the slow path, and one
        // confused client must not serialise every other connection
        // ... and under `catch_unwind`: this is the code client bytes reach
        // first, on the connection's own thread — a front-end bug must cost
        // that client one `err` line, never the reply. The closure only
        // reads its captures and builds a fresh value, so observing them
        // after an unwind is sound.
        let front_end = std::panic::AssertUnwindSafe(|| {
            let prog = compile_any(&key.0, &submit.env).map_err(|e| e.to_string())?;
            check_operand_bytes(&prog).map_err(|e| e.to_string())?;
            let inputs = deterministic_inputs(&prog).map_err(|e| e.to_string())?;
            Ok((prog, inputs))
        });
        let (prog, inputs) = std::panic::catch_unwind(front_end)
            .unwrap_or_else(|_| Err("internal: front end panicked".to_string()))?;
        let compiled = Arc::new(Compiled {
            prog,
            inputs: Arc::new(inputs),
        });
        let mut entries = lock(&self.entries);
        if entries.len() >= FRONTEND_MEMO_CAP {
            entries.clear();
        }
        entries.insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::DOT;

    fn submit(bindings: &str) -> std::result::Result<Submit, String> {
        let header = format!("SUBMIT cpu 1 {} {bindings}", DOT.len());
        Submit::parse(&header.split_whitespace().collect::<Vec<_>>(), false)
    }

    #[test]
    fn memo_keys_on_the_source_text() {
        const SCALED: &str = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def scaled(y, x):
    for k in range(N):
        y[k] = 0.5 * x[k]
";
        let memo = FrontendMemo::default();
        let n64 = submit("N=64").unwrap();
        // two sources under one binding set: two programs
        let dot = memo.compile(DOT.into(), &n64).unwrap();
        let scaled = memo.compile(SCALED.into(), &n64).unwrap();
        assert_eq!((dot.prog.name.as_str(), dot.inputs.len()), ("dot", 2));
        assert_eq!(
            (scaled.prog.name.as_str(), scaled.inputs.len()),
            ("scaled", 1)
        );
        // the same text again is a hit
        assert!(Arc::ptr_eq(&memo.compile(DOT.into(), &n64).unwrap(), &dot));
        assert_eq!(lock(&memo.entries).len(), 2);
    }

    #[test]
    fn a_repeated_size_name_is_refused_in_either_order() {
        // both orders sort to one memo key, while the env keeps the last
        // value: the second would be answered with the first's program
        for twice in ["N=64,N=128", "N=128,N=64", "N=64 N=128"] {
            let err = submit(twice).err();
            assert_eq!(err.as_deref(), Some("duplicate binding 'N'"), "{twice}");
        }
        // each size on its own gets its own operands, whichever runs first
        for order in [[64, 128], [128, 64]] {
            let memo = FrontendMemo::default();
            for n in order {
                let n_only = submit(&format!("N={n}")).unwrap();
                let entry = memo.compile(DOT.into(), &n_only).unwrap();
                let shapes: Vec<&[usize]> = entry.inputs.iter().map(|b| b.shape.dims()).collect();
                assert_eq!(shapes, [[n], [n]], "{order:?}");
            }
        }
    }
}
