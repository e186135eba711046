//! A launch and its answer: what a caller hands [`Runtime::submit`] and
//! what it waits for — and the gradient round trip, whose submission and
//! whose wait agree on where each adjoint part's gradient goes.

use crate::plan_cache::PlanSource;
use crate::runtime::Runtime;
use crate::sync::lock;
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_lowering::asm::DeviceKind;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// A request's operand set: one immutable allocation, shared by every
/// launch that reads it. Operands are never written after submission
/// (every executor takes `&[Buffer]`), so a launch acquires them by
/// cloning this handle, never the buffers.
pub type Operands = Arc<Vec<Buffer>>;

/// One kernel launch.
#[derive(Debug, Clone)]
pub struct Request {
    pub prog: DslProgram,
    pub device: DeviceKind,
    pub inputs: Operands,
    /// Serve-by deadline. A request that expires while queued is
    /// answered `err deadline exceeded` without executing; an expired
    /// deadline is also checked immediately before execution. Execution
    /// itself is not aborted mid-flight.
    pub deadline: Option<Instant>,
    /// Fair-queueing tenant this request is billed to. `None` joins the
    /// `DEFAULT_TENANT`. Each tenant has its own FIFO under the
    /// deficit-round-robin scheduler and its own admission quota
    /// (`RuntimeConfig::tenant_quota`), so one flooding tenant sheds
    /// while the others keep their dispatch share.
    pub tenant: Option<String>,
}

impl Request {
    /// `inputs` is a `Vec<Buffer>` (wrapped, not copied) or an
    /// [`Operands`] handle another launch already holds.
    pub fn new(prog: DslProgram, device: DeviceKind, inputs: impl Into<Operands>) -> Request {
        Request {
            prog,
            device,
            inputs: inputs.into(),
            deadline: None,
            tenant: None,
        }
    }

    /// Attach an absolute serve-by deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Bill this request to the named fair-queueing tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Request {
        self.tenant = Some(tenant.into());
        self
    }
}

/// What the runtime answers.
#[derive(Debug, Clone)]
pub struct Response {
    pub outputs: Vec<Buffer>,
    /// Whether this request's plan lookup hit the cache.
    pub cache_hit: bool,
    pub plan_source: PlanSource,
    /// Always 0, since a cached plan never changes (the wire's `epoch=`
    /// token). Kept because the benchmark prints it; a benchmark change
    /// can drop it.
    pub plan_epoch: u64,
    /// Requests served together with this one (≥ 1).
    pub batch_size: usize,
    /// Execution time: wall-clock ms on CPU, simulated ms on GPU.
    pub exec_ms: f64,
    /// GPU host↔device transfer ms for this launch (0 when the region
    /// was already resident, and always 0 on CPU).
    pub transfer_ms: f64,
    /// End-to-end latency (submit → reply), ms.
    pub total_ms: f64,
}

/// Awaitable reply to one submitted request.
pub struct Handle {
    pub(crate) rx: mpsc::Receiver<Result<Response>>,
}

impl Handle {
    /// Block until the runtime answers.
    pub fn wait(self) -> Result<Response> {
        self.rx.recv().map_err(|_| {
            MdhError::Validation("runtime shut down before the request was served".into())
        })?
    }
}

/// Reply to a gradient round trip: the forward value plus one gradient
/// buffer per differentiated input.
#[derive(Debug, Clone)]
pub struct GradResponse {
    pub forward: Response,
    /// `(forward input index, accumulated gradient)` in `wrt` order.
    pub gradients: Vec<(usize, Buffer)>,
    /// Adjoint programs executed for this round trip.
    pub parts: usize,
}

/// Awaitable reply to [`Runtime::submit_grad`]: the forward request and
/// every adjoint part are in flight concurrently (the adjoints need only
/// the cotangent, not the forward value).
pub struct GradHandle {
    pub(crate) forward: Handle,
    /// Each adjoint part's in-flight launch, with the position in `accs`
    /// of the gradient it adds to.
    pub(crate) parts: Vec<(usize, Handle)>,
    pub(crate) accs: Vec<(usize, Buffer)>,
}

impl Runtime {
    /// Submit a gradient round trip: the forward launch plus one launch
    /// per AD-emitted adjoint part, all through the ordinary [`submit`]
    /// path — so every sub-request individually passes admission control,
    /// carries the same serve-by deadline, shares the plan cache, and
    /// counts against its plan key's circuit breaker. Gradients are taken
    /// with respect to `wrt` (default: every float-typed input); the
    /// cotangent defaults to all-ones (`∂Σy/∂y`).
    ///
    /// [`submit`]: Runtime::submit
    pub fn submit_grad(
        &self,
        req: Request,
        wrt: Option<&[usize]>,
        cotangent: Option<Buffer>,
    ) -> Result<GradHandle> {
        let gp = match wrt {
            Some(w) => mdh_ad::grad(&req.prog, w)?,
            None => mdh_ad::grad_all(&req.prog)?,
        };
        let cot = match cotangent {
            Some(c) => c,
            None => {
                let shape = req.prog.output_shapes()?.remove(0);
                let decl = &req.prog.out_view.buffers[0];
                let mut ones = Buffer::zeros(
                    format!("{}_bar", decl.name),
                    decl.ty.clone(),
                    mdh_core::shape::Shape::new(shape),
                );
                ones.fill_with(|_| 1.0);
                ones
            }
        };
        let accs: Vec<(usize, Buffer)> = gp
            .wrt
            .iter()
            .map(|&w| Ok((w, mdh_ad::zero_grad(&gp.forward, w)?)))
            .collect::<Result<_>>()?;
        lock(&self.shared.counters).grad_requests += 1;
        // the forward launch takes the caller's request as it is and runs
        // while the parts' inputs are built from the operands it shares
        let (device, deadline) = (req.device, req.deadline);
        let operands = Arc::clone(&req.inputs);
        let forward = self.submit(req);
        let mut parts = Vec::with_capacity(gp.parts.len());
        for part in &gp.parts {
            // the gradient this part adds into
            let slot = gp.wrt.iter().position(|&w| w == part.wrt);
            let slot = slot.ok_or_else(|| {
                MdhError::Validation(format!("adjoint part for unrequested input {}", part.wrt))
            })?;
            let inputs = mdh_ad::part_inputs(part, &cot, &operands);
            let mut sub = Request::new(part.program.clone(), device, inputs);
            sub.deadline = deadline;
            parts.push((slot, self.submit(sub)));
        }
        Ok(GradHandle {
            forward,
            parts,
            accs,
        })
    }
}

impl GradHandle {
    /// Block until the forward value and every gradient arrived. Any
    /// sub-request error (deadline, shed, breaker, panic) fails the whole
    /// round trip with that error.
    pub fn wait(self) -> Result<GradResponse> {
        let forward = self.forward.wait()?;
        let mut gradients = self.accs;
        let parts = self.parts.len();
        for (slot, h) in self.parts {
            let resp = h.wait()?;
            mdh_ad::accumulate(&mut gradients[slot].1, &resp.outputs[0])?;
        }
        Ok(GradResponse {
            forward,
            gradients,
            parts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use crate::testing::dot;

    #[test]
    fn request_new_wraps_a_vec_and_shares_a_handle() {
        let (prog, inputs) = dot();
        let data = inputs[0].as_f32().unwrap().as_ptr();
        // a Vec is moved into the handle: same buffers, nobody else holds it
        let req = Request::new(prog.clone(), DeviceKind::Cpu, inputs);
        assert_eq!(req.inputs[0].as_f32().unwrap().as_ptr(), data);
        assert_eq!(Arc::strong_count(&req.inputs), 1);
        // a handle is shared, not copied
        let again = Request::new(prog, DeviceKind::Cpu, Arc::clone(&req.inputs));
        assert!(Arc::ptr_eq(&again.inputs, &req.inputs));
        assert!(Arc::ptr_eq(&again.clone().inputs, &req.inputs));
    }

    /// A batch whose plan cannot be built is answered with the build's own
    /// error, variant and text, not a re-wrapped `validation error: ...`.
    #[test]
    fn a_failed_plan_build_answers_the_validation_error_itself() {
        let (mut prog, inputs) = dot();
        // `y` is read at 0..64; a declared extent of 32 fails validation
        prog.inp_view.buffers[1].declared_shape = Some(vec![32]);
        let want = prog.validate().unwrap_err();
        assert!(matches!(want, MdhError::Validation(_)), "{want:?}");
        let rt = Runtime::new(RuntimeConfig::default()).unwrap();
        let handles: Vec<_> = (0..3)
            .map(|_| rt.submit(Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone())))
            .collect();
        for h in handles {
            let got = h.wait().unwrap_err();
            assert!(matches!(got, MdhError::Validation(_)), "{got:?}");
            assert_eq!(got.to_string(), want.to_string());
        }
    }

    #[test]
    fn submit_grad_forward_launch_shares_the_callers_operands() {
        let (prog, inputs) = dot();
        let mut rt = Runtime::new(RuntimeConfig {
            workers: 2,
            exec_threads: 2,
            ..RuntimeConfig::default()
        })
        .unwrap();
        let operands: Operands = Arc::new(inputs);
        let req = Request::new(prog, DeviceKind::Cpu, Arc::clone(&operands));
        let handle = {
            // every job looks its plan up before it executes, so while this
            // guard is held none can finish and drop its request
            let _no_lookups = lock(&rt.shared.plans);
            let handle = rt.submit_grad(req, None, None).unwrap();
            // ours and the forward job's; the two adjoint parts carry
            // vectors of their own (`mdh_ad::part_inputs`)
            assert_eq!(Arc::strong_count(&operands), 2);
            handle
        };
        let resp = handle.wait().unwrap();
        assert_eq!(resp.parts, 2);
        rt.shutdown();
        assert_eq!(Arc::strong_count(&operands), 1);
    }
}
